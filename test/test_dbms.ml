(* Tests for the transactional resource manager and the database server
   process: XA semantics, locking, durability, recovery, and the
   concurrency races between the vote/decide/exec paths. *)

open Dbms
module Rt = Runtime.Etx_runtime

(* Run [f] inside a single-fiber simulation. Most RM entry points charge
   virtual time and therefore must run inside a fiber. *)
let in_sim f =
  let t = Dsim.Engine.create () in
  let result = ref None in
  let _ =
    Dsim.Engine.spawn t ~name:"p" ~main:(fun ~recovery:_ () ->
        result := Some (f t))
  in
  ignore (Dsim.Engine.run t);
  match !result with Some r -> r | None -> Alcotest.fail "fiber did not run"

let fresh_rm ?(timing = Rm.zero_timing) ?(seed_data = []) ?(force_latency = 1.)
    () =
  let disk = Dstore.Disk.create ~force_latency ~label:"log" () in
  Rm.create ~timing ~seed_data ~disk ~name:"db-test" ()

let xid ?(rid = 1) j = Xid.make ~rid ~j

let exec_ok = function
  | Rm.Exec_ok { business_ok; _ } -> business_ok
  | Rm.Exec_conflict _ -> Alcotest.fail "unexpected conflict"
  | Rm.Exec_rejected -> Alcotest.fail "unexpected rejection"

let phase_str rm x =
  match Rm.phase_of rm x with
  | None -> "?"
  | Some Rm.Active -> "active"
  | Some Rm.Prepared -> "prepared"
  | Some Rm.Committed -> "committed"
  | Some Rm.Aborted -> "aborted"

(* ------------------------------------------------------------------ *)
(* exec semantics *)

let test_exec_put_get () =
  in_sim (fun _ ->
      let rm = fresh_rm () in
      let x = xid 1 in
      Rm.xa_start rm ~xid:x;
      (match Rm.exec rm ~xid:x [ Rm.Put ("k", Value.Int 5); Rm.Get "k" ] with
      | Rm.Exec_ok { values = [ Some (Value.Int 5) ]; business_ok = true } -> ()
      | _ -> Alcotest.fail "put/get inside workspace");
      (* not committed yet *)
      Alcotest.(check (option bool)) "not visible before commit" None
        (Option.map (fun _ -> true) (Rm.read_committed rm "k")))

let test_exec_add_semantics () =
  in_sim (fun _ ->
      let rm = fresh_rm ~seed_data:[ ("n", Value.Int 10) ] () in
      let x = xid 1 in
      Rm.xa_start rm ~xid:x;
      ignore (Rm.exec rm ~xid:x [ Rm.Add ("n", 5); Rm.Add ("n", 3) ]);
      (match Rm.exec rm ~xid:x [ Rm.Get "n" ] with
      | Rm.Exec_ok { values = [ Some (Value.Int 18) ]; _ } -> ()
      | _ -> Alcotest.fail "adds accumulate in workspace");
      (* Add on a missing key starts from zero *)
      ignore (Rm.exec rm ~xid:x [ Rm.Add ("fresh", 7) ]);
      match Rm.exec rm ~xid:x [ Rm.Get "fresh" ] with
      | Rm.Exec_ok { values = [ Some (Value.Int 7) ]; _ } -> ()
      | _ -> Alcotest.fail "add on missing key")

let test_exec_guard_pass_and_fail () =
  in_sim (fun _ ->
      let rm = fresh_rm ~seed_data:[ ("bal", Value.Int 50) ] () in
      let x1 = xid 1 in
      Rm.xa_start rm ~xid:x1;
      Alcotest.(check bool) "guard passes" true
        (exec_ok (Rm.exec rm ~xid:x1 [ Rm.Ensure_min ("bal", 50) ]));
      let x2 = xid 2 in
      Rm.xa_start rm ~xid:x2;
      Alcotest.(check bool) "guard fails" false
        (exec_ok (Rm.exec rm ~xid:x2 [ Rm.Ensure_min ("bal", 51) ]));
      (* the poisoned transaction votes no *)
      Alcotest.(check bool) "poisoned votes no" true
        (Rm.vote rm ~xid:x2 = Rm.No))

(* Regression: a redelivered exec batch (at-least-once delivery across a
   database recovery) must not apply its relative updates twice. The first
   delivery of a seq executes; a duplicate replays the recorded reply; a
   fresh seq (a conflict retry) executes anew. *)
let test_exec_dedup_replays_duplicates () =
  in_sim (fun _ ->
      let rm = fresh_rm ~seed_data:[ ("n", Value.Int 100) ] () in
      let x = xid 1 in
      Rm.xa_start rm ~xid:x;
      let ops = [ Rm.Add ("n", 7); Rm.Get "n" ] in
      let first =
        match Rm.exec_dedup rm ~seq:0 ~xid:x ops with
        | Some (Rm.Exec_ok { values = [ Some (Value.Int v) ]; _ }) -> v
        | _ -> Alcotest.fail "first delivery executes"
      in
      Alcotest.(check int) "first applies once" 107 first;
      (* duplicate delivery of the same seq: replayed, not re-executed *)
      (match Rm.exec_dedup rm ~seq:0 ~xid:x ops with
      | Some (Rm.Exec_ok { values = [ Some (Value.Int v) ]; _ }) ->
          Alcotest.(check int) "duplicate replays the recorded reply" 107 v
      | _ -> Alcotest.fail "duplicate must replay");
      (* a fresh seq is a new attempt and executes *)
      (match Rm.exec_dedup rm ~seq:1 ~xid:x [ Rm.Get "n" ] with
      | Some (Rm.Exec_ok { values = [ Some (Value.Int v) ]; _ }) ->
          Alcotest.(check int) "fresh seq re-executes" 107 v
      | _ -> Alcotest.fail "fresh seq executes");
      (* the workspace holds exactly one Add despite the duplicate *)
      Alcotest.(check bool) "vote yes" true (Rm.vote rm ~xid:x = Rm.Yes);
      (match Rm.decide rm ~xid:x Rm.Commit with
      | Rm.Commit -> ()
      | Rm.Abort -> Alcotest.fail "commit");
      match Rm.read_committed rm "n" with
      | Some (Value.Int 107) -> ()
      | _ -> Alcotest.fail "committed value applied exactly once")

let test_exec_dedup_unknown_rejected () =
  in_sim (fun _ ->
      let rm = fresh_rm () in
      match Rm.exec_dedup rm ~seq:0 ~xid:(xid 9) [ Rm.Get "k" ] with
      | Some Rm.Exec_rejected -> ()
      | _ -> Alcotest.fail "unknown transaction must be rejected")

let test_exec_fail_op_poisons () =
  in_sim (fun _ ->
      let rm = fresh_rm () in
      let x = xid 1 in
      Rm.xa_start rm ~xid:x;
      Alcotest.(check bool) "fail op" false
        (exec_ok (Rm.exec rm ~xid:x [ Rm.Fail ]));
      Alcotest.(check bool) "votes no" true (Rm.vote rm ~xid:x = Rm.No))

let test_exec_type_mismatch_poisons () =
  in_sim (fun _ ->
      let rm = fresh_rm ~seed_data:[ ("s", Value.Str "hello") ] () in
      let x = xid 1 in
      Rm.xa_start rm ~xid:x;
      Alcotest.(check bool) "add on string" false
        (exec_ok (Rm.exec rm ~xid:x [ Rm.Add ("s", 1) ])))

let test_exec_requires_xa_start () =
  in_sim (fun _ ->
      let rm = fresh_rm () in
      match Rm.exec rm ~xid:(xid 1) [ Rm.Get "k" ] with
      | Rm.Exec_rejected -> ()
      | Rm.Exec_ok _ | Rm.Exec_conflict _ ->
          Alcotest.fail "exec without xa_start must be rejected")

let test_exec_after_prepare_rejected () =
  in_sim (fun _ ->
      let rm = fresh_rm () in
      let x = xid 1 in
      Rm.xa_start rm ~xid:x;
      ignore (Rm.exec rm ~xid:x [ Rm.Put ("k", Value.Int 1) ]);
      Alcotest.(check bool) "vote yes" true (Rm.vote rm ~xid:x = Rm.Yes);
      match Rm.exec rm ~xid:x [ Rm.Get "k" ] with
      | Rm.Exec_rejected -> ()
      | Rm.Exec_ok _ | Rm.Exec_conflict _ ->
          Alcotest.fail "exec after prepare must be rejected")

(* ------------------------------------------------------------------ *)
(* locks *)

let test_lock_conflict () =
  in_sim (fun _ ->
      let rm = fresh_rm () in
      let x1 = xid 1 and x2 = xid 2 in
      Rm.xa_start rm ~xid:x1;
      Rm.xa_start rm ~xid:x2;
      ignore (Rm.exec rm ~xid:x1 [ Rm.Put ("k", Value.Int 1) ]);
      (match Rm.exec rm ~xid:x2 [ Rm.Put ("k", Value.Int 2) ] with
      | Rm.Exec_conflict "k" -> ()
      | _ -> Alcotest.fail "expected conflict on k");
      (* reads and guards do not take write locks *)
      match Rm.exec rm ~xid:x2 [ Rm.Get "k"; Rm.Ensure_min ("k", 0) ] with
      | Rm.Exec_ok _ -> ()
      | _ -> Alcotest.fail "reads should not conflict")

let test_conflict_has_no_side_effect () =
  in_sim (fun _ ->
      let rm = fresh_rm () in
      let x1 = xid 1 and x2 = xid 2 in
      Rm.xa_start rm ~xid:x1;
      Rm.xa_start rm ~xid:x2;
      ignore (Rm.exec rm ~xid:x1 [ Rm.Put ("a", Value.Int 1) ]);
      (* batch that conflicts on [a] must not lock [b] either *)
      (match Rm.exec rm ~xid:x2 [ Rm.Put ("b", Value.Int 2); Rm.Put ("a", Value.Int 2) ] with
      | Rm.Exec_conflict _ -> ()
      | _ -> Alcotest.fail "expected conflict");
      Alcotest.(check (list (pair string bool)))
        "only x1's lock exists"
        [ ("a", true) ]
        (List.map (fun (k, o) -> (k, Xid.equal o x1)) (Rm.locks_held rm)))

let test_locks_released_on_decide () =
  in_sim (fun _ ->
      let rm = fresh_rm () in
      let x1 = xid 1 in
      Rm.xa_start rm ~xid:x1;
      ignore (Rm.exec rm ~xid:x1 [ Rm.Put ("k", Value.Int 1) ]);
      ignore (Rm.vote rm ~xid:x1);
      Alcotest.(check int) "lock held while prepared" 1
        (List.length (Rm.locks_held rm));
      ignore (Rm.decide rm ~xid:x1 Rm.Commit);
      Alcotest.(check int) "released after commit" 0
        (List.length (Rm.locks_held rm));
      (* a second transaction can now take the lock *)
      let x2 = xid 2 in
      Rm.xa_start rm ~xid:x2;
      match Rm.exec rm ~xid:x2 [ Rm.Put ("k", Value.Int 9) ] with
      | Rm.Exec_ok _ -> ()
      | _ -> Alcotest.fail "lock should be free")

let test_locks_released_on_abort () =
  in_sim (fun _ ->
      let rm = fresh_rm () in
      let x = xid 1 in
      Rm.xa_start rm ~xid:x;
      ignore (Rm.exec rm ~xid:x [ Rm.Put ("k", Value.Int 1) ]);
      ignore (Rm.decide rm ~xid:x Rm.Abort);
      Alcotest.(check int) "released" 0 (List.length (Rm.locks_held rm)))

(* ------------------------------------------------------------------ *)
(* vote / decide: the paper's contract *)

let test_vote_unknown_is_no () =
  in_sim (fun _ ->
      let rm = fresh_rm () in
      Alcotest.(check bool) "unknown votes no" true
        (Rm.vote rm ~xid:(xid 99) = Rm.No))

let test_vote_idempotent () =
  in_sim (fun _ ->
      let rm = fresh_rm () in
      let x = xid 1 in
      Rm.xa_start rm ~xid:x;
      ignore (Rm.exec rm ~xid:x [ Rm.Put ("k", Value.Int 1) ]);
      Alcotest.(check bool) "first yes" true (Rm.vote rm ~xid:x = Rm.Yes);
      Alcotest.(check bool) "second yes" true (Rm.vote rm ~xid:x = Rm.Yes);
      Alcotest.(check string) "still prepared" "prepared" (phase_str rm x))

let test_decide_rule_a_abort_in_abort_out () =
  in_sim (fun _ ->
      let rm = fresh_rm () in
      let x = xid 1 in
      Rm.xa_start rm ~xid:x;
      ignore (Rm.exec rm ~xid:x [ Rm.Put ("k", Value.Int 1) ]);
      ignore (Rm.vote rm ~xid:x);
      Alcotest.(check bool) "abort in, abort out" true
        (Rm.decide rm ~xid:x Rm.Abort = Rm.Abort);
      Alcotest.(check (option bool)) "write discarded" None
        (Option.map (fun _ -> true) (Rm.read_committed rm "k")))

let test_decide_rule_b_yes_commit () =
  in_sim (fun _ ->
      let rm = fresh_rm () in
      let x = xid 1 in
      Rm.xa_start rm ~xid:x;
      ignore (Rm.exec rm ~xid:x [ Rm.Put ("k", Value.Int 7) ]);
      Alcotest.(check bool) "yes" true (Rm.vote rm ~xid:x = Rm.Yes);
      Alcotest.(check bool) "commit in, commit out" true
        (Rm.decide rm ~xid:x Rm.Commit = Rm.Commit);
      Alcotest.(check bool) "write applied" true
        (Rm.read_committed rm "k" = Some (Value.Int 7)))

let test_decide_commit_without_prepare_aborts () =
  in_sim (fun _ ->
      let rm = fresh_rm () in
      let x = xid 1 in
      Rm.xa_start rm ~xid:x;
      ignore (Rm.exec rm ~xid:x [ Rm.Put ("k", Value.Int 7) ]);
      (* V.2-violating input: commit an unprepared transaction *)
      Alcotest.(check bool) "defensive abort" true
        (Rm.decide rm ~xid:x Rm.Commit = Rm.Abort);
      Alcotest.(check (option bool)) "nothing applied" None
        (Option.map (fun _ -> true) (Rm.read_committed rm "k")))

let test_decide_idempotent_and_sticky () =
  in_sim (fun _ ->
      let rm = fresh_rm () in
      let x = xid 1 in
      Rm.xa_start rm ~xid:x;
      ignore (Rm.exec rm ~xid:x [ Rm.Put ("k", Value.Int 7) ]);
      ignore (Rm.vote rm ~xid:x);
      ignore (Rm.decide rm ~xid:x Rm.Commit);
      Alcotest.(check bool) "re-decide commit" true
        (Rm.decide rm ~xid:x Rm.Commit = Rm.Commit);
      (* even a (protocol-violating) late abort input gets the truth back *)
      Alcotest.(check bool) "decided outcome is sticky" true
        (Rm.decide rm ~xid:x Rm.Abort = Rm.Commit))

let test_decide_unknown_abort_recorded () =
  in_sim (fun _ ->
      let rm = fresh_rm () in
      let x = xid 5 in
      Alcotest.(check bool) "abort unknown" true
        (Rm.decide rm ~xid:x Rm.Abort = Rm.Abort);
      Alcotest.(check string) "recorded" "aborted" (phase_str rm x))

let test_commit_one_phase () =
  in_sim (fun _ ->
      let rm = fresh_rm () in
      let x = xid 1 in
      Rm.xa_start rm ~xid:x;
      ignore (Rm.exec rm ~xid:x [ Rm.Put ("k", Value.Int 3) ]);
      Alcotest.(check bool) "1pc commit" true
        (Rm.commit_one_phase rm ~xid:x = Rm.Commit);
      Alcotest.(check bool) "applied" true
        (Rm.read_committed rm "k" = Some (Value.Int 3));
      (* poisoned transaction cannot 1pc-commit *)
      let x2 = xid 2 in
      Rm.xa_start rm ~xid:x2;
      ignore (Rm.exec rm ~xid:x2 [ Rm.Fail ]);
      Alcotest.(check bool) "poisoned aborts" true
        (Rm.commit_one_phase rm ~xid:x2 = Rm.Abort);
      (* unknown transaction cannot 1pc-commit *)
      Alcotest.(check bool) "unknown aborts" true
        (Rm.commit_one_phase rm ~xid:(xid 9) = Rm.Abort))

(* ------------------------------------------------------------------ *)
(* durability and recovery *)

let test_recovery_committed_survive_active_lost () =
  in_sim (fun _ ->
      let rm = fresh_rm ~seed_data:[ ("base", Value.Int 1) ] () in
      let xc = xid 1 and xa = xid 2 in
      Rm.xa_start rm ~xid:xc;
      ignore (Rm.exec rm ~xid:xc [ Rm.Put ("committed", Value.Int 10) ]);
      ignore (Rm.vote rm ~xid:xc);
      ignore (Rm.decide rm ~xid:xc Rm.Commit);
      Rm.xa_start rm ~xid:xa;
      ignore (Rm.exec rm ~xid:xa [ Rm.Put ("active", Value.Int 20) ]);
      (* crash: replay the log *)
      Rm.recover rm;
      Alcotest.(check bool) "seed data back" true
        (Rm.read_committed rm "base" = Some (Value.Int 1));
      Alcotest.(check bool) "committed survives" true
        (Rm.read_committed rm "committed" = Some (Value.Int 10));
      Alcotest.(check (option bool)) "active lost" None
        (Option.map (fun _ -> true) (Rm.read_committed rm "active"));
      Alcotest.(check string) "active txn gone" "?" (phase_str rm xa);
      (* a recovered database answers No for the lost transaction *)
      Alcotest.(check bool) "lost txn votes no" true
        (Rm.vote rm ~xid:xa = Rm.No))

let test_recovery_in_doubt_keeps_locks () =
  in_sim (fun _ ->
      let rm = fresh_rm () in
      let x = xid 1 in
      Rm.xa_start rm ~xid:x;
      ignore (Rm.exec rm ~xid:x [ Rm.Put ("k", Value.Int 1) ]);
      ignore (Rm.vote rm ~xid:x);
      Rm.recover rm;
      Alcotest.(check (list bool)) "in doubt" [ true ]
        (List.map (fun x' -> Xid.equal x' x) (Rm.in_doubt rm));
      Alcotest.(check int) "lock re-acquired" 1
        (List.length (Rm.locks_held rm));
      (* the in-doubt transaction can still be decided *)
      Alcotest.(check bool) "late commit" true
        (Rm.decide rm ~xid:x Rm.Commit = Rm.Commit);
      Alcotest.(check bool) "applied after recovery" true
        (Rm.read_committed rm "k" = Some (Value.Int 1));
      Alcotest.(check int) "locks released" 0
        (List.length (Rm.locks_held rm)))

let test_recovery_aborted_stays_aborted () =
  in_sim (fun _ ->
      let rm = fresh_rm () in
      let x = xid 1 in
      Rm.xa_start rm ~xid:x;
      ignore (Rm.exec rm ~xid:x [ Rm.Put ("k", Value.Int 1) ]);
      ignore (Rm.vote rm ~xid:x);
      ignore (Rm.decide rm ~xid:x Rm.Abort);
      Rm.recover rm;
      Alcotest.(check string) "aborted after replay" "aborted" (phase_str rm x);
      Alcotest.(check int) "no in-doubt" 0 (List.length (Rm.in_doubt rm));
      Alcotest.(check int) "no locks" 0 (List.length (Rm.locks_held rm)))

let test_recovery_idempotent () =
  in_sim (fun _ ->
      let rm = fresh_rm () in
      let x = xid 1 in
      Rm.xa_start rm ~xid:x;
      ignore (Rm.exec rm ~xid:x [ Rm.Put ("k", Value.Int 4) ]);
      ignore (Rm.vote rm ~xid:x);
      ignore (Rm.decide rm ~xid:x Rm.Commit);
      Rm.recover rm;
      Rm.recover rm;
      Alcotest.(check bool) "double recovery" true
        (Rm.read_committed rm "k" = Some (Value.Int 4));
      Alcotest.(check (list bool)) "commit order preserved" [ true ]
        (List.map (fun x' -> Xid.equal x' x) (Rm.committed_xids rm)))

(* A decide window's terminal records share one 10 ms force: a member
   decided Abort releases its write locks before the force (an exec on its
   key goes through meanwhile), one decided Commit keeps them until the
   force lands (an exec on its key conflicts). *)
let test_decide_window_lock_release () =
  let t = Dsim.Engine.create () in
  let rm = fresh_rm ~force_latency:10. () in
  let xa = xid 1 and xc = xid 2 and y = xid 3 and z = xid 4 in
  let on_aborted = ref None and on_committed = ref None in
  let _ =
    Dsim.Engine.spawn t ~name:"db" ~main:(fun ~recovery:_ () ->
        List.iter
          (fun (x, k) ->
            Rm.xa_start rm ~xid:x;
            ignore (Rm.exec rm ~xid:x [ Rm.Put (k, Value.Int 1) ]))
          [ (xa, "a"); (xc, "c") ];
        ignore (Rm.vote_many rm ~xids:[ xa; xc ]);
        Rt.fork "decider" (fun () ->
            ignore
              (Rm.decide_many rm ~items:[ (xa, Rm.Abort); (xc, Rm.Commit) ]));
        Rm.xa_start rm ~xid:y;
        Rm.xa_start rm ~xid:z;
        Rt.sleep 5.;
        on_aborted := Some (Rm.exec rm ~xid:y [ Rm.Put ("a", Value.Int 2) ]);
        on_committed := Some (Rm.exec rm ~xid:z [ Rm.Put ("c", Value.Int 2) ]))
  in
  ignore (Dsim.Engine.run t);
  Alcotest.(check bool) "exec on the aborted key goes through" true
    (match !on_aborted with Some r -> exec_ok r | None -> false);
  Alcotest.(check bool) "exec on the committing key conflicts" true
    (!on_committed = Some (Rm.Exec_conflict "c"));
  Alcotest.(check string) "aborted" "aborted" (phase_str rm xa);
  Alcotest.(check string) "committed" "committed" (phase_str rm xc)

(* Regression: a decide(abort) racing a vote's log-force suspension must not
   leave the transaction prepared (the fail-over in-doubt bug). *)
let test_vote_decide_race () =
  let t = Dsim.Engine.create () in
  let disk = Dstore.Disk.create ~force_latency:10. ~label:"log" () in
  let rm =
    Rm.create ~timing:Dbms.Rm.paper_timing ~seed_data:[] ~disk ~name:"db" ()
  in
  let vote_result = ref None in
  let x = xid 1 in
  let _ =
    Dsim.Engine.spawn t ~name:"db" ~main:(fun ~recovery:_ () ->
        Rm.xa_start rm ~xid:x;
        ignore (Rm.exec rm ~xid:x [ Rm.Put ("k", Value.Int 1) ]);
        (* the voting fiber suspends inside vote (cpu + forced IO) *)
        Rt.fork "voter" (fun () ->
            vote_result := Some (Rm.vote rm ~xid:x));
        (* meanwhile the cleaner's abort lands *)
        Rt.sleep 5.;
        ignore (Rm.decide rm ~xid:x Rm.Abort))
  in
  ignore (Dsim.Engine.run t);
  Alcotest.(check bool) "vote saw the abort" true (!vote_result = Some Rm.No);
  Alcotest.(check string) "not stuck prepared" "aborted" (phase_str rm x);
  Alcotest.(check int) "no in-doubt" 0 (List.length (Rm.in_doubt rm));
  (* and the log must not resurrect it *)
  Rm.recover rm;
  Alcotest.(check int) "no in-doubt after replay" 0
    (List.length (Rm.in_doubt rm))

(* Concurrent committers on a group-commit database share force windows:
   N sessions reaching their commit point together pay a couple of disk
   forces, not 2N. Per-call mode (the default) stays at exactly 2N —
   the historical WAL's accounting. The ordering half of the property:
   commits that resume out of LSN order (the higher-LSN fiber can wake
   first after a shared window) must still ship ascending. *)
let gc_commit_storm ~gc n =
  let t = Dsim.Engine.create () in
  let disk = Dstore.Disk.create ~force_latency:10. ~label:"log" () in
  let rm =
    Rm.create ~timing:Rm.zero_timing ~group_commit:gc ~disk ~name:"db" ()
  in
  let _ =
    Dsim.Engine.spawn t ~name:"db" ~main:(fun ~recovery:_ () ->
        for i = 1 to n do
          Rt.fork "session" (fun () ->
              let x = xid i in
              Rm.xa_start rm ~xid:x;
              ignore
                (Rm.exec rm ~xid:x
                   [ Rm.Put (Printf.sprintf "k%d" i, Value.Int i) ]);
              ignore (Rm.vote rm ~xid:x);
              ignore (Rm.decide rm ~xid:x Rm.Commit))
        done)
  in
  ignore (Dsim.Engine.run t);
  Alcotest.(check int) "all committed" n (List.length (Rm.committed_xids rm));
  (rm, Dstore.Disk.forced_writes disk)

let test_group_commit_concurrent_sessions () =
  let _, forces_off = gc_commit_storm ~gc:false 8 in
  Alcotest.(check int) "per-call: one force per vote and decide" 16 forces_off;
  let rm, forces_on = gc_commit_storm ~gc:true 8 in
  Alcotest.(check bool)
    (Printf.sprintf "coalesced: %d forces for 8 committers" forces_on)
    true
    (forces_on <= 4);
  (* the change feed must come out in ascending LSN order no matter
     which fiber resumed first *)
  match Rm.changes_since rm ~lsn:0 with
  | Rm.Entries entries ->
      let lsns = List.map fst entries in
      Alcotest.(check (list int)) "feed ascending" (List.sort compare lsns)
        lsns;
      Alcotest.(check int) "every commit shipped" 8 (List.length entries)
  | Rm.Up_to_date | Rm.Snapshot _ ->
      Alcotest.fail "expected incremental entries"

(* ------------------------------------------------------------------ *)
(* strict two-phase locking (the serializability option) *)

let fresh_2pl () =
  let disk = Dstore.Disk.create ~force_latency:1. ~label:"log" () in
  Rm.create ~timing:Rm.zero_timing ~read_locks:true ~disk ~name:"db-2pl" ()

let test_2pl_readers_share () =
  in_sim (fun _ ->
      let rm = fresh_2pl () in
      let x1 = xid 1 and x2 = xid 2 in
      Rm.xa_start rm ~xid:x1;
      Rm.xa_start rm ~xid:x2;
      (match Rm.exec rm ~xid:x1 [ Rm.Get "k" ] with
      | Rm.Exec_ok _ -> ()
      | _ -> Alcotest.fail "reader 1");
      match Rm.exec rm ~xid:x2 [ Rm.Get "k"; Rm.Ensure_min ("k", 0) ] with
      | Rm.Exec_ok _ -> ()
      | _ -> Alcotest.fail "readers must share")

let test_2pl_writer_excludes_reader () =
  in_sim (fun _ ->
      let rm = fresh_2pl () in
      let w = xid 1 and r = xid 2 in
      Rm.xa_start rm ~xid:w;
      Rm.xa_start rm ~xid:r;
      ignore (Rm.exec rm ~xid:w [ Rm.Put ("k", Value.Int 1) ]);
      (match Rm.exec rm ~xid:r [ Rm.Get "k" ] with
      | Rm.Exec_conflict "k" -> ()
      | _ -> Alcotest.fail "reader must conflict with writer");
      (* ... until the writer decides *)
      ignore (Rm.vote rm ~xid:w);
      ignore (Rm.decide rm ~xid:w Rm.Commit);
      match Rm.exec rm ~xid:r [ Rm.Get "k" ] with
      | Rm.Exec_ok { values = [ Some (Value.Int 1) ]; _ } -> ()
      | _ -> Alcotest.fail "reader sees committed value after release")

let test_2pl_reader_excludes_writer () =
  in_sim (fun _ ->
      let rm = fresh_2pl () in
      let r = xid 1 and w = xid 2 in
      Rm.xa_start rm ~xid:r;
      Rm.xa_start rm ~xid:w;
      ignore (Rm.exec rm ~xid:r [ Rm.Get "k" ]);
      match Rm.exec rm ~xid:w [ Rm.Put ("k", Value.Int 1) ] with
      | Rm.Exec_conflict "k" -> ()
      | _ -> Alcotest.fail "writer must conflict with reader")

let test_2pl_upgrade () =
  in_sim (fun _ ->
      let rm = fresh_2pl () in
      let x1 = xid 1 in
      Rm.xa_start rm ~xid:x1;
      ignore (Rm.exec rm ~xid:x1 [ Rm.Get "k" ]);
      (* sole reader upgrades to writer *)
      (match Rm.exec rm ~xid:x1 [ Rm.Add ("k", 1) ] with
      | Rm.Exec_ok _ -> ()
      | _ -> Alcotest.fail "sole reader upgrades");
      (* ... but not when a co-reader exists *)
      let rm2 = fresh_2pl () in
      let a = xid 1 and b = xid 2 in
      Rm.xa_start rm2 ~xid:a;
      Rm.xa_start rm2 ~xid:b;
      ignore (Rm.exec rm2 ~xid:a [ Rm.Get "k" ]);
      ignore (Rm.exec rm2 ~xid:b [ Rm.Get "k" ]);
      match Rm.exec rm2 ~xid:a [ Rm.Put ("k", Value.Int 1) ] with
      | Rm.Exec_conflict "k" -> ()
      | _ -> Alcotest.fail "upgrade must fail with a co-reader")

let test_2pl_shared_released_on_abort () =
  in_sim (fun _ ->
      let rm = fresh_2pl () in
      let r = xid 1 and w = xid 2 in
      Rm.xa_start rm ~xid:r;
      Rm.xa_start rm ~xid:w;
      ignore (Rm.exec rm ~xid:r [ Rm.Get "k" ]);
      ignore (Rm.decide rm ~xid:r Rm.Abort);
      match Rm.exec rm ~xid:w [ Rm.Put ("k", Value.Int 1) ] with
      | Rm.Exec_ok _ -> ()
      | _ -> Alcotest.fail "shared lock must be released on abort")

let test_default_mode_reads_lock_free () =
  in_sim (fun _ ->
      let rm = fresh_rm () in
      let w = xid 1 and r = xid 2 in
      Rm.xa_start rm ~xid:w;
      Rm.xa_start rm ~xid:r;
      ignore (Rm.exec rm ~xid:w [ Rm.Put ("k", Value.Int 1) ]);
      match Rm.exec rm ~xid:r [ Rm.Get "k" ] with
      | Rm.Exec_ok _ -> ()
      | _ -> Alcotest.fail "default mode must not take read locks")

(* ------------------------------------------------------------------ *)
(* the server process (paper Fig. 3), driven by raw messages *)

(* Spawn one database server plus a scripted "application server" fiber
   that talks to it over a reliable channel and records what happens. *)
let server_scenario ?(crash_db_at = None) ?(recover_db_at = None) ~script () =
  let t = Dsim.Engine.create ~net:(Dnet.Netmodel.lan ()) () in
  let rt = Dsim.Runtime_sim.of_engine t in
  let disk = Dstore.Disk.create ~force_latency:1. ~label:"log" () in
  let rm = Rm.create ~timing:Rm.zero_timing ~seed_data:[] ~disk ~name:"db" () in
  let app_pid = ref [] in
  let db =
    Server.spawn rt ~name:"db" ~rm ~observers:(fun () -> !app_pid) ()
  in
  let result = ref None in
  let app =
    Dsim.Engine.spawn t ~name:"app" ~main:(fun ~recovery:_ () ->
        let ch = Dnet.Rchannel.create () in
        Dnet.Rchannel.start ch;
        let rd = Stub.Readiness.create ~dbs:[ db ] in
        Stub.Readiness.start rd;
        result := Some (script ~db ~ch ~rd))
  in
  app_pid := [ app ];
  (match crash_db_at with
  | Some at -> Dsim.Engine.crash_at t at db
  | None -> ());
  (match recover_db_at with
  | Some at -> Dsim.Engine.recover_at t at db
  | None -> ());
  ignore (Dsim.Engine.run ~deadline:60_000. t);
  match !result with
  | Some r -> (r, rm)
  | None -> Alcotest.fail "script did not finish"

let test_server_full_commit_round () =
  let outcome, rm =
    server_scenario
      ~script:(fun ~db ~ch ~rd ->
        let x = xid 1 in
        let dbs = [ db ] in
        Stub.xa_start ch rd ~dbs ~xids:[ x ];
        (match Stub.exec_of ch rd ~xid:x ~db [ Rm.Put ("k", Value.Int 1) ] with
        | Rm.Exec_ok _ -> ()
        | _ -> Alcotest.fail "exec failed");
        Stub.xa_end ch rd ~dbs ~xids:[ x ];
        let outcome = List.hd (Stub.prepare ch rd ~dbs ~xids:[ x ]) in
        Stub.decide ch rd ~dbs ~items:[ (x, Rm.Commit) ];
        outcome)
      ()
  in
  Alcotest.(check bool) "prepared to commit" true (outcome = Rm.Commit);
  Alcotest.(check bool) "committed" true
    (Rm.read_committed rm "k" = Some (Value.Int 1))

let test_server_concurrent_decide_during_prepare_queue () =
  (* decide and prepare are handled by separate fibers (the paper's
     cobegin): a decide for one transaction must not wait behind a vote for
     another *)
  let (), rm =
    server_scenario
      ~script:(fun ~db ~ch ~rd ->
        let x1 = xid 1 and x2 = xid 2 in
        let dbs = [ db ] in
        Stub.xa_start ch rd ~dbs ~xids:[ x1 ];
        ignore (Stub.exec_of ch rd ~xid:x1 ~db [ Rm.Put ("a", Value.Int 1) ]);
        ignore (Stub.prepare ch rd ~dbs ~xids:[ x1 ]);
        Stub.xa_start ch rd ~dbs ~xids:[ x2 ];
        ignore (Stub.exec_of ch rd ~xid:x2 ~db [ Rm.Put ("b", Value.Int 2) ]);
        ignore (Stub.prepare ch rd ~dbs ~xids:[ x2 ]);
        (* decide both; order of arrival is not order of xid *)
        Stub.decide ch rd ~dbs ~items:[ (x2, Rm.Commit) ];
        Stub.decide ch rd ~dbs ~items:[ (x1, Rm.Abort) ])
      ()
  in
  Alcotest.(check (option bool)) "x1 aborted" None
    (Option.map (fun _ -> true) (Rm.read_committed rm "a"));
  Alcotest.(check bool) "x2 committed" true
    (Rm.read_committed rm "b" = Some (Value.Int 2))

let test_server_ready_on_recovery () =
  (* Crash the server while the app waits for a vote: the vote resolution
     must come from the recovery path (Ready bumps the epoch, the stub
     re-sends, the recovered server answers No for the lost transaction). *)
  let outcome, _rm =
    server_scenario ~crash_db_at:(Some 50.) ~recover_db_at:(Some 200.)
      ~script:(fun ~db ~ch ~rd ->
        let x = xid 1 in
        Stub.xa_start ch rd ~dbs:[ db ] ~xids:[ x ];
        ignore (Stub.exec_of ch rd ~xid:x ~db [ Rm.Put ("k", Value.Int 1) ]);
        Rt.sleep 60.;
        (* db is down now; this blocks until recovery *)
        List.hd (Stub.prepare ch rd ~dbs:[ db ] ~xids:[ x ]))
      ()
  in
  Alcotest.(check bool) "recovered server votes no for lost txn" true
    (outcome = Rm.Abort)

let test_ready_wakes_each_waiter () =
  (* Two fibers wait for votes from a database that is down from 10 ms to
     200 ms. Each re-sends its Prepare at the instant the database's Ready
     is delivered, exactly once: the listener hands one wake to each
     waiter and no wake is left over. *)
  let t = Dsim.Engine.create ~net:(Dnet.Netmodel.lan ()) () in
  let rt = Dsim.Runtime_sim.of_engine t in
  let disk = Dstore.Disk.create ~force_latency:1. ~label:"log" () in
  let rm = Rm.create ~timing:Rm.zero_timing ~seed_data:[] ~disk ~name:"db" () in
  let app_pid = ref [] in
  let db = Server.spawn rt ~name:"db" ~rm ~observers:(fun () -> !app_pid) () in
  let xids = [ xid 1; xid 2 ] in
  let votes = ref [] in
  let app =
    Dsim.Engine.spawn t ~name:"app" ~main:(fun ~recovery:_ () ->
        let ch = Dnet.Rchannel.create () in
        Dnet.Rchannel.start ch;
        let rd = Stub.Readiness.create ~dbs:[ db ] in
        Stub.Readiness.start rd;
        Rt.sleep 20.;
        List.iter
          (fun x ->
            Rt.fork "voter" (fun () ->
                let outcome =
                  List.hd (Stub.prepare ch rd ~dbs:[ db ] ~xids:[ x ])
                in
                votes := outcome :: !votes))
          xids)
  in
  app_pid := [ app ];
  Dsim.Engine.crash_at t 10. db;
  Dsim.Engine.recover_at t 200. db;
  Alcotest.(check bool) "quiescent" true
    (Dsim.Engine.run ~deadline:60_000. t = Dsim.Engine.Quiescent);
  Alcotest.(check bool) "both vote no" true (!votes = [ Rm.Abort; Rm.Abort ]);
  let entries = Dsim.Trace.entries (Dsim.Engine.trace t) in
  let delivered_to_app pred =
    List.filter_map
      (fun { Dsim.Trace.at; event } ->
        match event with
        | Dsim.Trace.Delivered m when m.dst = app && pred m.payload -> Some at
        | _ -> None)
      entries
  in
  let ready_at =
    match delivered_to_app (( = ) Msg.Ready) with
    | [ at ] -> at
    | l -> Alcotest.failf "%d Ready deliveries" (List.length l)
  in
  Alcotest.(check bool) "Ready after the recovery" true (ready_at > 200.);
  let prepares_at x at =
    List.length
      (List.filter
         (fun { Dsim.Trace.at = a; event } ->
           match event with
           | Dsim.Trace.Sent (m, _) when a = at && m.src = app -> (
               match Dnet.Rchannel.inner_payload m.payload with
               | Some (Msg.Prepare { xids = [ x' ] }) -> Xid.equal x x'
               | _ -> false)
           | _ -> false)
         entries)
  in
  List.iter
    (fun x ->
      Alcotest.(check int) "one re-send at the Ready" 1
        (prepares_at x ready_at))
    xids;
  let wakes =
    delivered_to_app (function Msg.Ready_wake _ -> true | _ -> false)
  in
  Alcotest.(check (list (float 0.)))
    "one wake per waiter" [ ready_at; ready_at ] wakes;
  (* each waiter took one vote and one wake: what is left are duplicate
     votes to the Prepares sent before the crash, no wake *)
  let votes_in =
    List.length
      (delivered_to_app (function Msg.Vote _ -> true | _ -> false))
  in
  Alcotest.(check int) "only duplicate votes left" (votes_in - 2)
    (Dsim.Engine.mailbox_length t ~cls:Msg.cls_reply app)

let test_server_in_doubt_across_crash () =
  (* Vote yes, crash, recover: the transaction is in doubt and a late
     decide commits it. T.2's database half, at the message level. *)
  let (), rm =
    server_scenario ~crash_db_at:(Some 100.) ~recover_db_at:(Some 200.)
      ~script:(fun ~db ~ch ~rd ->
        let x = xid 1 in
        let dbs = [ db ] in
        Stub.xa_start ch rd ~dbs ~xids:[ x ];
        ignore (Stub.exec_of ch rd ~xid:x ~db [ Rm.Put ("k", Value.Int 5) ]);
        let outcome = List.hd (Stub.prepare ch rd ~dbs ~xids:[ x ]) in
        Alcotest.(check bool) "voted yes before crash" true
          (outcome = Rm.Commit);
        Rt.sleep 150.;
        (* db crashed and came back; the prepared txn must still decide *)
        Stub.decide ch rd ~dbs ~items:[ (x, Rm.Commit) ])
      ()
  in
  Alcotest.(check bool) "in-doubt txn committed after recovery" true
    (Rm.read_committed rm "k" = Some (Value.Int 5))

let test_prepare_round_across_recovery () =
  (* One transaction on two databases; db2 crashes after the exec, losing
     the active transaction, and the prepare round goes out while it is
     down. The round must wait for db2's recovery, re-send to db2 alone at
     its Ready, and come back Abort (the recovered db2 votes No). *)
  let t = Dsim.Engine.create ~net:(Dnet.Netmodel.lan ()) () in
  let rt = Dsim.Runtime_sim.of_engine t in
  let app_pid = ref [] in
  let spawn_db name =
    let disk = Dstore.Disk.create ~force_latency:1. ~label:"log" () in
    let rm = Rm.create ~timing:Rm.zero_timing ~seed_data:[] ~disk ~name () in
    Server.spawn rt ~name ~rm ~observers:(fun () -> !app_pid) ()
  in
  let db1 = spawn_db "db1" and db2 = spawn_db "db2" in
  let x = xid 1 in
  let outcome = ref None in
  let app =
    Dsim.Engine.spawn t ~name:"app" ~main:(fun ~recovery:_ () ->
        let ch = Dnet.Rchannel.create () in
        Dnet.Rchannel.start ch;
        let dbs = [ db1; db2 ] in
        let rd = Stub.Readiness.create ~dbs in
        Stub.Readiness.start rd;
        Stub.xa_start ch rd ~dbs ~xids:[ x ];
        let exec = Stub.exec_of ch rd ~xid:x in
        List.iter
          (fun db -> ignore (exec ~db [ Rm.Put ("k", Value.Int 1) ]))
          dbs;
        Rt.sleep 60.;
        (* db2 is down now; the round blocks until it recovers *)
        let o = List.hd (Stub.prepare ch rd ~dbs ~xids:[ x ]) in
        outcome := Some o;
        Stub.decide ch rd ~dbs ~items:[ (x, o) ])
  in
  app_pid := [ app ];
  Dsim.Engine.crash_at t 50. db2;
  Dsim.Engine.recover_at t 200. db2;
  Alcotest.(check bool) "quiescent" true
    (Dsim.Engine.run ~deadline:60_000. t = Dsim.Engine.Quiescent);
  Alcotest.(check bool) "outcome Abort" true (!outcome = Some Rm.Abort);
  let entries = Dsim.Trace.entries (Dsim.Engine.trace t) in
  let is_prepare p =
    match Dnet.Rchannel.inner_payload p with
    | Some (Msg.Prepare { xids = [ x' ] }) -> Xid.equal x x'
    | _ -> false
  in
  let prepares_delivered db =
    List.filter_map
      (fun { Dsim.Trace.at; event } ->
        match event with
        | Dsim.Trace.Delivered m when m.dst = db && is_prepare m.payload ->
            Some at
        | _ -> None)
      entries
  in
  Alcotest.(check int) "db1 receives one Prepare" 1
    (List.length (prepares_delivered db1));
  let ready_at =
    match
      List.filter_map
        (fun { Dsim.Trace.at; event } ->
          match event with
          | Dsim.Trace.Delivered m
            when m.dst = app && m.src = db2 && m.payload = Msg.Ready ->
              Some at
          | _ -> None)
        entries
    with
    | [ at ] -> at
    | l -> Alcotest.failf "%d Ready deliveries from db2" (List.length l)
  in
  Alcotest.(check bool) "Ready after the recovery" true (ready_at > 200.);
  let resends =
    List.filter
      (fun { Dsim.Trace.at; event } ->
        match event with
        | Dsim.Trace.Sent (m, _) when at = ready_at && m.src = app ->
            is_prepare m.payload
        | _ -> false)
      entries
  in
  (match resends with
  | [ { Dsim.Trace.event = Dsim.Trace.Sent (m, _); _ } ] ->
      Alcotest.(check int) "the resend goes to db2" db2 m.dst
  | l -> Alcotest.failf "%d Prepares sent at the Ready" (List.length l));
  Alcotest.(check bool) "db2 receives the resend" true
    (List.exists (fun at -> at > ready_at) (prepares_delivered db2))

(* ------------------------------------------------------------------ *)
(* checkpointing (log compaction) *)

let committed_many rm n =
  for i = 1 to n do
    let x = xid i in
    Rm.xa_start rm ~xid:x;
    ignore (Rm.exec rm ~xid:x [ Rm.Put (Printf.sprintf "k%d" i, Value.Int i) ]);
    ignore (Rm.vote rm ~xid:x);
    ignore (Rm.decide rm ~xid:x Rm.Commit)
  done

let test_checkpoint_compacts_log () =
  in_sim (fun _ ->
      let rm = fresh_rm () in
      committed_many rm 10;
      Alcotest.(check int) "20 records before" 20 (Rm.log_length rm);
      Rm.checkpoint rm;
      Alcotest.(check int) "1 record after" 1 (Rm.log_length rm);
      Rm.recover rm;
      for i = 1 to 10 do
        Alcotest.(check bool)
          (Printf.sprintf "k%d survives" i)
          true
          (Rm.read_committed rm (Printf.sprintf "k%d" i) = Some (Value.Int i))
      done;
      Alcotest.(check int) "commit history preserved" 10
        (List.length (Rm.committed_xids rm)))

let test_checkpoint_preserves_decided_answers () =
  in_sim (fun _ ->
      let rm = fresh_rm () in
      let xc = xid 1 and xa = xid 2 in
      Rm.xa_start rm ~xid:xc;
      ignore (Rm.exec rm ~xid:xc [ Rm.Put ("c", Value.Int 1) ]);
      ignore (Rm.vote rm ~xid:xc);
      ignore (Rm.decide rm ~xid:xc Rm.Commit);
      Rm.xa_start rm ~xid:xa;
      ignore (Rm.exec rm ~xid:xa [ Rm.Put ("a", Value.Int 1) ]);
      ignore (Rm.vote rm ~xid:xa);
      ignore (Rm.decide rm ~xid:xa Rm.Abort);
      Rm.checkpoint rm;
      Rm.recover rm;
      (* idempotent re-decides still answer the recorded outcome *)
      Alcotest.(check bool) "re-decide commit" true
        (Rm.decide rm ~xid:xc Rm.Commit = Rm.Commit);
      Alcotest.(check bool) "re-decide abort" true
        (Rm.decide rm ~xid:xa Rm.Abort = Rm.Abort))

let test_checkpoint_keeps_in_doubt () =
  in_sim (fun _ ->
      let rm = fresh_rm () in
      let x = xid 1 in
      Rm.xa_start rm ~xid:x;
      ignore (Rm.exec rm ~xid:x [ Rm.Put ("k", Value.Int 9) ]);
      ignore (Rm.vote rm ~xid:x);
      Rm.checkpoint rm;
      Alcotest.(check int) "snapshot + prepared record" 2 (Rm.log_length rm);
      Rm.recover rm;
      Alcotest.(check (list bool)) "still in doubt" [ true ]
        (List.map (fun x' -> Xid.equal x' x) (Rm.in_doubt rm));
      Alcotest.(check int) "lock re-acquired" 1 (List.length (Rm.locks_held rm));
      Alcotest.(check bool) "late commit still works" true
        (Rm.decide rm ~xid:x Rm.Commit = Rm.Commit);
      Alcotest.(check bool) "write applied" true
        (Rm.read_committed rm "k" = Some (Value.Int 9)))

(* ------------------------------------------------------------------ *)
(* crash-point recovery: the process dies at an arbitrary instant (possibly
   inside a forced write), recovery = checkpoint-load + LSN-ordered replay
   must reproduce exactly the transactions whose decide had returned, and
   exactly the prepared-undecided set as in-doubt. *)

(* Run [script rm] inside an engine process with a 10 ms forced-write
   latency, crash the process at [crash_at], recover it at [recover_at]
   (the recovery run calls [Rm.recover]), and return whether recovery ran
   plus the recovered [rm]. *)
let crash_recovery_scenario ?(timing = Rm.zero_timing) ~crash_at ~recover_at
    ~script () =
  let t = Dsim.Engine.create () in
  let disk = Dstore.Disk.create ~force_latency:10. ~label:"log" () in
  let rm = Rm.create ~timing ~seed_data:[] ~disk ~name:"db" () in
  let recovered = ref false in
  let pid =
    Dsim.Engine.spawn t ~name:"db" ~main:(fun ~recovery () ->
        if recovery then begin
          Rm.recover rm;
          recovered := true
        end
        else script rm)
  in
  Dsim.Engine.crash_at t crash_at pid;
  Dsim.Engine.recover_at t recover_at pid;
  ignore (Dsim.Engine.run t);
  (!recovered, rm)

(* Crash landing inside the checkpoint's single force: the snapshot record
   is volatile, so the cut drops it and replay falls back to the full log —
   the checkpoint never truncated (truncation runs only after the force
   returns), so nothing is lost. This is exactly the crash window the old
   truncate-then-append order left open. *)
let test_crash_during_checkpoint () =
  (* zero cpu timing: each commit is two 10 ms forces, so 5 commits end at
     t=100 and the checkpoint force spans (100, 110) — crash at 105 *)
  let recovered, rm =
    crash_recovery_scenario ~crash_at:105. ~recover_at:140.
      ~script:(fun rm ->
        committed_many rm 5;
        Rm.checkpoint rm)
      ()
  in
  Alcotest.(check bool) "recovered" true recovered;
  for i = 1 to 5 do
    Alcotest.(check bool)
      (Printf.sprintf "k%d survives the aborted checkpoint" i)
      true
      (Rm.read_committed rm (Printf.sprintf "k%d" i) = Some (Value.Int i))
  done;
  (* the snapshot record was cut with the volatile tail: replay walked the
     original 10 records (5 prepared + 5 committed), not a snapshot *)
  Alcotest.(check int) "log back to the pre-checkpoint records" 10
    (Rm.log_length rm);
  Alcotest.(check int) "replay walked the full log" 10 (Rm.recovery_steps rm)

(* Crash after a completed checkpoint: replay is bounded by the snapshot,
   not the full history. *)
let test_checkpoint_bounds_replay () =
  (* 5 commits end at t=100, checkpoint force ends at 110, two more
     commits end at 150; crash at 165 — after everything *)
  let recovered, rm =
    crash_recovery_scenario ~crash_at:165. ~recover_at:180.
      ~script:(fun rm ->
        committed_many rm 5;
        Rm.checkpoint rm;
        for i = 6 to 7 do
          let x = xid i in
          Rm.xa_start rm ~xid:x;
          ignore
            (Rm.exec rm ~xid:x
               [ Rm.Put (Printf.sprintf "k%d" i, Value.Int i) ]);
          ignore (Rm.vote rm ~xid:x);
          ignore (Rm.decide rm ~xid:x Rm.Commit)
        done)
      ()
  in
  Alcotest.(check bool) "recovered" true recovered;
  for i = 1 to 7 do
    Alcotest.(check bool)
      (Printf.sprintf "k%d present" i)
      true
      (Rm.read_committed rm (Printf.sprintf "k%d" i) = Some (Value.Int i))
  done;
  (* snapshot + the two post-checkpoint transactions (2 records each) *)
  Alcotest.(check int) "replay bounded by the checkpoint" 5
    (Rm.recovery_steps rm)

(* A decide window's aborted member releases its locks before the
   window's force, so its W_aborted record must already sit in the log
   when another transaction takes the key: that transaction's prepare
   force then makes the abort durable too. Window [(xa, Abort);
   (xb, Commit)] under a 20 ms commit charge: during xb's charge y takes
   xa's key and prepares (force ends at 21), and the crash at 25 lands
   before the window's own force. Recovery must not find both xa and y
   prepared on the same key. *)
let test_crash_after_window_abort_release () =
  let xa = xid 1 and xb = xid 2 and y = xid 3 in
  let put rm x k =
    Rm.xa_start rm ~xid:x;
    ignore (Rm.exec rm ~xid:x [ Rm.Put (k, Value.Int 1) ])
  in
  let recovered, rm =
    crash_recovery_scenario
      ~timing:{ Rm.zero_timing with commit_cpu = 20. }
      ~crash_at:25. ~recover_at:50.
      ~script:(fun rm ->
        put rm xa "a";
        put rm xb "b";
        ignore (Rm.vote_many rm ~xids:[ xa; xb ]);
        Rt.fork "decider" (fun () ->
            ignore
              (Rm.decide_many rm ~items:[ (xa, Rm.Abort); (xb, Rm.Commit) ]));
        Rt.sleep 1.;
        put rm y "a";
        Alcotest.(check bool) "y votes yes" true (Rm.vote rm ~xid:y = Rm.Yes))
      ()
  in
  Alcotest.(check bool) "recovered" true recovered;
  Alcotest.(check string) "xa stays aborted" "aborted" (phase_str rm xa);
  Alcotest.(check string) "xb in doubt" "prepared" (phase_str rm xb);
  Alcotest.(check string) "y in doubt" "prepared" (phase_str rm y);
  Alcotest.(check bool) "y holds its key" true
    (List.exists
       (fun (k, x) -> k = "a" && Xid.equal x y)
       (Rm.locks_held rm))

(* The property: for ANY interleaving of commits, aborts, in-flight
   prepares and checkpoints, and ANY crash instant, recovery reproduces
   exactly the state of the decides that returned, and exactly the
   prepared-undecided transactions as in-doubt (crash inside a vote's or
   checkpoint's force included — those records are volatile and cut). *)
let prop_crash_point_recovery =
  (* action encoding: (kind mod 4, key mod 5) — 0/1 commit, 2 prepare and
     leave in doubt, 3 checkpoint. Commits dominate so state accumulates. *)
  QCheck.Test.make ~name:"any crash point: replay reproduces committed state"
    ~count:40
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 12)
           (pair (int_bound 3) (int_bound 4)))
        (float_range 1. 400.))
    (fun (actions, crash_at) ->
      let model : (string, Value.t) Hashtbl.t = Hashtbl.create 8 in
      let doubt = ref [] in
      let script rm =
        List.iteri
          (fun i (kind, key) ->
            let x = xid (i + 1) in
            let k = Printf.sprintf "k%d" key in
            Rm.xa_start rm ~xid:x;
            match Rm.exec rm ~xid:x [ Rm.Put (k, Value.Int (i + 1)) ] with
            | Rm.Exec_conflict _ | Rm.Exec_rejected ->
                (* an in-doubt holder owns the lock: the protocol aborts a
                   conflicted try (it never votes on one) *)
                ignore (Rm.decide rm ~xid:x Rm.Abort)
            | Rm.Exec_ok _ -> (
                if kind = 3 then Rm.checkpoint rm;
                match Rm.vote rm ~xid:x with
                | Rm.No -> ()
                | Rm.Yes -> (
                    (* the prepared record is durable from here on *)
                    doubt := x :: !doubt;
                    match kind with
                    | 2 -> () (* leave in doubt *)
                    | _ ->
                        ignore (Rm.decide rm ~xid:x Rm.Commit);
                        doubt := List.filter (fun x' -> not (Xid.equal x' x)) !doubt;
                        Hashtbl.replace model k (Value.Int (i + 1)))))
          actions
      in
      let recovered, rm =
        crash_recovery_scenario ~crash_at ~recover_at:(crash_at +. 500.)
          ~script ()
      in
      let state_matches () =
        List.for_all
          (fun key ->
            let k = Printf.sprintf "k%d" key in
            Rm.read_committed rm k = Hashtbl.find_opt model k)
          [ 0; 1; 2; 3; 4 ]
      in
      let doubt_matches () =
        let rids xs =
          List.sort compare (List.map (fun x -> x.Xid.rid) xs)
        in
        rids (Rm.in_doubt rm) = rids !doubt
      in
      recovered
      && state_matches ()
      && doubt_matches ()
      &&
      (* recovery is idempotent *)
      (Rm.recover rm;
       state_matches () && doubt_matches ()))

(* ------------------------------------------------------------------ *)
(* properties *)

let prop_commit_applies_all_writes =
  QCheck.Test.make ~name:"commit applies exactly the workspace" ~count:100
    QCheck.(list (pair (string_gen_of_size (Gen.return 3) Gen.printable) small_int))
    (fun writes ->
      in_sim (fun _ ->
          let rm = fresh_rm () in
          let x = xid 1 in
          Rm.xa_start rm ~xid:x;
          ignore
            (Rm.exec rm ~xid:x
               (List.map (fun (k, v) -> Rm.Put ("w" ^ k, Value.Int v)) writes));
          ignore (Rm.vote rm ~xid:x);
          ignore (Rm.decide rm ~xid:x Rm.Commit);
          List.for_all
            (fun (k, _) ->
              (* last write to each key wins *)
              let expected =
                List.fold_left
                  (fun acc (k', v') -> if k' = k then Some v' else acc)
                  None writes
              in
              match (Rm.read_committed rm ("w" ^ k), expected) with
              | Some (Value.Int v), Some v' -> v = v'
              | None, None -> true
              | _ -> false)
            writes))

let prop_abort_applies_nothing =
  QCheck.Test.make ~name:"abort leaves the store untouched" ~count:100
    QCheck.(list (pair (string_gen_of_size (Gen.return 3) Gen.printable) small_int))
    (fun writes ->
      in_sim (fun _ ->
          let rm = fresh_rm ~seed_data:[ ("seed", Value.Int 1) ] () in
          let x = xid 1 in
          Rm.xa_start rm ~xid:x;
          ignore
            (Rm.exec rm ~xid:x
               (List.map (fun (k, v) -> Rm.Put ("w" ^ k, Value.Int v)) writes));
          ignore (Rm.vote rm ~xid:x);
          ignore (Rm.decide rm ~xid:x Rm.Abort);
          List.for_all
            (fun (k, _) -> Rm.read_committed rm ("w" ^ k) = None)
            writes
          && Rm.read_committed rm "seed" = Some (Value.Int 1)))

let prop_recovery_preserves_committed_state =
  QCheck.Test.make ~name:"recovery reconstructs committed state" ~count:50
    QCheck.(list (pair (int_bound 5) small_int))
    (fun txns ->
      in_sim (fun _ ->
          let rm = fresh_rm () in
          List.iteri
            (fun i (key_index, v) ->
              let x = xid (i + 1) in
              Rm.xa_start rm ~xid:x;
              ignore
                (Rm.exec rm ~xid:x
                   [ Rm.Put (Printf.sprintf "k%d" key_index, Value.Int v) ]);
              ignore (Rm.vote rm ~xid:x);
              ignore (Rm.decide rm ~xid:x Rm.Commit))
            txns;
          let before =
            List.init 6 (fun i -> Rm.read_committed rm (Printf.sprintf "k%d" i))
          in
          Rm.recover rm;
          let after =
            List.init 6 (fun i -> Rm.read_committed rm (Printf.sprintf "k%d" i))
          in
          before = after))

(* The change feed walks the newest-first history only down to the
   consumer's LSN. Against the full filter it replaced, on a random history
   of commits and aborts with a checkpoint in the middle, for every
   consumer LSN below, at and above the snapshot floor and for two page
   sizes. *)
let prop_changes_since_matches_filter =
  QCheck.Test.make ~name:"changes_since equals the full-history filter"
    ~count:60
    QCheck.(
      pair
        (list_of_size (Gen.int_bound 12) (pair bool (int_bound 9)))
        (list_of_size (Gen.int_bound 12) (pair bool (int_bound 9))))
    (fun (before, after) ->
      in_sim (fun _ ->
          let rm = fresh_rm () in
          let n = ref 0 in
          (* commits, newest first, as (lsn, writes) *)
          let run txns =
            List.fold_left
              (fun acc (commit, v) ->
                incr n;
                let x = xid !n in
                let writes = [ (Printf.sprintf "k%d" (v mod 3), Value.Int v) ] in
                Rm.xa_start rm ~xid:x;
                ignore
                  (Rm.exec rm ~xid:x
                     (List.map (fun (k, v) -> Rm.Put (k, v)) writes));
                ignore (Rm.vote rm ~xid:x);
                if commit then begin
                  ignore (Rm.decide rm ~xid:x Rm.Commit);
                  (Option.get (Rm.commit_lsn_of rm x), writes) :: acc
                end
                else begin
                  ignore (Rm.decide rm ~xid:x Rm.Abort);
                  acc
                end)
              [] txns
          in
          ignore (run before);
          Rm.checkpoint rm;
          let floor =
            match Rm.changes_since rm ~lsn:(-1) with
            | Rm.Snapshot { as_of; _ } -> as_of
            | _ -> Alcotest.fail "no snapshot below the floor"
          in
          let history = run after in
          let filter ~max_entries lsn =
            let fresh =
              List.filter (fun (l, _) -> l > lsn) history |> List.rev
            in
            if fresh = [] then None
            else Some (List.filteri (fun i _ -> i < max_entries) fresh)
          in
          List.for_all
            (fun lsn ->
              List.for_all
                (fun max_entries ->
                  match (Rm.changes_since ~max_entries rm ~lsn, filter ~max_entries lsn) with
                  | Rm.Snapshot { as_of; _ }, _ -> lsn < floor && as_of = floor
                  | Rm.Up_to_date, None -> lsn >= floor
                  | Rm.Entries es, Some expect -> lsn >= floor && es = expect
                  | Rm.Up_to_date, Some _ | Rm.Entries _, None -> false)
                [ 2; 64 ])
            (List.init (Rm.last_commit_lsn rm + 3) (fun i -> i - 1))))

(* [to_string] is [pp]'s text, built without a formatter *)
let prop_value_to_string =
  QCheck.Test.make ~name:"Value.to_string prints what pp prints" ~count:300
    QCheck.(
      pair (oneof [ int; small_signed_int ])
        (string_gen_of_size Gen.small_nat Gen.char))
    (fun (n, s) ->
      let pp v = Format.asprintf "%a" Value.pp v in
      Value.to_string (Value.Int n) = pp (Value.Int n)
      && Value.to_string (Value.Str s) = pp (Value.Str s))

let prop_xid_to_string =
  QCheck.Test.make ~name:"Xid.to_string prints what pp prints" ~count:100
    QCheck.(pair int small_nat)
    (fun (rid, j) ->
      let x = Xid.make ~rid ~j in
      Xid.to_string x = Format.asprintf "%a" Xid.pp x)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "dbms"
    [
      ( "exec",
        [
          Alcotest.test_case "put/get" `Quick test_exec_put_get;
          Alcotest.test_case "add" `Quick test_exec_add_semantics;
          Alcotest.test_case "guards" `Quick test_exec_guard_pass_and_fail;
          Alcotest.test_case "redelivery dedup (regression)" `Quick
            test_exec_dedup_replays_duplicates;
          Alcotest.test_case "dedup rejects unknown" `Quick
            test_exec_dedup_unknown_rejected;
          Alcotest.test_case "fail op" `Quick test_exec_fail_op_poisons;
          Alcotest.test_case "type mismatch" `Quick
            test_exec_type_mismatch_poisons;
          Alcotest.test_case "requires xa_start" `Quick
            test_exec_requires_xa_start;
          Alcotest.test_case "rejected after prepare" `Quick
            test_exec_after_prepare_rejected;
        ] );
      ( "locks",
        [
          Alcotest.test_case "conflict" `Quick test_lock_conflict;
          Alcotest.test_case "atomic acquisition" `Quick
            test_conflict_has_no_side_effect;
          Alcotest.test_case "released on commit" `Quick
            test_locks_released_on_decide;
          Alcotest.test_case "released on abort" `Quick
            test_locks_released_on_abort;
        ] );
      ( "vote-decide",
        [
          Alcotest.test_case "unknown votes no" `Quick test_vote_unknown_is_no;
          Alcotest.test_case "vote idempotent" `Quick test_vote_idempotent;
          Alcotest.test_case "rule (a)" `Quick
            test_decide_rule_a_abort_in_abort_out;
          Alcotest.test_case "rule (b)" `Quick test_decide_rule_b_yes_commit;
          Alcotest.test_case "commit w/o prepare aborts" `Quick
            test_decide_commit_without_prepare_aborts;
          Alcotest.test_case "idempotent + sticky" `Quick
            test_decide_idempotent_and_sticky;
          Alcotest.test_case "unknown abort recorded" `Quick
            test_decide_unknown_abort_recorded;
          Alcotest.test_case "window abort frees locks first" `Quick
            test_decide_window_lock_release;
          Alcotest.test_case "one-phase commit" `Quick test_commit_one_phase;
          Alcotest.test_case "vote/decide race (regression)" `Quick
            test_vote_decide_race;
          Alcotest.test_case "group commit: concurrent sessions" `Quick
            test_group_commit_concurrent_sessions;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "committed survive, active lost" `Quick
            test_recovery_committed_survive_active_lost;
          Alcotest.test_case "in-doubt keeps locks" `Quick
            test_recovery_in_doubt_keeps_locks;
          Alcotest.test_case "aborted stays aborted" `Quick
            test_recovery_aborted_stays_aborted;
          Alcotest.test_case "idempotent" `Quick test_recovery_idempotent;
        ] );
      ( "strict-2pl",
        [
          Alcotest.test_case "readers share" `Quick test_2pl_readers_share;
          Alcotest.test_case "writer excludes reader" `Quick
            test_2pl_writer_excludes_reader;
          Alcotest.test_case "reader excludes writer" `Quick
            test_2pl_reader_excludes_writer;
          Alcotest.test_case "upgrade rules" `Quick test_2pl_upgrade;
          Alcotest.test_case "shared released on abort" `Quick
            test_2pl_shared_released_on_abort;
          Alcotest.test_case "default: reads lock-free" `Quick
            test_default_mode_reads_lock_free;
        ] );
      ( "server",
        [
          Alcotest.test_case "full commit round" `Quick
            test_server_full_commit_round;
          Alcotest.test_case "independent handler fibers" `Quick
            test_server_concurrent_decide_during_prepare_queue;
          Alcotest.test_case "Ready on recovery" `Quick
            test_server_ready_on_recovery;
          Alcotest.test_case "in-doubt across crash" `Quick
            test_server_in_doubt_across_crash;
          Alcotest.test_case "Ready wakes each waiter once" `Quick
            test_ready_wakes_each_waiter;
          Alcotest.test_case "prepare round across a recovery" `Quick
            test_prepare_round_across_recovery;
        ] );
      ( "crash-recovery",
        [
          Alcotest.test_case "crash during checkpoint" `Quick
            test_crash_during_checkpoint;
          Alcotest.test_case "checkpoint bounds replay" `Quick
            test_checkpoint_bounds_replay;
          Alcotest.test_case "crash after a window abort frees locks" `Quick
            test_crash_after_window_abort_release;
          QCheck_alcotest.to_alcotest prop_crash_point_recovery;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "compacts the log" `Quick
            test_checkpoint_compacts_log;
          Alcotest.test_case "preserves decided answers" `Quick
            test_checkpoint_preserves_decided_answers;
          q prop_changes_since_matches_filter;
          Alcotest.test_case "keeps in-doubt recoverable" `Quick
            test_checkpoint_keeps_in_doubt;
        ] );
      ( "properties",
        [
          q prop_commit_applies_all_writes;
          q prop_abort_applies_nothing;
          q prop_recovery_preserves_committed_state;
          q prop_value_to_string;
          q prop_xid_to_string;
        ] );
    ]
