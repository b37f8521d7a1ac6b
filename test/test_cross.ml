(* Cross-shard e-Transaction tests: atomic commit over several replica
   groups (Paxos Commit over the wo-registers), the lone-participant abort
   rule, coordinator-crash completion by any group's cleaner, path
   equivalence when the wiring is off or the workload is co-located, and
   the gx observability counters. *)

open Etx

(* first account (beyond acct0) living on a different shard than acct0 *)
let cross_pair map =
  let shard a = Shard_map.shard_of map (Printf.sprintf "acct%d" a) in
  let rec find a =
    if a > 64 then Alcotest.fail "no cross pair in 64 accounts"
    else if shard a <> shard 0 then Printf.sprintf "acct%d" a
    else find (a + 1)
  in
  ("acct0", find 1)

(* every database of [key]'s home shard agrees on its committed balance *)
let check_balance c key expect =
  let home = Cluster.shard_of_key c key in
  List.iter
    (fun (dbpid, rm) ->
      match Dbms.Rm.read_committed rm key with
      | Some (Dbms.Value.Int v) when v = expect -> ()
      | v ->
          Alcotest.failf "%s on shard %d (db p%d): %s, want %d" key home dbpid
            (match v with
            | Some x -> Dbms.Value.to_string x
            | None -> "missing")
            expect)
    (Cluster.group c home).dbs

let heartbeat =
  Appserver.Fd_heartbeat { period = 10.; initial_timeout = 60.; timeout_bump = 30. }

(* ------------------------------------------------------------------ *)
(* Failure-free cross-shard transfer: both shards' databases apply their
   branch, the client gets the committed transfer result, and the full
   cluster spec — global atomicity included — is clean. *)

let test_cross_transfer_commits () =
  let map = Shard_map.create ~shards:2 () in
  let a, b = cross_pair map in
  let seed_data = Workload.Bank.seed_accounts [ (a, 100); (b, 5) ] in
  let _e, c =
    Harness.Simrun.cluster ~seed:13 ~map ~seed_data ~cross:true
      ~business:Workload.Bank.transfer
      ~scripts:[ (fun ~issue -> ignore (issue (Printf.sprintf "%s:%s:30" a b))) ]
      ()
  in
  Alcotest.(check bool) "quiesced" true
    (Cluster.run_to_quiescence ~deadline:300_000. c);
  (match Cluster.all_records c with
  | [ r ] ->
      Alcotest.(check string) "result"
        (Printf.sprintf "transferred:30:%s->%s" a b)
        r.result
  | rs -> Alcotest.failf "expected one record, got %d" (List.length rs));
  check_balance c a 70;
  check_balance c b 35;
  Alcotest.(check (list string)) "cluster spec" [] (Cluster.Spec.check_all c)

(* ------------------------------------------------------------------ *)
(* A lone participant's abort vote aborts every shard: the debit branch
   fails its funds guard and votes no, so the credit branch — prepared and
   voting yes on its own shard — must abort too. The transfer degrades to
   the read-only probe on attempt [cross_probe_attempt], whose commit
   carries the failure report; no balance moves anywhere. *)

let test_cross_lone_abort_aborts_all_shards () =
  let map = Shard_map.create ~shards:2 () in
  let a, b = cross_pair map in
  let seed_data = Workload.Bank.seed_accounts [ (a, 10); (b, 0) ] in
  let _e, c =
    Harness.Simrun.cluster ~seed:19 ~map ~seed_data ~cross:true
      ~business:Workload.Bank.transfer
      ~scripts:[ (fun ~issue -> ignore (issue (Printf.sprintf "%s:%s:30" a b))) ]
      ()
  in
  Alcotest.(check bool) "quiesced" true
    (Cluster.run_to_quiescence ~deadline:600_000. c);
  (match Cluster.all_records c with
  | [ r ] ->
      Alcotest.(check string) "failure report"
        (Printf.sprintf "failed:insufficient-funds:%s=10" a)
        r.result;
      Alcotest.(check int) "degraded to the probe plan"
        Workload.Bank.cross_probe_attempt r.tries
  | rs -> Alcotest.failf "expected one record, got %d" (List.length rs));
  check_balance c a 10;
  check_balance c b 0;
  Alcotest.(check (list string)) "cluster spec" [] (Cluster.Spec.check_all c)

(* ------------------------------------------------------------------ *)
(* Path equivalence: with the wiring off, or with it on but a co-located
   workload, the records are identical — the cross machinery adds no
   fiber, message or rng draw to the classic path. *)

let test_cross_wiring_off_equivalence () =
  let map = Shard_map.create ~shards:2 () in
  let kind = Workload.Generator.Bank_transfers { accounts = 8; max_amount = 5 } in
  (* cross_ratio 0: every transfer stays on its source account's shard *)
  let bodies = Workload.Generator.sharded_bodies ~map ~seed:6 ~n:8 kind in
  let scripts =
    [ (fun ~issue -> List.iter (fun (_, b) -> ignore (issue b)) bodies) ]
  in
  let build cross =
    let _e, c =
      Harness.Simrun.cluster ~seed:9 ~map
        ~seed_data:(Workload.Generator.seed_data_of kind)
        ~cross ~business:Workload.Bank.transfer ~scripts ()
    in
    Alcotest.(check bool) "quiesced" true
      (Cluster.run_to_quiescence ~deadline:600_000. c);
    Alcotest.(check (list string)) "cluster spec" [] (Cluster.Spec.check_all c);
    c
  in
  let off = Cluster.all_records (build false) in
  let on = Cluster.all_records (build true) in
  Alcotest.(check int) "same count" (List.length off) (List.length on);
  List.iter2
    (fun (x : Client.record) y ->
      Alcotest.(check bool)
        (Printf.sprintf "record %d identical" x.rid)
        true (x = y))
    off on

(* ------------------------------------------------------------------ *)
(* Coordinator crash mid-commit: the home-shard primary coordinating the
   transfer dies; a peer (re-elected via regA or the suspicion-gated
   cleaner scanning the Gx_elect record) completes or aborts the instance,
   and the client still gets exactly one committed result. *)

let test_cross_coordinator_crash_completed () =
  let map = Shard_map.create ~shards:2 () in
  let a, b = cross_pair map in
  let seed_data = Workload.Bank.seed_accounts [ (a, 100); (b, 5) ] in
  List.iter
    (fun group_commit ->
      let e, c =
        Harness.Simrun.cluster ~seed:17 ~map ~seed_data ~cross:true
          ~client_period:300. ~fd_spec:heartbeat ~group_commit
          ~business:Workload.Bank.transfer
          ~scripts:
            [ (fun ~issue -> ignore (issue (Printf.sprintf "%s:%s:30" a b))) ]
          ()
      in
      let coord = Cluster.primary c ~shard:(Cluster.shard_of_key c a) in
      Dsim.Engine.crash_at e 30. coord;
      Alcotest.(check bool) "quiesced" true
        (Cluster.run_to_quiescence ~deadline:600_000. c);
      (match Cluster.all_records c with
      | [ _ ] -> ()
      | rs -> Alcotest.failf "expected one record, got %d" (List.length rs));
      Alcotest.(check (list string))
        (Printf.sprintf "cluster spec (group commit %b)" group_commit)
        [] (Cluster.Spec.check_all c))
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* The gx RPC sends each request once and moves on only at suspicion or
   silence. [gx_sends e] lists the gx messages the servers sent, as
   (payload, source, destination, time) — the channel's retransmissions of
   a message (the same payload) left out. *)

let gx_sends e =
  List.fold_left
    (fun acc (entry : Dsim.Trace.entry) ->
      match entry.event with
      | Dsim.Trace.Sent (m, _) -> (
          match Dnet.Rchannel.inner_payload m.payload with
          | Some
              ((Etx_types.Gx_branch _ | Etx_types.Gx_complete _
               | Etx_types.Gx_voted _) as p)
            when not (List.exists (fun (p', _, _, _) -> p' == p) acc) ->
              (p, m.src, m.dst, entry.at) :: acc
          | _ -> acc)
      | _ -> acc)
    []
    (Dsim.Trace.entries (Dsim.Engine.trace e))
  |> List.rev

let branches_of_try e j =
  List.filter
    (function Etx_types.Gx_branch { j = j'; _ }, _, _, _ -> j' = j | _ -> false)
    (gx_sends e)

let transfer_cluster ?net ?fd_spec ~seed () =
  let map = Shard_map.create ~shards:2 () in
  let a, b = cross_pair map in
  let seed_data = Workload.Bank.seed_accounts [ (a, 100); (b, 5) ] in
  let e, c =
    Harness.Simrun.cluster ~seed ?net ?fd_spec ~map ~seed_data ~cross:true
      ~client_period:300. ~business:Workload.Bank.transfer
      ~scripts:[ (fun ~issue -> ignore (issue (Printf.sprintf "%s:%s:30" a b))) ]
      ()
  in
  let home = Cluster.shard_of_key c a in
  (e, c, Cluster.primary c ~shard:home, (Cluster.group c (1 - home)).app_servers)

let test_gx_one_request_each () =
  let e, c, _, _ = transfer_cluster ~seed:13 () in
  Alcotest.(check bool) "quiesced" true
    (Cluster.run_to_quiescence ~deadline:300_000. c);
  let count f = List.length (List.filter f (gx_sends e)) in
  Alcotest.(check int) "one Gx_branch" 1
    (count (function Etx_types.Gx_branch _, _, _, _ -> true | _ -> false));
  Alcotest.(check int) "one Gx_complete" 1
    (count (function Etx_types.Gx_complete _, _, _, _ -> true | _ -> false));
  Alcotest.(check (list string)) "cluster spec" [] (Cluster.Spec.check_all c)

(* The branch's target crashes mid-branch (the branch runs ~190 ms from
   ~6 ms). The coordinator sends the branch to the next server of the
   shard at the suspicion — the crash instant under the oracle, the
   monitor tick that suspects under heartbeats — and to no one else; that
   server lost the executor election to the dead target, so it contests
   the vote and replies, and the client's retry commits. *)
let test_gx_moves_on_at_suspicion fd () =
  let crash = 100.25 in
  let fd_spec, latest =
    match fd with
    | `Oracle -> (Appserver.Fd_oracle, crash)
    | `Heartbeat -> (heartbeat, crash +. 60. +. 10.)
  in
  let e, c, coord, targets = transfer_cluster ~fd_spec ~seed:13 () in
  let t0 = List.hd targets in
  Dsim.Engine.crash_at e crash t0;
  Alcotest.(check bool) "quiesced" true
    (Cluster.run_to_quiescence ~deadline:600_000. c);
  (match branches_of_try e 1 with
  | [ (_, s0, d0, _); (_, s1, d1, at) ] ->
      Alcotest.(check (pair int int)) "first to the target" (coord, t0) (s0, d0);
      Alcotest.(check int) "then from the coordinator" coord s1;
      Alcotest.(check bool) "to another server of the shard" true
        (d1 <> t0 && List.mem d1 targets);
      Alcotest.(check bool)
        (Printf.sprintf "moved on at the suspicion (%.3f)" at)
        true
        (at >= crash && at <= latest)
  | l -> Alcotest.failf "%d Gx_branch sends for try 1" (List.length l));
  (match Cluster.all_records c with
  | [ r ] -> Alcotest.(check bool) "committed on a retry" true (r.tries > 1)
  | rs -> Alcotest.failf "expected one record, got %d" (List.length rs));
  Alcotest.(check (list string)) "cluster spec" [] (Cluster.Spec.check_all c)

(* The link from the coordinator to the branch's first target is slow
   (150 ms), so the channel reports the target silent at 70 ms and the
   coordinator moves on. The next server wins the executor election; the
   first target gets its single request late, loses the election to that
   live executor, and answers once the vote register decides. *)
let test_gx_loser_replies_on_decision () =
  let slow = ref (-1, -1) in
  let base = Dnet.Netmodel.three_tier ~n_dbs:2 () in
  let net rng ~src ~dst =
    if (src, dst) = !slow then [ 150. ] else base rng ~src ~dst
  in
  let e, c, coord, targets = transfer_cluster ~net ~seed:13 () in
  let t0 = List.hd targets in
  slow := (coord, t0);
  Alcotest.(check bool) "quiesced" true
    (Cluster.run_to_quiescence ~deadline:600_000. c);
  let sends = gx_sends e in
  let to_t0 =
    List.filter
      (function Etx_types.Gx_branch _, _, d, _ -> d = t0 | _ -> false)
      sends
  in
  let t0_votes =
    List.filter
      (function Etx_types.Gx_voted _, s, d, _ -> s = t0 && d = coord | _ -> false)
      sends
  in
  (match (to_t0, t0_votes) with
  | [ (_, _, _, sent) ], [ (Etx_types.Gx_voted { ok; _ }, _, _, at) ] ->
      Alcotest.(check bool) "the vote is yes" true ok;
      (* delivered at sent + 150; the live executor's branch takes ~190 ms *)
      Alcotest.(check bool)
        (Printf.sprintf "answered after waiting for the vote (%.1f)" at)
        true
        (at > sent +. 150. +. 50.)
  | l, v ->
      Alcotest.failf "%d Gx_branch frames to the first target, %d votes back"
        (List.length l) (List.length v));
  (match Cluster.all_records c with
  | [ r ] -> Alcotest.(check int) "committed on the first try" 1 r.tries
  | rs -> Alcotest.failf "expected one record, got %d" (List.length rs));
  (* a vote that reaches the coordinator after its RPC returned is
     dropped, not left queued *)
  Alcotest.(check int) "no unread gx reply at the coordinator" 0
    (Dsim.Engine.mailbox_length e ~cls:Etx_types.cls_gx_reply coord);
  Alcotest.(check (list string)) "cluster spec" [] (Cluster.Spec.check_all c)

(* qcheck sweep: 2–3 shards of all-cross transfers, one home-group server
   (the coordinator at index 0, or a would-be takeover peer) crashed at a
   random point mid-commit. Global atomicity, global exactly-once and the
   per-shard obligations must hold in every schedule. *)
let cross_spec_under_crash ~group_commit (seed, shards, crash_time, victim_i) =
  let map = Shard_map.create ~shards () in
  let kind =
    Workload.Generator.Bank_transfers
      { accounts = 4 * shards; max_amount = 5 }
  in
  let bodies =
    Workload.Generator.sharded_bodies ~map ~cross_ratio:1.0 ~seed ~n:4 kind
  in
  let halves = List.filteri (fun i _ -> i mod 2 = 0) bodies in
  let rest = List.filteri (fun i _ -> i mod 2 = 1) bodies in
  let scripts =
    List.map
      (fun slice ~issue ->
        List.iter (fun (_, b) -> ignore (issue b)) slice)
      [ halves; rest ]
  in
  let e, c =
    Harness.Simrun.cluster ~seed ~map ~client_period:300.
      ~fd_spec:heartbeat ~group_commit
      ~seed_data:(Workload.Generator.seed_data_of kind)
      ~cross:true ~business:Workload.Bank.transfer ~scripts ()
  in
  let home = fst (List.hd bodies) in
  let victim = List.nth (Cluster.group c home).app_servers victim_i in
  Dsim.Engine.crash_at e crash_time victim;
  Cluster.run_to_quiescence ~deadline:600_000. c
  && Cluster.Spec.check_all c = []

let prop_cross_spec_under_coordinator_crash =
  QCheck.Test.make
    ~name:"cross-shard spec under coordinator crash (2-3 shards)" ~count:10
    QCheck.(
      pair
        (quad (int_range 0 100_000) (int_range 2 3) (float_range 1. 400.)
           (int_range 0 2))
        bool)
    (fun (schedule, group_commit) ->
      cross_spec_under_crash ~group_commit schedule)

(* A schedule that committed one transfer twice at a database while
   group commit let two Decide sessions for it overlap. *)
let test_cross_recorded_group_commit_schedule () =
  Alcotest.(check bool) "cluster spec" true
    (cross_spec_under_crash ~group_commit:true (46673, 3, 331.998824353, 0))

(* ------------------------------------------------------------------ *)
(* Observability: the gx counters flow through the obs sink when a
   registry is attached, and are never emitted — not even as zero
   series — when the wiring is off. *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_cross_obs_counters () =
  let reg = Obs.Registry.create () in
  let map = Shard_map.create ~shards:2 () in
  let a, b = cross_pair map in
  let seed_data = Workload.Bank.seed_accounts [ (a, 100); (b, 5) ] in
  let _e, c =
    Harness.Simrun.cluster ~seed:13 ~obs:reg ~map ~seed_data ~cross:true
      ~business:Workload.Bank.transfer
      ~scripts:[ (fun ~issue -> ignore (issue (Printf.sprintf "%s:%s:30" a b))) ]
      ()
  in
  Alcotest.(check bool) "quiesced" true
    (Cluster.run_to_quiescence ~deadline:300_000. c);
  Alcotest.(check int) "one cross transaction" 1
    (Obs.Registry.counter_total reg "txn.cross_shard");
  Alcotest.(check int) "one instance opened" 1
    (Obs.Registry.counter_total reg "gx.open");
  Alcotest.(check int) "both participants voted yes" 2
    (Obs.Registry.counter_total reg "gx.vote.yes");
  Alcotest.(check int) "no abort votes" 0
    (Obs.Registry.counter_total reg "gx.vote.no");
  Alcotest.(check int) "one global commit" 1
    (Obs.Registry.counter_total reg "gx.commit");
  (match Obs.Registry.merged_histogram reg "commit.participants" with
  | Some h -> Alcotest.(check int) "participants recorded" 1 (Obs.Histogram.count h)
  | None -> Alcotest.fail "commit.participants histogram missing")

let test_cross_obs_zero_emission_when_off () =
  let reg = Obs.Registry.create () in
  let map = Shard_map.create ~shards:2 () in
  let kind = Workload.Generator.Bank_transfers { accounts = 8; max_amount = 5 } in
  let bodies = Workload.Generator.sharded_bodies ~map ~seed:6 ~n:4 kind in
  let _e, c =
    Harness.Simrun.cluster ~seed:5 ~obs:reg ~map
      ~seed_data:(Workload.Generator.seed_data_of kind)
      ~business:Workload.Bank.transfer
      ~scripts:
        [ (fun ~issue -> List.iter (fun (_, b) -> ignore (issue b)) bodies) ]
      ()
  in
  Alcotest.(check bool) "quiesced" true
    (Cluster.run_to_quiescence ~deadline:300_000. c);
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " not emitted") 0
        (Obs.Registry.counter_total reg name))
    [
      "txn.cross_shard"; "gx.open"; "gx.vote.yes"; "gx.vote.no"; "gx.commit";
      "gx.abort"; "gx.complete"; "gx.takeover"; "client.bounced";
    ];
  Alcotest.(check bool) "no participants histogram" true
    (Obs.Registry.merged_histogram reg "commit.participants" = None);
  let dump = Obs.Export_prom.to_string reg in
  Alcotest.(check bool) "no gx metric in the dump" false (contains dump "etx_gx");
  (* the classic pipeline still reports *)
  Alcotest.(check bool) "client.committed still counted" true
    (Obs.Registry.counter_total reg "client.committed" = 4)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "cross"
    [
      ( "commit",
        [
          Alcotest.test_case "cross transfer commits on both shards" `Quick
            test_cross_transfer_commits;
          Alcotest.test_case "lone abort vote aborts every shard" `Quick
            test_cross_lone_abort_aborts_all_shards;
          Alcotest.test_case "one Gx_branch and one Gx_complete" `Quick
            test_gx_one_request_each;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "wiring off = wiring on for co-located load"
            `Quick test_cross_wiring_off_equivalence;
        ] );
      ( "faults",
        [
          Alcotest.test_case "coordinator crash completed by peers" `Quick
            test_cross_coordinator_crash_completed;
          q prop_cross_spec_under_coordinator_crash;
          Alcotest.test_case "recorded schedule under group commit" `Quick
            test_cross_recorded_group_commit_schedule;
          Alcotest.test_case "branch target crash, oracle" `Quick
            (test_gx_moves_on_at_suspicion `Oracle);
          Alcotest.test_case "branch target crash, heartbeat" `Quick
            (test_gx_moves_on_at_suspicion `Heartbeat);
          Alcotest.test_case "election loser replies on the decision" `Quick
            test_gx_loser_replies_on_decision;
        ] );
      ( "obs",
        [
          Alcotest.test_case "gx counters emitted" `Quick
            test_cross_obs_counters;
          Alcotest.test_case "zero emission when off" `Quick
            test_cross_obs_zero_emission_when_off;
        ] );
    ]
