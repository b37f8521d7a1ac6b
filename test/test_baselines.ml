(* Tests for the comparison protocols of the paper's Appendix 3: the
   unreliable baseline, logging 2PC, and primary-backup — including the
   behavioural contrasts the paper argues for (baseline duplication, 2PC
   blocking, primary-backup's need for perfect failure detection). *)

let bank = Workload.Bank.update

let seed_data = Workload.Bank.seed_accounts [ ("card", 1000) ]

let one_debit ~issue = ignore (issue "card:-100")

(* a comparison protocol built on a fresh engine's runtime *)
let on_engine build =
  let e, rt = Harness.Simrun.engine () in
  (e, build ~rt)

let balance dbs =
  let _, rm = List.hd dbs in
  match Dbms.Rm.read_committed rm "card" with
  | Some (Dbms.Value.Int v) -> v
  | Some (Dbms.Value.Str _) | None -> Alcotest.fail "card balance missing"

(* ------------------------------------------------------------------ *)
(* Baseline *)

let test_baseline_nice_run () =
  let e, b =
    on_engine @@ Baselines.Baseline.build ~seed_data ~business:bank
      ~script:(fun ~issue ->
        let r = issue "card:-100" in
        Alcotest.(check int) "one try" 1 r.tries)
      ()
  in
  let ok =
    Dsim.Engine.run_until ~deadline:60_000. e (fun () ->
        Etx.Client.script_done b.client)
  in
  Alcotest.(check bool) "finished" true ok;
  Alcotest.(check int) "debited once" 900 (balance b.dbs)

let test_baseline_latency_beats_everyone () =
  let e, b =
    on_engine @@ Baselines.Baseline.build ~seed_data ~business:bank ~script:one_debit ()
  in
  ignore
    (Dsim.Engine.run_until ~deadline:60_000. e (fun () ->
         Etx.Client.script_done b.client));
  match Etx.Client.records b.client with
  | [ r ] ->
      let latency = r.delivered_at -. r.issued_at in
      Alcotest.(check bool)
        (Printf.sprintf "latency %.1f near 217" latency)
        true
        (latency > 205. && latency < 230.)
  | _ -> Alcotest.fail "expected one record"

let test_baseline_double_charge () =
  (* The motivating hazard: crash after commit, before reply; the retry is
     a new transaction and the card is charged twice. *)
  let e, b =
    on_engine @@ Baselines.Baseline.build ~client_period:300. ~seed_data ~business:bank
      ~script:one_debit ()
  in
  Dsim.Engine.crash_at e 200. b.server;
  Dsim.Engine.recover_at e 280. b.server;
  ignore
    (Dsim.Engine.run_until ~deadline:120_000. e (fun () ->
         Etx.Client.script_done b.client));
  Alcotest.(check int) "charged twice" 800 (balance b.dbs)

let test_baseline_user_abort_propagates () =
  (* A poisoned transaction must not one-phase-commit. *)
  let e, b =
    on_engine @@ Baselines.Baseline.build
      ~seed_data:(Workload.Bank.seed_accounts [ ("a", 10); ("b", 0) ])
      ~business:Workload.Bank.transfer
      ~script:(fun ~issue ->
        let r = issue "a:b:100" in
        Alcotest.(check bool) "eventually a failure report" true
          (r.tries >= 2))
      ()
  in
  let ok =
    Dsim.Engine.run_until ~deadline:120_000. e (fun () ->
        Etx.Client.script_done b.client)
  in
  Alcotest.(check bool) "finished" true ok;
  let _, rm = List.hd b.dbs in
  Alcotest.(check bool) "no partial transfer" true
    (Dbms.Rm.read_committed rm "a" = Some (Dbms.Value.Int 10))

(* ------------------------------------------------------------------ *)
(* 2PC *)

let test_tpc_nice_run () =
  let e, t =
    on_engine @@ Baselines.Tpc.build ~seed_data ~business:bank
      ~script:(fun ~issue ->
        let r = issue "card:-100" in
        Alcotest.(check int) "one try" 1 r.tries)
      ()
  in
  let ok =
    Dsim.Engine.run_until ~deadline:60_000. e (fun () ->
        Etx.Client.script_done t.client)
  in
  Alcotest.(check bool) "finished" true ok;
  Alcotest.(check int) "debited once" 900 (balance t.dbs);
  Alcotest.(check int) "two forced IOs" 2
    (Dstore.Disk.forced_writes t.coordinator_disk)

let test_tpc_blocking_then_recovery_resolves () =
  (* Crash the coordinator between the votes and the decide: the database
     stays in-doubt — locks held — until the coordinator recovers (2PC is
     blocking). Presumed-nothing recovery then aborts. *)
  let e, t =
    on_engine @@ Baselines.Tpc.build ~client_period:300. ~seed_data ~business:bank
      ~script:one_debit ()
  in
  (* with the calibrated model, votes are in around t≈228 and the outcome
     record is forced at ≈229-242 *)
  Dsim.Engine.crash_at e 228.5 t.coordinator;
  ignore (Dsim.Engine.run ~deadline:2_000. e);
  let _, rm = List.hd t.dbs in
  Alcotest.(check int) "in-doubt while coordinator down" 1
    (List.length (Dbms.Rm.in_doubt rm));
  Alcotest.(check bool) "locks held (blocking!)" true
    (List.length (Dbms.Rm.locks_held rm) > 0);
  (* recovery resolves it *)
  Dsim.Engine.recover e t.coordinator;
  ignore (Dsim.Engine.run ~deadline:120_000. e);
  Alcotest.(check int) "resolved after recovery" 0
    (List.length (Dbms.Rm.in_doubt rm));
  Alcotest.(check int) "no locks" 0 (List.length (Dbms.Rm.locks_held rm))

let test_etx_not_blocking_same_crash () =
  (* Contrast: the e-Transaction protocol resolves the same crash without
     the crashed process ever coming back. *)
  let e, d =
    Harness.Simrun.cluster ~client_period:300. ~seed_data ~business:bank
      ~scripts:[ one_debit ] ()
  in
  (* crash the primary right after the votes came back *)
  Dsim.Engine.crash_at e 222. (Cluster.primary d ~shard:0);
  let ok = Cluster.run_to_quiescence ~deadline:120_000. d in
  Alcotest.(check bool) "resolved without recovery" true ok;
  let _, rm = List.hd (Cluster.group d 0).dbs in
  Alcotest.(check int) "no in-doubt" 0 (List.length (Dbms.Rm.in_doubt rm));
  Alcotest.(check (list string)) "spec holds" [] (Cluster.Spec.check_all d)

let test_tpc_recovery_redrives_logged_commit () =
  (* Crash after the outcome record was forced but before the decides went
     out: recovery must re-drive the COMMIT. *)
  let e, t =
    on_engine @@ Baselines.Tpc.build ~client_period:300. ~seed_data ~business:bank
      ~script:one_debit ()
  in
  (* log-outcome is forced around t≈229-241.5; crash just after *)
  Dsim.Engine.crash_at e 241.8 t.coordinator;
  Dsim.Engine.recover_at e 400. t.coordinator;
  ignore
    (Dsim.Engine.run_until ~deadline:120_000. e (fun () ->
         Etx.Client.script_done t.client));
  let _, rm = List.hd t.dbs in
  Alcotest.(check int) "no in-doubt" 0 (List.length (Dbms.Rm.in_doubt rm));
  (* the logged commit was re-driven: the money moved exactly once, even
     though the client also retried (getting a fresh-transaction result) *)
  Alcotest.(check bool) "committed outcome re-driven" true
    (List.exists
       (function
         | Baselines.Tpc.L_outcome (_, Dbms.Rm.Commit) -> true
         | Baselines.Tpc.L_outcome (_, Dbms.Rm.Abort) | Baselines.Tpc.L_start _
           ->
             false)
       (Dstore.Log.records t.log))

(* ------------------------------------------------------------------ *)
(* Primary-backup *)

let test_pb_nice_run () =
  let e, p =
    on_engine @@ Baselines.Pbackup.build ~seed_data ~business:bank
      ~script:(fun ~issue ->
        let r = issue "card:-100" in
        Alcotest.(check int) "one try" 1 r.tries)
      ()
  in
  let ok =
    Dsim.Engine.run_until ~deadline:60_000. e (fun () ->
        Etx.Client.script_done p.client)
  in
  Alcotest.(check bool) "finished" true ok;
  Alcotest.(check int) "debited once" 900 (balance p.dbs)

let test_pb_failover_with_oracle_fd () =
  (* Primary crashes mid-compute; the backup (perfect detector) aborts the
     recorded transaction and serves the client's retry itself. *)
  let e, p =
    on_engine @@ Baselines.Pbackup.build ~client_period:300. ~seed_data ~business:bank
      ~script:one_debit ()
  in
  Dsim.Engine.crash_at e 100. p.primary;
  let ok =
    Dsim.Engine.run_until ~deadline:120_000. e (fun () ->
        Etx.Client.script_done p.client)
  in
  Alcotest.(check bool) "client served by backup" true ok;
  Alcotest.(check int) "debited exactly once" 900 (balance p.dbs)

let test_pb_failover_finishes_recorded_commit () =
  (* Primary crashes after recording the commit outcome at the backup but
     before the decides: the backup finishes the COMMIT. *)
  let e, p =
    on_engine @@ Baselines.Pbackup.build ~client_period:300. ~seed_data ~business:bank
      ~script:one_debit ()
  in
  (* outcome is recorded at the backup around t≈232 *)
  Dsim.Engine.crash_at e 236. p.primary;
  let ok =
    Dsim.Engine.run_until ~deadline:120_000. e (fun () ->
        Etx.Client.script_done p.client)
  in
  Alcotest.(check bool) "delivered" true ok;
  Alcotest.(check int) "committed exactly once" 900 (balance p.dbs)

let test_pb_false_suspicion_inconsistency () =
  (* The paper's warning, demonstrated: with an imperfect detector a false
     suspicion makes the (alive) primary and the promoted backup decide
     concurrently, and with skewed link latencies two databases receive
     OPPOSITE decisions first — permanent divergence. The e-Transaction
     protocol closes exactly this hole with wo-registers. *)
  let n_dbs = 2 in
  (* db pids are 0 and 1; primary 2, backup 3, client 4 *)
  let net _rng ~src ~dst =
    let link a b =
      match (a, b) with
      | 2, 0 | 0, 2 -> 1.0 (* primary <-> db1: fast *)
      | 2, 1 | 1, 2 -> 40.0 (* primary <-> db2: slow *)
      | 3, 0 | 0, 3 -> 80.0 (* backup <-> db1: slower *)
      | 3, 1 | 1, 3 -> 1.0 (* backup <-> db2: fast *)
      | 2, 3 | 3, 2 -> 60.0 (* primary <-> backup: slow records *)
      | _ -> 2.0
    in
    [ link src dst ]
  in
  (* falsely suspect the primary from t=600 even though it is alive; the
     predicate runs inside the backup's fiber, so it can read virtual time
     through the runtime it was built on *)
  let backup_fd _rt =
    Dnet.Fdetect.of_fun ~peers:[ 2 ] (fun pid ->
        pid = 2 && Runtime.Etx_runtime.now () > 600.)
  in
  let e, p =
    on_engine @@ Baselines.Pbackup.build ~net ~n_dbs ~client_period:10_000. ~seed_data
      ~business:bank ~backup_fd ~script:one_debit ()
  in
  ignore (Dsim.Engine.run ~deadline:60_000. e);
  let rm1 = snd (List.nth p.dbs 0) and rm2 = snd (List.nth p.dbs 1) in
  let rid =
    match Etx.Client.records p.client with
    | [ r ] -> r.rid
    | _ -> Alcotest.fail "expected one delivered record"
  in
  let xid = Dbms.Xid.make ~rid ~j:1 in
  let ph rm =
    match Dbms.Rm.phase_of rm xid with
    | Some Dbms.Rm.Committed -> "C"
    | Some Dbms.Rm.Aborted -> "A"
    | Some Dbms.Rm.Prepared -> "P"
    | Some Dbms.Rm.Active -> "act"
    | None -> "?"
  in
  (* the divergence: db1 committed, db2 aborted *)
  Alcotest.(check string) "db1 committed" "C" (ph rm1);
  Alcotest.(check string) "db2 aborted" "A" (ph rm2)

let () =
  Alcotest.run "baselines"
    [
      ( "baseline",
        [
          Alcotest.test_case "nice run" `Quick test_baseline_nice_run;
          Alcotest.test_case "latency ~217ms" `Quick
            test_baseline_latency_beats_everyone;
          Alcotest.test_case "double charge on retry" `Quick
            test_baseline_double_charge;
          Alcotest.test_case "user abort propagates" `Quick
            test_baseline_user_abort_propagates;
        ] );
      ( "2pc",
        [
          Alcotest.test_case "nice run + 2 forced IOs" `Quick test_tpc_nice_run;
          Alcotest.test_case "blocking until recovery" `Quick
            test_tpc_blocking_then_recovery_resolves;
          Alcotest.test_case "e-Transactions not blocking" `Quick
            test_etx_not_blocking_same_crash;
          Alcotest.test_case "recovery re-drives logged commit" `Quick
            test_tpc_recovery_redrives_logged_commit;
        ] );
      ( "primary-backup",
        [
          Alcotest.test_case "nice run" `Quick test_pb_nice_run;
          Alcotest.test_case "fail-over (abort path)" `Quick
            test_pb_failover_with_oracle_fd;
          Alcotest.test_case "fail-over finishes commit" `Quick
            test_pb_failover_finishes_recorded_commit;
          Alcotest.test_case "false suspicion diverges (paper's warning)"
            `Quick test_pb_false_suspicion_inconsistency;
        ] );
    ]
