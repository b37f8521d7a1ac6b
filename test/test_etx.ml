(* End-to-end tests of the e-Transaction protocol against the paper's
   specification (Section 3): Termination T.1/T.2, Agreement A.1/A.2/A.3,
   Validity V.1/V.2 — in nice runs, under fail-over, and under random fault
   injection. *)

open Etx

let check_no_violations label d =
  let violations = Cluster.Spec.check_all d in
  if violations <> [] then
    Alcotest.failf "%s: %s" label (String.concat "; " violations)

(* The paper's deployment is a one-shard cluster: its single spec view. *)
let view d = List.hd (Cluster.Spec.shard_views d)

(* A bank-ish business per the paper's footnote 4: attempt 1 fails a guard
   when the seed balance is too low (user-level abort → that try's
   transaction is poisoned and votes No); later attempts compute a
   committable informational result instead. *)
let debit_or_report ~amount =
  Business.make ~label:"debit-or-report"
    (fun ctx ~body ->
        let db = List.hd ctx.Business.dbs in
        if ctx.Business.attempt = 1 then
          match
            ctx.Business.exec ~db
              [
                Dbms.Rm.Ensure_min ("balance", amount);
                Dbms.Rm.Add ("balance", -amount);
              ]
          with
          | Dbms.Rm.Exec_ok { business_ok = true; _ } ->
              Printf.sprintf "debited:%d:%s" amount body
          | Dbms.Rm.Exec_ok { business_ok = false; _ } -> "insufficient-funds"
          | Dbms.Rm.Exec_conflict _ | Dbms.Rm.Exec_rejected -> "error"
        else
          (* informational result: no writes, commits trivially *)
          match ctx.Business.exec ~db [ Dbms.Rm.Get "balance" ] with
          | Dbms.Rm.Exec_ok { values = [ v ]; _ } ->
              Printf.sprintf "report:balance=%s"
                (match v with
                | Some value -> Dbms.Value.to_string value
                | None -> "none")
          | _ -> "report:unavailable")

let one_request ?seed ?net ?n_app_servers ?n_dbs ?fd_spec ?seed_data
    ?client_period ?group_commit ?business () =
  let business = Option.value ~default:Business.trivial business in
  Harness.Simrun.cluster ?seed ?net ?n_app_servers ?n_dbs ?fd_spec ?seed_data
    ?client_period ?group_commit ~business
    ~scripts:[ (fun ~issue -> ignore (issue "req-1")) ]
    ()

(* ------------------------------------------------------------------ *)
(* Nice runs *)

let test_nice_run_commits () =
  let _e, d = one_request () in
  let ok = Cluster.run_to_quiescence d in
  Alcotest.(check bool) "quiesced" true ok;
  (match Cluster.all_records d with
  | [ r ] ->
      Alcotest.(check int) "single try" 1 r.tries;
      Alcotest.(check string) "result" "ok:req-1" r.result
  | rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs));
  check_no_violations "nice run" d

let test_three_sequential_requests () =
  let _e, d =
    Harness.Simrun.cluster ~business:Business.trivial
      ~scripts:
        [
          (fun ~issue ->
            ignore (issue "alpha");
            ignore (issue "beta");
            ignore (issue "gamma"));
        ]
      ()
  in
  let ok = Cluster.run_to_quiescence d in
  Alcotest.(check bool) "quiesced" true ok;
  Alcotest.(check int) "three results" 3 (List.length (Cluster.all_records d));
  List.iter
    (fun (r : Client.record) ->
      Alcotest.(check int) "first try each" 1 r.tries)
    (Cluster.all_records d);
  check_no_violations "sequential requests" d

let test_nice_run_latency_matches_paper_shape () =
  (* With the calibrated model a committed e-Transaction should take around
     250 ms as seen by the client (the paper measured 252.3). *)
  let _e, d = one_request () in
  ignore (Cluster.run_to_quiescence d);
  match Cluster.all_records d with
  | [ r ] ->
      let latency = r.delivered_at -. r.issued_at in
      Alcotest.(check bool)
        (Printf.sprintf "latency %.1f in [230,280]" latency)
        true
        (latency > 230. && latency < 280.)
  | _ -> Alcotest.fail "expected one record"

let test_user_level_abort_then_commit () =
  (* balance 10 < 100: attempt 1 poisons and aborts; attempt 2 reports and
     commits. Exactly the paper's footnote-4 behaviour. *)
  let _e, d =
    Harness.Simrun.cluster
      ~seed_data:[ ("balance", Dbms.Value.Int 10) ]
      ~business:(debit_or_report ~amount:100)
      ~scripts:[ (fun ~issue -> ignore (issue "pay")) ]
      ()
  in
  let ok = Cluster.run_to_quiescence d in
  Alcotest.(check bool) "quiesced" true ok;
  (match Cluster.all_records d with
  | [ r ] ->
      Alcotest.(check int) "two tries" 2 r.tries;
      Alcotest.(check string) "report delivered" "report:balance=10" r.result
  | _ -> Alcotest.fail "expected one record");
  check_no_violations "user-level abort" d;
  (* the failed debit must not have applied *)
  let _, rm = List.hd (Cluster.group d 0).dbs in
  Alcotest.(check bool) "balance untouched" true
    (Dbms.Rm.read_committed rm "balance" = Some (Dbms.Value.Int 10))

let test_successful_debit_applies_once () =
  let _e, d =
    Harness.Simrun.cluster
      ~seed_data:[ ("balance", Dbms.Value.Int 500) ]
      ~business:(debit_or_report ~amount:100)
      ~scripts:[ (fun ~issue -> ignore (issue "pay")) ]
      ()
  in
  ignore (Cluster.run_to_quiescence d);
  check_no_violations "successful debit" d;
  let _, rm = List.hd (Cluster.group d 0).dbs in
  Alcotest.(check bool) "balance debited exactly once" true
    (Dbms.Rm.read_committed rm "balance" = Some (Dbms.Value.Int 400))

let test_multiple_dbs_all_commit () =
  let _e, d = one_request ~n_dbs:3 () in
  let ok = Cluster.run_to_quiescence d in
  Alcotest.(check bool) "quiesced" true ok;
  check_no_violations "multi-db" d;
  match Cluster.all_records d with
  | [ r ] ->
      let xid = Dbms.Xid.make ~rid:r.rid ~j:r.tries in
      List.iter
        (fun (_, rm) ->
          Alcotest.(check bool)
            (Printf.sprintf "committed at %s" (Dbms.Rm.name rm))
            true
            (Dbms.Rm.phase_of rm xid = Some Dbms.Rm.Committed))
        (Cluster.group d 0).dbs
  | _ -> Alcotest.fail "expected one record"

(* ------------------------------------------------------------------ *)
(* Fail-over *)

let test_failover_abort_midcompute () =
  (* Primary crashes mid-SQL (t=100ms): Fig. 1(d). The cleaner aborts try 1,
     the client retries, another server commits try 2. *)
  let e, d = one_request ~client_period:300. () in
  Dsim.Engine.crash_at e 100. (Cluster.primary d ~shard:0);
  let ok = Cluster.run_to_quiescence d ~deadline:60_000. in
  Alcotest.(check bool) "quiesced" true ok;
  (match Cluster.all_records d with
  | [ r ] -> Alcotest.(check bool) "retried" true (r.tries >= 2)
  | _ -> Alcotest.fail "expected one record");
  check_no_violations "fail-over abort" d

let test_failover_commit_after_regd () =
  (* Primary crashes after the decision landed in regD but before it could
     terminate: Fig. 1(c). The cleaner must finish the COMMIT and the client
     must deliver try 1's result. *)
  let e, d = one_request ~client_period:300. () in
  (* regD write completes around t≈225ms with the calibrated model *)
  Dsim.Engine.crash_at e 230. (Cluster.primary d ~shard:0);
  let ok = Cluster.run_to_quiescence d ~deadline:60_000. in
  Alcotest.(check bool) "quiesced" true ok;
  check_no_violations "fail-over commit" d

let test_client_crash_t2_holds () =
  (* The client crashes mid-request. Nothing is delivered, but no database
     may stay blocked (T.2) — the cleaning thread unblocks them. *)
  let e, d = one_request ~client_period:300. () in
  Dsim.Engine.crash_at e 100. (Cluster.primary d ~shard:0);
  Dsim.Engine.crash_at e 150. (Client.pid (List.hd d.clients));
  ignore (Dsim.Engine.run ~deadline:60_000. e);
  Alcotest.(check (list string)) "T.2" [] (Spec.View.termination_t2 (view d));
  Alcotest.(check (list string)) "A.3" [] (Spec.View.agreement_a3 (view d));
  Alcotest.(check int) "nothing delivered" 0
    (List.length (Cluster.all_records d))

let test_db_crash_recovery () =
  (* The (good) database crashes during the run and recovers; the protocol
     must still terminate with a committed result. *)
  let e, d = one_request ~client_period:300. () in
  let db = fst (List.hd (Cluster.group d 0).dbs) in
  Dsim.Engine.crash_at e 120. db;
  Dsim.Engine.recover_at e 400. db;
  let ok = Cluster.run_to_quiescence d ~deadline:120_000. in
  Alcotest.(check bool) "quiesced" true ok;
  check_no_violations "db crash+recovery" d

let test_two_of_five_appservers_crash () =
  let e, d = one_request ~n_app_servers:5 ~client_period:300. () in
  (match (Cluster.group d 0).app_servers with
  | a1 :: a2 :: _ ->
      Dsim.Engine.crash_at e 50. a1;
      Dsim.Engine.crash_at e 180. a2
  | _ -> Alcotest.fail "expected five servers");
  let ok = Cluster.run_to_quiescence d ~deadline:120_000. in
  Alcotest.(check bool) "quiesced" true ok;
  check_no_violations "minority crash (5 servers)" d

(* ------------------------------------------------------------------ *)
(* Systematic coverage and extensions *)

let test_crash_at_every_point () =
  (* Sweep the primary's crash time across the whole protocol timeline
     (registration, compute, prepare, regD write, terminate, reply): the
     specification must hold at EVERY cut point, whether the database
     forces each record on its own or coalesces forces (group commit). *)
  List.iter
    (fun group_commit ->
      let t = ref 5. in
      while !t < 270. do
        let e, d = one_request ~client_period:300. ~group_commit () in
        Dsim.Engine.crash_at e !t (Cluster.primary d ~shard:0);
        let fail fmt =
          Alcotest.failf ("crash at %.1f (group commit %b): " ^^ fmt) !t
            group_commit
        in
        if not (Cluster.run_to_quiescence ~deadline:120_000. d) then
          fail "did not quiesce";
        (match Cluster.Spec.check_all d with
        | [] -> ()
        | vs -> fail "%s" (String.concat "; " vs));
        (match Cluster.all_records d with
        | [ _ ] -> ()
        | rs -> fail "%d records" (List.length rs));
        t := !t +. 12.
      done)
    [ false; true ]

(* Regression: under group commit the database runs every Decide in its
   own session. With the primary crashed at 221 ms, both surviving
   servers' cleaners decide regD = commit for the first request and each
   sends Decide for the same transaction; the second must wait for the
   first instead of committing it again (two W_committed records, two
   commit-order entries, an A.2 and exactly-once violation). *)
let test_group_commit_duplicate_decide () =
  let e, d =
    Harness.Simrun.cluster ~seed:42 ~client_period:300. ~group_commit:true
      ~seed_data:(Workload.Bank.seed_accounts [ ("acct0", 1_000_000) ])
      ~business:Workload.Bank.update
      ~scripts:
        [
          (fun ~issue ->
            for i = 1 to 3 do
              ignore (issue (Printf.sprintf "acct0:%d" i))
            done);
        ]
      ()
  in
  Dsim.Engine.crash_at e 221. (Cluster.primary d ~shard:0);
  Alcotest.(check bool) "quiesced" true
    (Cluster.run_to_quiescence ~deadline:600_000. d);
  check_no_violations "duplicate decide" d;
  let _, rm = List.hd (Cluster.group d 0).dbs in
  Alcotest.(check int) "one commit per request" 3
    (List.length (Dbms.Rm.committed_xids rm));
  Alcotest.(check bool) "balance" true
    (Dbms.Rm.read_committed rm "acct0" = Some (Dbms.Value.Int 1_000_006))

let test_heartbeat_fd_nice_run () =
  (* With a real (imperfect) detector and default parameters, a failure-free
     run must behave exactly like the oracle run: one try, no cleaner
     interference from false suspicions. *)
  let _e, d =
    one_request
      ~fd_spec:
        (Appserver.Fd_heartbeat
           { period = 10.; initial_timeout = 60.; timeout_bump = 30. })
      ()
  in
  let ok = Cluster.run_to_quiescence ~deadline:60_000. d in
  Alcotest.(check bool) "quiesced" true ok;
  (match Cluster.all_records d with
  | [ r ] -> Alcotest.(check int) "one try" 1 r.tries
  | _ -> Alcotest.fail "expected one record");
  check_no_violations "heartbeat nice run" d

let test_partitioned_minority_server () =
  (* One (non-primary) application server is partitioned away for a while:
     the majority makes progress; after healing everything settles. *)
  let partition, net =
    Dnet.Netmodel.partitionable (Dnet.Netmodel.three_tier ~n_dbs:1 ())
  in
  let e, d =
    Harness.Simrun.cluster ~net ~business:Business.trivial
      ~scripts:
        [
          (fun ~issue ->
            ignore (issue "during-partition");
            ignore (issue "after-heal"));
        ]
      ()
  in
  let a3 = List.nth (Cluster.group d 0).app_servers 2 in
  Dnet.Netmodel.isolate partition a3;
  Dsim.Engine.schedule e ~delay:400. (fun () ->
      Dnet.Netmodel.heal partition);
  let ok = Cluster.run_to_quiescence ~deadline:120_000. d in
  Alcotest.(check bool) "quiesced" true ok;
  Alcotest.(check int) "both delivered" 2
    (List.length (Cluster.all_records d));
  check_no_violations "partition" d

let test_multiple_clients_contention () =
  (* Three clients hammer the same account concurrently: lock conflicts are
     retried, and the final balance reflects every transfer exactly once. *)
  let updates body ~issue =
    for _ = 1 to 3 do
      ignore (issue body)
    done
  in
  let _e, d =
    Harness.Simrun.cluster
      ~seed_data:(Workload.Bank.seed_accounts [ ("hot", 0) ])
      ~business:Workload.Bank.update
      ~scripts:[ updates "hot:1"; updates "hot:10"; updates "hot:10" ]
      ()
  in
  let ok = Cluster.run_to_quiescence ~deadline:600_000. d in
  Alcotest.(check bool) "all clients served" true ok;
  check_no_violations "multi-client" d;
  List.iter
    (fun c ->
      Alcotest.(check int) "three results each" 3
        (List.length (Client.records c)))
    d.clients;
  let _, rm = List.hd (Cluster.group d 0).dbs in
  Alcotest.(check bool) "every update applied exactly once" true
    (Dbms.Rm.read_committed rm "hot" = Some (Dbms.Value.Int 63))

let test_impatient_client_active_replication () =
  (* The paper: "with an impatient client ... we may easily end up in the
     situation where all application servers try to concurrently commit or
     abort a result. In this case, like in an active replication scheme,
     there is no single primary". A 5 ms back-off makes the client broadcast
     almost immediately; several servers then race on regA[1], and the
     write-once register keeps execution exactly-once anyway. *)
  let e, d = one_request ~client_period:5. () in
  let ok = Cluster.run_to_quiescence ~deadline:60_000. d in
  Alcotest.(check bool) "quiesced" true ok;
  (match Cluster.all_records d with
  | [ r ] -> Alcotest.(check int) "still one try" 1 r.tries
  | _ -> Alcotest.fail "expected one record");
  check_no_violations "impatient client" d;
  (* every server received the request (the broadcast raced the primary) *)
  let deliveries =
    List.filter
      (fun (e : Dsim.Trace.entry) ->
        match e.event with
        | Dsim.Trace.Delivered
            { payload = Etx_types.Request_msg { j = 1; _ }; dst; _ } ->
            List.mem dst (Cluster.group d 0).app_servers
        | _ -> false)
      (Dsim.Trace.entries (Dsim.Engine.trace e))
  in
  Alcotest.(check bool) "more than one server engaged" true
    (List.length deliveries >= 2);
  (* and exactly one computation happened *)
  let computed =
    List.filter
      (fun (e : Dsim.Trace.entry) ->
        match e.event with
        | Dsim.Trace.Note (_, s) ->
            String.length s > 9 && String.sub s 0 9 = "computed:"
        | _ -> false)
      (Dsim.Trace.entries (Dsim.Engine.trace e))
  in
  Alcotest.(check int) "exactly one execution" 1 (List.length computed)

(* ------------------------------------------------------------------ *)
(* Concurrent tries at one server *)

let trace_of e = Dsim.Trace.entries (Dsim.Engine.trace e)

let accounts n =
  Workload.Bank.seed_accounts
    (List.init n (fun i -> (Printf.sprintf "acct%d" i, 1000)))

(* client-observed latency of one update per client, each on its own
   account, every first try addressed to the head server *)
let disjoint_update_latencies ~clients =
  let _e, c =
    Harness.Simrun.cluster ~seed:7 ~shards:1 ~seed_data:(accounts clients)
      ~business:Workload.Bank.update
      ~scripts:
        (List.init clients (fun i ~issue ->
             ignore (issue (Printf.sprintf "acct%d:1" i))))
      ()
  in
  Alcotest.(check bool) "quiesced" true (Cluster.run_to_quiescence c);
  Alcotest.(check (list string)) "cluster spec" [] (Cluster.Spec.check_all c);
  List.map
    (fun (r : Client.record) ->
      Alcotest.(check int) "first try" 1 r.tries;
      r.delivered_at -. r.issued_at)
    (Cluster.all_records c)

let test_concurrent_tries_overlap () =
  (* Each fresh try runs in its own fiber: tries of different requests at
     the head server overlap instead of queueing behind one another's SQL
     (one try at a time delivered the third request at ~2.7x). *)
  let single =
    match disjoint_update_latencies ~clients:1 with
    | [ l ] -> l
    | _ -> Alcotest.fail "expected one record"
  in
  let latencies = disjoint_update_latencies ~clients:3 in
  Alcotest.(check int) "three records" 3 (List.length latencies);
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "latency %.1f <= 1.5 x %.1f" l single)
        true
        (l <= 1.5 *. single))
    latencies

let test_inflight_duplicate_computed_once () =
  (* A 100 ms client period re-sends try 1 to every server, the computing
     head server included, while that try is still in its SQL phase. regA[1]
     already names the head, so a second fiber there would win it again and
     run the SQL twice: the running memo must drop the second intake. *)
  let e, d =
    Harness.Simrun.cluster ~client_period:100. ~seed_data:(accounts 1)
      ~business:Workload.Bank.update
      ~scripts:[ (fun ~issue -> ignore (issue "acct0:1")) ]
      ()
  in
  Alcotest.(check bool) "quiesced" true (Cluster.run_to_quiescence d);
  let head = Cluster.primary d ~shard:0 in
  let at_head, execs, computed =
    List.fold_left
      (fun (at_head, execs, computed) (en : Dsim.Trace.entry) ->
        match en.event with
        | Dsim.Trace.Delivered
            { payload = Etx_types.Request_msg { j = 1; _ }; dst; _ }
          when dst = head ->
            (en.at :: at_head, execs, computed)
        | Dsim.Trace.Delivered { payload = Dbms.Msg.Exec_req _; _ } ->
            (at_head, en.at :: execs, computed)
        | Dsim.Trace.Note (pid, s)
          when String.starts_with ~prefix:"computed:" s ->
            (at_head, execs, (pid, en.at) :: computed)
        | _ -> (at_head, execs, computed))
      ([], [], []) (trace_of e)
  in
  (match (execs, computed) with
  | [ exec_at ], [ (pid, computed_at) ] ->
      Alcotest.(check int) "computed at the head" head pid;
      Alcotest.(check bool) "a resend reached the head during its SQL" true
        (List.exists (fun t -> t > exec_at && t < computed_at) at_head)
  | _ ->
      Alcotest.failf "expected one exec and one computation, got %d and %d"
        (List.length execs) (List.length computed));
  check_no_violations "in-flight duplicate" d

let test_contention_and_crash () =
  (* Eight clients transfer between four accounts: concurrent tries at the
     head server meet no-wait lock conflicts and exec back-off, and the head
     crashes mid-run. *)
  let kind =
    Workload.Generator.Bank_transfers { accounts = 4; max_amount = 5 }
  in
  let e, c =
    Harness.Simrun.cluster ~seed:13 ~shards:1
      ~fd_spec:
        (Appserver.Fd_heartbeat
           { period = 10.; initial_timeout = 60.; timeout_bump = 30. })
      ~client_period:300.
      ~seed_data:(Workload.Generator.seed_data_of kind)
      ~business:(Workload.Generator.business_of kind)
      ~scripts:
        (List.init 8 (fun i ~issue ->
             List.iter
               (fun b -> ignore (issue b))
               (Workload.Generator.bodies ~seed:(1 + i) ~n:3 kind)))
      ()
  in
  Dsim.Engine.crash_at e 400. (Cluster.primary c ~shard:0);
  Alcotest.(check bool) "quiesced" true (Cluster.run_to_quiescence c);
  Alcotest.(check (list string)) "cluster spec" [] (Cluster.Spec.check_all c);
  Alcotest.(check int) "every request delivered" 24
    (List.length (Cluster.all_records c));
  Alcotest.(check bool) "lock conflicts occurred" true
    (List.exists
       (fun (en : Dsim.Trace.entry) ->
         match en.event with
         | Dsim.Trace.Delivered
             {
               payload =
                 Dbms.Msg.Exec_reply { reply = Dbms.Rm.Exec_conflict _; _ };
               _;
             } ->
             true
         | _ -> false)
       (trace_of e));
  let _, rm = List.hd c.groups.(0).dbs in
  let total =
    List.fold_left
      (fun acc i ->
        match Dbms.Rm.read_committed rm (Printf.sprintf "acct%d" i) with
        | Some (Dbms.Value.Int v) -> acc + v
        | _ -> acc)
      0 [ 0; 1; 2; 3 ]
  in
  Alcotest.(check int) "transfers conserve money" 40_000 total

(* --- the client protocol (Fig. 2) details --- *)

let request_deliveries e =
  (* count Request deliveries per application-server pid *)
  let counts = Hashtbl.create 8 in
  List.iter
    (fun (e : Dsim.Trace.entry) ->
      match e.event with
      | Dsim.Trace.Delivered m -> (
          match m.Runtime.Types.payload with
          | Etx_types.Request_msg _ ->
              let c =
                Option.value ~default:0 (Hashtbl.find_opt counts m.dst)
              in
              Hashtbl.replace counts m.dst (c + 1)
          | _ -> ())
      | _ -> ())
    (Dsim.Trace.entries (Dsim.Engine.trace e));
  counts

(* when [server] first received a request, if ever *)
let first_request_at e server =
  List.find_map
    (fun (en : Dsim.Trace.entry) ->
      match en.event with
      | Dsim.Trace.Delivered
          { dst; payload = Etx_types.Request_msg _; _ }
        when dst = server ->
          Some en.at
      | _ -> None)
    (Dsim.Trace.entries (Dsim.Engine.trace e))

let test_client_backoff_then_broadcast () =
  (* The primary acknowledges the request, then crashes before answering.
     Its channel reports no silence, so the client waits out the whole
     back-off period on it, then broadcasts to every server (Fig. 2 lines
     5-7). *)
  let e, d = one_request ~client_period:300. () in
  Dsim.Engine.crash_at e 10. (Cluster.primary d ~shard:0);
  let ok = Cluster.run_to_quiescence ~deadline:60_000. d in
  Alcotest.(check bool) "quiesced" true ok;
  let r =
    match Cluster.all_records d with
    | [ r ] -> r
    | _ -> Alcotest.fail "expected one record"
  in
  List.iteri
    (fun i server ->
      if i > 0 then
        match first_request_at e server with
        | Some at ->
            Alcotest.(check bool)
              (Printf.sprintf "server %d reached at %.1f ms, after 300 ms" i
                 (at -. r.issued_at))
              true
              (at -. r.issued_at > 300.)
        | None -> Alcotest.failf "server %d never reached" i)
    (Cluster.group d 0).app_servers;
  Alcotest.(check bool) "latency includes the back-off" true
    (r.delivered_at -. r.issued_at > 300.);
  check_no_violations "backoff broadcast" d

let test_client_broadcasts_early_to_silent_primary () =
  (* The primary is dead before the request is sent. Its reliable channel
     reports the silence 70 ms after the send, and the client broadcasts
     then instead of waiting out the 300 ms back-off. *)
  let e, d = one_request ~client_period:300. () in
  Dsim.Engine.crash_at e 0.5 (Cluster.primary d ~shard:0);
  let ok = Cluster.run_to_quiescence ~deadline:60_000. d in
  Alcotest.(check bool) "quiesced" true ok;
  let r =
    match Cluster.all_records d with
    | [ r ] -> r
    | _ -> Alcotest.fail "expected one delivery"
  in
  let client = Client.pid (List.hd d.clients) in
  List.iteri
    (fun i server ->
      if i > 0 then
        match first_request_at e server with
        | Some at ->
            Alcotest.(check bool)
              (Printf.sprintf "server %d reached at %.1f ms, within 150 ms" i
                 (at -. r.issued_at))
              true
              (at -. r.issued_at < 150.)
        | None -> Alcotest.failf "server %d never reached" i)
    (Cluster.group d 0).app_servers;
  let delivered pred =
    List.filter_map
      (fun (en : Dsim.Trace.entry) ->
        match en.event with
        | Dsim.Trace.Delivered m when pred m -> Some en.at
        | _ -> None)
      (Dsim.Trace.entries (Dsim.Engine.trace e))
  in
  let to_client cls m =
    m.Runtime.Types.dst = client
    && Runtime.Etx_runtime.classify m.payload = Etx_types.cls_result
    && cls m.payload
  in
  let hints =
    delivered
      (to_client (function Etx_types.Silent_hint _ -> true | _ -> false))
  in
  Alcotest.(check int) "one hint" 1 (List.length hints);
  (* the client took the hint and one result: the rest are the other
     servers' duplicate results *)
  let results =
    delivered
      (to_client (function Etx_types.Silent_hint _ -> false | _ -> true))
  in
  Alcotest.(check int) "no hint left" (List.length results - 1)
    (Dsim.Engine.mailbox_length e ~cls:Etx_types.cls_result client);
  check_no_violations "early broadcast" d

let test_client_no_broadcast_in_nice_run () =
  (* In a failure-free run the optimisation holds: only the primary ever
     sees the request. *)
  let e, d = one_request () in
  ignore (Cluster.run_to_quiescence d);
  let counts = request_deliveries e in
  List.iteri
    (fun i server ->
      if i > 0 then
        Alcotest.(check (option int))
          (Printf.sprintf "server %d never contacted" i)
          None
          (Hashtbl.find_opt counts server))
    (Cluster.group d 0).app_servers

let test_client_ignores_stale_result () =
  (* A stray Result for a different (rid, j) must not fool the client. *)
  let e, d =
    Harness.Simrun.cluster ~business:Business.trivial
      ~scripts:
        [
          (fun ~issue ->
            let r = issue "real" in
            Alcotest.(check string) "genuine result" "ok:real" r.result);
        ]
      ()
  in
  (* inject a forged result for a nonexistent request before the run *)
  Dsim.Engine.schedule e ~delay:1. (fun () ->
      Dsim.Engine.post e ~src:(Cluster.primary d ~shard:0)
        ~dst:(Client.pid (List.hd d.clients))
        (Etx_types.Result_msg
           {
             group = 0;
             items =
               [
                 ( 999_999,
                   1,
                   { result = Some "forged"; outcome = Dbms.Rm.Commit } );
               ];
           }));
  let ok = Cluster.run_to_quiescence d in
  Alcotest.(check bool) "quiesced" true ok;
  check_no_violations "stale result" d

(* --- §5 extension: retiring what clients have acknowledged --- *)

let computed_try1_notes e rid =
  let prefix = Printf.sprintf "computed:%d:1:" rid in
  List.filter
    (fun (e : Dsim.Trace.entry) ->
      match e.event with
      | Dsim.Trace.Note (_, s) ->
          String.length s >= String.length prefix
          && String.sub s 0 (String.length prefix) = prefix
      | _ -> false)
    (Dsim.Trace.entries (Dsim.Engine.trace e))
  |> List.length

(* The app servers' register instances and request states at quiescence,
   per server, from their gauges. *)
let held reg name =
  List.filter_map
    (fun ((k : Obs.Registry.key), v) ->
      if k.name = name then Some (k.node, int_of_float v) else None)
    (Obs.Registry.gauges reg)

let test_gc_collects_registers () =
  (* 3 sequential clients issue n requests each: what the servers hold at
     the end must not grow with n *)
  let run n =
    let reg = Obs.Registry.create () in
    let _e, d =
      Harness.Simrun.cluster ~obs:reg ~business:Business.trivial
        ~scripts:
          (List.init 3 (fun c ~issue ->
               for i = 1 to n do
                 ignore (issue (Printf.sprintf "c%d:%d" c i))
               done))
        ()
    in
    Alcotest.(check bool) "quiesced" true (Cluster.run_to_quiescence d);
    Alcotest.(check int) "delivered" (3 * n) (List.length (Cluster.all_records d));
    Alcotest.(check (list string)) "spec" [] (Cluster.Spec.check_all d);
    (held reg "consensus.instances", held reg "server.rid_states")
  in
  let ((instances, rids) as small) = run 4 in
  Alcotest.(check (list (pair string int)))
    "two registers per client at each server"
    [ ("a1", 6); ("a2", 6); ("a3", 6) ]
    instances;
  Alcotest.(check (list (pair string int)))
    "one request per client at the primary" [ ("a1", 3) ]
    (List.filter (fun (_, n) -> n > 0) rids);
  Alcotest.(check bool) "n and 2n hold the same" true (small = run 8)

let test_late_retired_request_dropped () =
  (* once the client moved on, a late copy of its old request is neither
     run again nor answered *)
  let reg = Obs.Registry.create () in
  let e, d =
    Harness.Simrun.cluster ~obs:reg ~business:Business.trivial
      ~scripts:[ (fun ~issue -> ignore (issue "pay"); ignore (issue "next")) ]
      ()
  in
  let ok = Cluster.run_to_quiescence d in
  Alcotest.(check bool) "quiesced" true ok;
  let rid =
    match Cluster.all_records d with
    | r :: _ -> r.rid
    | [] -> Alcotest.fail "expected records"
  in
  Alcotest.(check int) "computed once" 1 (computed_try1_notes e rid);
  let client = Client.pid (List.hd d.clients) in
  let mailbox () = Dsim.Engine.mailbox_length e client in
  let before = mailbox () in
  let request = { Etx_types.rid; key = "pay"; body = "pay" } in
  Dsim.Engine.post e ~src:client ~dst:(Cluster.primary d ~shard:0)
    (Etx_types.Request_msg { request; j = 1; group = 0; span = 0 });
  ignore (Dsim.Engine.run ~deadline:(Dsim.Engine.now_of e +. 2_000.) e);
  Alcotest.(check int) "still computed once" 1 (computed_try1_notes e rid);
  Alcotest.(check int) "no reply" before (mailbox ());
  Alcotest.(check (list (pair string int)))
    "no state for it" [ ("a1", 1) ]
    (List.filter (fun (_, n) -> n > 0) (held reg "server.rid_states"));
  check_no_violations "late retransmission" d

(* --- §5 extension: crash-recovery application servers --- *)

let test_recoverable_all_servers_crash () =
  (* With persistent registers even ALL application servers may crash (and
     recover): the crash-stop protocol's majority assumption is gone. The
     delivered result may degrade to an error report when the re-elected
     winner cannot reconstruct the original result string, but the
     transaction's effect applies exactly once. *)
  let e, d =
    Harness.Simrun.cluster ~recoverable:true ~client_period:300.
      ~seed_data:(Workload.Bank.seed_accounts [ ("acct", 1000) ])
      ~business:Workload.Bank.update
      ~scripts:[ (fun ~issue -> ignore (issue "acct:-100")) ]
      ()
  in
  List.iteri
    (fun i server ->
      let at = 60. +. (float_of_int i *. 40.) in
      Dsim.Engine.crash_at e at server;
      Dsim.Engine.recover_at e (at +. 500.) server)
    (Cluster.group d 0).app_servers;
  let ok = Cluster.run_to_quiescence ~deadline:300_000. d in
  Alcotest.(check bool) "recovered cluster finished the request" true ok;
  Alcotest.(check int) "delivered" 1 (List.length (Cluster.all_records d));
  (* the money moved exactly once, whatever the report said *)
  let _, rm = List.hd (Cluster.group d 0).dbs in
  Alcotest.(check bool) "debited exactly once" true
    (Dbms.Rm.read_committed rm "acct" = Some (Dbms.Value.Int 900));
  (* agreement and non-blocking hold *)
  Alcotest.(check (list string)) "A.2" [] (Spec.View.agreement_a2 (view d));
  Alcotest.(check (list string)) "A.3" [] (Spec.View.agreement_a3 (view d));
  Alcotest.(check (list string)) "T.2" [] (Spec.View.termination_t2 (view d))

let test_recoverable_majority_down_blocks_then_resumes () =
  (* Two of three servers down: no majority, no progress (consensus needs
     it); once they come back the request completes — "a majority is
     eventually up together" replaces "a majority never crashes". *)
  let e, d =
    Harness.Simrun.cluster ~recoverable:true ~client_period:300.
      ~business:Business.trivial
      ~scripts:[ (fun ~issue -> ignore (issue "x")) ]
      ()
  in
  (match (Cluster.group d 0).app_servers with
  | a1 :: a2 :: _ ->
      Dsim.Engine.crash_at e 20. a1;
      Dsim.Engine.crash_at e 20. a2;
      Dsim.Engine.recover_at e 8_000. a1;
      Dsim.Engine.recover_at e 8_000. a2
  | _ -> Alcotest.fail "expected three servers");
  (* blocked while the majority is down *)
  ignore (Dsim.Engine.run ~deadline:7_000. e);
  Alcotest.(check int) "no delivery without a majority" 0
    (List.length (Cluster.all_records d));
  (* resumes after recovery *)
  let ok = Cluster.run_to_quiescence ~deadline:300_000. d in
  Alcotest.(check bool) "completed after the majority returned" true ok;
  Alcotest.(check int) "delivered" 1 (List.length (Cluster.all_records d));
  Alcotest.(check (list string)) "A.3" [] (Spec.View.agreement_a3 (view d))

let test_recoverable_register_write_cost () =
  (* The ablation's point in unit-test form: persistent registers put
     forced IO back on the critical path, so the nice-run latency climbs
     from ~243 ms to beyond 2PC's ~260 ms — which is exactly why the paper
     keeps the middle tier diskless. *)
  let run ~recoverable =
    let _e, d =
      Harness.Simrun.cluster ~recoverable
        ~seed_data:(Workload.Bank.seed_accounts [ ("a", 100) ])
        ~business:Workload.Bank.update
        ~scripts:[ (fun ~issue -> ignore (issue "a:1")) ]
        ()
    in
    assert (Cluster.run_to_quiescence ~deadline:60_000. d);
    match Cluster.all_records d with
    | [ r ] -> r.delivered_at -. r.issued_at
    | _ -> Alcotest.fail "expected one record"
  in
  let volatile = run ~recoverable:false in
  let persistent = run ~recoverable:true in
  Alcotest.(check bool)
    (Printf.sprintf "persistent (%.1f) ≥ volatile (%.1f) + 30ms" persistent
       volatile)
    true
    (persistent > volatile +. 30.)

(* ------------------------------------------------------------------ *)
(* Random fault injection. Each property also draws whether the
   databases run group commit, so both force disciplines meet every kind
   of fault schedule. *)

let prop_spec_under_random_faults =
  QCheck.Test.make ~name:"e-Transaction spec under random faults" ~count:25
    QCheck.(
      pair
        (quad (int_range 0 100_000) (float_range 0. 0.15)
           (float_range 1. 500.) (int_range 0 2))
        bool)
    (fun ((seed, loss, crash_time, victim_index), group_commit) ->
      let net = Dnet.Netmodel.lossy ~loss (Dnet.Netmodel.lan ()) in
      let e, d =
        Harness.Simrun.cluster ~seed ~net ~client_period:300. ~group_commit
          ~fd_spec:
            (Appserver.Fd_heartbeat
               { period = 10.; initial_timeout = 60.; timeout_bump = 30. })
          ~business:Business.trivial
          ~scripts:[ (fun ~issue -> ignore (issue "x")) ]
          ()
      in
      let victim = List.nth (Cluster.group d 0).app_servers victim_index in
      Dsim.Engine.crash_at e crash_time victim;
      let ok = Cluster.run_to_quiescence d ~deadline:300_000. in
      ok && Cluster.Spec.check_all d = [])

let prop_crash_recovery_servers =
  QCheck.Test.make ~name:"crash-recovery servers under random schedules"
    ~count:15
    QCheck.(
      quad (int_range 0 100_000) (float_range 10. 400.) (int_range 1 3) bool)
    (fun (seed, first_crash, n_victims, group_commit) ->
      let e, d =
        Harness.Simrun.cluster ~seed ~recoverable:true ~client_period:300.
          ~group_commit
          ~seed_data:(Workload.Bank.seed_accounts [ ("acct", 1000) ])
          ~business:Workload.Bank.update
          ~scripts:[ (fun ~issue -> ignore (issue "acct:-100")) ]
          ()
      in
      List.iteri
        (fun i server ->
          if i < n_victims then begin
            let at = first_crash +. (float_of_int i *. 70.) in
            Dsim.Engine.crash_at e at server;
            Dsim.Engine.recover_at e (at +. 600.) server
          end)
        (Cluster.group d 0).app_servers;
      let ok = Cluster.run_to_quiescence ~deadline:600_000. d in
      ok
      && Etx.Spec.View.agreement_a2 (view d) = []
      && Etx.Spec.View.agreement_a3 (view d) = []
      && Etx.Spec.View.termination_t2 (view d) = []
      &&
      let _, rm = List.hd (Cluster.group d 0).dbs in
      Dbms.Rm.read_committed rm "acct" = Some (Dbms.Value.Int 900))

let prop_spec_with_db_restarts =
  QCheck.Test.make ~name:"spec with database crash-recovery cycles" ~count:15
    QCheck.(triple (int_range 0 100_000) (float_range 10. 300.) bool)
    (fun (seed, crash_time, group_commit) ->
      let e, d =
        Harness.Simrun.cluster ~seed ~client_period:300. ~group_commit
          ~business:Business.trivial
          ~scripts:
            [
              (fun ~issue ->
                ignore (issue "x");
                ignore (issue "y"));
            ]
          ()
      in
      let db = fst (List.hd (Cluster.group d 0).dbs) in
      Dsim.Engine.crash_at e crash_time db;
      Dsim.Engine.recover_at e (crash_time +. 150.) db;
      Dsim.Engine.crash_at e (crash_time +. 320.) db;
      Dsim.Engine.recover_at e (crash_time +. 470.) db;
      let ok = Cluster.run_to_quiescence d ~deadline:300_000. in
      ok && Cluster.Spec.check_all d = [])

(* Everything at once: loss, an imperfect detector, an application-server
   crash, a database restart, an impatient client and several requests. *)
let prop_kitchen_sink =
  QCheck.Test.make ~name:"kitchen sink: combined fault schedules" ~count:12
    QCheck.(
      pair
        (triple (int_range 0 100_000) (float_range 0. 0.1)
           (float_range 50. 600.))
        bool)
    (fun ((seed, loss, crash_time), group_commit) ->
      let net = Dnet.Netmodel.lossy ~loss (Dnet.Netmodel.three_tier ~n_dbs:1 ()) in
      let e, d =
        Harness.Simrun.cluster ~seed ~net ~group_commit
          ~client_period:(50. +. float_of_int (seed mod 400))
          ~fd_spec:
            (Appserver.Fd_heartbeat
               { period = 10.; initial_timeout = 60.; timeout_bump = 30. })
          ~seed_data:(Workload.Bank.seed_accounts [ ("k", 10_000) ])
          ~business:Workload.Bank.update
          ~scripts:
            [
              (fun ~issue ->
                for _ = 1 to 3 do
                  ignore (issue "k:7")
                done);
            ]
          ()
      in
      let victim = List.nth (Cluster.group d 0).app_servers (seed mod 3) in
      Dsim.Engine.crash_at e crash_time victim;
      let db = fst (List.hd (Cluster.group d 0).dbs) in
      Dsim.Engine.crash_at e (crash_time +. 180.) db;
      Dsim.Engine.recover_at e (crash_time +. 380.) db;
      let ok = Cluster.run_to_quiescence ~deadline:600_000. d in
      ok
      && Cluster.Spec.check_all d = []
      &&
      (* three committed updates of +7 each, exactly once *)
      let _, rm = List.hd (Cluster.group d 0).dbs in
      Dbms.Rm.read_committed rm "k" = Some (Dbms.Value.Int 10_021))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "etx"
    [
      ( "nice-runs",
        [
          Alcotest.test_case "single request commits" `Quick
            test_nice_run_commits;
          Alcotest.test_case "sequential requests" `Quick
            test_three_sequential_requests;
          Alcotest.test_case "latency matches paper shape" `Quick
            test_nice_run_latency_matches_paper_shape;
          Alcotest.test_case "user-level abort then commit" `Quick
            test_user_level_abort_then_commit;
          Alcotest.test_case "debit applies exactly once" `Quick
            test_successful_debit_applies_once;
          Alcotest.test_case "multiple databases" `Quick
            test_multiple_dbs_all_commit;
        ] );
      ( "fail-over",
        [
          Alcotest.test_case "abort mid-compute (Fig 1d)" `Quick
            test_failover_abort_midcompute;
          Alcotest.test_case "commit after regD (Fig 1c)" `Quick
            test_failover_commit_after_regd;
          Alcotest.test_case "client crash: T.2 holds" `Quick
            test_client_crash_t2_holds;
          Alcotest.test_case "db crash + recovery" `Quick
            test_db_crash_recovery;
          Alcotest.test_case "two of five servers crash" `Quick
            test_two_of_five_appservers_crash;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "crash at every point" `Quick
            test_crash_at_every_point;
          Alcotest.test_case "group commit decides once" `Quick
            test_group_commit_duplicate_decide;
          Alcotest.test_case "heartbeat fd nice run" `Quick
            test_heartbeat_fd_nice_run;
          Alcotest.test_case "partitioned minority" `Quick
            test_partitioned_minority_server;
          Alcotest.test_case "three concurrent clients" `Quick
            test_multiple_clients_contention;
          Alcotest.test_case "impatient client (active replication)" `Quick
            test_impatient_client_active_replication;
        ] );
      ( "concurrent-tries",
        [
          Alcotest.test_case "concurrent tries overlap" `Quick
            test_concurrent_tries_overlap;
          Alcotest.test_case "in-flight duplicate computed once" `Quick
            test_inflight_duplicate_computed_once;
          Alcotest.test_case "contention and head crash" `Quick
            test_contention_and_crash;
        ] );
      ( "client",
        [
          Alcotest.test_case "back-off then broadcast" `Quick
            test_client_backoff_then_broadcast;
          Alcotest.test_case "silent primary: early broadcast" `Quick
            test_client_broadcasts_early_to_silent_primary;
          Alcotest.test_case "no broadcast in nice run" `Quick
            test_client_no_broadcast_in_nice_run;
          Alcotest.test_case "ignores stale results" `Quick
            test_client_ignores_stale_result;
        ] );
      ( "gc",
        [
          Alcotest.test_case "collects registers" `Quick
            test_gc_collects_registers;
          Alcotest.test_case "late retired request dropped" `Quick
            test_late_retired_request_dropped;
        ] );
      ( "crash-recovery-servers",
        [
          Alcotest.test_case "all servers crash and recover" `Quick
            test_recoverable_all_servers_crash;
          Alcotest.test_case "majority down blocks, then resumes" `Quick
            test_recoverable_majority_down_blocks_then_resumes;
          Alcotest.test_case "persistence costs forced IO" `Quick
            test_recoverable_register_write_cost;
        ] );
      ( "random-faults",
        [
          q prop_spec_under_random_faults;
          q prop_spec_with_db_restarts;
          q prop_crash_recovery_servers;
          q prop_kitchen_sink;
        ] );
    ]
