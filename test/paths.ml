(* Path goldens: one fixed-seed run per request path of the application
   server, rendered to text — every delivered record, every database's
   committed xids, the simulation event count, the protocol notes, the obs
   spans and the termination/cleaner counters. A refactor that claims to
   keep every message, fork, sleep and register write in place must render
   its [paths/<name>.golden] byte-for-byte.

   Regenerate (only when a behaviour change is intended):
     dune exec test/test_harness.exe -- regen-paths test/paths *)

open Etx

let heartbeat =
  Appserver.Fd_heartbeat
    { period = 10.; initial_timeout = 60.; timeout_bump = 30. }

let scripts_of per_client =
  List.map
    (fun bodies ~issue -> List.iter (fun b -> ignore (issue b)) bodies)
    per_client

let updates ~clients ~requests =
  List.init clients (fun i ->
      List.init requests (fun _ -> Printf.sprintf "acct%d:1" i))

let bank_seed n =
  Workload.Bank.seed_accounts
    (List.init n (fun i -> (Printf.sprintf "acct%d" i, 1000)))

(* split a body list round-robin over [n] clients *)
let deal n bodies =
  List.init n (fun c -> List.filteri (fun i _ -> i mod n = c) bodies)

let classic obs =
  Harness.Simrun.cluster ~seed:7 ~obs ~shards:1 ~seed_data:(bank_seed 3)
    ~business:Workload.Bank.update
    ~scripts:(scripts_of (updates ~clients:3 ~requests:2))
    ()

(* the cleaner's abort-or-finish of a crashed primary's tries *)
let classic_crash obs =
  let e, c =
    Harness.Simrun.cluster ~seed:11 ~obs ~shards:1 ~fd_spec:heartbeat
      ~client_period:300. ~seed_data:(bank_seed 3)
      ~business:Workload.Bank.update
      ~scripts:(scripts_of (updates ~clients:3 ~requests:2))
      ()
  in
  Dsim.Engine.crash_at e 100. (Cluster.primary c ~shard:0);
  (e, c)

let batch_group_commit obs =
  Harness.Simrun.cluster ~seed:21 ~obs ~shards:1 ~batch:4 ~group_commit:true
    ~seed_data:(bank_seed 6) ~business:Workload.Bank.update
    ~scripts:(scripts_of (updates ~clients:6 ~requests:2))
    ()

let read_heavy ~replicas obs =
  let kind =
    Workload.Generator.Read_heavy
      { accounts = 3; max_delta = 9; reads_per_write = 3 }
  in
  Harness.Simrun.cluster ~seed:5 ~obs ~shards:1 ~cache:true ~replicas
    ~seed_data:(Workload.Generator.seed_data_of kind)
    ~business:(Workload.Generator.business_of kind)
    ~scripts:
      (scripts_of
         (List.init 3 (fun i ->
              Workload.Generator.bodies ~seed:(1 + (17 * i)) ~n:8 kind)))
    ()

let cross_coordinator_crash obs =
  let map = Shard_map.create ~shards:2 () in
  let kind =
    Workload.Generator.Bank_transfers { accounts = 8; max_amount = 5 }
  in
  let bodies =
    Workload.Generator.sharded_bodies ~map ~cross_ratio:0.5 ~seed:3 ~n:8 kind
  in
  let e, c =
    Harness.Simrun.cluster ~seed:17 ~obs ~map ~cross:true ~fd_spec:heartbeat
      ~client_period:300.
      ~seed_data:(Workload.Generator.seed_data_of kind)
      ~business:Workload.Bank.transfer
      ~scripts:(scripts_of (List.rev (deal 2 (List.map snd bodies))))
      ()
  in
  (* the first client's bodies are the cross ones (odd indices at ratio
     0.5): crash the home primary coordinating its first transfer *)
  Dsim.Engine.crash_at e 30.
    (Cluster.primary c ~shard:(fst (List.nth bodies 1)));
  (e, c)

let reconfig_split obs =
  let e, c =
    Harness.Simrun.cluster ~seed:3 ~obs ~shards:2 ~reconfig:true ~provision:1
      ~client_period:200. ~seed_data:(bank_seed 4)
      ~business:Workload.Bank.update
      ~scripts:(scripts_of (updates ~clients:4 ~requests:3))
      ()
  in
  ignore (Cluster.split c ~group:0 ~target:2);
  ignore (Cluster.await_epoch ~deadline:300_000. c 1);
  (e, c)

let batch_failover obs =
  let net =
    Dnet.Netmodel.lossy ~loss:0.01 (Dnet.Netmodel.three_tier ~n_dbs:1 ())
  in
  let e, c =
    Harness.Simrun.cluster ~seed:9 ~obs ~net ~shards:1 ~batch:4
      ~fd_spec:heartbeat ~client_period:300. ~seed_data:(bank_seed 6)
      ~business:Workload.Bank.update
      ~scripts:(scripts_of (updates ~clients:6 ~requests:3))
      ()
  in
  Dsim.Engine.crash_at e 300. (Cluster.primary c ~shard:0);
  (e, c)

let paths =
  [
    ("classic", classic);
    ("classic-crash", classic_crash);
    ("batch4-group-commit", batch_group_commit);
    ("cache-read-heavy", read_heavy ~replicas:0);
    ("cache-replica-read-heavy", read_heavy ~replicas:1);
    ("cross-coordinator-crash", cross_coordinator_crash);
    ("reconfig-split", reconfig_split);
    ("batch4-heartbeat-loss-crash", batch_failover);
  ]

(* the termination record and cleaner outcome counters *)
let counters =
  [
    "server.terminated"; "server.committed"; "cleaner.aborts";
    "cleaner.finishes"; "server.misrouted"; "migrate.bounced";
    "server.lease_acquired"; "gx.open"; "gx.takeover"; "gx.complete";
    "cache.hit"; "server.replica_served";
  ]

let render build =
  let reg = Obs.Registry.create () in
  let e, c = build reg in
  let quiesced = Cluster.run_to_quiescence ~deadline:600_000. c in
  let b = Buffer.create 4096 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  line "quiesced %b" quiesced;
  line "events %d" (Dsim.Engine.events_of e);
  List.iter
    (fun (r : Client.record) ->
      line "record rid=%d tries=%d result=%s at=%.17g group=%d cached=%b%s"
        r.rid r.tries r.result r.delivered_at r.group r.cached
        (match r.replica with
        | None -> ""
        | Some (lsn, lag) -> Printf.sprintf " replica=%d/%d" lsn lag))
    (Cluster.all_records c);
  Array.iter
    (fun (g : Cluster.group) ->
      List.iter
        (fun (pid, rm) ->
          line "db g%d p%d committed %s" g.index pid
            (String.concat " "
               (List.map Dbms.Xid.to_string (Dbms.Rm.committed_xids rm))))
        g.dbs)
    c.groups;
  List.iter
    (fun (pid, note) -> line "note p%d %s" pid note)
    (c.rt.notes ());
  List.iter
    (fun (s : Obs.Span.t) ->
      line "span %d trace=%d parent=%d %s@%s %.17g..%.17g%s" s.id s.trace
        s.parent s.name s.node s.start s.stop
        (String.concat ""
           (List.map (fun (k, v) -> Printf.sprintf " %s=%s" k v) s.attrs)))
    (Obs.Registry.spans reg);
  List.iter
    (fun name -> line "counter %s %d" name (Obs.Registry.counter_total reg name))
    counters;
  Buffer.contents b

let golden_file dir name = Filename.concat dir (name ^ ".golden")

(* write every path's render to [dir] *)
let write dir =
  List.iter
    (fun (name, build) ->
      let oc = open_out_bin (golden_file dir name) in
      output_string oc (render build);
      close_out oc)
    paths
