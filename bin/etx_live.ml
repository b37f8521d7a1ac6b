(* Live-backend smoke: run the full e-Transaction cluster on the wall-clock
   runtime (the simulator's engine, sleeping until each event falls due),
   crash the primary application server mid-run, recover it, and assert
   the paper's exactly-once specification end-to-end. Exits 0 iff every
   client committed every request with no violation; writes a
   machine-readable summary (LIVE_smoke.json) for CI.

   With [-shards S] (S > 1) the same smoke runs on a sharded cluster:
   S independent replica groups behind the shard router. Either way the
   crash/recovery targets shard 0's primary and the cluster-level
   specification (per-shard properties plus global exactly-once) is
   checked for every client at the end.

   With [-cache] every app server carries a method cache with
   commit-piggybacked invalidation, clients issue a read-dominant mix
   (three audits per update) so the crash lands mid-read-burst, and with
   [-obs] the run additionally asserts that the burst recorded cache hits
   and that the Prometheus dump re-parses consistently.

   With [-replicas R] (R > 0) every database gets R asynchronous change-log
   read replicas; clients issue the same read-dominant mix (so cache-miss
   audits route to the replicas and the crash lands mid-read-burst), and
   with [-obs] the run additionally asserts that the replicas actually
   served reads ([replica.served] > 0 in the dump). [-group-commit]
   coalesces concurrent redo-log forces into one disk write per window.

   With [-cross] (implies at least 2 shards) every client repeatedly
   transfers between one of its accounts on shard 0 and one on shard 1, so
   each request is a cross-shard e-Transaction committed via Paxos Commit
   and shard 0's primary coordinates every instance. The crash targets that
   coordinator mid-transfer; the run asserts the global atomic outcome:
   cluster spec (including global atomicity) plus per-account balances that
   move in lock-step with the transfers that actually committed — a
   transfer is never half-applied across the two shards.

   With [-migrate] (implies at least 2 shards) the cluster is built with
   elastic reconfiguration and one pre-provisioned spare group; after a
   warm-up the run splits group 0's slots toward the spare while the
   clients keep issuing, crashes shard 0's primary mid-migration, and
   asserts the epoch flip happened, every request committed exactly once
   and every key's balance is continuous at its new home group. *)

module Runtime_live = Dsim.Runtime_live

let clients = ref 3
let requests = ref 4
let shards = ref 1
let batch = ref 1
let cache = ref false
let replicas = ref 0
let group_commit = ref false
let cross = ref false
let migrate = ref false
let seed = ref 42
let out = ref "LIVE_smoke.json"
let obs = ref ""

let speclist =
  [
    ("-clients", Arg.Set_int clients, "N  concurrent clients (default 3)");
    ("-requests", Arg.Set_int requests, "N  requests per client (default 4)");
    ("-shards", Arg.Set_int shards, "S  replica groups (default 1)");
    ( "-batch",
      Arg.Set_int batch,
      "B  commit-window cap: 1 = classic path, B > 1 = leased batched \
       pipeline (default 1)" );
    ( "-cache",
      Arg.Set cache,
      "  method cache + commit-piggybacked invalidation: clients issue a \
       read-dominant mix (three audits per update) instead of pure updates, \
       and the crash lands mid-read-burst" );
    ( "-replicas",
      Arg.Set_int replicas,
      "R  asynchronous change-log read replicas per database; clients issue \
       the read-dominant mix so cache-miss audits route to the replicas \
       (default 0)" );
    ( "-group-commit",
      Arg.Set group_commit,
      "  coalesce concurrent redo-log forces into one disk write per \
       group-commit window" );
    ( "-cross",
      Arg.Set cross,
      "  cross-shard transfer smoke (implies -shards 2 unless larger): \
       clients transfer between shard-0 and shard-1 accounts, the \
       coordinating primary is crashed mid-transfer, and the run asserts \
       the atomic outcome on both shards" );
    ( "-migrate",
      Arg.Set migrate,
      "  elastic-reconfiguration smoke (implies -shards 2 unless larger): \
       a spare replica group is pre-provisioned, group 0's slots are split \
       toward it mid-run while clients keep issuing, shard 0's primary is \
       crashed during the migration, and the run asserts the epoch flip, \
       exactly-once delivery and value continuity at every key's new home" );
    ("-seed", Arg.Set_int seed, "N  network-model RNG seed (default 42)");
    ("-out", Arg.Set_string out, "FILE  summary JSON path (default LIVE_smoke.json)");
    ( "-obs",
      Arg.Set_string obs,
      "FILE  attach an observability registry and write its Prometheus dump \
       to FILE on exit" );
  ]

(* with -cache or -replicas, request r of the per-client script is an
   update only every fourth call (r mod 4 = 3) and an audit of the client's
   account otherwise; without either every request is an update, as before *)
let read_mix () = !cache || !replicas > 0

let body_for ~acct r =
  if read_mix () && r mod 4 <> 3 then acct else acct ^ ":1"

let updates_per_client n_requests =
  if read_mix () then n_requests / 4 else n_requests

let obs_registry () = if !obs = "" then None else Some (Obs.Registry.create ())

(* Dump the registry as Prometheus text, then re-parse the dump and
   cross-check the committed counter against delivered records — the same
   consistency gate the simulator's --obs path applies. *)
let obs_violations ~n_delivered reg =
  match reg with
  | None -> []
  | Some reg ->
      let dump = Obs.Export_prom.to_string reg in
      let oc = open_out !obs in
      output_string oc dump;
      close_out oc;
      Printf.printf "wrote %s\n%!" !obs;
      let committed =
        int_of_float
          (List.fold_left ( +. ) 0.
             (Obs.Export_prom.counter_values dump
                ~metric:"etx_client_committed"))
      in
      if committed <> n_delivered then
        [
          Printf.sprintf
            "obs: etx_client_committed=%d in %s but %d records delivered"
            committed !obs n_delivered;
        ]
      else []

let write_summary ?(epoch = 0) ~out ~n_shards ~n_clients ~n_requests
    ~n_delivered ~wall_s ~violations ~ok () =
  let open Stats.Json in
  let doc =
    Obj
      [
        ("schema", String "etx-live-smoke/7");
        ("backend", String "live");
        ("shards", Int n_shards);
        ("batch", Int !batch);
        ("cache", Bool !cache);
        ("replicas", Int !replicas);
        ("group_commit", Bool !group_commit);
        ("cross", Bool !cross);
        ("migrate", Bool !migrate);
        ("epoch", Int epoch);
        ("clients", Int n_clients);
        ("requests_per_client", Int n_requests);
        ("delivered", Int n_delivered);
        ("crash_injected", Bool true);
        ("recover_injected", Bool true);
        ("wall_s", Float wall_s);
        ("violations", List (List.map (fun v -> String v) violations));
        ("ok", Bool ok);
      ]
  in
  let oc = open_out out in
  to_channel oc doc;
  close_out oc

let report ~n_shards ~n_delivered ~total ~wall_s ~violations ~ok =
  Printf.printf "etx_live: %d/%d delivered in %.1f s wall; %s (summary: %s)\n%!"
    n_delivered total wall_s
    (if ok then
       if !migrate then
         Printf.sprintf
           "spec OK — online split committed under a primary crash, \
            exactly-once and value continuity held across the epoch flip \
            (%d groups)"
           n_shards
       else if !cross then
         Printf.sprintf
           "spec OK — every cross-shard transfer committed atomically on \
            all %d shards across coordinator crash+recovery"
           n_shards
       else if n_shards > 1 then
         Printf.sprintf
           "spec OK — exactly-once held on all %d shards across crash+recovery"
           n_shards
       else "spec OK — exactly-once held across crash+recovery"
     else "FAILED: " ^ String.concat "; " violations)
    !out;
  exit (if ok then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Default path: one replica group (the paper's deployment) or, with
   [-shards S], S groups behind the shard router. *)

(* one account per client, dealt so shard populations differ by at most 1 *)
let client_keys map ~n_clients ~n_shards =
  let cap = (n_clients + n_shards - 1) / n_shards in
  let count = Array.make n_shards 0 in
  let rec scan a acc remaining =
    if remaining = 0 then List.rev acc
    else
      let key = Printf.sprintf "acct%d" a in
      let s = Etx.Shard_map.shard_of map key in
      if count.(s) < cap then begin
        count.(s) <- count.(s) + 1;
        scan (a + 1) (key :: acc) (remaining - 1)
      end
      else scan (a + 1) acc remaining
  in
  scan 0 [] n_clients

let run_sharded () =
  let n_clients = !clients and n_requests = !requests and n_shards = !shards in
  let reg = obs_registry () in
  let lt = Runtime_live.create ~seed:!seed ?obs:reg () in
  let rt = Runtime_live.runtime lt in
  let map = Etx.Shard_map.create ~shards:n_shards () in
  let keys = client_keys map ~n_clients ~n_shards in
  let seed_data = Workload.Bank.seed_accounts (List.map (fun k -> (k, 1000)) keys) in
  let scripts =
    List.map
      (fun key ~issue ->
        for r = 0 to n_requests - 1 do
          ignore (issue (body_for ~acct:key r))
        done)
      keys
  in
  let business =
    if read_mix () then Workload.Bank.mixed else Workload.Bank.update
  in
  let t_start = Unix.gettimeofday () in
  let c =
    Cluster.build ~map ~recoverable:true ~batch:!batch ~cache:!cache
      ~replicas:!replicas ~group_commit:!group_commit ~seed_data ~business ~rt ~scripts ()
  in
  let delivered () = List.length (Cluster.all_records c) in
  let total = n_clients * n_requests in
  let primary = Cluster.primary c ~shard:0 in
  let warm = rt.run_until ~deadline:60_000. (fun () -> delivered () >= min total 2) in
  if not warm then prerr_endline "etx_live: WARNING: slow start";
  (* crash shard 0's primary: the other shards must keep committing while
     shard 0 fails over, and the recovered primary rejoins from its log *)
  Printf.printf
    "crashing shard-0 primary (p%d %s) at %.0f ms, %d/%d delivered\n%!"
    primary (rt.name_of primary) (Runtime_live.now_ms lt) (delivered ()) total;
  rt.crash primary;
  ignore (rt.run_until ~deadline:(Runtime_live.now_ms lt +. 1_500.) (fun () -> false));
  Printf.printf "recovering shard-0 primary at %.0f ms, %d/%d delivered\n%!"
    (Runtime_live.now_ms lt) (delivered ()) total;
  rt.recover primary;
  let settled = Cluster.run_to_quiescence ~deadline:240_000. c in
  let wall_s = Unix.gettimeofday () -. t_start in
  let n_delivered = delivered () in
  let scripts_done = List.for_all Etx.Client.script_done c.clients in
  let violations = if settled then Cluster.Spec.check_all c else [] in
  (* balance check: each account lives on exactly its home shard and must
     show exactly [n_requests] increments on every replica there *)
  let dup_violations =
    List.concat_map
      (fun key ->
        let home = Cluster.shard_of_key c key in
        let expect = Dbms.Value.Int (1000 + updates_per_client n_requests) in
        List.filter_map
          (fun (dbpid, rm) ->
            match Dbms.Rm.read_committed rm key with
            | Some v when Dbms.Value.equal v expect -> None
            | Some v ->
                Some
                  (Printf.sprintf
                     "shard %d db p%d: %s = %s, expected %s (lost or \
                      duplicated commit)"
                     home dbpid key (Dbms.Value.to_string v)
                     (Dbms.Value.to_string expect))
            | None ->
                Some (Printf.sprintf "shard %d db p%d: %s missing" home dbpid key))
          (Cluster.group c home).Cluster.dbs)
      keys
  in
  let violations =
    violations
    @ (match reg with
      | Some r when settled -> Cluster.Spec.obs_consistency r c
      | _ -> [])
    @ (match reg with
      | Some r when !cache && settled ->
          if Obs.Registry.counter_total r "cache.hit" > 0 then []
          else [ "cache: no hits recorded during the read burst" ]
      | _ -> [])
    @ (match reg with
      | Some r when !replicas > 0 && settled ->
          if Obs.Registry.counter_total r "replica.served" > 0 then []
          else [ "replicas: no reads served during the read burst" ]
      | _ -> [])
    @ dup_violations
    @ obs_violations ~n_delivered reg
    @ (if settled then [] else [ "run did not quiesce before the deadline" ])
    @ (if scripts_done then [] else [ "a client script did not finish" ])
    @
    if n_delivered = total then []
    else [ Printf.sprintf "delivered %d of %d requests" n_delivered total ]
  in
  let ok = violations = [] in
  write_summary ~out:!out ~n_shards ~n_clients ~n_requests ~n_delivered
    ~wall_s ~violations ~ok ();
  report ~n_shards ~n_delivered ~total ~wall_s ~violations ~ok

(* ------------------------------------------------------------------ *)
(* Cross-shard path: every request is a cross-shard e-Transaction. *)

(* the first [n] accounts (in acct-number order) homed on [shard] *)
let shard_accounts map ~shard ~n =
  let rec scan a acc remaining =
    if remaining = 0 then List.rev acc
    else
      let key = Printf.sprintf "acct%d" a in
      if Etx.Shard_map.shard_of map key = shard then
        scan (a + 1) (key :: acc) (remaining - 1)
      else scan (a + 1) acc remaining
  in
  scan 0 [] n

let run_cross () =
  let n_clients = !clients and n_requests = !requests and n_shards = !shards in
  let reg = obs_registry () in
  let lt = Runtime_live.create ~seed:!seed ?obs:reg () in
  let rt = Runtime_live.runtime lt in
  let map = Etx.Shard_map.create ~shards:n_shards () in
  (* client i transfers from its own shard-0 account into its own shard-1
     account, so every request spans two replica groups and shard 0's
     primary coordinates every Paxos Commit instance *)
  let pairs =
    List.combine
      (shard_accounts map ~shard:0 ~n:n_clients)
      (shard_accounts map ~shard:1 ~n:n_clients)
  in
  let seed_data =
    Workload.Bank.seed_accounts
      (List.concat_map (fun (f, t) -> [ (f, 1000); (t, 1000) ]) pairs)
  in
  let scripts =
    List.map
      (fun (f, t) ~issue ->
        for _ = 1 to n_requests do
          ignore (issue (Printf.sprintf "%s:%s:1" f t))
        done)
      pairs
  in
  let t_start = Unix.gettimeofday () in
  let c =
    Cluster.build ~map ~recoverable:true ~cross:true ~seed_data
      ~business:Workload.Bank.transfer ~rt ~scripts ()
  in
  let delivered () = List.length (Cluster.all_records c) in
  let total = n_clients * n_requests in
  let coordinator = Cluster.primary c ~shard:0 in
  let warm = rt.run_until ~deadline:60_000. (fun () -> delivered () >= min total 2) in
  if not warm then prerr_endline "etx_live: WARNING: slow start";
  (* crash the server coordinating every in-flight commit instance: the
     remaining shard-0 servers (or any participant's cleaner) must drive
     the open instances to a joint decision, and the recovered coordinator
     rejoins from its stable registers *)
  Printf.printf
    "crashing coordinator (shard-0 primary p%d %s) at %.0f ms, %d/%d \
     delivered\n%!"
    coordinator (rt.name_of coordinator) (Runtime_live.now_ms lt) (delivered ())
    total;
  rt.crash coordinator;
  ignore (rt.run_until ~deadline:(Runtime_live.now_ms lt +. 1_500.) (fun () -> false));
  Printf.printf "recovering coordinator at %.0f ms, %d/%d delivered\n%!"
    (Runtime_live.now_ms lt) (delivered ()) total;
  rt.recover coordinator;
  let settled = Cluster.run_to_quiescence ~deadline:240_000. c in
  let wall_s = Unix.gettimeofday () -. t_start in
  let n_delivered = delivered () in
  let scripts_done = List.for_all Etx.Client.script_done c.clients in
  let violations = if settled then Cluster.Spec.check_all c else [] in
  (* atomic outcome: a transfer that committed as a transfer moved one unit
     on BOTH shards; one that aborted (or degraded to the read-only failure
     probe under crash turmoil) moved nothing on either. Derive each pair's
     expected balances from the delivered results and check every replica
     of both home shards — any half-applied transfer shows up here. *)
  let records = Cluster.all_records c in
  let atomic_violations =
    List.concat_map
      (fun (f, t) ->
        let moved =
          List.length
            (List.filter
               (fun (r : Etx.Client.record) ->
                 r.result = Printf.sprintf "transferred:1:%s->%s" f t)
               records)
        in
        List.concat_map
          (fun (key, expect) ->
            let home = Cluster.shard_of_key c key in
            List.filter_map
              (fun (dbpid, rm) ->
                match Dbms.Rm.read_committed rm key with
                | Some (Dbms.Value.Int v) when v = expect -> None
                | v ->
                    Some
                      (Printf.sprintf
                         "shard %d db p%d: %s = %s, expected %d after %d \
                          committed transfers (half-applied cross-shard \
                          transaction)"
                         home dbpid key
                         (match v with
                         | Some x -> Dbms.Value.to_string x
                         | None -> "missing")
                         expect moved))
              (Cluster.group c home).Cluster.dbs)
          [ (f, 1000 - moved); (t, 1000 + moved) ])
      pairs
  in
  let violations =
    violations
    @ (match reg with
      | Some r when settled -> Cluster.Spec.obs_consistency r c
      | _ -> [])
    @ (match reg with
      | Some r when settled ->
          (* the run must actually exercise the cross-shard path *)
          if Obs.Registry.counter_total r "txn.cross_shard" > 0 then []
          else [ "cross: no cross-shard transactions recorded" ]
      | _ -> [])
    @ atomic_violations
    @ obs_violations ~n_delivered reg
    @ (if settled then [] else [ "run did not quiesce before the deadline" ])
    @ (if scripts_done then [] else [ "a client script did not finish" ])
    @
    if n_delivered = total then []
    else [ Printf.sprintf "delivered %d of %d requests" n_delivered total ]
  in
  let ok = violations = [] in
  write_summary ~out:!out ~n_shards ~n_clients ~n_requests ~n_delivered
    ~wall_s ~violations ~ok ();
  report ~n_shards ~n_delivered ~total ~wall_s ~violations ~ok

(* ------------------------------------------------------------------ *)
(* Elastic-reconfiguration path: split group 0 toward a pre-provisioned
   spare while the clients keep issuing, with shard 0's primary crashed
   mid-migration. *)

let run_migrate () =
  let n_clients = !clients and n_requests = !requests and n_shards = !shards in
  let reg = obs_registry () in
  let lt = Runtime_live.create ~seed:!seed ?obs:reg () in
  let rt = Runtime_live.runtime lt in
  let map = Etx.Shard_map.create ~shards:n_shards () in
  let keys = client_keys map ~n_clients ~n_shards in
  let seed_data =
    Workload.Bank.seed_accounts (List.map (fun k -> (k, 1000)) keys)
  in
  let scripts =
    List.map
      (fun key ~issue ->
        for _ = 1 to n_requests do
          ignore (issue (key ^ ":1"))
        done)
      keys
  in
  let t_start = Unix.gettimeofday () in
  let c =
    Cluster.build ~map ~recoverable:true ~reconfig:true ~provision:1
      ~seed_data ~business:Workload.Bank.update ~rt ~scripts ()
  in
  let delivered () = List.length (Cluster.all_records c) in
  let total = n_clients * n_requests in
  let primary = Cluster.primary c ~shard:0 in
  let warm =
    rt.run_until ~deadline:60_000. (fun () -> delivered () >= min total 2)
  in
  if not warm then prerr_endline "etx_live: WARNING: slow start";
  (* start the online split, then crash the source group's primary while
     the migration is in flight: a surviving config-group server must take
     the driver over (or the driver re-drive past the suspect) and the
     flip still happen *)
  let e1 = Cluster.split c ~group:0 ~target:n_shards in
  Printf.printf
    "splitting group 0 -> group %d (epoch %d), then crashing shard-0 \
     primary (p%d %s) at %.0f ms, %d/%d delivered\n%!"
    n_shards e1 primary (rt.name_of primary) (Runtime_live.now_ms lt)
    (delivered ()) total;
  rt.crash primary;
  ignore
    (rt.run_until ~deadline:(Runtime_live.now_ms lt +. 1_500.) (fun () ->
         false));
  Printf.printf "recovering shard-0 primary at %.0f ms, %d/%d delivered\n%!"
    (Runtime_live.now_ms lt) (delivered ()) total;
  rt.recover primary;
  let flipped = Cluster.await_epoch ~deadline:240_000. c e1 in
  let settled = Cluster.run_to_quiescence ~deadline:240_000. c in
  let wall_s = Unix.gettimeofday () -. t_start in
  let n_delivered = delivered () in
  let scripts_done = List.for_all Etx.Client.script_done c.clients in
  let violations = if settled then Cluster.Spec.check_all c else [] in
  (* value continuity at each key's CURRENT home: seed + every committed
     increment, on every replica of the owning group — for moved keys this
     proves the copy carried the state across the split *)
  let final_map = Cluster.current_map c in
  let dup_violations =
    List.concat_map
      (fun key ->
        let home = Etx.Shard_map.shard_of final_map key in
        let expect = Dbms.Value.Int (1000 + n_requests) in
        List.filter_map
          (fun (dbpid, rm) ->
            match Dbms.Rm.read_committed rm key with
            | Some v when Dbms.Value.equal v expect -> None
            | Some v ->
                Some
                  (Printf.sprintf
                     "group %d db p%d: %s = %s, expected %s (lost or \
                      duplicated commit across the migration)"
                     home dbpid key (Dbms.Value.to_string v)
                     (Dbms.Value.to_string expect))
            | None ->
                Some
                  (Printf.sprintf "group %d db p%d: %s missing" home dbpid key))
          (Cluster.group c home).Cluster.dbs)
      keys
  in
  let moved_keys =
    List.filter
      (fun k ->
        Etx.Shard_map.shard_of map k <> Etx.Shard_map.shard_of final_map k)
      keys
  in
  let violations =
    violations
    @ (match reg with
      | Some r when settled -> Cluster.Spec.obs_consistency r c
      | _ -> [])
    @ (match reg with
      | Some r when settled && moved_keys <> [] ->
          (* a split that moved live keys must have copied something *)
          if Obs.Registry.counter_total r "migrate.keys_moved" > 0 then []
          else [ "migrate: keys changed owner but none were copied" ]
      | _ -> [])
    @ dup_violations
    @ obs_violations ~n_delivered reg
    @ (if flipped then [] else [ "epoch flip did not happen" ])
    @ (if settled then [] else [ "run did not quiesce before the deadline" ])
    @ (if scripts_done then [] else [ "a client script did not finish" ])
    @
    if n_delivered = total then []
    else [ Printf.sprintf "delivered %d of %d requests" n_delivered total ]
  in
  let ok = violations = [] in
  write_summary ~epoch:(Cluster.epoch c) ~out:!out ~n_shards ~n_clients
    ~n_requests ~n_delivered ~wall_s ~violations ~ok ();
  report ~n_shards ~n_delivered ~total ~wall_s ~violations ~ok

let () =
  Arg.parse speclist
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "etx_live [-clients N] [-requests N] [-shards S] [-batch B] [-cache] \
     [-replicas R] [-group-commit] [-cross] [-migrate] \
     [-seed N] [-out FILE] [-obs FILE]";
  if !shards < 1 then (prerr_endline "etx_live: -shards must be >= 1"; exit 2);
  if !batch < 1 then (prerr_endline "etx_live: -batch must be >= 1"; exit 2);
  if !replicas < 0 then
    (prerr_endline "etx_live: -replicas must be >= 0"; exit 2);
  if !cross && !migrate then (
    prerr_endline "etx_live: -cross and -migrate are mutually exclusive";
    exit 2);
  if !cross then begin
    if !cache || !replicas > 0 || !batch > 1 then (
      prerr_endline
        "etx_live: -cross cannot be combined with -cache, -replicas or -batch";
      exit 2);
    if !shards < 2 then shards := 2;
    run_cross ()
  end
  else if !migrate then begin
    if !cache || !replicas > 0 || !batch > 1 then (
      prerr_endline
        "etx_live: -migrate cannot be combined with -cache, -replicas or \
         -batch";
      exit 2);
    if !shards < 2 then shards := 2;
    run_migrate ()
  end
  else run_sharded ()
