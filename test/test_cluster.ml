(* Sharded-cluster tests: shard-map placement, multi-client routing across
   shards, and the cluster-level specification under random fault
   schedules. *)

open Etx

(* ------------------------------------------------------------------ *)
(* Shard map *)

let test_shard_map_determinism () =
  let m = Shard_map.create ~shards:4 () in
  List.iter
    (fun k ->
      let s = Shard_map.shard_of m k in
      Alcotest.(check int) ("stable placement of " ^ k) s (Shard_map.shard_of m k);
      Alcotest.(check bool) "in range" true (s >= 0 && s < 4))
    [ "acct0"; "acct1"; "x"; ""; "a:long:key" ];
  (* a single shard owns everything *)
  let one = Shard_map.create ~shards:1 () in
  Alcotest.(check int) "one shard" 0 (Shard_map.shard_of one "anything")

let test_shard_map_validation () =
  Alcotest.check_raises "shards must be positive"
    (Invalid_argument "Shard_map.create: shards must be >= 1") (fun () ->
      ignore (Shard_map.create ~shards:0 ()))

let test_routing_key () =
  Alcotest.(check string) "key before colon" "acct7"
    (Etx_types.routing_key "acct7:25");
  Alcotest.(check string) "whole body when unkeyed" "ping"
    (Etx_types.routing_key "ping")

(* ------------------------------------------------------------------ *)
(* Build rejections: each unsafe combination raises before anything is
   spawned, and split refuses what the cluster was not built for. *)

let no_script ~issue:_ = ()

let rejects msg build () =
  Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (build ()))

let build ?replicas ?provision ?reconfig ?(scripts = [ no_script ]) () =
  Harness.Simrun.cluster ?replicas ?provision ?reconfig
    ~business:Business.trivial ~scripts ()

let build_rejections =
  [
    ( "replicas < 0",
      rejects "Cluster.build: replicas must be >= 0" (build ~replicas:(-1)) );
    ( "provision < 0",
      rejects "Cluster.build: provision must be >= 0"
        (build ~reconfig:true ~provision:(-1)) );
    ( "provision without reconfig",
      rejects "Cluster.build: provision needs ~reconfig:true"
        (build ~provision:1) );
    ( "no client scripts",
      rejects "Cluster.build: no client scripts" (build ~scripts:[]) );
    ( "split of a static cluster",
      rejects "Cluster.split: build the cluster with ~reconfig:true"
        (fun () ->
          let _, c = build () in
          Cluster.split c ~group:0 ~target:1) );
    ( "split to an unprovisioned target",
      rejects "Cluster.split: target group not provisioned" (fun () ->
          let _, c = build ~reconfig:true ~provision:1 () in
          Cluster.split c ~group:0 ~target:2) );
  ]

(* ------------------------------------------------------------------ *)
(* Multi-shard routing: every request lands on (and only on) its key's
   home shard, and throughput-relevant state never leaks across groups. *)

let test_two_shards_route_by_key () =
  let map = Shard_map.create ~shards:2 () in
  (* two keys per shard, one client per key *)
  let keys =
    let rec scan a acc = function
      | 0 -> List.rev acc
      | n ->
          let k = Printf.sprintf "acct%d" a in
          let wanted =
            List.length (List.filter (fun k' -> Shard_map.shard_of map k' = Shard_map.shard_of map k) acc)
            < 2
          in
          if wanted then scan (a + 1) (k :: acc) (n - 1) else scan (a + 1) acc n
    in
    scan 0 [] 4
  in
  let seed_data = Workload.Bank.seed_accounts (List.map (fun k -> (k, 100)) keys) in
  let scripts =
    List.map
      (fun k ~issue ->
        ignore (issue (k ^ ":1"));
        ignore (issue (k ^ ":2")))
      keys
  in
  let _e, c =
    Harness.Simrun.cluster ~seed:11 ~map ~seed_data
      ~business:Workload.Bank.update ~scripts ()
  in
  Alcotest.(check bool) "quiesced" true (Cluster.run_to_quiescence ~deadline:120_000. c);
  Alcotest.(check int) "all delivered" 8 (List.length (Cluster.all_records c));
  Alcotest.(check (list string)) "cluster spec" [] (Cluster.Spec.check_all c);
  (* each key's final balance is on its home shard, absent elsewhere *)
  List.iter
    (fun k ->
      let home = Cluster.shard_of_key c k in
      Array.iteri
        (fun s (g : Cluster.group) ->
          List.iter
            (fun (dbpid, rm) ->
              match (Dbms.Rm.read_committed rm k, s = home) with
              | Some (Dbms.Value.Int 103), true -> ()
              | None, false -> ()
              | v, _ ->
                  Alcotest.failf "key %s on shard %d (db p%d): %s" k s dbpid
                    (match v with
                    | Some x -> Dbms.Value.to_string x
                    | None -> "missing"))
            g.dbs)
        c.groups)
    keys

(* a request whose group stamp does not match the receiving server is
   dropped, not executed: point a client's router at the wrong shard and
   the request must never commit there *)
let test_misrouted_request_dropped () =
  let _e, c =
    Harness.Simrun.cluster ~seed:3 ~shards:2 ~business:Business.trivial
      ~scripts:[ (fun ~issue -> ignore (issue "x")) ]
      ()
  in
  let rt = c.rt in
  let home = Cluster.shard_of_key c "y" in
  let wrong = 1 - home in
  let wrong_servers = (Cluster.group c wrong).app_servers in
  (* group stamp says home, wire target is the other shard's servers *)
  let _bad =
    Client.spawn rt ~name:"confused"
      ~router:(fun _ -> (home, wrong_servers))
      ~servers:wrong_servers
      ~script:(fun ~issue -> ignore (issue "y"))
      ()
  in
  (* the well-routed client finishes; the misrouted one spins forever *)
  Alcotest.(check bool) "healthy client quiesces" true
    (rt.run_until ~deadline:30_000. (fun () ->
         List.for_all Client.script_done c.clients));
  Alcotest.(check bool) "misrouted request never delivered" false
    (rt.run_until ~deadline:30_000. (fun () -> Client.script_done _bad));
  (* and the wrong shard's servers noted the drop *)
  let drops =
    List.filter
      (fun (_, note) ->
        String.length note >= 9 && String.sub note 0 9 = "misrouted")
      (rt.notes ())
  in
  Alcotest.(check bool) "servers logged the misroute" true (drops <> [])

(* the drop is not silent: the wrong shard's server answers with an
   explicit bounce Nack, which the client counts and reacts to by fanning
   out immediately instead of waiting out its resend timer — on the
   classic and the batched intake alike *)
let test_misrouted_request_bounced ~batch () =
  let reg = Obs.Registry.create () in
  let _e, c =
    Harness.Simrun.cluster ~seed:3 ~shards:2 ~obs:reg ~batch
      ~business:Business.trivial
      ~scripts:[ (fun ~issue -> ignore (issue "x")) ]
      ()
  in
  let rt = c.rt in
  let home = Cluster.shard_of_key c "y" in
  let wrong = 1 - home in
  let wrong_servers = (Cluster.group c wrong).app_servers in
  let bad =
    Client.spawn rt ~name:"confused"
      ~router:(fun _ -> (home, wrong_servers))
      ~servers:wrong_servers
      ~script:(fun ~issue -> ignore (issue "y"))
      ()
  in
  Alcotest.(check bool) "healthy client quiesces" true
    (rt.run_until ~deadline:30_000. (fun () ->
         List.for_all Client.script_done c.clients));
  Alcotest.(check bool) "misrouted request never delivered" false
    (rt.run_until ~deadline:30_000. (fun () -> Client.script_done bad));
  Alcotest.(check bool) "bounce Nacks reached the client" true
    (Obs.Registry.counter_total reg "client.bounced" > 0);
  Alcotest.(check int) "nothing committed for the misroute" 0
    (Obs.Registry.counter_total reg "client.committed"
    - List.length (Cluster.all_records c))

(* ------------------------------------------------------------------ *)
(* Random fault injection over a 2-shard, 4-client cluster: message loss,
   an imperfect failure detector, and an application-server crash on a
   random shard. Per-shard A.1–A.3 / V.1–V.2 / T.2 plus the global
   exactly-once property must all hold. *)

let prop_cluster_spec_under_random_faults =
  QCheck.Test.make ~name:"cluster spec under random faults (2 shards, 4 clients)"
    ~count:15
    QCheck.(
      quad (int_range 0 100_000) (float_range 0. 0.15) (float_range 1. 500.)
        (int_range 0 5))
    (fun (seed, loss, crash_time, victim_index) ->
      let map = Shard_map.create ~shards:2 () in
      let keys = [ "acct0"; "acct1"; "acct2"; "acct3" ] in
      let seed_data =
        Workload.Bank.seed_accounts (List.map (fun k -> (k, 1000)) keys)
      in
      let scripts =
        List.map
          (fun k ~issue ->
            ignore (issue (k ^ ":1"));
            ignore (issue (k ^ ":1")))
          keys
      in
      let net = Dnet.Netmodel.lossy ~loss (Dnet.Netmodel.three_tier ~n_dbs:2 ()) in
      let e, c =
        Harness.Simrun.cluster ~seed ~map ~net ~client_period:300.
          ~fd_spec:
            (Appserver.Fd_heartbeat
               { period = 10.; initial_timeout = 60.; timeout_bump = 30. })
          ~seed_data ~business:Workload.Bank.update ~scripts ()
      in
      (* victim_index ranges over both shards' three servers each *)
      let shard = victim_index / 3 and i = victim_index mod 3 in
      let victim = List.nth (Cluster.group c shard).app_servers i in
      Dsim.Engine.crash_at e crash_time victim;
      let ok = Cluster.run_to_quiescence ~deadline:600_000. c in
      ok && Cluster.Spec.check_all c = [])

(* No server crashes, but heartbeats cross a lossy link and a suspicion
   times out after 15 ms, so the application servers suspect each other
   now and then while every one of them is up. A decision relayed to a
   suspected server stops being retransmitted; a server that lost such a
   relay learns the decision when its own driver asks. Every try a server
   drives still finishes, and the spec holds. *)
let test_false_suspicion_liveness () =
  let obs = Obs.Registry.create () in
  let keys = List.init 8 (Printf.sprintf "acct%d") in
  let seed_data =
    Workload.Bank.seed_accounts (List.map (fun k -> (k, 1000)) keys)
  in
  let requests = 4 in
  let scripts =
    List.map
      (fun k ~issue ->
        for _ = 1 to requests do
          ignore (issue (k ^ ":1"))
        done)
      keys
  in
  let net =
    Dnet.Netmodel.lossy ~loss:0.3 (Dnet.Netmodel.three_tier ~n_dbs:1 ())
  in
  let _, c =
    Harness.Simrun.cluster ~seed:7 ~obs ~net ~client_period:300.
      ~fd_spec:
        (Appserver.Fd_heartbeat
           { period = 10.; initial_timeout = 15.; timeout_bump = 1. })
      ~seed_data ~business:Workload.Bank.update ~scripts ()
  in
  Alcotest.(check bool) "every client finished" true
    (Cluster.run_to_quiescence ~deadline:600_000. c);
  Alcotest.(check bool) "live servers were suspected" true
    (Obs.Registry.counter_total obs "fd.suspicions" > 0);
  let tries =
    List.filter
      (fun (s : Obs.Span.t) -> s.name = "try")
      (Obs.Registry.spans obs)
  in
  Alcotest.(check bool) "servers drove tries" true (tries <> []);
  Alcotest.(check int) "every try finished" 0
    (List.length (List.filter (fun s -> not (Obs.Span.closed s)) tries));
  Alcotest.(check int) "every request delivered"
    (requests * List.length keys)
    (List.length (Cluster.all_records c));
  Alcotest.(check (list string)) "spec" [] (Cluster.Spec.check_all c)

(* ------------------------------------------------------------------ *)
(* Idle means no events: once every client script is done, a crash-free
   cluster on the oracle detector has nothing left to wake for — no
   detector, cleaner, lease monitor, shipper or register wait re-checks on
   a period — so its event queue drains within a virtual second. *)

let updates n = List.init n (fun i -> Printf.sprintf "acct%d:1" (i mod 3))

let drains_when_idle (name, build) () =
  let e, c = build () in
  Alcotest.(check bool) (name ^ ": scripts done") true
    (Cluster.run_to_quiescence ~deadline:300_000. c);
  let deadline = Dsim.Engine.now_of e +. 1_000. in
  Alcotest.(check bool) (name ^ ": event queue drains") true
    (Dsim.Engine.run ~deadline e = Dsim.Engine.Quiescent);
  Alcotest.(check (list string)) (name ^ ": cluster spec") []
    (Cluster.Spec.check_all c)

let idle_clusters =
  let bank = Workload.Bank.seed_accounts (List.init 8 (fun i -> (Printf.sprintf "acct%d" i, 1000))) in
  let scripts bodies =
    List.map (fun b ~issue -> List.iter (fun b -> ignore (issue b)) b) bodies
  in
  let two_clients = scripts [ updates 3; updates 3 ] in
  [
    ( "classic",
      fun () ->
        Harness.Simrun.cluster ~seed:3 ~seed_data:bank
          ~business:Workload.Bank.update ~scripts:two_clients () );
    ( "batch 4",
      fun () ->
        Harness.Simrun.cluster ~seed:3 ~batch:4 ~seed_data:bank
          ~business:Workload.Bank.update ~scripts:two_clients () );
    ( "2-shard cross",
      fun () ->
        let map = Shard_map.create ~shards:2 () in
        let kind =
          Workload.Generator.Bank_transfers { accounts = 8; max_amount = 5 }
        in
        let bodies =
          Workload.Generator.sharded_bodies ~map ~cross_ratio:0.5 ~seed:3 ~n:6
            kind
        in
        Harness.Simrun.cluster ~seed:3 ~map ~cross:true
          ~seed_data:(Workload.Generator.seed_data_of kind)
          ~business:Workload.Bank.transfer
          ~scripts:
            (scripts
               [
                 List.filteri (fun i _ -> i mod 2 = 0) (List.map snd bodies);
                 List.filteri (fun i _ -> i mod 2 = 1) (List.map snd bodies);
               ])
          () );
    ( "replicas 1",
      fun () ->
        let kind =
          Workload.Generator.Read_heavy
            { accounts = 3; max_delta = 9; reads_per_write = 3 }
        in
        Harness.Simrun.cluster ~seed:3 ~cache:true ~replicas:1
          ~seed_data:(Workload.Generator.seed_data_of kind)
          ~business:(Workload.Generator.business_of kind)
          ~scripts:
            (scripts
               (List.init 2 (fun i ->
                    Workload.Generator.bodies ~seed:(1 + i) ~n:6 kind)))
          () );
  ]

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "cluster"
    [
      ( "shard-map",
        [
          Alcotest.test_case "hash placement deterministic" `Quick
            test_shard_map_determinism;
          Alcotest.test_case "validation" `Quick test_shard_map_validation;
          Alcotest.test_case "routing key" `Quick test_routing_key;
        ] );
      ( "build",
        List.map
          (fun (name, f) -> Alcotest.test_case ("rejects " ^ name) `Quick f)
          build_rejections );
      ( "routing",
        [
          Alcotest.test_case "two shards route by key" `Quick
            test_two_shards_route_by_key;
          Alcotest.test_case "misrouted request dropped" `Quick
            test_misrouted_request_dropped;
          Alcotest.test_case "misrouted request bounced" `Quick
            (test_misrouted_request_bounced ~batch:1);
          Alcotest.test_case "misrouted request bounced (batch 4)" `Quick
            (test_misrouted_request_bounced ~batch:4);
        ] );
      ( "idle",
        List.map
          (fun ((name, _) as cfg) ->
            Alcotest.test_case ("drains when idle: " ^ name) `Quick
              (drains_when_idle cfg))
          idle_clusters );
      ( "random-faults",
        [
          q prop_cluster_spec_under_random_faults;
          Alcotest.test_case "false suspicion stays live" `Quick
            test_false_suspicion_liveness;
        ] );
    ]
