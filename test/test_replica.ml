(* Asynchronous change-log read replicas: the Replica structure itself
   (seeded provisioning, idempotent feed application, snapshot re-seed,
   provable lag), the wire protocol (serve / stale / refused — refusal is
   what makes dropping or promoting a replica always safe), replicated
   deployments end-to-end (reads served within the staleness bound,
   replica-consistency asserted by the spec, obs counters and their
   Prometheus round-trip), replicas=0 equivalence with the pre-replica
   path, and a randomized fault sweep interleaving primary database
   crash/recovery with replica reads on a 2-shard cluster. *)

open Etx
module Rt = Runtime.Etx_runtime

(* ------------------------------------------------------------------ *)
(* Replica structure: feed application and lag accounting *)

let test_replica_apply_idempotent () =
  let rep =
    Dbms.Replica.create
      ~seed_data:[ ("k", Dbms.Value.Int 1) ]
      ~name:"r" ()
  in
  Alcotest.(check bool) "seeded" true
    (Dbms.Replica.read rep "k" = Some (Dbms.Value.Int 1));
  Dbms.Replica.apply_entries rep
    [ (2, [ ("k", Dbms.Value.Int 5) ]); (4, [ ("j", Dbms.Value.Int 7) ]) ];
  Alcotest.(check int) "applied through 4" 4 (Dbms.Replica.applied_lsn rep);
  (* a reshipped prefix (the primary's shipping watermark is volatile
     across its recovery) must be dropped, not re-applied *)
  Dbms.Replica.apply_entries rep [ (2, [ ("k", Dbms.Value.Int 99) ]) ];
  Alcotest.(check bool) "duplicate dropped" true
    (Dbms.Replica.read rep "k" = Some (Dbms.Value.Int 5));
  Alcotest.(check int) "lsn unchanged" 4 (Dbms.Replica.applied_lsn rep)

let test_replica_snapshot_reseed () =
  let rep = Dbms.Replica.create ~name:"r" () in
  Dbms.Replica.apply_entries rep [ (2, [ ("old", Dbms.Value.Int 1) ]) ];
  Dbms.Replica.apply_snapshot rep
    ~state:[ ("fresh", Dbms.Value.Int 9) ]
    ~as_of:10;
  Alcotest.(check bool) "snapshot replaces the store" true
    (Dbms.Replica.read rep "old" = None
    && Dbms.Replica.read rep "fresh" = Some (Dbms.Value.Int 9));
  Alcotest.(check int) "applied jumps to as_of" 10
    (Dbms.Replica.applied_lsn rep);
  (* a stale snapshot (below what the replica already applied) is a
     duplicate of an older ship: dropped *)
  Dbms.Replica.apply_snapshot rep ~state:[] ~as_of:3;
  Alcotest.(check int) "stale snapshot dropped" 10
    (Dbms.Replica.applied_lsn rep)

let test_replica_lag_is_provable_staleness () =
  let rep = Dbms.Replica.create ~name:"r" () in
  Alcotest.(check int) "fresh replica has no provable lag" 0
    (Dbms.Replica.lag rep);
  Dbms.Replica.apply_entries rep [ (3, []) ];
  Alcotest.(check int) "applied ahead of watermark clamps to 0" 0
    (Dbms.Replica.lag rep)

(* ------------------------------------------------------------------ *)
(* Wire protocol: serve / stale / refused *)

let replica_scenario ~script () =
  let t = Dsim.Engine.create () in
  let rt = Dsim.Runtime_sim.of_engine t in
  let rep =
    Dbms.Replica.create
      ~seed_data:[ ("k", Dbms.Value.Int 1) ]
      ~name:"db1-r1" ()
  in
  let rpid = Dbms.Replica.spawn rt ~name:"db1-r1" ~replica:rep () in
  let _ =
    Dsim.Engine.spawn t ~name:"driver" ~main:(fun ~recovery:_ () ->
        let ch = Dnet.Rchannel.create () in
        Dnet.Rchannel.start ch;
        script ~ch ~rpid ~rep)
  in
  ignore (Dsim.Engine.run t);
  rep

let ask ch rpid ~seq ~bound ops =
  Dnet.Rchannel.send ch rpid (Dbms.Msg.Replica_exec { rid = 1; seq; ops; bound });
  match
    Rt.recv ~timeout:5_000. ~cls:Dbms.Msg.cls_replica_reply
      ~filter:(fun m -> m.Runtime.Types.src = rpid)
      ()
  with
  | Some m -> m.Runtime.Types.payload
  | None -> Alcotest.fail "no reply from replica"

let test_replica_serves_reads () =
  let rep =
    replica_scenario () ~script:(fun ~ch ~rpid ~rep:_ ->
        Dnet.Rchannel.send ch rpid
          (Dbms.Msg.Ship { entries = [ (2, [ ("k", Dbms.Value.Int 5) ]) ]; upto = 2 });
        match ask ch rpid ~seq:0 ~bound:8 [ Dbms.Rm.Get "k" ] with
        | Dbms.Msg.Replica_values { values; lsn; lag; _ } ->
            Alcotest.(check bool) "shipped value served" true
              (values = [ Some (Dbms.Value.Int 5) ]);
            Alcotest.(check int) "tagged with the applied LSN" 2 lsn;
            Alcotest.(check int) "no provable lag" 0 lag
        | _ -> Alcotest.fail "expected Replica_values")
  in
  Alcotest.(check int) "one batch served" 1 (Dbms.Replica.served rep)

let test_replica_stale_when_behind () =
  let rep =
    replica_scenario () ~script:(fun ~ch ~rpid ~rep:_ ->
        (* a watermark-only heartbeat: the primary is at LSN 12 but ships
           nothing, so the replica can prove it is 12 behind *)
        Dnet.Rchannel.send ch rpid
          (Dbms.Msg.Ship { entries = []; upto = 12 });
        (match ask ch rpid ~seq:0 ~bound:8 [ Dbms.Rm.Get "k" ] with
        | Dbms.Msg.Replica_stale { lag; _ } ->
            Alcotest.(check int) "provable lag reported" 12 lag
        | _ -> Alcotest.fail "expected Replica_stale");
        (* a caller with a looser bound is still served *)
        match ask ch rpid ~seq:1 ~bound:20 [ Dbms.Rm.Get "k" ] with
        | Dbms.Msg.Replica_values { lag; _ } ->
            Alcotest.(check int) "served with its lag" 12 lag
        | _ -> Alcotest.fail "expected Replica_values under the loose bound")
  in
  Alcotest.(check int) "one served, one stale" 1 (Dbms.Replica.served rep)

(* Promotion safety: a replica never executes anything but reads — it can
   never vote, hold a lock, or commit — so refusing (and by extension
   crashing, dropping, or re-seeding one) is always safe. *)
let test_replica_refuses_writes () =
  let rep =
    replica_scenario () ~script:(fun ~ch ~rpid ~rep:_ ->
        List.iter
          (fun (label, ops) ->
            match ask ch rpid ~seq:0 ~bound:1000 ops with
            | Dbms.Msg.Replica_refused _ -> ()
            | _ -> Alcotest.fail (label ^ ": write batch must be refused"))
          [
            ("put", [ Dbms.Rm.Put ("k", Dbms.Value.Int 2) ]);
            ("add", [ Dbms.Rm.Add ("k", 1) ]);
            ("mixed", [ Dbms.Rm.Get "k"; Dbms.Rm.Ensure_min ("k", 0) ]);
            ("fail", [ Dbms.Rm.Fail ]);
          ])
  in
  Alcotest.(check int) "nothing served" 0 (Dbms.Replica.served rep);
  Alcotest.(check bool) "store untouched" true
    (Dbms.Replica.read rep "k" = Some (Dbms.Value.Int 1))

(* ------------------------------------------------------------------ *)
(* Replicated deployments end-to-end *)

let seed_acct = Workload.Bank.seed_accounts [ ("acct0", 1000) ]

let replica_records d =
  List.filter
    (fun (r : Client.record) -> r.replica <> None)
    (Cluster.all_records d)

let test_replica_reads_served_end_to_end () =
  let reg = Obs.Registry.create () in
  let _e, d =
    Harness.Simrun.cluster ~seed:11 ~obs:reg ~replicas:2
      ~seed_data:seed_acct ~business:Workload.Bank.mixed
      ~scripts:
        [
          (fun ~issue ->
            for r = 0 to 11 do
              ignore (issue (if r mod 4 = 3 then "acct0:1" else "acct0"))
            done);
        ]
      ()
  in
  Alcotest.(check bool) "quiesced" true
    (Cluster.run_to_quiescence ~deadline:300_000. d);
  Alcotest.(check int) "all delivered" 12
    (List.length (Cluster.all_records d));
  Alcotest.(check bool) "replica-served records" true
    (List.length (replica_records d) >= 1);
  List.iter
    (fun (r : Client.record) ->
      match r.replica with
      | Some (lsn, lag) ->
          Alcotest.(check bool)
            (Printf.sprintf "record %d within the bound" r.rid)
            true
            (lag <= 8 && lsn >= 0)
      | None -> ())
    (Cluster.all_records d);
  Alcotest.(check (list string)) "spec incl. replica consistency" []
    (Cluster.Spec.check_all d);
  (* both sides of the read count: replicas served, servers routed *)
  let served =
    List.fold_left
      (fun acc (_, rep, _) -> acc + Dbms.Replica.served rep)
      0 (Cluster.group d 0).replicas
  in
  Alcotest.(check bool) "replicas actually served" true (served >= 1);
  Alcotest.(check int) "obs replica.served matches the handles" served
    (Obs.Registry.counter_total reg "replica.served");
  Alcotest.(check bool) "servers counted the routed reads" true
    (Obs.Registry.counter_total reg "server.replica_served" >= 1);
  (* storage-tier metrics flow through the same registry *)
  Alcotest.(check bool) "db.force counted" true
    (Obs.Registry.counter_total reg "db.force" >= 1);
  (* Prometheus round-trip: the dump re-parses to the same served total *)
  let dump = Obs.Export_prom.to_string reg in
  let reparsed =
    int_of_float
      (List.fold_left ( +. ) 0.
         (Obs.Export_prom.counter_values dump ~metric:"etx_replica_served"))
  in
  Alcotest.(check int) "prometheus dump re-parses" served reparsed

let test_replicas_off_equivalence () =
  (* with replicas disabled the run must be record-for-record and
     event-for-event identical to a build that never heard of them *)
  let run replicas =
    let e, d =
      Harness.Simrun.cluster ~seed:7 ?replicas ~seed_data:seed_acct
        ~business:Workload.Bank.mixed
        ~scripts:
          [
            (fun ~issue ->
              ignore (issue "acct0");
              ignore (issue "acct0:5");
              ignore (issue "acct0"));
          ]
        ()
    in
    assert (Cluster.run_to_quiescence ~deadline:300_000. d);
    (Dsim.Engine.events_of e, Cluster.all_records d)
  in
  let base_events, base = run None in
  let off_events, off = run (Some 0) in
  Alcotest.(check int) "same simulation event count" base_events off_events;
  Alcotest.(check int) "same record count" (List.length base)
    (List.length off);
  List.iter2
    (fun (a : Client.record) b ->
      Alcotest.(check bool)
        (Printf.sprintf "record %d identical" a.rid)
        true (a = b))
    base off

let test_replica_obs_zero_emission_when_off () =
  let reg = Obs.Registry.create () in
  let _e, d =
    Harness.Simrun.cluster ~seed:5 ~obs:reg ~seed_data:seed_acct
      ~business:Workload.Bank.mixed
      ~scripts:
        [
          (fun ~issue ->
            ignore (issue "acct0");
            ignore (issue "acct0:2"));
        ]
      ()
  in
  Alcotest.(check bool) "quiesced" true
    (Cluster.run_to_quiescence ~deadline:300_000. d);
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " not emitted") 0
        (Obs.Registry.counter_total reg name))
    [ "replica.served"; "server.replica_served"; "server.replica_fallback" ];
  let dump = Obs.Export_prom.to_string reg in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "no replica metric in the dump" false
    (contains dump "etx_replica");
  (* the storage tier, by contrast, always reports its forced writes *)
  Alcotest.(check bool) "db.force still counted" true
    (Obs.Registry.counter_total reg "db.force" >= 1)

(* ------------------------------------------------------------------ *)
(* Randomized fault sweep: primary database crash/recovery interleaved
   with replica reads on a 2-shard cluster. Read_heavy bodies give a 3:1
   read:write interleave per client; single-key bodies stay intra-shard. *)

let prop_replica_cluster_under_db_crashes =
  QCheck.Test.make
    ~name:
      "replica consistency under primary db crash/recovery (2 shards, \
       mixed reads/writes)"
    ~count:6
    QCheck.(
      triple (int_range 0 100_000)
        (QCheck.oneofl [ false; true ]) (* method cache on/off *)
        (float_range 1. 2500.))
    (fun (seed, cache, crash_time) ->
      let clients = 4 and requests = 4 in
      let map = Shard_map.create ~shards:2 () in
      let kind =
        Workload.Generator.Read_heavy
          { accounts = clients; max_delta = 9; reads_per_write = 3 }
      in
      let scripts =
        List.init clients (fun i ->
            let bodies =
              Workload.Generator.bodies ~seed:(seed + (17 * i)) ~n:requests
                kind
            in
            fun ~issue -> List.iter (fun b -> ignore (issue b)) bodies)
      in
      let e, c =
        Harness.Simrun.cluster ~seed ~map ~cache ~replicas:1
          ~group_commit:true ~client_period:300.
          ~seed_data:(Workload.Generator.seed_data_of kind)
          ~business:(Workload.Generator.business_of kind)
          ~scripts ()
      in
      (* kill shard 0's primary database mid-run and bring it back: the
         shipper restarts with a volatile watermark, reships, and the
         replica must absorb the duplicates while still serving *)
      let db = fst (List.hd (Cluster.group c 0).Cluster.dbs) in
      Dsim.Engine.crash_at e crash_time db;
      Dsim.Engine.recover_at e (crash_time +. 200.) db;
      Cluster.run_to_quiescence ~deadline:600_000. c
      && List.length (Cluster.all_records c) = clients * requests
      && Cluster.Spec.check_all c = [])

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "replica"
    [
      ( "replica-feed",
        [
          Alcotest.test_case "idempotent application" `Quick
            test_replica_apply_idempotent;
          Alcotest.test_case "snapshot re-seed" `Quick
            test_replica_snapshot_reseed;
          Alcotest.test_case "lag is provable staleness" `Quick
            test_replica_lag_is_provable_staleness;
        ] );
      ( "replica-protocol",
        [
          Alcotest.test_case "serves shipped state" `Quick
            test_replica_serves_reads;
          Alcotest.test_case "stale beyond the bound" `Quick
            test_replica_stale_when_behind;
          Alcotest.test_case "refuses writes (promotion-safe)" `Quick
            test_replica_refuses_writes;
        ] );
      ( "replicated-runs",
        [
          Alcotest.test_case "reads served end-to-end" `Quick
            test_replica_reads_served_end_to_end;
          Alcotest.test_case "replicas=0 is the pre-replica path" `Quick
            test_replicas_off_equivalence;
          Alcotest.test_case "no replica metrics when off" `Quick
            test_replica_obs_zero_emission_when_off;
        ] );
      ("fault-sweep", [ q prop_replica_cluster_under_db_crashes ]);
    ]
