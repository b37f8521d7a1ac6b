(* Elastic reconfiguration tests (DESIGN.md §16): the epoch-versioned
   shard map and its refinement algebra, the storage-level migration
   surface (seal / import), online shard splits under live traffic with
   the full cluster spec asserting, crash chaos over every migration
   phase, rolling restart, and the observability contract. *)

open Etx

(* ------------------------------------------------------------------ *)
(* Shard map: epochs, refinement, helpers *)

(* the unversioned placement function, reimplemented independently: the
   epoch-0 map must reproduce it bit-for-bit *)
let fnv1a_ref key =
  let h = ref 0x4bf29ce484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    key;
  !h land max_int

let some_keys =
  [ "acct0"; "acct1"; "acct2"; "acct9"; "x"; ""; "a:b"; "zebra"; "k17" ]

let test_epoch0_identity () =
  List.iter
    (fun shards ->
      let m = Shard_map.create ~shards () in
      Alcotest.(check int) "epoch 0" 0 (Shard_map.epoch m);
      List.iter
        (fun k ->
          let expect = if shards = 1 then 0 else fnv1a_ref k mod shards in
          Alcotest.(check int)
            (Printf.sprintf "placement of %S over %d" k shards)
            expect (Shard_map.shard_of m k))
        some_keys)
    [ 1; 2; 3; 4; 8 ]

let test_split_refinement () =
  let m0 = Shard_map.create ~shards:2 () in
  let m1 = Shard_map.split m0 ~group:0 ~target:2 () in
  Alcotest.(check int) "epoch bumped" 1 (Shard_map.epoch m1);
  Alcotest.(check int) "slots constant" 2 (Shard_map.slots m1);
  Alcotest.(check int) "three groups" 3 (Shard_map.shards m1);
  Alcotest.(check (list int)) "groups" [ 0; 1; 2 ] (Shard_map.groups m1);
  (* refinement: a key either stays put or moves 0 -> 2; nothing else *)
  let saw_move = ref false in
  for i = 0 to 199 do
    let k = Printf.sprintf "acct%d" i in
    let a = Shard_map.shard_of m0 k and b = Shard_map.shard_of m1 k in
    (match Shard_map.moved m0 m1 k with
    | None -> Alcotest.(check int) ("unmoved " ^ k) a b
    | Some (s, d) ->
        saw_move := true;
        Alcotest.(check (pair int int)) ("move of " ^ k) (0, 2) (s, d);
        Alcotest.(check int) ("was at 0: " ^ k) 0 a;
        Alcotest.(check int) ("now at 2: " ^ k) 2 b);
    if a = 1 then Alcotest.(check int) ("shard 1 untouched: " ^ k) 1 b
  done;
  Alcotest.(check bool) "some key moved" true !saw_move;
  Alcotest.(check (list (pair int int)))
    "diff names exactly the move" [ (0, 2) ]
    (List.map
       (fun { Shard_map.src; dst } -> (src, dst))
       (Shard_map.diff m0 m1));
  (* a second, sequential split of the other source group *)
  let m2 = Shard_map.split m1 ~group:1 ~target:3 () in
  Alcotest.(check int) "epoch 2" 2 (Shard_map.epoch m2);
  Alcotest.(check (list int)) "four groups" [ 0; 1; 2; 3 ]
    (Shard_map.groups m2);
  Alcotest.(check (list (pair int int)))
    "second diff" [ (1, 3) ]
    (List.map
       (fun { Shard_map.src; dst } -> (src, dst))
       (Shard_map.diff m1 m2))

let test_split_validation () =
  let m = Shard_map.create ~shards:2 () in
  Alcotest.check_raises "target = source"
    (Invalid_argument "Shard_map.split: target = source group") (fun () ->
      ignore (Shard_map.split m ~group:0 ~target:0 ()));
  Alcotest.check_raises "gap"
    (Invalid_argument "Shard_map.split: target group would leave a gap")
    (fun () -> ignore (Shard_map.split m ~group:0 ~target:5 ()));
  Alcotest.check_raises "empty source"
    (Invalid_argument "Shard_map.split: source group owns nothing") (fun () ->
      ignore (Shard_map.split m ~group:7 ~target:2 ()));
  let m1 = Shard_map.split m ~group:0 ~target:2 () in
  Alcotest.check_raises "diff needs consecutive epochs"
    (Invalid_argument "Shard_map.diff: epochs are not consecutive") (fun () ->
      ignore (Shard_map.diff m1 m1))

(* ------------------------------------------------------------------ *)
(* Storage surface: seal and import at the resource-manager level *)

let in_sim f =
  let t = Dsim.Engine.create () in
  let result = ref None in
  let _ =
    Dsim.Engine.spawn t ~name:"p" ~main:(fun ~recovery:_ () ->
        result := Some (f t))
  in
  ignore (Dsim.Engine.run t);
  match !result with Some r -> r | None -> Alcotest.fail "fiber did not run"

let fresh_rm ?(seed_data = []) ?(name = "db-test") () =
  let disk = Dstore.Disk.create ~force_latency:1. ~label:"log" () in
  Dbms.Rm.create ~timing:Dbms.Rm.zero_timing ~seed_data ~disk ~name ()

let test_seal_blocks_disowned_writes () =
  in_sim (fun _ ->
      let rm = fresh_rm ~seed_data:[ ("stay", Dbms.Value.Int 1) ] () in
      Dbms.Rm.seal rm ~epoch:1 ~owns:(fun k -> k <> "gone");
      Alcotest.(check int) "sealed" 1 (Dbms.Rm.sealed_epoch rm);
      (* a write of a disowned key votes No even though the exec is fine *)
      let x = Dbms.Xid.make ~rid:1 ~j:1 in
      Dbms.Rm.xa_start rm ~xid:x;
      ignore (Dbms.Rm.exec rm ~xid:x [ Dbms.Rm.Put ("gone", Dbms.Value.Int 9) ]);
      Dbms.Rm.xa_end rm ~xid:x;
      Alcotest.(check bool) "disowned write refused" true
        (Dbms.Rm.vote rm ~xid:x = Dbms.Rm.No);
      (* a write the seal still owns commits normally *)
      let y = Dbms.Xid.make ~rid:2 ~j:1 in
      Dbms.Rm.xa_start rm ~xid:y;
      ignore (Dbms.Rm.exec rm ~xid:y [ Dbms.Rm.Put ("stay", Dbms.Value.Int 2) ]);
      Dbms.Rm.xa_end rm ~xid:y;
      Alcotest.(check bool) "owned write accepted" true
        (Dbms.Rm.vote rm ~xid:y = Dbms.Rm.Yes);
      ignore (Dbms.Rm.decide rm ~xid:y Dbms.Rm.Commit);
      (* monotone: an older epoch cannot weaken the seal *)
      Dbms.Rm.seal rm ~epoch:0 ~owns:(fun _ -> true);
      Alcotest.(check int) "older re-seal ignored" 1 (Dbms.Rm.sealed_epoch rm);
      (* the seal survives a crash (it is in the redo log) *)
      Dbms.Rm.recover rm;
      Alcotest.(check int) "seal recovered" 1 (Dbms.Rm.sealed_epoch rm))

let test_in_doubt_moving () =
  in_sim (fun _ ->
      let rm = fresh_rm () in
      let x = Dbms.Xid.make ~rid:1 ~j:1 in
      Dbms.Rm.xa_start rm ~xid:x;
      ignore (Dbms.Rm.exec rm ~xid:x [ Dbms.Rm.Put ("gone", Dbms.Value.Int 1) ]);
      Dbms.Rm.xa_end rm ~xid:x;
      Alcotest.(check bool) "prepared" true (Dbms.Rm.vote rm ~xid:x = Dbms.Rm.Yes);
      (* sealed while the moving-key write is prepared-but-undecided *)
      Dbms.Rm.seal rm ~epoch:1 ~owns:(fun k -> k <> "gone");
      Alcotest.(check int) "counted as in-doubt moving" 1
        (Dbms.Rm.in_doubt_moving rm);
      ignore (Dbms.Rm.decide rm ~xid:x Dbms.Rm.Commit);
      Alcotest.(check int) "drained after decide" 0 (Dbms.Rm.in_doubt_moving rm))

let test_import_idempotent () =
  in_sim (fun _ ->
      let rm = fresh_rm () in
      let entries = [ (3, [ ("k", Dbms.Value.Int 7) ]); (5, [ ("k", Dbms.Value.Int 9) ]) ] in
      let wm = Dbms.Rm.import rm ~src:"src-db" ~entries ~upto:5 () in
      Alcotest.(check int) "watermark advanced" 5 wm;
      Alcotest.(check int) "watermark readable" 5
        (Dbms.Rm.import_watermark rm ~src:"src-db");
      Alcotest.(check bool) "value visible" true
        (Dbms.Rm.read_committed rm "k" = Some (Dbms.Value.Int 9));
      (* replaying the same transfer is a no-op *)
      let wm2 = Dbms.Rm.import rm ~src:"src-db" ~entries ~upto:5 () in
      Alcotest.(check int) "replay no-op" 5 wm2;
      Alcotest.(check bool) "value unchanged" true
        (Dbms.Rm.read_committed rm "k" = Some (Dbms.Value.Int 9));
      (* an overlapping transfer only applies the suffix *)
      let wm3 =
        Dbms.Rm.import rm ~src:"src-db"
          ~entries:[ (5, [ ("k", Dbms.Value.Int 9) ]); (8, [ ("k2", Dbms.Value.Int 1) ]) ]
          ~upto:8 ()
      in
      Alcotest.(check int) "suffix applied" 8 wm3;
      Alcotest.(check bool) "suffix value visible" true
        (Dbms.Rm.read_committed rm "k2" = Some (Dbms.Value.Int 1));
      (* per-source watermarks are independent *)
      Alcotest.(check int) "other source untouched" 0
        (Dbms.Rm.import_watermark rm ~src:"other-db");
      (* durable: the watermark and values survive recovery *)
      Dbms.Rm.recover rm;
      Alcotest.(check int) "watermark recovered" 8
        (Dbms.Rm.import_watermark rm ~src:"src-db");
      Alcotest.(check bool) "values recovered" true
        (Dbms.Rm.read_committed rm "k" = Some (Dbms.Value.Int 9)))

(* ------------------------------------------------------------------ *)
(* Idle equivalence: wiring the reconfiguration machinery on without ever
   splitting leaves the delivered results untouched. The cfg fibers do
   perturb the deterministic scheduler, so the comparison is by result
   content, not timestamps: distinct per-client keys make each client's
   expected results independent of cross-client interleaving. *)

let test_reconfig_idle_equivalence () =
  let keys = [ "acct0"; "acct1"; "acct2"; "acct3" ] in
  let seed_data =
    Workload.Bank.seed_accounts (List.map (fun k -> (k, 1000)) keys)
  in
  let scripts =
    List.map
      (fun k ~issue ->
        for _ = 1 to 3 do
          ignore (issue (k ^ ":5"))
        done)
      keys
  in
  let run ~reconfig =
    let _e, c =
      Harness.Simrun.cluster ~seed:11 ~shards:2 ~seed_data ~reconfig
        ~business:Workload.Bank.update ~scripts ()
    in
    assert (Cluster.run_to_quiescence ~deadline:300_000. c);
    Alcotest.(check (list string))
      (Printf.sprintf "spec (reconfig=%b)" reconfig)
      [] (Cluster.Spec.check_all c);
    List.map
      (fun h ->
        List.map
          (fun (r : Client.record) -> (r.key, r.body, r.result))
          (Client.records h))
      c.Cluster.clients
  in
  let off = run ~reconfig:false and on = run ~reconfig:true in
  Alcotest.(check int) "same client count" (List.length off) (List.length on);
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "client %d same results" i)
        true
        (List.sort compare a = List.sort compare b))
    (List.combine off on)

(* ------------------------------------------------------------------ *)
(* Online split under live traffic: stale-map clients keep exactly-once *)

let moving_keys ~from ~target ~src ~dst n =
  List.filter
    (fun k -> Shard_map.shard_of from k = src && Shard_map.shard_of target k = dst)
    (List.init n (Printf.sprintf "acct%d"))

let test_online_split_under_traffic () =
  let reg = Obs.Registry.create () in
  let keys = List.init 6 (Printf.sprintf "acct%d") in
  let seed_data =
    Workload.Bank.seed_accounts (List.map (fun k -> (k, 1000)) keys)
  in
  let scripts =
    List.map
      (fun k ~issue ->
        for _ = 1 to 10 do
          ignore (issue (k ^ ":1"))
        done)
      keys
  in
  let _e, c =
    Harness.Simrun.cluster ~seed:3 ~obs:reg ~shards:2 ~reconfig:true
      ~provision:1 ~client_period:200. ~seed_data
      ~business:Workload.Bank.update ~scripts ()
  in
  let e1 = Cluster.split c ~group:0 ~target:2 in
  Alcotest.(check int) "split establishes epoch 1" 1 e1;
  Alcotest.(check bool) "epoch reached" true
    (Cluster.await_epoch ~deadline:300_000. c 1);
  Alcotest.(check bool) "quiesced" true
    (Cluster.run_to_quiescence ~deadline:600_000. c);
  Alcotest.(check int) "cluster observed the flip" 1 (Cluster.epoch c);
  Alcotest.(check (list string)) "full spec incl. migration integrity" []
    (Cluster.Spec.check_all c);
  (* every issue delivered exactly once *)
  Alcotest.(check int) "all records delivered" 60
    (List.length (Cluster.all_records c));
  (* the moved keys physically live at the destination now: post-flip
     commits of moved keys happened on group 2's database *)
  let moved =
    moving_keys ~from:c.Cluster.map ~target:(Cluster.current_map c) ~src:0
      ~dst:2 6
  in
  Alcotest.(check bool) "some key moved" true (moved <> []);
  (* value continuity: every key's balance at its current owner group is
     exactly seed + its 10 committed increments — for the moved keys this
     proves the copy carried the seeded state across, not just that
     post-flip commits recreated the key from zero *)
  List.iter
    (fun k ->
      let owner = Etx.Shard_map.shard_of (Cluster.current_map c) k in
      List.iter
        (fun (_, rm) ->
          Alcotest.(check (option int))
            (Printf.sprintf "%s balance continuous at group %d" k owner)
            (Some 1010)
            (match Dbms.Rm.read_committed rm k with
            | Some (Dbms.Value.Int n) -> Some n
            | _ -> None))
        (Cluster.group c owner).Cluster.dbs)
    keys;
  (* the metrics the migration promises *)
  Alcotest.(check bool) "keys moved counted" true
    (Obs.Registry.counter_total reg "migrate.keys_moved" > 0);
  Alcotest.(check bool) "clients refreshed their maps" true
    (Obs.Registry.counter_total reg "client.map_refresh" > 0)

(* ------------------------------------------------------------------ *)
(* Live 2 -> 4: two sequential splits double the cluster under traffic *)

let test_live_2_to_4 () =
  let keys = List.init 8 (Printf.sprintf "acct%d") in
  let seed_data =
    Workload.Bank.seed_accounts (List.map (fun k -> (k, 1000)) keys)
  in
  let scripts =
    List.map
      (fun k ~issue ->
        for _ = 1 to 12 do
          ignore (issue (k ^ ":1"))
        done)
      keys
  in
  let _e, c =
    Harness.Simrun.cluster ~seed:17 ~shards:2 ~reconfig:true ~provision:2
      ~client_period:200. ~seed_data ~business:Workload.Bank.update ~scripts ()
  in
  ignore (Cluster.split c ~group:0 ~target:2);
  Alcotest.(check bool) "first split done" true
    (Cluster.await_epoch ~deadline:300_000. c 1);
  ignore (Cluster.split c ~group:1 ~target:3);
  Alcotest.(check bool) "second split done" true
    (Cluster.await_epoch ~deadline:600_000. c 2);
  Alcotest.(check bool) "quiesced" true
    (Cluster.run_to_quiescence ~deadline:900_000. c);
  Alcotest.(check int) "epoch 2" 2 (Cluster.epoch c);
  Alcotest.(check (list int)) "four groups own keys" [ 0; 1; 2; 3 ]
    (Shard_map.groups (Cluster.current_map c));
  (* zero lost or duplicated records across both migrations *)
  Alcotest.(check (list string)) "full spec" [] (Cluster.Spec.check_all c);
  Alcotest.(check int) "every request delivered exactly once" 96
    (List.length (Cluster.all_records c));
  (* the spare groups took real traffic: both committed transactions *)
  List.iter
    (fun g ->
      Alcotest.(check bool)
        (Printf.sprintf "group %d committed transactions" g)
        true
        (List.exists
           (fun (_, rm) -> Dbms.Rm.committed_xids rm <> [])
           (Cluster.group c g).Cluster.dbs))
    [ 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Chaos: a 2 -> 3 split racing crashes in every phase. The victim index
   sweeps config-group servers (the migration drivers), the source
   database (crash + recovery mid-copy), destination and bystander
   servers; message loss shifts the phase the crash lands in. *)

let prop_split_chaos =
  QCheck.Test.make
    ~name:"online split under crashes and loss (2 shards + 1 spare)"
    ~count:100
    QCheck.(
      quad
        (int_range 0 1_000_000)
        (float_range 0. 0.08)
        (float_range 1. 2_500.)
        (int_range 0 9))
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
      let net =
        Dnet.Netmodel.lossy ~loss (Dnet.Netmodel.three_tier ~n_dbs:3 ())
      in
      let e, c =
        Harness.Simrun.cluster ~seed ~map ~net ~reconfig:true ~provision:1
          ~client_period:300.
          ~fd_spec:
            (Appserver.Fd_heartbeat
               { period = 10.; initial_timeout = 60.; timeout_bump = 30. })
          ~seed_data ~business:Workload.Bank.update ~scripts ()
      in
      ignore (Cluster.split c ~group:0 ~target:2);
      (* victims 0-8: one application server of group 0 (the config group
         hosting the driver), 1 (bystander) or 2 (destination); victim 9:
         the source database, which recovers with its durable state *)
      (if victim_index < 9 then begin
         let shard = victim_index / 3 and i = victim_index mod 3 in
         let victim = List.nth (Cluster.group c shard).Cluster.app_servers i in
         Dsim.Engine.crash_at e crash_time victim
       end
       else begin
         let db = fst (List.hd (Cluster.group c 0).Cluster.dbs) in
         Dsim.Engine.crash_at e crash_time db;
         Dsim.Engine.recover_at e (crash_time +. 400.) db
       end);
      let ok = Cluster.run_to_quiescence ~deadline:600_000. c in
      ok
      && Cluster.epoch c = 1
      && Cluster.Spec.check_all c = []
      && List.length (Cluster.all_records c) = 8)

(* ------------------------------------------------------------------ *)
(* Rolling restart: every node of a group bounced one at a time under
   live traffic, spec asserting end to end. Servers are recoverable
   (registers on stable storage), the database recovers from its WAL. *)

let test_rolling_restart () =
  let seed_data = Workload.Bank.seed_accounts [ ("acct0", 1000); ("acct1", 1000) ] in
  let scripts =
    List.map
      (fun k ~issue ->
        for _ = 1 to 16 do
          ignore (issue (k ^ ":1"))
        done)
      [ "acct0"; "acct1" ]
  in
  let e, c =
    Harness.Simrun.cluster ~seed:23 ~shards:1 ~reconfig:true
      ~recoverable:true ~client_period:300. ~seed_data
      ~business:Workload.Bank.update ~scripts ()
  in
  (* one node down at a time: db, then each application server in turn *)
  let g = Cluster.group c 0 in
  let nodes = List.map fst g.Cluster.dbs @ g.Cluster.app_servers in
  List.iteri
    (fun i pid ->
      let at = 500. +. (float_of_int i *. 1_500.) in
      Dsim.Engine.crash_at e at pid;
      Dsim.Engine.recover_at e (at +. 700.) pid)
    nodes;
  Alcotest.(check bool) "quiesced through the restarts" true
    (Cluster.run_to_quiescence ~deadline:600_000. c);
  Alcotest.(check (list string)) "spec held throughout" []
    (Cluster.Spec.check_all c);
  Alcotest.(check int) "all requests delivered" 32
    (List.length (Cluster.all_records c))

(* ------------------------------------------------------------------ *)
(* Observability: the migration metrics flow when wired, and are never
   emitted — not even as zero series — when reconfiguration is off. *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_obs_migration_metrics () =
  let reg = Obs.Registry.create () in
  let keys = List.init 4 (Printf.sprintf "acct%d") in
  let seed_data =
    Workload.Bank.seed_accounts (List.map (fun k -> (k, 1000)) keys)
  in
  let scripts =
    List.map
      (fun k ~issue ->
        for _ = 1 to 8 do
          ignore (issue (k ^ ":1"))
        done)
      keys
  in
  let _e, c =
    Harness.Simrun.cluster ~seed:29 ~obs:reg ~shards:2 ~reconfig:true
      ~provision:1 ~client_period:200. ~seed_data
      ~business:Workload.Bank.update ~scripts ()
  in
  ignore (Cluster.split c ~group:0 ~target:2);
  Alcotest.(check bool) "quiesced" true
    (Cluster.run_to_quiescence ~deadline:600_000. c);
  Alcotest.(check (list string)) "spec" [] (Cluster.Spec.check_all c);
  (* the epoch gauge reached 1 on at least one server *)
  let epoch_gauges =
    List.filter
      (fun ((k : Obs.Registry.key), _) -> k.name = "reconfig.epoch")
      (Obs.Registry.gauges reg)
  in
  Alcotest.(check bool) "epoch gauge emitted" true (epoch_gauges <> []);
  Alcotest.(check bool) "epoch gauge reached 1" true
    (List.exists (fun (_, v) -> v = 1.) epoch_gauges);
  Alcotest.(check bool) "keys moved" true
    (Obs.Registry.counter_total reg "migrate.keys_moved" > 0);
  Alcotest.(check bool) "map refreshes" true
    (Obs.Registry.counter_total reg "client.map_refresh" > 0);
  (* drain time histogram observed at least the one source database *)
  (match Obs.Registry.merged_histogram reg "migrate.drain_ms" with
  | None -> Alcotest.fail "no migrate.drain_ms histogram"
  | Some h ->
      Alcotest.(check bool) "drain observed" true (Obs.Histogram.count h > 0));
  (* and everything round-trips through the Prometheus exporter *)
  let dump = Obs.Export_prom.to_string reg in
  List.iter
    (fun metric ->
      Alcotest.(check bool) (metric ^ " exported") true
        (Obs.Export_prom.counter_values dump ~metric <> []))
    [ "etx_migrate_keys_moved"; "etx_client_map_refresh" ];
  Alcotest.(check bool) "epoch gauge exported" true
    (contains dump "etx_reconfig_epoch")

let test_obs_zero_emission_when_off () =
  let reg = Obs.Registry.create () in
  let seed_data = Workload.Bank.seed_accounts [ ("acct0", 1000) ] in
  let _e, c =
    Harness.Simrun.cluster ~seed:31 ~obs:reg ~shards:2 ~seed_data
      ~business:Workload.Bank.update
      ~scripts:
        [
          (fun ~issue ->
            for _ = 1 to 4 do
              ignore (issue "acct0:1")
            done);
        ]
      ()
  in
  Alcotest.(check bool) "quiesced" true
    (Cluster.run_to_quiescence ~deadline:300_000. c);
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " not emitted") 0
        (Obs.Registry.counter_total reg name))
    [ "migrate.keys_moved"; "migrate.bounced"; "client.map_refresh" ];
  Alcotest.(check bool) "no epoch gauge" true
    (List.for_all
       (fun ((k : Obs.Registry.key), _) -> k.name <> "reconfig.epoch")
       (Obs.Registry.gauges reg));
  Alcotest.(check bool) "no drain histogram" true
    (Obs.Registry.merged_histogram reg "migrate.drain_ms" = None);
  let dump = Obs.Export_prom.to_string reg in
  Alcotest.(check bool) "no migrate metric in the dump" false
    (contains dump "etx_migrate");
  Alcotest.(check bool) "no reconfig metric in the dump" false
    (contains dump "etx_reconfig");
  (* the classic pipeline still reports *)
  Alcotest.(check bool) "client.committed still counted" true
    (Obs.Registry.counter_total reg "client.committed" = 4)

(* ------------------------------------------------------------------ *)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "reconfig"
    [
      ( "shard-map",
        [
          Alcotest.test_case "epoch-0 placement identity" `Quick
            test_epoch0_identity;
          Alcotest.test_case "split refines, diff names the move" `Quick
            test_split_refinement;
          Alcotest.test_case "split validation" `Quick test_split_validation;
        ] );
      ( "storage",
        [
          Alcotest.test_case "seal blocks disowned writes" `Quick
            test_seal_blocks_disowned_writes;
          Alcotest.test_case "in-doubt moving drains" `Quick
            test_in_doubt_moving;
          Alcotest.test_case "import idempotent and durable" `Quick
            test_import_idempotent;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "idle reconfig wiring changes nothing" `Quick
            test_reconfig_idle_equivalence;
        ] );
      ( "migration",
        [
          Alcotest.test_case "online split under live traffic" `Quick
            test_online_split_under_traffic;
          Alcotest.test_case "live 2 -> 4 split" `Quick test_live_2_to_4;
          Alcotest.test_case "rolling restart under live traffic" `Quick
            test_rolling_restart;
        ] );
      ("chaos", [ q prop_split_chaos ]);
      ( "obs",
        [
          Alcotest.test_case "migration metrics emitted and exported" `Quick
            test_obs_migration_metrics;
          Alcotest.test_case "zero emission when off" `Quick
            test_obs_zero_emission_when_off;
        ] );
    ]
