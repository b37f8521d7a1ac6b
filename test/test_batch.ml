(* Batched commit pipeline and leader leases: register-name helpers,
   group-commit durability at the resource manager, batch=1 equivalence
   with the classic path, failure-free batched runs, and the spec under
   leaseholder crashes mid-batch. *)

open Etx

(* ------------------------------------------------------------------ *)
(* Register-name encode/decode (the one shared helper, Etx_types.Reg_name) *)

module Reg_name = Etx_types.Reg_name

let parsed = Alcotest.(option (triple int int int))

let test_reg_name_round_trip () =
  List.iter
    (fun (g, c, r) ->
      Alcotest.check parsed
        (Printf.sprintf "round-trip g%d c%d r%d" g c r)
        (Some (g, c, r))
        (Reg_name.parse_reg_a (Reg_name.reg_a ~group:g ~client:c ~rid:r));
      Alcotest.check parsed
        (Printf.sprintf "regD round-trip g%d c%d r%d" g c r)
        (Some (g, c, r))
        (Reg_name.parse_reg_d (Reg_name.reg_d ~group:g ~client:c ~rid:r)))
    [ (0, 0, 0); (0, 4, 1); (3, 12, 1007); (17, 250, 123456789) ];
  Alcotest.(check string) "the format" "g2:regA:c7:r41"
    (Reg_name.reg_a ~group:2 ~client:7 ~rid:41);
  (* a consensus instance key carries a "[j]" suffix: the readers take
     it, the name parsers do not *)
  let key = Reg_name.key ~name:(Reg_name.reg_a ~group:2 ~client:7 ~rid:41) ~j:5 in
  Alcotest.(check string) "instance key" "g2:regA:c7:r41[5]" key;
  Alcotest.(check (list int)) "client, rid, try of a key" [ 7; 41; 5 ]
    [ Reg_name.client_of key; Reg_name.rid_of key; Reg_name.try_of key ];
  Alcotest.check parsed "name parse refuses a key" None
    (Reg_name.parse_reg_a key);
  Alcotest.(check (option (pair string int)))
    "split" (Some ("g2:regA:c7:r41", 5)) (Reg_name.split key);
  Alcotest.(check string) "negative numbers" "x[-3]"
    (Reg_name.key ~name:"x" ~j:(-3));
  Alcotest.(check string) "min_int" ("gx:r1.2:p" ^ string_of_int min_int)
    (Reg_name.gx_vote ~rid:1 ~j:2 ~k:min_int)

let test_reg_name_rejects_others () =
  let none name =
    Alcotest.check parsed (name ^ " is not a regA") None
      (Reg_name.parse_reg_a name);
    if Reg_name.client_of name >= 0 && not (String.contains name 'D') then
      Alcotest.failf "%s read as a classic register" name
  in
  none (Etx_types.Reg_name.reg_d ~group:1 ~client:3 ~rid:2);
  none (Etx_types.Reg_name.lease ~group:1);
  none (Etx_types.Reg_name.batch_a ~group:1 ~epoch:2 ~seq:3);
  none (Etx_types.Reg_name.batch_d ~group:1 ~epoch:2 ~seq:3);
  none (Etx_types.Reg_name.gx_vote ~rid:1 ~j:2 ~k:3);
  none "g0:regA:r1";
  none "regA:r1";
  none "garbage";
  Alcotest.(check int) "no trace id outside the classic arrays" (-1)
    (Reg_name.rid_of (Reg_name.key ~name:(Reg_name.lease ~group:1) ~j:2))

(* Batch names and keys read back their epoch and slot; a batch key is
   its name's register 0. *)
let test_reg_name_batch_readers () =
  let a = Reg_name.key ~name:(Reg_name.batch_a ~group:3 ~epoch:12 ~seq:407) ~j:0
  and d = Reg_name.batch_d ~group:3 ~epoch:12 ~seq:407 in
  Alcotest.(check (list int)) "epoch and slot of a key and a name"
    [ 12; 407; 12; 407 ]
    [ Reg_name.epoch_of a; Reg_name.seq_of a; Reg_name.epoch_of d;
      Reg_name.seq_of d ];
  Alcotest.(check (list string)) "keys built at once"
    [ a; Reg_name.key ~name:d ~j:0 ]
    [ Reg_name.batch_a_key ~group:3 ~epoch:12 ~seq:407;
      Reg_name.batch_d_key ~group:3 ~epoch:12 ~seq:407 ];
  List.iter
    (fun s ->
      Alcotest.(check (list int)) (s ^ " is not a batch name") [ -1; -1 ]
        [ Reg_name.epoch_of s; Reg_name.seq_of s ])
    [ Reg_name.reg_a ~group:1 ~client:2 ~rid:3; "g0:batchA:e:k1";
      "g0:batchA:e1:k"; "g0:batchX:e1:k1"; "g0:batch" ]

let prop_reg_name_round_trip =
  QCheck.Test.make ~name:"Reg_name.reg_a round-trips through parse_reg_a"
    ~count:200
    QCheck.(
      quad (int_range 0 64) (int_range 0 100_000) (int_range 0 1_000_000)
        (int_range 0 1_000))
    (fun (group, client, rid, j) ->
      let name = Reg_name.reg_a ~group ~client ~rid in
      let key = Reg_name.key ~name ~j in
      Reg_name.parse_reg_a name = Some (group, client, rid)
      && name = Printf.sprintf "g%d:regA:c%d:r%d" group client rid
      && key = Printf.sprintf "%s[%d]" name j
      && Reg_name.split key = Some (name, j)
      && (Reg_name.client_of key, Reg_name.rid_of key, Reg_name.try_of key)
         = (client, rid, j))

(* ------------------------------------------------------------------ *)
(* Group commit at the storage / resource-manager layer: one forced write
   covers a whole batch. *)

let in_sim f =
  let t = Dsim.Engine.create () in
  let result = ref None in
  let _ =
    Dsim.Engine.spawn t ~name:"p" ~main:(fun ~recovery:_ () ->
        result := Some (f t))
  in
  ignore (Dsim.Engine.run t);
  match !result with Some r -> r | None -> Alcotest.fail "fiber did not run"

let test_log_append_list_single_force () =
  in_sim (fun _ ->
      let disk = Dstore.Disk.create ~force_latency:1. ~label:"log" () in
      let log = Dstore.Log.create ~disk () in
      Dstore.Log.append_list log [ "a"; "b"; "c"; "d" ];
      Dstore.Log.force log;
      Alcotest.(check int) "one force for four records" 1
        (Dstore.Disk.forced_writes disk);
      Alcotest.(check (list string))
        "records in order" [ "a"; "b"; "c"; "d" ]
        (Dstore.Log.records log))

let batch_of_active rm n =
  (* n independent started transactions on distinct keys, all executed *)
  List.init n (fun i ->
      let xid = Dbms.Xid.make ~rid:(100 + i) ~j:0 in
      Dbms.Rm.xa_start rm ~xid;
      (match
         Dbms.Rm.exec rm ~xid
           [ Dbms.Rm.Put (Printf.sprintf "k%d" i, Dbms.Value.Int i) ]
       with
      | Dbms.Rm.Exec_ok _ -> ()
      | _ -> Alcotest.fail "exec failed");
      Dbms.Rm.xa_end rm ~xid;
      xid)

let test_rm_vote_many_one_force () =
  in_sim (fun _ ->
      let disk = Dstore.Disk.create ~force_latency:1. ~label:"log" () in
      let rm =
        Dbms.Rm.create ~timing:Dbms.Rm.zero_timing ~seed_data:[] ~disk
          ~name:"db-test" ()
      in
      let xids = batch_of_active rm 4 in
      let before = Dstore.Disk.forced_writes disk in
      let votes = Dbms.Rm.vote_many rm ~xids in
      Alcotest.(check int) "one force for the whole prepare batch" 1
        (Dstore.Disk.forced_writes disk - before);
      Alcotest.(check int) "every xid answered" 4 (List.length votes);
      List.iter
        (fun (_, v) ->
          Alcotest.(check bool) "all yes" true (v = Dbms.Rm.Yes))
        votes)

let test_rm_decide_many_one_force () =
  in_sim (fun _ ->
      let disk = Dstore.Disk.create ~force_latency:1. ~label:"log" () in
      let rm =
        Dbms.Rm.create ~timing:Dbms.Rm.zero_timing ~seed_data:[] ~disk
          ~name:"db-test" ()
      in
      let xids = batch_of_active rm 3 in
      ignore (Dbms.Rm.vote_many rm ~xids);
      let before = Dstore.Disk.forced_writes disk in
      let outcomes =
        Dbms.Rm.decide_many rm
          ~items:(List.map (fun x -> (x, Dbms.Rm.Commit)) xids)
      in
      Alcotest.(check int) "one force for the whole decide batch" 1
        (Dstore.Disk.forced_writes disk - before);
      List.iter
        (fun (_, o) ->
          Alcotest.(check bool) "all committed" true (o = Dbms.Rm.Commit))
        outcomes;
      List.iteri
        (fun i _ ->
          match Dbms.Rm.read_committed rm (Printf.sprintf "k%d" i) with
          | Some (Dbms.Value.Int v) ->
              Alcotest.(check int) "batched commit visible" i v
          | _ -> Alcotest.fail "batched commit not applied")
        xids)

let test_rm_decide_many_mixed () =
  in_sim (fun _ ->
      let disk = Dstore.Disk.create ~force_latency:1. ~label:"log" () in
      let rm =
        Dbms.Rm.create ~timing:Dbms.Rm.zero_timing ~seed_data:[] ~disk
          ~name:"db-test" ()
      in
      let xids = batch_of_active rm 2 in
      ignore (Dbms.Rm.vote_many rm ~xids);
      let items =
        match xids with
        | [ a; b ] -> [ (a, Dbms.Rm.Commit); (b, Dbms.Rm.Abort) ]
        | _ -> assert false
      in
      ignore (Dbms.Rm.decide_many rm ~items);
      Alcotest.(check bool) "committed key visible" true
        (Dbms.Rm.read_committed rm "k0" = Some (Dbms.Value.Int 0));
      Alcotest.(check bool) "aborted key absent" true
        (Dbms.Rm.read_committed rm "k1" = None))

(* ------------------------------------------------------------------ *)
(* batch=1 equivalence: the config is accepted and the run is
   record-for-record identical to the classic (unbatched) deployment. *)

let test_batch_one_equivalence () =
  let seed = 7 in
  let seed_data = Workload.Bank.seed_accounts [ ("acct0", 1000) ] in
  let script ~issue =
    for _ = 1 to 3 do
      ignore (issue "acct0:5")
    done
  in
  let _e, plain =
    Harness.Simrun.cluster ~seed ~seed_data ~business:Workload.Bank.update
      ~scripts:[ script ] ()
  in
  assert (Cluster.run_to_quiescence ~deadline:60_000. plain);
  let _e, b1 =
    Harness.Simrun.cluster ~seed ~batch:1 ~seed_data
      ~business:Workload.Bank.update ~scripts:[ script ] ()
  in
  assert (Cluster.run_to_quiescence ~deadline:60_000. b1);
  let base = Cluster.all_records plain and got = Cluster.all_records b1 in
  Alcotest.(check int) "same count" (List.length base) (List.length got);
  List.iter2
    (fun (a : Client.record) b ->
      Alcotest.(check bool)
        (Printf.sprintf "record %d identical" a.rid)
        true (a = b))
    base got;
  Alcotest.(check (list string)) "spec" [] (Cluster.Spec.check_all b1)

let test_batch_config_validation () =
  Alcotest.check_raises "batch must be >= 1"
    (Invalid_argument "Cluster.build: batch must be >= 1") (fun () ->
      ignore
        (Harness.Simrun.cluster ~batch:0 ~business:Business.trivial
           ~scripts:[ (fun ~issue:_ -> ()) ]
           ()))

(* ------------------------------------------------------------------ *)
(* Failure-free batched run: many clients on one shard so the leaseholder
   actually assembles multi-transaction windows; every request delivers,
   the spec holds, and the batch-size histogram shows real batching. *)

let bank_scripts ~clients ~requests =
  List.init clients (fun i ->
      fun ~issue ->
        for _ = 1 to requests do
          ignore (issue (Printf.sprintf "acct%d:1" i))
        done)

let bank_seed ~clients =
  Workload.Bank.seed_accounts
    (List.init clients (fun i -> (Printf.sprintf "acct%d" i, 1000)))

let test_batched_run_failure_free () =
  let clients = 8 and requests = 2 in
  let reg = Obs.Registry.create () in
  let _e, c =
    Harness.Simrun.cluster ~seed:21 ~obs:reg ~shards:1 ~batch:4
      ~seed_data:(bank_seed ~clients) ~business:Workload.Bank.update
      ~scripts:(bank_scripts ~clients ~requests)
      ()
  in
  Alcotest.(check bool) "quiesced" true
    (Cluster.run_to_quiescence ~deadline:600_000. c);
  Alcotest.(check int) "all delivered" (clients * requests)
    (List.length (Cluster.all_records c));
  Alcotest.(check (list string)) "cluster spec" [] (Cluster.Spec.check_all c);
  (match Obs.Registry.merged_histogram reg "server.batch_size" with
  | None -> Alcotest.fail "no server.batch_size histogram"
  | Some h ->
      Alcotest.(check bool) "windows recorded" true (Obs.Histogram.count h > 0);
      Alcotest.(check bool) "some window held > 1 transaction" true
        (match Obs.Histogram.max_value h with
        | Some m -> m > 1.
        | None -> false));
  Alcotest.(check bool) "a lease was acquired" true
    (Obs.Registry.counter_total reg "server.lease_acquired" >= 1)

(* ------------------------------------------------------------------ *)
(* Crash the leaseholder mid-batch: a survivor must take the lease,
   abort-or-finish every window of the dead epoch, and the spec (per-shard
   T.1/T.2, A.1–A.3, V.1–V.2, plus global exactly-once) must hold with
   every request still delivered exactly once. *)

let test_crash_leaseholder_mid_batch () =
  let clients = 6 and requests = 3 in
  let e, c =
    Harness.Simrun.cluster ~seed:5 ~shards:1 ~batch:4
      ~seed_data:(bank_seed ~clients) ~business:Workload.Bank.update
      ~scripts:(bank_scripts ~clients ~requests)
      ()
  in
  (* the head server takes the bootstrap lease; kill it inside the first
     window (paper timing: SQL alone is ~184 ms) *)
  Dsim.Engine.crash_at e 300. (Cluster.primary c ~shard:0);
  Alcotest.(check bool) "quiesced" true
    (Cluster.run_to_quiescence ~deadline:600_000. c);
  Alcotest.(check int) "all delivered despite the crash" (clients * requests)
    (List.length (Cluster.all_records c));
  Alcotest.(check (list string)) "cluster spec" [] (Cluster.Spec.check_all c)

let prop_batched_spec_under_leaseholder_crashes =
  QCheck.Test.make
    ~name:"batched spec under leaseholder crashes (2 shards, 4 clients)"
    ~count:10
    QCheck.(
      triple (int_range 0 100_000)
        (QCheck.oneofl [ 2; 4; 16 ])
        (float_range 1. 2000.))
    (fun (seed, batch, crash_time) ->
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
      let e, c =
        Harness.Simrun.cluster ~seed ~map ~batch ~client_period:300.
          ~seed_data ~business:Workload.Bank.update ~scripts ()
      in
      (* kill shard 0's bootstrap leaseholder at a random point: before,
         during, or after its first windows *)
      Dsim.Engine.crash_at e crash_time (Cluster.primary c ~shard:0);
      let ok = Cluster.run_to_quiescence ~deadline:600_000. c in
      ok
      && List.length (Cluster.all_records c) = 8
      && Cluster.Spec.check_all c = [])

(* The same sweep over longer runs: 12 requests per client, so a crash
   can land after slots were settled and their registers and request
   states collected. *)
let prop_batched_spec_under_late_leaseholder_crashes =
  QCheck.Test.make
    ~name:"12 requests per client: batched spec under leaseholder crashes"
    ~count:20
    QCheck.(
      triple (int_range 0 100_000)
        (QCheck.oneofl [ 2; 4; 16 ])
        (float_range 1. 7000.))
    (fun (seed, batch, crash_time) ->
      let map = Shard_map.create ~shards:2 () in
      let keys = [ "acct0"; "acct1"; "acct2"; "acct3" ] in
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
      let e, c =
        Harness.Simrun.cluster ~seed ~map ~batch ~client_period:300.
          ~seed_data ~business:Workload.Bank.update ~scripts ()
      in
      Dsim.Engine.crash_at e crash_time (Cluster.primary c ~shard:0);
      let ok = Cluster.run_to_quiescence ~deadline:600_000. c in
      ok
      && List.length (Cluster.all_records c) = 48
      && Cluster.Spec.check_all c = [])

(* ------------------------------------------------------------------ *)
(* The delivered floor: what the leased path holds and what a takeover
   re-seals follow the work in flight, not the length of the run. *)

(* the value of gauge [name] at each server, at the end of the run *)
let gauges reg name =
  List.filter_map
    (fun ((k : Obs.Registry.key), v) ->
      if k.name = name then Some (int_of_float v) else None)
    (Obs.Registry.gauges reg)

let windows reg =
  match Obs.Registry.merged_histogram reg "server.batch_size" with
  | Some h -> Obs.Histogram.count h
  | None -> 0

let test_bounded_leased_state () =
  let clients = 8 in
  let run requests =
    let reg = Obs.Registry.create () in
    let _e, c =
      Harness.Simrun.cluster ~seed:21 ~obs:reg ~shards:1 ~batch:16
        ~seed_data:(bank_seed ~clients) ~business:Workload.Bank.update
        ~scripts:(bank_scripts ~clients ~requests)
        ()
    in
    Alcotest.(check bool) "quiesced" true
      (Cluster.run_to_quiescence ~deadline:600_000. c);
    Alcotest.(check int) "all delivered" (clients * requests)
      (List.length (Cluster.all_records c));
    Alcotest.(check (list string)) "cluster spec" [] (Cluster.Spec.check_all c);
    let peak name = List.fold_left Int.max 0 (gauges reg name) in
    (peak "consensus.instances", peak "server.rid_states", windows reg)
  in
  let instances, states, _ = run 6 in
  let instances', states', windows' = run 12 in
  let within name n n' =
    if float_of_int n' > 1.1 *. float_of_int n then
      Alcotest.failf "%s: %d at 2N against %d at N" name n' n
  in
  within "consensus.instances" instances instances';
  within "server.rid_states" states states';
  (* each window decides two batch registers at every server *)
  Alcotest.(check bool)
    (Printf.sprintf "batch registers collected (%d held, %d windows)"
       instances' windows')
    true
    (instances' < 2 * windows')

(* Crash the leaseholder once the Decide rounds of [n] windows are
   acknowledged; the takeover's re-sealed slots and its seal span. Links
   take a constant 2 ms, so the seal's duration depends only on the work
   it does. *)
let takeover_after n =
  let clients = 8 in
  let reg = Obs.Registry.create () in
  let e, c =
    Harness.Simrun.cluster ~seed:3 ~obs:reg ~net:(Dnet.Netmodel.constant 2.)
      ~shards:1 ~batch:16 ~seed_data:(bank_seed ~clients)
      ~business:Workload.Bank.update
      ~scripts:(bank_scripts ~clients ~requests:20)
      ()
  in
  let terminated () =
    List.length
      (List.filter
         (fun (sp : Obs.Span.t) -> sp.name = "terminate" && Obs.Span.closed sp)
         (Obs.Registry.spans reg))
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d windows terminated" n)
    true
    (c.rt.run_until ~deadline:600_000. (fun () -> terminated () >= n));
  Dsim.Engine.crash_at e (Dsim.Engine.now_of e) (Cluster.primary c ~shard:0);
  Alcotest.(check bool) "quiesced" true
    (Cluster.run_to_quiescence ~deadline:600_000. c);
  Alcotest.(check int) "all delivered" (clients * 20)
    (List.length (Cluster.all_records c));
  Alcotest.(check (list string)) "cluster spec" [] (Cluster.Spec.check_all c);
  let seal =
    match
      List.filter (fun (sp : Obs.Span.t) -> sp.name = "seal")
        (Obs.Registry.spans reg)
    with
    | [ sp ] -> Option.get (Obs.Span.duration sp)
    | sps -> Alcotest.failf "%d seal spans" (List.length sps)
  in
  (Obs.Registry.counter_total reg "server.sealed_slots", seal)

let test_takeover_work_flat () =
  let slots, ms = takeover_after 4 in
  let slots', ms' = takeover_after 16 in
  Alcotest.(check int) "same slots re-sealed after N and 4N windows" slots
    slots';
  Alcotest.(check bool) "a few slots, not the epoch" true (slots < 4);
  if Float.abs (ms -. ms') > 1. then
    Alcotest.failf "seal phase %.3f ms after N windows, %.3f ms after 4N" ms
      ms'

(* A follower down long enough to be suspected misses the decision
   relays of the windows decided meanwhile: the channel stops resending a
   relay to a suspected peer. Recovered from its log, it learns later
   elections whose floors pass the slots it missed, and fetches those
   slots. A takeover cut off the same way seals them instead
   ({!test_isolated_follower_takes_over}). *)
let test_missed_slots_fetched () =
  let clients = 8 in
  let reg = Obs.Registry.create () in
  let e, c =
    Harness.Simrun.cluster ~seed:7 ~obs:reg ~recoverable:true ~shards:1
      ~batch:16
      ~fd_spec:
        (Appserver.Fd_heartbeat
           { period = 10.; initial_timeout = 60.; timeout_bump = 30. })
      ~seed_data:(bank_seed ~clients) ~business:Workload.Bank.update
      ~scripts:(bank_scripts ~clients ~requests:12)
      ()
  in
  let follower = List.nth c.groups.(0).app_servers 2 in
  Dsim.Engine.crash_at e 1_000. follower;
  Dsim.Engine.recover_at e 1_600. follower;
  Alcotest.(check bool) "quiesced" true
    (Cluster.run_to_quiescence ~deadline:600_000. c);
  Alcotest.(check int) "all delivered" (clients * 12)
    (List.length (Cluster.all_records c));
  Alcotest.(check (list string)) "cluster spec" [] (Cluster.Spec.check_all c);
  Alcotest.(check bool) "the follower fetched missed slots" true
    (List.exists
       (fun (pid, note) -> pid = follower && note = "fork batch-fetch")
       (c.rt.notes ()));
  (* without the fetch it would hold about two registers per window *)
  let held =
    List.find_map
      (fun ((k : Obs.Registry.key), v) ->
        if k.name = "consensus.instances" && k.node = "a3" then
          Some (int_of_float v)
        else None)
      (Obs.Registry.gauges reg)
  in
  Alcotest.(check bool)
    (Printf.sprintf "the follower collects too (%d held, %d windows)"
       (Option.value ~default:(-1) held)
       (windows reg))
    true
    (match held with Some n -> n < windows reg | None -> false)

(* The same cut as a network partition: the follower suspects the holder
   too and takes the next lease once it is back, sealing from the first
   slot it missed; every register above the floor still collects. *)
let test_isolated_follower_takes_over () =
  let clients = 8 in
  let part, net =
    Dnet.Netmodel.partitionable (Dnet.Netmodel.three_tier ~n_dbs:1 ())
  in
  let reg = Obs.Registry.create () in
  let e, c =
    Harness.Simrun.cluster ~seed:7 ~obs:reg ~net ~shards:1 ~batch:16
      ~fd_spec:
        (Appserver.Fd_heartbeat
           { period = 10.; initial_timeout = 60.; timeout_bump = 30. })
      ~seed_data:(bank_seed ~clients) ~business:Workload.Bank.update
      ~scripts:(bank_scripts ~clients ~requests:12)
      ()
  in
  let follower = List.nth c.groups.(0).app_servers 2 in
  Dsim.Engine.schedule e ~delay:1_000. (fun () ->
      Dnet.Netmodel.isolate part follower);
  Dsim.Engine.schedule e ~delay:1_600. (fun () ->
      Dnet.Netmodel.rejoin part follower);
  Alcotest.(check bool) "quiesced" true
    (Cluster.run_to_quiescence ~deadline:600_000. c);
  Alcotest.(check int) "all delivered" (clients * 12)
    (List.length (Cluster.all_records c));
  Alcotest.(check (list string)) "cluster spec" [] (Cluster.Spec.check_all c);
  Alcotest.(check bool) "the follower took the lease" true
    (List.mem (follower, "lease-acquired:g0:e2") (c.rt.notes ()));
  let instances = gauges reg "consensus.instances" in
  Alcotest.(check bool)
    (Printf.sprintf "registers collected everywhere (%s; %d windows)"
       (String.concat " " (List.map string_of_int instances))
       (windows reg))
    true
    (List.for_all (fun n -> n < windows reg) instances)

(* A client whose only request was delivered in the first window sends a
   late copy of it to every surviving server after a takeover that sealed
   from above that window: it is answered from the recorded outcome, not
   executed again. *)
let test_no_reexecution_below_floor () =
  let reg = Obs.Registry.create () in
  let scripts =
    (fun ~issue -> ignore (issue "acct0:1"))
    :: List.tl (bank_scripts ~clients:8 ~requests:12)
  in
  let e, c =
    Harness.Simrun.cluster ~seed:5 ~obs:reg ~shards:1 ~batch:16
      ~seed_data:(bank_seed ~clients:8) ~business:Workload.Bank.update
      ~scripts ()
  in
  Alcotest.(check bool) "6 windows delivered" true
    (c.rt.run_until ~deadline:600_000. (fun () -> windows reg >= 6));
  let primary = Cluster.primary c ~shard:0 in
  Dsim.Engine.crash_at e (Dsim.Engine.now_of e) primary;
  Alcotest.(check bool) "quiesced" true
    (Cluster.run_to_quiescence ~deadline:600_000. c);
  Alcotest.(check bool) "sealed from above the first window" true
    (Obs.Registry.counter_total reg "server.sealed_slots" < 5);
  let client = Client.pid (List.hd c.clients) in
  let r =
    match Client.records (List.hd c.clients) with
    | [ r ] -> r
    | rs -> Alcotest.failf "first client: %d records" (List.length rs)
  in
  let request = { Etx_types.rid = r.rid; key = "acct0"; body = "acct0:1" } in
  List.iter
    (fun server ->
      if server <> primary then
        Dsim.Engine.post e ~src:client ~dst:server
          (Etx_types.Request_msg { request; j = r.tries; group = 0; span = 0 }))
    c.groups.(0).app_servers;
  ignore (Dsim.Engine.run ~deadline:(Dsim.Engine.now_of e +. 2_000.) e);
  let prefix = Printf.sprintf "computed:%d:" r.rid in
  let n = String.length prefix in
  Alcotest.(check int) "computed once" 1
    (List.length
       (List.filter
          (fun (_, note) ->
            String.length note >= n && String.sub note 0 n = prefix)
          (c.rt.notes ())));
  let xid = Dbms.Xid.make ~rid:r.rid ~j:r.tries in
  List.iter
    (fun (_, rm) ->
      Alcotest.(check int) "committed once" 1
        (List.length
           (List.filter (fun x -> x = xid) (Dbms.Rm.committed_xids rm))))
    c.groups.(0).dbs;
  Alcotest.(check (list string)) "cluster spec" [] (Cluster.Spec.check_all c)

(* Five servers. A follower (a3) is cut off while the leaseholder of
   epoch 1 (a1) decides its last windows and crashes, so it misses those
   slots and the seal a2 makes of them when it takes epoch 2. Once back,
   a3 learns epoch 2's windows, whose elections carry only epoch 2's
   floor; then a2 crashes too and a3 takes epoch 3 (on a 100 ms grid its
   takeover comes first). Four clients stop once a result reaches them
   after the cut, so their newest requests end in the slots a3 missed. A
   late copy of each, sent to a3, must be answered from its outcome, not
   run again: a3 never learned epoch 1 up to its Seal slot, so it seals
   that epoch too, although epoch 2's holder served. *)
let test_sealed_tail_learned () =
  let clients = 8 and cut = 1_000. in
  let part, net =
    Dnet.Netmodel.partitionable (Dnet.Netmodel.three_tier ~n_dbs:1 ())
  in
  let scripts =
    List.init clients (fun i ~issue ->
        let body = Printf.sprintf "acct%d:1" i in
        if i < 4 then
          while Runtime.Etx_runtime.now () < cut do
            ignore (issue body)
          done
        else
          for _ = 1 to 12 do
            ignore (issue body)
          done)
  in
  let e, c =
    Harness.Simrun.cluster ~seed:7 ~clean_period:100. ~net ~n_app_servers:5
      ~shards:1 ~batch:16
      ~fd_spec:
        (Appserver.Fd_heartbeat
           { period = 10.; initial_timeout = 60.; timeout_bump = 30. })
      ~seed_data:(bank_seed ~clients) ~business:Workload.Bank.update
      ~scripts ()
  in
  let server i = List.nth c.groups.(0).app_servers i in
  let follower = server 2 in
  Dsim.Engine.schedule e ~delay:cut (fun () ->
      Dnet.Netmodel.isolate part follower);
  Dsim.Engine.crash_at e 1_250. (server 0);
  Dsim.Engine.schedule e ~delay:1_800. (fun () ->
      Dnet.Netmodel.rejoin part follower);
  Dsim.Engine.crash_at e 2_600. (server 1);
  Alcotest.(check bool) "quiesced" true
    (Cluster.run_to_quiescence ~deadline:600_000. c);
  Alcotest.(check (list string)) "cluster spec" [] (Cluster.Spec.check_all c);
  let notes = c.rt.notes () in
  Alcotest.(check bool) "a2 took epoch 2" true
    (List.mem (server 1, "lease-acquired:g0:e2") notes);
  Alcotest.(check bool) "the follower took epoch 3" true
    (List.mem (follower, "lease-acquired:g0:e3") notes);
  let late =
    List.filteri (fun i _ -> i < 4) c.clients
    |> List.map (fun cl ->
           (Client.pid cl, List.hd (List.rev (Client.records cl))))
  in
  Alcotest.(check bool) "the late requests were decided after the cut" true
    (List.for_all
       (fun (_, (r : Client.record)) -> r.tries = 1 && r.delivered_at > cut)
       late);
  List.iteri
    (fun i (client, (r : Client.record)) ->
      let request =
        {
          Etx_types.rid = r.rid;
          key = Printf.sprintf "acct%d" i;
          body = Printf.sprintf "acct%d:1" i;
        }
      in
      Dsim.Engine.post e ~src:client ~dst:follower
        (Etx_types.Request_msg { request; j = r.tries; group = 0; span = 0 }))
    late;
  ignore (Dsim.Engine.run ~deadline:(Dsim.Engine.now_of e +. 2_000.) e);
  let after =
    List.filteri (fun i _ -> i >= List.length notes) (c.rt.notes ())
  in
  List.iter
    (fun (_, (r : Client.record)) ->
      let prefix = Printf.sprintf "computed:%d:" r.rid in
      let n = String.length prefix in
      Alcotest.(check int)
        (Printf.sprintf "rid %d not computed again" r.rid)
        0
        (List.length
           (List.filter
              (fun (_, note) ->
                String.length note >= n && String.sub note 0 n = prefix)
              after));
      let xid = Dbms.Xid.make ~rid:r.rid ~j:r.tries in
      List.iter
        (fun (_, rm) ->
          Alcotest.(check int) "committed once" 1
            (List.length
               (List.filter (fun x -> x = xid) (Dbms.Rm.committed_xids rm))))
        c.groups.(0).dbs)
    late;
  Alcotest.(check (list string)) "cluster spec after the late copies" []
    (Cluster.Spec.check_all c)

(* ------------------------------------------------------------------ *)
(* Conflict-aware windows: two tries touching one key never share a
   window, so neither waits on the other's locks. *)

let update_keys = Workload.Bank.update.Business.keys

(* Two updates of one account sent together land in the same intake at
   the bootstrap leaseholder. In one window the second would wait on the
   first's lock until the database gave up ("busy:", an abort and a
   second try); deferred to the next window, both commit first time. *)
let test_same_account_pair_first_try () =
  let scripts = List.init 2 (fun _ ~issue -> ignore (issue "acct0:1")) in
  let _e, c =
    Harness.Simrun.cluster ~seed:3 ~shards:1 ~batch:16
      ~seed_data:(bank_seed ~clients:1) ~business:Workload.Bank.update
      ~scripts ()
  in
  Alcotest.(check bool) "quiesced" true
    (Cluster.run_to_quiescence ~deadline:600_000. c);
  let records = Cluster.all_records c in
  Alcotest.(check int) "both delivered" 2 (List.length records);
  List.iter
    (fun (r : Client.record) ->
      Alcotest.(check int) (Printf.sprintf "rid %d on try 1" r.rid) 1 r.tries;
      Alcotest.(check bool)
        (Printf.sprintf "rid %d not busy (%s)" r.rid r.result)
        false
        (String.starts_with ~prefix:"busy:" r.result))
    records;
  Alcotest.(check (list string)) "cluster spec" [] (Cluster.Spec.check_all c)

let conflict_free keyss =
  let rec go = function
    | [] -> true
    | k :: rest ->
        List.for_all (fun k' -> not (Window.conflicts k k')) rest && go rest
  in
  go keyss

(* Window assembly alone, on a random stream of updates pushed in arrival
   order with takes interleaved at random points: every window is
   conflict-free, two conflicting tries enter windows in arrival order,
   and every try is taken exactly once. *)
let prop_window_assembly =
  QCheck.Test.make
    ~name:"window assembly: conflict-free, per-key arrival order, all taken"
    ~count:300
    QCheck.(triple (int_range 0 100_000) (int_range 1 12) (int_range 1 16))
    (fun (seed, accounts, cap) ->
      let n = 60 in
      let bodies =
        Workload.Generator.bodies ~seed ~n
          (Workload.Generator.Bank_updates { accounts; max_delta = 9 })
      in
      let keys = Array.of_list (List.map update_keys bodies) in
      let rng = Runtime.Rng.create ~seed in
      let q = Window.create () in
      let windows = ref [] in
      let take () =
        match Window.take q ~cap ~skip:(fun _ -> false) with
        | [] -> ()
        | w -> windows := w :: !windows
      in
      List.iteri
        (fun i body ->
          Window.push q
            { client = 0; request = { rid = i; key = ""; body }; j = 1;
              keys = keys.(i) };
          if Runtime.Rng.int rng 4 = 0 then take ())
        bodies;
      while not (Window.is_empty q) do
        take ()
      done;
      let windows = List.rev !windows in
      let placed = Array.make n (-1) in
      List.iteri
        (fun w entries ->
          List.iter
            (fun (e : Window.entry) -> placed.(e.request.rid) <- w)
            entries)
        windows;
      let in_order = ref true in
      for a = 0 to n - 1 do
        for b = a + 1 to n - 1 do
          if Window.conflicts keys.(a) keys.(b) && placed.(a) >= placed.(b)
          then in_order := false
        done
      done;
      List.length (List.concat windows) = n
      && Array.for_all (fun w -> w >= 0) placed
      && List.for_all
           (fun w -> conflict_free (List.map (fun (e : Window.entry) -> e.keys) w))
           windows
      && !in_order)

(* The elected window of every batch span (its "tries" attribute) as the
   request bodies it carried. *)
let elected_windows reg ~body_of =
  List.filter_map
    (fun (sp : Obs.Span.t) ->
      if sp.name <> "batch" then None
      else
        Option.map
          (fun tries ->
            List.map
              (fun t -> body_of (int_of_string (List.hd (String.split_on_char '.' t))))
              (String.split_on_char ' ' tries))
          (Obs.Span.attr sp "tries"))
    (Obs.Registry.spans reg)

let prop_batched_stream =
  QCheck.Test.make
    ~name:"batch-16 Bank_updates stream: conflict-free windows, all commit"
    ~count:10
    QCheck.(pair (int_range 0 100_000) (int_range 1 6))
    (fun (seed, accounts) ->
      let clients = 6 and per_client = 3 in
      let kind = Workload.Generator.Bank_updates { accounts; max_delta = 9 } in
      let bodies =
        Array.of_list
          (Workload.Generator.bodies ~seed ~n:(clients * per_client) kind)
      in
      let scripts =
        List.init clients (fun c ~issue ->
            for k = 0 to per_client - 1 do
              ignore (issue bodies.((c * per_client) + k))
            done)
      in
      let reg = Obs.Registry.create () in
      let _e, cl =
        Harness.Simrun.cluster ~seed ~obs:reg ~shards:1 ~batch:16
          ~seed_data:(Workload.Generator.seed_data_of kind)
          ~business:Workload.Bank.update ~scripts ()
      in
      let ok = Cluster.run_to_quiescence ~deadline:600_000. cl in
      let records = Cluster.all_records cl in
      let body_of rid =
        (List.find (fun (r : Client.record) -> r.rid = rid) records).body
      in
      let windows = elected_windows reg ~body_of in
      ok
      && List.length records = clients * per_client
      && Cluster.Spec.check_all cl = []
      && windows <> []
      && List.for_all
           (fun bodies -> conflict_free (List.map update_keys bodies))
           windows)

(* Wake-ups go only to a blocked fiber: after a run has settled, no app
   server or database holds an unread message of any class — no
   request-class message (a takeover's lease wake included), no database
   [Ready_wake], no stale gx reply. ([Rt.Wake] ends waits without a
   message.) The runs cover the batch thread's park and lease wake, the
   cross-shard coordinator's [fork_all], and the group-commit log and step
   waiters. *)
let test_no_stale_wakeups () =
  let clients = 8 and requests = 3 in
  let bank ~batch ~group_commit () =
    Harness.Simrun.cluster ~seed:11 ~shards:1 ~batch ~group_commit
      ~seed_data:(bank_seed ~clients) ~business:Workload.Bank.update
      ~scripts:(bank_scripts ~clients ~requests)
      ()
  in
  let cross () =
    let map = Shard_map.create ~shards:2 () in
    let kind =
      Workload.Generator.Bank_transfers { accounts = 8; max_amount = 5 }
    in
    let bodies =
      Workload.Generator.sharded_bodies ~map ~cross_ratio:0.5 ~seed:6 ~n:8
        kind
    in
    Harness.Simrun.cluster ~seed:9 ~map
      ~seed_data:(Workload.Generator.seed_data_of kind)
      ~cross:true ~business:Workload.Bank.transfer
      ~scripts:
        [ (fun ~issue -> List.iter (fun (_, b) -> ignore (issue b)) bodies) ]
      ()
  in
  List.iter
    (fun (run, build) ->
      let e, c = build () in
      Alcotest.(check bool) (run ^ " quiesced") true
        (Cluster.run_to_quiescence ~deadline:600_000. c);
      ignore (Dsim.Engine.run ~deadline:(Dsim.Engine.now_of e +. 2_000.) e);
      let unread pid =
        Alcotest.(check int)
          (Printf.sprintf "%s: messages unread at pid %d" run pid)
          0
          (Dsim.Engine.mailbox_length e pid)
      in
      Array.iter
        (fun (g : Cluster.group) ->
          List.iter unread (g.app_servers @ List.map fst g.dbs))
        c.groups)
    [
      ("batched", bank ~batch:16 ~group_commit:false);
      (* one session per message: concurrent forces share windows *)
      ("group commit", bank ~batch:1 ~group_commit:true);
      ("cross-shard", cross);
    ]

(* ------------------------------------------------------------------ *)
(* Request intake: the replay rules hold on the classic and the batched
   path alike. A fake client sends a raw request and waits for its commit,
   then re-sends it: the same (rid, j) gets the recorded decision back
   without a second execution, an older j gets nothing. *)

let test_intake_replay ~batch () =
  let _e, c =
    Harness.Simrun.cluster ~seed:4 ~shards:1 ~batch
      ~seed_data:(bank_seed ~clients:1) ~business:Workload.Bank.update
      ~scripts:[ (fun ~issue:_ -> ()) ]
      ()
  in
  let rid = 1_000_000 in
  let request = { Etx_types.rid; key = "acct0"; body = "acct0:1" } in
  let server = Cluster.primary c ~shard:0 in
  (* replies per send: the first try, its retransmission, an older try *)
  let sends = [ 1; 1; 0 ] in
  let replies = Array.make (List.length sends) [] and finished = ref false in
  ignore
    (c.rt.spawn ~name:"replayer" ~main:(fun ~recovery:_ () ->
         let ch = Dnet.Rchannel.create () in
         Dnet.Rchannel.start ch;
         List.iteri
           (fun i j ->
             Dnet.Rchannel.send ch server
               (Etx_types.Request_msg { request; j; group = 0; span = 0 });
             let rec collect () =
               match
                 Runtime.Etx_runtime.recv_cls ~timeout:2_000.
                   Etx_types.cls_result
               with
               | Some m ->
                   replies.(i) <- m.Runtime.Types.payload :: replies.(i);
                   collect ()
               | None -> ()
             in
             collect ())
           sends;
         finished := true));
  Alcotest.(check bool) "replayer finished" true
    (c.rt.run_until ~deadline:600_000. (fun () -> !finished));
  let committed = function
    | Etx_types.Result_msg { items = [ (r, 1, decision) ]; _ } when r = rid ->
        Some decision
    | _ -> None
  in
  let first =
    match replies.(0) with
    | [ m ] -> (
        match committed m with
        | Some d when d.outcome = Dbms.Rm.Commit -> d
        | _ -> Alcotest.fail "first try did not commit")
    | ms -> Alcotest.failf "first try: %d replies" (List.length ms)
  in
  (match replies.(1) with
  | [ (Etx_types.Result_msg _ as m) ] ->
      Alcotest.(check bool) "retransmission replays the recorded decision"
        true
        (committed m = Some first)
  | ms -> Alcotest.failf "retransmission: %d replies" (List.length ms));
  Alcotest.(check int) "older try gets no reply" 0 (List.length replies.(2));
  let prefix = Printf.sprintf "computed:%d:1:" rid in
  let n = String.length prefix in
  Alcotest.(check int) "executed once" 1
    (List.length
       (List.filter
          (fun (_, note) -> String.length note >= n && String.sub note 0 n = prefix)
          (c.rt.notes ())))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "batch"
    [
      ( "intake",
        [
          Alcotest.test_case "replay rules at batch 1" `Quick
            (test_intake_replay ~batch:1);
          Alcotest.test_case "replay rules at batch 4" `Quick
            (test_intake_replay ~batch:4);
        ] );
      ( "reg-name",
        [
          Alcotest.test_case "round-trip" `Quick test_reg_name_round_trip;
          Alcotest.test_case "rejects non-regA names" `Quick
            test_reg_name_rejects_others;
          Alcotest.test_case "batch readers" `Quick test_reg_name_batch_readers;
          q prop_reg_name_round_trip;
        ] );
      ( "group-commit",
        [
          Alcotest.test_case "log append_list + one force" `Quick
            test_log_append_list_single_force;
          Alcotest.test_case "vote_many forces once" `Quick
            test_rm_vote_many_one_force;
          Alcotest.test_case "decide_many forces once" `Quick
            test_rm_decide_many_one_force;
          Alcotest.test_case "decide_many mixed outcomes" `Quick
            test_rm_decide_many_mixed;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "batch=1 is the classic path" `Quick
            test_batch_one_equivalence;
          Alcotest.test_case "config validation" `Quick
            test_batch_config_validation;
        ] );
      ( "batched-runs",
        [
          Alcotest.test_case "failure-free batched run" `Quick
            test_batched_run_failure_free;
          Alcotest.test_case "crash leaseholder mid-batch" `Quick
            test_crash_leaseholder_mid_batch;
        ] );
      ( "conflict-aware",
        [
          Alcotest.test_case "same-account pair commits on try 1" `Quick
            test_same_account_pair_first_try;
          q prop_window_assembly;
          q prop_batched_stream;
          Alcotest.test_case "no stale wake-ups after a batched run" `Quick
            test_no_stale_wakeups;
        ] );
      ( "random-crashes",
        [
          q prop_batched_spec_under_leaseholder_crashes;
          q prop_batched_spec_under_late_leaseholder_crashes;
        ] );
      ( "floor",
        [
          Alcotest.test_case "bounded leased state" `Quick
            test_bounded_leased_state;
          Alcotest.test_case "takeover work does not grow with history"
            `Quick test_takeover_work_flat;
          Alcotest.test_case "no re-execution below the floor" `Quick
            test_no_reexecution_below_floor;
          Alcotest.test_case "missed slots are fetched" `Quick
            test_missed_slots_fetched;
          Alcotest.test_case "an isolated follower takes over" `Quick
            test_isolated_follower_takes_over;
          Alcotest.test_case "a sealed tail is learned" `Quick
            test_sealed_tail_learned;
        ] );
    ]
