(* Transactional method cache at the app-server tier: cache-key
   format/parse, the Method_cache structure itself (fills, intersection
   invalidation, the generation guard), cached deployments end-to-end
   (hits served, commit-piggybacked invalidation observed, coherence
   asserted by the spec), cache=off equivalence with the pre-cache path,
   and a randomized fault sweep over a 2-shard cluster mixing cached
   reads, writes, and leaseholder crashes. *)

open Etx

(* ------------------------------------------------------------------ *)
(* Cache_key: the shared key format (also used for obs labels) *)

let test_cache_key_round_trip () =
  List.iter
    (fun (label, body) ->
      Alcotest.(check (option (pair string string)))
        (Printf.sprintf "round-trip %s %s" label body)
        (Some (label, body))
        (Etx_types.Cache_key.parse (Etx_types.Cache_key.format ~label ~body)))
    [
      ("bank.audit", "acct0");
      ("bank.mixed", "acct3:17");
      ("travel.availability", "rome");
      ("m", "");
      ("m", "a/b/c");
      (* bodies may contain '/'; only the label may not *)
    ]

let test_cache_key_rejects () =
  let none name =
    Alcotest.(check (option (pair string string)))
      (name ^ " is not a cache key") None
      (Etx_types.Cache_key.parse name)
  in
  none "";
  none "cache:";
  none "cache:nobody";
  (* no '/' separator *)
  none "regA:g0:r1";
  none "garbage";
  Alcotest.check_raises "label with '/' refused"
    (Invalid_argument "Cache_key.format: label contains '/': a/b") (fun () ->
      ignore (Etx_types.Cache_key.format ~label:"a/b" ~body:"x"))

let prop_cache_key_round_trip =
  let label_gen =
    QCheck.Gen.(
      string_size ~gen:(oneofl [ 'a'; 'b'; 'z'; '.'; '_'; '0' ]) (int_range 1 12))
  in
  let body_gen =
    QCheck.Gen.(
      string_size
        ~gen:(oneofl [ 'a'; 'k'; ':'; '/'; '9'; '-' ])
        (int_range 0 20))
  in
  QCheck.Test.make ~name:"Cache_key format/parse round-trips" ~count:300
    QCheck.(pair (make label_gen) (make body_gen))
    (fun (label, body) ->
      Etx_types.Cache_key.parse (Etx_types.Cache_key.format ~label ~body)
      = Some (label, body))

(* ------------------------------------------------------------------ *)
(* Method_cache: fills, lookup, intersection invalidation, generation *)

let store_simple mc ~body ~reads ~result =
  Method_cache.store mc
    ~generation:(Method_cache.generation mc)
    ~label:"bank.audit" ~body ~reads ~result

let test_method_cache_store_find () =
  let mc = Method_cache.create () in
  Alcotest.(check (option string))
    "empty cache misses" None
    (Method_cache.find mc ~label:"bank.audit" ~body:"a");
  Alcotest.(check bool) "fresh store accepted" true
    (store_simple mc ~body:"a" ~reads:[ "a" ] ~result:"balance:a:10");
  Alcotest.(check (option string))
    "hit" (Some "balance:a:10")
    (Method_cache.find mc ~label:"bank.audit" ~body:"a");
  Alcotest.(check (option string))
    "different label misses" None
    (Method_cache.find mc ~label:"bank.mixed" ~body:"a");
  Alcotest.(check int) "one fill recorded" 1 (Method_cache.fills mc);
  Alcotest.(check int) "size" 1 (Method_cache.size mc)

let test_method_cache_invalidate_intersection () =
  let mc = Method_cache.create () in
  ignore (store_simple mc ~body:"a" ~reads:[ "a" ] ~result:"balance:a:1");
  ignore (store_simple mc ~body:"b" ~reads:[ "b" ] ~result:"balance:b:2");
  ignore
    (store_simple mc ~body:"sum" ~reads:[ "a"; "c" ] ~result:"balance:sum:3");
  (* a commit that wrote [a] must drop every entry reading [a], nothing
     else *)
  Alcotest.(check int) "two entries intersect the write" 2
    (Method_cache.invalidate mc ~writes:[ "a" ]);
  Alcotest.(check (option string))
    "survivor untouched" (Some "balance:b:2")
    (Method_cache.find mc ~label:"bank.audit" ~body:"b");
  Alcotest.(check (option string))
    "intersecting entry gone" None
    (Method_cache.find mc ~label:"bank.audit" ~body:"a");
  Alcotest.(check int) "disjoint write drops nothing" 0
    (Method_cache.invalidate mc ~writes:[ "z" ]);
  Alcotest.(check int) "drops counted" 2 (Method_cache.drops mc);
  Alcotest.(check int) "flush drops the rest" 1 (Method_cache.flush mc);
  Alcotest.(check int) "empty after flush" 0 (Method_cache.size mc)

let test_method_cache_generation_guard () =
  let mc = Method_cache.create () in
  (* snapshot, then an invalidation races in before the fill: the fill
     must be refused — its result may predate the committed write *)
  let g = Method_cache.generation mc in
  ignore (Method_cache.invalidate mc ~writes:[]);
  Alcotest.(check bool) "stale fill refused" false
    (Method_cache.store mc ~generation:g ~label:"bank.audit" ~body:"a"
       ~reads:[ "a" ] ~result:"balance:a:1");
  Alcotest.(check (option string))
    "nothing cached" None
    (Method_cache.find mc ~label:"bank.audit" ~body:"a");
  (* even an empty write set bumps the generation (flush-all sentinel and
     recovery use this) *)
  Alcotest.(check bool) "generation advanced by empty invalidate" true
    (Method_cache.generation mc > g);
  (* a fresh snapshot fills fine *)
  Alcotest.(check bool) "fresh fill accepted" true
    (store_simple mc ~body:"a" ~reads:[ "a" ] ~result:"balance:a:1")

(* ------------------------------------------------------------------ *)
(* Cached deployments end-to-end *)

let seed_acct = Workload.Bank.seed_accounts [ ("acct0", 1000) ]

let cached_records d =
  List.filter (fun (r : Client.record) -> r.cached) (Cluster.all_records d)

let test_cached_reads_hit () =
  let reg = Obs.Registry.create () in
  let _e, d =
    Harness.Simrun.cluster ~seed:11 ~obs:reg ~cache:true
      ~seed_data:seed_acct ~business:Workload.Bank.mixed
      ~scripts:
        [
          (fun ~issue ->
            for _ = 1 to 5 do
              ignore (issue "acct0")
            done);
        ]
      ()
  in
  Alcotest.(check bool) "quiesced" true
    (Cluster.run_to_quiescence ~deadline:300_000. d);
  Alcotest.(check int) "all delivered" 5
    (List.length (Cluster.all_records d));
  List.iter
    (fun (r : Client.record) ->
      Alcotest.(check string)
        (Printf.sprintf "read %d sees the seed balance" r.rid)
        "balance:acct0:1000" r.result)
    (Cluster.all_records d);
  (* first read computes (miss + fill), the rest are served from cache *)
  Alcotest.(check bool) "cache-served records" true
    (List.length (cached_records d) >= 3);
  Alcotest.(check bool) "hits observed" true
    (Obs.Registry.counter_total reg "cache.hit" >= 3);
  Alcotest.(check bool) "a miss filled the cache" true
    (Obs.Registry.counter_total reg "cache.miss" >= 1);
  Alcotest.(check (list string))
    "spec incl. coherence" [] (Cluster.Spec.check_all d)

let test_commit_invalidates_and_rereads () =
  let reg = Obs.Registry.create () in
  let _e, d =
    Harness.Simrun.cluster ~seed:3 ~obs:reg ~cache:true
      ~seed_data:seed_acct ~business:Workload.Bank.mixed
      ~scripts:
        [
          (fun ~issue ->
            ignore (issue "acct0");
            (* miss, fills *)
            ignore (issue "acct0");
            (* hit *)
            ignore (issue "acct0:5");
            (* committed write: piggybacked invalidation *)
            (* must recompute, not serve the stale 1000 *)
            ignore (issue "acct0"));
        ]
      ()
  in
  Alcotest.(check bool) "quiesced" true
    (Cluster.run_to_quiescence ~deadline:300_000. d);
  (match Cluster.all_records d with
  | [ r1; r2; r3; r4 ] ->
      Alcotest.(check string) "first read" "balance:acct0:1000" r1.result;
      Alcotest.(check string) "second read" "balance:acct0:1000" r2.result;
      Alcotest.(check string) "write" "updated:acct0:1005" r3.result;
      Alcotest.(check string) "read after commit sees the new balance"
        "balance:acct0:1005" r4.result;
      Alcotest.(check bool) "post-write read was recomputed" true
        (not r4.cached)
  | rs -> Alcotest.fail (Printf.sprintf "expected 4 records, got %d"
                           (List.length rs)));
  Alcotest.(check bool) "invalidation observed" true
    (Obs.Registry.counter_total reg "cache.invalidate" >= 1);
  Alcotest.(check (list string))
    "spec incl. coherence" [] (Cluster.Spec.check_all d)

let test_cache_off_equivalence () =
  (* with the cache disabled the run must be record-for-record and
     event-for-event identical to a build that never heard of caching *)
  let run cache =
    let e, d =
      Harness.Simrun.cluster ~seed:7 ?cache ~seed_data:seed_acct
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
  let off_events, off = run (Some false) in
  Alcotest.(check int) "same simulation event count" base_events off_events;
  Alcotest.(check int) "same record count" (List.length base)
    (List.length off);
  List.iter2
    (fun (a : Client.record) b ->
      Alcotest.(check bool)
        (Printf.sprintf "record %d identical" a.rid)
        true (a = b))
    base off

(* ------------------------------------------------------------------ *)
(* Randomized fault sweep: cached reads + writes + leaseholder crashes
   on a 2-shard cluster. Read_heavy bodies give an exact 3:1 read:write
   interleave per client; each client's stream stays on its own account
   (single-key bodies route intra-shard by construction). *)

let cached_cluster_under_crash ~seed ~batch ~crash_time =
  let clients = 4 and requests = 4 in
  let map = Shard_map.create ~shards:2 () in
  let kind =
    Workload.Generator.Read_heavy
      { accounts = clients; max_delta = 9; reads_per_write = 3 }
  in
  let scripts =
    List.init clients (fun i ->
        let bodies =
          Workload.Generator.bodies ~seed:(seed + (17 * i)) ~n:requests kind
        in
        fun ~issue -> List.iter (fun b -> ignore (issue b)) bodies)
  in
  let e, c =
    Harness.Simrun.cluster ~seed ~map ~batch ~cache:true ~client_period:300.
      ~seed_data:(Workload.Generator.seed_data_of kind)
      ~business:(Workload.Generator.business_of kind)
      ~scripts ()
  in
  (* kill shard 0's head server (bootstrap leaseholder on the batched
     path, default primary on the classic one) *)
  Dsim.Engine.crash_at e crash_time (Cluster.primary c ~shard:0);
  let quiesced = Cluster.run_to_quiescence ~deadline:600_000. c in
  (e, c, quiesced, clients * requests)

let prop_cached_cluster_under_crashes =
  QCheck.Test.make
    ~name:
      "cached cluster spec under app-server crashes (2 shards, mixed \
       reads/writes)"
    ~count:8
    QCheck.(
      triple (int_range 0 100_000)
        (QCheck.oneofl [ 1; 4 ])
        (float_range 1. 3000.))
    (fun (seed, batch, crash_time) ->
      let _, c, quiesced, n = cached_cluster_under_crash ~seed ~batch ~crash_time in
      quiesced
      && List.length (Cluster.all_records c) = n
      && Cluster.Spec.check_all c = [])

(* A server that has not learned a retirement drives a try of a request
   answered elsewhere from the method cache: p4 starts try 1 of r1017
   while p3 answers it from its cache, so p3 retires r1017 before p4's
   regD messages arrive, with the primary p2 crashed. The register must
   still decide, or db1 keeps r1017.1 prepared for good (T.2). *)
let test_retired_register_still_decides () =
  let _, c, quiesced, n =
    cached_cluster_under_crash ~seed:58760 ~batch:1
      ~crash_time:49.145217256214359
  in
  Alcotest.(check bool) "quiesced" true quiesced;
  Alcotest.(check int) "all delivered" n (List.length (Cluster.all_records c));
  Alcotest.(check (list string)) "cluster spec" [] (Cluster.Spec.check_all c)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "cache"
    [
      ( "cache-key",
        [
          Alcotest.test_case "round-trip" `Quick test_cache_key_round_trip;
          Alcotest.test_case "rejects non-keys" `Quick test_cache_key_rejects;
          q prop_cache_key_round_trip;
        ] );
      ( "method-cache",
        [
          Alcotest.test_case "store and find" `Quick
            test_method_cache_store_find;
          Alcotest.test_case "intersection invalidation" `Quick
            test_method_cache_invalidate_intersection;
          Alcotest.test_case "generation guard" `Quick
            test_method_cache_generation_guard;
        ] );
      ( "cached-runs",
        [
          Alcotest.test_case "reads are served from cache" `Quick
            test_cached_reads_hit;
          Alcotest.test_case "commit invalidates, reread recomputes" `Quick
            test_commit_invalidates_and_rereads;
          Alcotest.test_case "cache=off is the pre-cache path" `Quick
            test_cache_off_equivalence;
        ] );
      ( "fault-sweep",
        [
          q prop_cached_cluster_under_crashes;
          Alcotest.test_case "retired register still decides" `Quick
            test_retired_register_still_decides;
        ] );
    ]
