(* Observability subsystem tests: histogram merge/quantile properties,
   registry and exporter round-trips, span-tree completeness under
   crash/fail-over, and counter-vs-ground-truth consistency on both
   runtime backends. *)

module H = Obs.Histogram
module R = Obs.Registry
module Span = Obs.Span

let hist_of xs =
  let h = H.create () in
  List.iter (H.observe h) xs;
  h

let same_hist a b =
  H.to_sorted a = H.to_sorted b
  && H.zero_count a = H.zero_count b
  && H.count a = H.count b

(* ------------------------------------------------------------------ *)
(* Histogram properties *)

let sample = QCheck.float_range (-5.) 1e6

let prop_merge_assoc =
  QCheck.Test.make ~name:"merge associative" ~count:200
    QCheck.(triple (list sample) (list sample) (list sample))
    (fun (a, b, c) ->
      let ha = hist_of a and hb = hist_of b and hc = hist_of c in
      same_hist (H.merge (H.merge ha hb) hc) (H.merge ha (H.merge hb hc)))

let prop_merge_comm =
  QCheck.Test.make ~name:"merge commutative" ~count:200
    QCheck.(pair (list sample) (list sample))
    (fun (a, b) ->
      let ha = hist_of a and hb = hist_of b in
      let ca = H.count ha in
      let r = same_hist (H.merge ha hb) (H.merge hb ha) in
      (* and merge must not mutate its arguments *)
      r && H.count ha = ca)

let prop_quantile_error_bound =
  (* the estimate must sit within [quantile_error] (relative) of the true
     empirical quantile under the histogram's own rank convention:
     rank = max 1 (ceil (q * n)), 1-indexed over the sorted samples *)
  QCheck.Test.make ~name:"quantile error bounded" ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 60) (float_range 1e-3 1e6))
        (float_range 0. 1.))
    (fun (xs, q) ->
      let h = hist_of xs in
      let n = List.length xs in
      let sorted = List.sort compare xs in
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
      let truth = List.nth sorted (rank - 1) in
      match H.quantile h q with
      | None -> false
      | Some est ->
          Float.abs (est -. truth) <= (H.quantile_error +. 1e-6) *. truth)

let prop_count_sum =
  QCheck.Test.make ~name:"count and sum track observations" ~count:200
    QCheck.(list sample)
    (fun xs ->
      let h = hist_of xs in
      H.count h = List.length xs
      && Float.abs (H.sum h -. List.fold_left ( +. ) 0. xs)
         <= 1e-6 *. (1. +. Float.abs (H.sum h)))

let test_histogram_basics () =
  let h = hist_of [ 10.; 20.; 0.; -1.; 100. ] in
  Alcotest.(check int) "count" 5 (H.count h);
  Alcotest.(check int) "zero bucket" 2 (H.zero_count h);
  Alcotest.(check (option (float 1e-9))) "min" (Some (-1.)) (H.min_value h);
  Alcotest.(check (option (float 1e-9))) "max" (Some 100.) (H.max_value h);
  (match H.quantile h 0.1 with
  | Some v -> Alcotest.(check (float 1e-9)) "low ranks hit zero bucket" 0. v
  | None -> Alcotest.fail "quantile on non-empty histogram");
  Alcotest.(check (option (float 1e-9)))
    "empty quantile" None
    (H.quantile (H.create ()) 0.5)

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry_counters () =
  let r = R.create () in
  R.incr r ~node:"g1:a1" ~name:"x" 2;
  R.incr r ~node:"a1" ~name:"x" 1;
  R.incr r ~node:"g1:a1" ~name:"x" 3;
  Alcotest.(check int) "total" 6 (R.counter_total r "x");
  Alcotest.(check int) "group 1 only" 5 (R.counter_total ~group:1 r "x");
  Alcotest.(check int) "group 0 only" 1 (R.counter_total ~group:0 r "x");
  Alcotest.(check int) "one node" 1 (R.counter_value r ~node:"a1" ~name:"x");
  Alcotest.(check int) "absent is 0" 0 (R.counter_value r ~node:"zz" ~name:"x");
  R.observe r ~node:"a1" ~name:"lat" 5.;
  R.observe r ~node:"g1:a1" ~name:"lat" 7.;
  match R.merged_histogram r "lat" with
  | None -> Alcotest.fail "no merged histogram"
  | Some h -> Alcotest.(check int) "merged over nodes" 2 (H.count h)

let test_registry_spans_off () =
  let r = R.create ~spans:false () in
  Alcotest.(check bool) "spans disabled" false (R.spans_enabled r);
  let id = R.span_open r ~node:"n" ~at:1. ~trace:7 "request" in
  Alcotest.(check int) "span_open returns 0" 0 id;
  R.span_close r ~at:2. id;
  R.event r ~node:"n" ~at:1. ~trace:0 ~name:"note" "hi";
  Alcotest.(check int) "no spans stored" 0 (List.length (R.spans r));
  Alcotest.(check int) "no events stored" 0 (List.length (R.events r));
  (* metrics still work in spans-off mode *)
  R.incr r ~node:"n" ~name:"c" 1;
  Alcotest.(check int) "counters live" 1 (R.counter_total r "c")

let test_span_forest () =
  let r = R.create () in
  let root = R.span_open r ~node:"c" ~at:0. ~trace:1 "request" in
  let child = R.span_open r ~node:"a" ~at:1. ~parent:root ~trace:1 "try" in
  let leaf = R.span_open r ~node:"a" ~at:2. ~parent:child ~trace:1 "compute" in
  R.span_close r ~at:3. leaf;
  R.span_close r ~at:4. child;
  R.span_attr r root "tries" "1";
  R.span_attr r root "tries" "2";
  (* other traces must not leak into this forest *)
  ignore (R.span_open r ~node:"c" ~at:0.5 ~trace:2 "request");
  (* unknown parent: adopted as a root, not dropped *)
  let orphan = R.span_open r ~node:"x" ~at:6. ~parent:9999 ~trace:1 "clean" in
  R.span_close r ~at:7. orphan;
  R.span_close r ~at:5. root;
  R.span_close r ~at:5.5 root;
  (* double close is a no-op *)
  let spans = R.spans r in
  (match Span.find spans ~trace:1 ~name:"request" with
  | [ s ] ->
      Alcotest.(check (option string))
        "first attr write wins" (Some "1") (Span.attr s "tries");
      Alcotest.(check (option (float 1e-9)))
        "close is idempotent" (Some 5.) (Span.duration s)
  | _ -> Alcotest.fail "expected one request span in trace 1");
  match Span.forest spans ~trace:1 with
  | [ t1; t2 ] ->
      Alcotest.(check int) "main tree size" 3 (Span.tree_size t1);
      Alcotest.(check string) "orphan adopted" "clean" t2.Span.span.Span.name
  | f -> Alcotest.failf "expected 2 roots, got %d" (List.length f)

(* ------------------------------------------------------------------ *)
(* Exporters *)

let test_prom_roundtrip () =
  let r = R.create () in
  R.incr r ~node:"client" ~name:"client.committed" 4;
  R.incr r ~node:"g1:client" ~name:"client.committed" 3;
  R.observe r ~node:"a1" ~name:"db.vote_ms" 12.5;
  R.observe r ~node:"a1" ~name:"db.vote_ms" 0.;
  let dump = Obs.Export_prom.to_string r in
  Alcotest.(check (list (float 1e-9)))
    "counter values re-parse" [ 3.; 4. ]
    (List.sort compare
       (Obs.Export_prom.counter_values dump ~metric:"etx_client_committed"));
  let has sub =
    let n = String.length sub in
    let rec scan i =
      i + n <= String.length dump
      && (String.sub dump i n = sub || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool) "histogram buckets" true (has "etx_db_vote_ms_bucket");
  Alcotest.(check bool) "+Inf bucket" true (has "le=\"+Inf\"");
  Alcotest.(check bool) "histogram count" true (has "etx_db_vote_ms_count");
  Alcotest.(check bool) "type lines" true (has "# TYPE etx_client_committed counter")

(* ------------------------------------------------------------------ *)
(* End-to-end: span trees under fail-over on the simulator *)

let bank_seed = Workload.Bank.seed_accounts [ ("acct0", 1_000_000) ]

let failover_run ~seed =
  let reg = R.create () in
  let e, d =
    Harness.Simrun.cluster ~seed ~client_period:300. ~obs:reg
      ~seed_data:bank_seed ~business:Workload.Bank.update
      ~scripts:
        [
          (fun ~issue ->
            ignore (issue "acct0:10");
            ignore (issue "acct0:5"));
        ]
      ()
  in
  Dsim.Engine.crash_at e 230. (Cluster.primary d ~shard:0);
  Alcotest.(check bool) "quiesced" true
    (Cluster.run_to_quiescence ~deadline:600_000. d);
  Alcotest.(check (list string)) "spec holds" [] (Cluster.Spec.check_all d);
  (reg, d)

let test_span_tree_failover () =
  let reg, d = failover_run ~seed:42 in
  let spans = R.spans reg in
  let records = Cluster.all_records d in
  Alcotest.(check bool) "some records" true (records <> []);
  List.iter
    (fun (r : Etx.Client.record) ->
      (* exactly one root "request" span per committed request, closed,
         with the final try count attached *)
      (match Span.find spans ~trace:r.rid ~name:"request" with
      | [ s ] ->
          Alcotest.(check bool)
            (Printf.sprintf "request span of r%d closed" r.rid)
            true (Span.closed s);
          Alcotest.(check (option string))
            (Printf.sprintf "tries attr of r%d" r.rid)
            (Some (string_of_int r.tries))
            (Span.attr s "tries")
      | l ->
          Alcotest.failf "r%d: expected one request span, got %d" r.rid
            (List.length l));
      (* a committed request has at least one closed terminating span, and
         one of them carries the decisive j *)
      let terms =
        List.filter Span.closed (Span.find spans ~trace:r.rid ~name:"terminate")
      in
      Alcotest.(check bool)
        (Printf.sprintf "r%d terminated" r.rid)
        true (terms <> []);
      Alcotest.(check bool)
        (Printf.sprintf "r%d decisive terminate (j=%d)" r.rid r.tries)
        true
        (List.exists
           (fun s -> Span.attr s "j" = Some (string_of_int r.tries))
           terms);
      (* cleaner take-overs must parent under the request's root (or be
         roots themselves when the cleaning server never saw the request) *)
      let root_id =
        match Span.find spans ~trace:r.rid ~name:"request" with
        | [ s ] -> s.Span.id
        | _ -> 0
      in
      List.iter
        (fun (c : Span.t) ->
          Alcotest.(check bool)
            (Printf.sprintf "clean span of r%d parents correctly" r.rid)
            true
            (c.Span.parent = root_id || c.Span.parent = 0))
        (Span.find spans ~trace:r.rid ~name:"clean"))
    records;
  (* the crash must leave abandoned (never-closed) spans behind *)
  Alcotest.(check bool) "crash leaves open spans" true
    (List.exists (fun s -> not (Span.closed s)) spans);
  (* forest construction covers every span of every request trace *)
  List.iter
    (fun (r : Etx.Client.record) ->
      let mine = List.filter (fun s -> s.Span.trace = r.rid) spans in
      let covered =
        List.fold_left
          (fun acc t -> acc + Span.tree_size t)
          0
          (Span.forest spans ~trace:r.rid)
      in
      Alcotest.(check int)
        (Printf.sprintf "forest covers all spans of r%d" r.rid)
        (List.length mine) covered)
    records

let test_obs_events_and_bridge () =
  let reg, d = failover_run ~seed:7 in
  ignore d;
  let events = R.events reg in
  Alcotest.(check bool) "crash event recorded" true
    (List.exists (fun (e : Span.event) -> e.ename = "crash") events);
  (* cleaner notes are teed into the registry as events *)
  Alcotest.(check bool) "note events recorded" true
    (List.exists (fun (e : Span.event) -> e.ename = "note") events);
  (* the trace-free diagram renderer sees the same story *)
  let diagram = Harness.Seqdiag.of_obs reg in
  let has sub =
    let n = String.length sub in
    let rec scan i =
      i + n <= String.length diagram
      && (String.sub diagram i n = sub || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool) "diagram shows the crash" true (has "CRASH");
  Alcotest.(check bool) "diagram shows spans" true (has "+request")

(* ------------------------------------------------------------------ *)
(* Counter vs ground truth, both backends *)

let committed_counter_matches_sim ~seed =
  let reg = R.create () in
  let _e, d =
    Harness.Simrun.cluster ~seed ~client_period:300. ~tracing:false
      ~obs:reg ~seed_data:bank_seed ~business:Workload.Bank.update
      ~scripts:
        [
          (fun ~issue ->
            ignore (issue "acct0:1");
            ignore (issue "acct0:2");
            ignore (issue "acct0:3"));
        ]
      ()
  in
  Cluster.run_to_quiescence ~deadline:600_000. d
  && R.counter_total reg "client.committed"
     = List.length (Cluster.all_records d)
  && R.counter_total reg "client.requests" = 3

let prop_committed_counter_sim =
  QCheck.Test.make ~name:"committed counter = records (sim, random seeds)"
    ~count:8 QCheck.small_int (fun seed -> committed_counter_matches_sim ~seed)

let test_committed_counter_live () =
  List.iter
    (fun seed ->
      let reg = R.create () in
      let lt = Dsim.Runtime_live.create ~seed ~obs:reg () in
      let d =
        Cluster.build ~rt:(Dsim.Runtime_live.runtime lt) ~seed_data:bank_seed
          ~business:Workload.Bank.update
          ~scripts:
            [
              (fun ~issue ->
                ignore (issue "acct0:1");
                ignore (issue "acct0:2"));
            ]
          ()
      in
      let ok = Cluster.run_to_quiescence ~deadline:60_000. d in
      Alcotest.(check bool) "live quiesced" true ok;
      Alcotest.(check int)
        (Printf.sprintf "live committed counter (seed %d)" seed)
        (List.length (Cluster.all_records d))
        (R.counter_total reg "client.committed"))
    [ 1; 42 ]

let test_cache_metrics () =
  let reg = R.create () in
  let _e, d =
    Harness.Simrun.cluster ~seed:11 ~client_period:300. ~obs:reg
      ~cache:true
      ~seed_data:(Workload.Bank.seed_accounts [ ("acct0", 1000) ])
      ~business:Workload.Bank.mixed
      ~scripts:
        [
          (fun ~issue ->
            ignore (issue "acct0");
            ignore (issue "acct0");
            ignore (issue "acct0:5");
            ignore (issue "acct0"));
        ]
      ()
  in
  Alcotest.(check bool) "quiesced" true
    (Cluster.run_to_quiescence ~deadline:600_000. d);
  Alcotest.(check (list string)) "spec holds" [] (Cluster.Spec.check_all d);
  let records = Cluster.all_records d in
  let served =
    List.length (List.filter (fun (r : Etx.Client.record) -> r.cached) records)
  in
  Alcotest.(check bool) "some hits" true (R.counter_total reg "cache.hit" > 0);
  Alcotest.(check bool) "some misses" true
    (R.counter_total reg "cache.miss" > 0);
  Alcotest.(check bool) "the write invalidated" true
    (R.counter_total reg "cache.invalidate" > 0);
  (* every hit the servers counted was delivered as a cached record *)
  Alcotest.(check int) "client.cache_served = cached records" served
    (R.counter_total reg "client.cache_served");
  Alcotest.(check int) "hits = served" served
    (R.counter_total reg "cache.hit");
  (* the hit-latency histogram observed exactly the hits *)
  (match R.merged_histogram reg "cache.hit_latency_ms" with
  | None -> Alcotest.fail "no cache.hit_latency_ms histogram"
  | Some h -> Alcotest.(check int) "latency samples = hits" served (H.count h));
  (* and everything round-trips through the Prometheus exporter *)
  let dump = Obs.Export_prom.to_string reg in
  List.iter
    (fun metric ->
      Alcotest.(check bool) (metric ^ " exported") true
        (Obs.Export_prom.counter_values dump ~metric <> []))
    [ "etx_cache_hit"; "etx_cache_miss"; "etx_cache_invalidate";
      "etx_client_cache_served" ]

let test_cache_off_emits_nothing () =
  let reg = R.create () in
  let _e, d =
    Harness.Simrun.cluster ~seed:11 ~client_period:300. ~obs:reg
      ~seed_data:(Workload.Bank.seed_accounts [ ("acct0", 1000) ])
      ~business:Workload.Bank.mixed
      ~scripts:
        [
          (fun ~issue ->
            ignore (issue "acct0");
            ignore (issue "acct0:5"));
        ]
      ()
  in
  Alcotest.(check bool) "quiesced" true
    (Cluster.run_to_quiescence ~deadline:600_000. d);
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " absent when cache off") 0
        (R.counter_total reg name))
    [ "cache.hit"; "cache.miss"; "cache.invalidate"; "client.cache_served" ]

let test_cluster_obs_consistency () =
  let reg = R.create () in
  let map = Etx.Shard_map.create ~shards:2 () in
  let _e, c =
    Harness.Simrun.cluster ~seed:5 ~map ~obs:reg
      ~seed_data:
        (Workload.Bank.seed_accounts [ ("acct0", 1000); ("acct1", 1000) ])
      ~business:Workload.Bank.update
      ~scripts:
        [
          (fun ~issue -> ignore (issue "acct0:1"));
          (fun ~issue -> ignore (issue "acct1:1"));
        ]
      ()
  in
  Alcotest.(check bool) "cluster quiesced" true
    (Cluster.run_to_quiescence ~deadline:600_000. c);
  Alcotest.(check (list string)) "spec holds" [] (Cluster.Spec.check_all c);
  Alcotest.(check (list string))
    "obs consistent with ground truth" []
    (Cluster.Spec.obs_consistency reg c)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "obs"
    [
      ( "histogram",
        [
          Alcotest.test_case "basics" `Quick test_histogram_basics;
          q prop_merge_assoc;
          q prop_merge_comm;
          q prop_quantile_error_bound;
          q prop_count_sum;
        ] );
      ( "registry",
        [
          Alcotest.test_case "counters and groups" `Quick
            test_registry_counters;
          Alcotest.test_case "spans-off mode" `Quick test_registry_spans_off;
          Alcotest.test_case "span forest" `Quick test_span_forest;
        ] );
      ( "export",
        [
          Alcotest.test_case "prometheus round-trip" `Quick
            test_prom_roundtrip;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "span tree under fail-over" `Quick
            test_span_tree_failover;
          Alcotest.test_case "events and diagram bridge" `Quick
            test_obs_events_and_bridge;
          q prop_committed_counter_sim;
          Alcotest.test_case "committed counter (live)" `Quick
            test_committed_counter_live;
          Alcotest.test_case "cluster obs consistency" `Quick
            test_cluster_obs_consistency;
          Alcotest.test_case "cache metrics" `Quick test_cache_metrics;
          Alcotest.test_case "cache metrics silent when off" `Quick
            test_cache_off_emits_nothing;
        ] );
    ]
