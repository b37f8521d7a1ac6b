(* Tests for the experiment harness: message classification and the shape of
   every regenerated table/figure (the claims EXPERIMENTS.md makes must be
   machine-checked, not eyeballed). *)

open Harness

let find_protocol (f : Experiments.fig8) name =
  match
    List.find_opt
      (fun (p : Experiments.fig8_protocol) ->
        String.length p.protocol >= String.length name
        && String.sub p.protocol 0 (String.length name) = name)
      f.protocols
  with
  | Some p -> p
  | None -> Alcotest.failf "protocol %s missing from figure 8" name

(* figure 8 is the most expensive artefact; compute it once *)
let fig8 = lazy (Experiments.figure8 ~transactions:15 ())

let test_fig8_has_four_protocols () =
  let f = Lazy.force fig8 in
  Alcotest.(check int) "protocols" 4 (List.length f.protocols)

let test_fig8_component_values_match_paper () =
  let f = Lazy.force fig8 in
  let ar = find_protocol f "AR" in
  let expect name lo hi =
    let v = List.assoc name ar.components in
    Alcotest.(check bool)
      (Printf.sprintf "%s=%.1f in [%.1f,%.1f]" name v lo hi)
      true
      (v >= lo && v <= hi)
  in
  (* paper Figure 8, AR column: start 3.5, end 3.5, commit 18.8,
     prepare 19.0, SQL 193.2, log-start 4.5, log-outcome 4.7 *)
  expect "start" 3.0 4.0;
  expect "end" 3.0 4.0;
  expect "commit" 17.5 20.0;
  expect "prepare" 18.0 21.5;
  expect "SQL" 185.0 195.0;
  expect "log-start" 3.0 5.5;
  expect "log-outcome" 3.0 5.5

let test_fig8_2pc_forced_io_rows () =
  let f = Lazy.force fig8 in
  let tpc = find_protocol f "2PC" in
  (* the paper's 12.5/12.7 ms eager IOs *)
  Alcotest.(check bool) "log-start is a forced write" true
    (List.assoc "log-start" tpc.components >= 12.0);
  Alcotest.(check bool) "log-outcome is a forced write" true
    (List.assoc "log-outcome" tpc.components >= 12.0);
  let baseline = find_protocol f "baseline" in
  Alcotest.(check (float 1e-9)) "baseline has no log rows" 0.
    (List.assoc "log-start" baseline.components)

let test_fig8_overhead_ordering () =
  let f = Lazy.force fig8 in
  let baseline = find_protocol f "baseline" in
  let ar = find_protocol f "AR" in
  let tpc = find_protocol f "2PC" in
  let pb = find_protocol f "primary-backup" in
  Alcotest.(check bool) "baseline < AR" true (baseline.total < ar.total);
  Alcotest.(check bool) "AR < 2PC (the headline result)" true
    (ar.total < tpc.total);
  (* the paper argues PB and AR have the same cost profile *)
  Alcotest.(check bool) "PB within 3% of AR" true
    (Float.abs (pb.total -. ar.total) /. ar.total < 0.03);
  (* overhead bands: paper 16% and 23%; our calibrated substrate lands at
     12-13% and 20% (the residual is the paper's run-to-run SQL noise) *)
  Alcotest.(check bool) "AR overhead in [8%,20%]" true
    (ar.overhead_pct > 8. && ar.overhead_pct < 20.);
  Alcotest.(check bool) "2PC overhead in [15%,28%]" true
    (tpc.overhead_pct > 15. && tpc.overhead_pct < 28.);
  Alcotest.(check bool) "2PC costs more than AR" true
    (tpc.overhead_pct > ar.overhead_pct)

let test_fig8_ci_methodology () =
  let f = Lazy.force fig8 in
  List.iter
    (fun (p : Experiments.fig8_protocol) ->
      Alcotest.(check bool)
        (p.protocol ^ " ci90/mean < 10% (paper methodology)")
        true (p.ci90_ratio < 0.10))
    f.protocols

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

let test_fig8_rendering () =
  let s = Experiments.render_figure8 (Lazy.force fig8) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("table mentions " ^ needle) true
        (contains s needle))
    [ "SQL"; "prepare"; "log-start"; "cost of reliability"; "total" ]

(* ------------------------------------------------------------------ *)

let fig7 = lazy (Experiments.figure7 ())

let fig7_find name =
  let rows = Lazy.force fig7 in
  match
    List.find_opt (fun (r : Experiments.fig7_row) -> r.proto = name) rows
  with
  | Some r -> r
  | None ->
      (* prefix match for the AR row *)
      List.find
        (fun (r : Experiments.fig7_row) ->
          String.length r.proto >= 2 && String.sub r.proto 0 2 = "AR")
        rows

let test_fig7_parallel_determinism () =
  (* the tentpole guarantee: mapping the trial list over 4 domains renders
     byte-for-byte the same table as the sequential run *)
  let seq = Experiments.render_figure7 (Experiments.figure7 ~domains:1 ()) in
  let par = Experiments.render_figure7 (Experiments.figure7 ~domains:4 ()) in
  Alcotest.(check string) "4-domain table byte-identical to 1-domain" seq par

let test_fig1_parallel_determinism () =
  let seq = Experiments.render_figure1 (Experiments.figure1 ~domains:1 ()) in
  let par = Experiments.render_figure1 (Experiments.figure1 ~domains:4 ()) in
  Alcotest.(check string) "4-domain table byte-identical to 1-domain" seq par

let test_fig7_message_ordering () =
  let baseline = fig7_find "baseline" in
  let tpc = fig7_find "2PC" in
  let pb = fig7_find "primary-backup" in
  let ar = fig7_find "AR" in
  Alcotest.(check bool) "baseline fewest app msgs" true
    (baseline.app_messages < tpc.app_messages
    && baseline.app_messages < pb.app_messages);
  Alcotest.(check bool) "AR app msgs = 2PC app msgs (same commit traffic)"
    true
    (ar.app_messages = tpc.app_messages);
  Alcotest.(check bool) "PB extra backup round trips" true
    (pb.app_messages > tpc.app_messages);
  Alcotest.(check bool) "AR replication costs extra substrate msgs" true
    (ar.all_messages > ar.app_messages)

let test_fig7_steps_ordering () =
  (* the paper's analytic claim: AR has the same number of communication
     steps as primary-backup, more than 2PC, more than baseline *)
  let baseline = fig7_find "baseline" in
  let tpc = fig7_find "2PC" in
  let pb = fig7_find "primary-backup" in
  let ar = fig7_find "AR" in
  Alcotest.(check bool) "baseline ≤ 2PC" true (baseline.steps <= tpc.steps);
  Alcotest.(check bool) "2PC < PB" true (tpc.steps < pb.steps);
  Alcotest.(check int) "AR = PB (the paper's claim)" pb.steps ar.steps

let test_fig7_forced_ios () =
  let tpc = fig7_find "2PC" in
  let ar = fig7_find "AR" in
  let baseline = fig7_find "baseline" in
  Alcotest.(check int) "2PC: two eager IOs" 2 tpc.forced_ios;
  Alcotest.(check int) "AR: none" 0 ar.forced_ios;
  Alcotest.(check int) "baseline: none" 0 baseline.forced_ios

(* ------------------------------------------------------------------ *)
(* byte-identity: renders captured on the commit before the classed-demux
   and indexed-outbox rework; same seeds must render the same bytes *)

let find_sub haystack needle from =
  let n = String.length needle in
  let rec scan i =
    if i + n > String.length haystack then
      Alcotest.failf "marker %s missing from figures.golden" needle
    else if String.sub haystack i n = needle then i
    else scan (i + 1)
  in
  scan from

let golden_figures =
  lazy
    (let ic = open_in "figures.golden" in
     let s = really_input_string ic (in_channel_length ic) in
     close_in ic;
     let m7 = "===FIG7===\n" and m8 = "===FIG8===\n" in
     let i7 = find_sub s m7 0 + String.length m7 in
     let i8 = find_sub s m8 i7 in
     ( String.sub s i7 (i8 - i7),
       String.sub s
         (i8 + String.length m8)
         (String.length s - i8 - String.length m8) ))

let test_fig7_golden_identity () =
  let g7, _ = Lazy.force golden_figures in
  Alcotest.(check string) "figure7 byte-identical to pre-demux render" g7
    (Experiments.render_figure7 (Lazy.force fig7))

let test_fig8_golden_identity () =
  let _, g8 = Lazy.force golden_figures in
  Alcotest.(check string) "figure8 byte-identical to pre-demux render" g8
    (Experiments.render_figure8 (Experiments.figure8 ~transactions:3 ()))

(* ------------------------------------------------------------------ *)

let test_fig1_scenarios () =
  let scenarios = Experiments.figure1 () in
  Alcotest.(check int) "four scenarios" 4 (List.length scenarios);
  List.iter
    (fun (s : Experiments.fig1_scenario) ->
      Alcotest.(check bool) (s.label ^ " delivered") true s.delivered;
      Alcotest.(check (list string)) (s.label ^ " violations") [] s.violations)
    scenarios;
  let nth i = List.nth scenarios i in
  Alcotest.(check int) "(a) single try" 1 (nth 0).tries;
  Alcotest.(check int) "(b) abort then commit" 2 (nth 1).tries;
  Alcotest.(check int) "(c) original result survives" 1 (nth 2).tries;
  Alcotest.(check (option string)) "(c) cleaner finished the commit"
    (Some "commit") (nth 2).cleaner_outcome;
  Alcotest.(check int) "(d) fail-over retry" 2 (nth 3).tries;
  Alcotest.(check (option string)) "(d) cleaner aborted" (Some "abort")
    (nth 3).cleaner_outcome

let test_ablation_backoff_monotonic_failover () =
  let rows = Experiments.backoff_sweep ~periods:[ 100.; 400.; 1600. ] () in
  match rows with
  | [ (_, n1, f1); (_, n2, f2); (_, n3, f3) ] ->
      Alcotest.(check bool) "nice latency flat" true
        (Float.abs (n1 -. n3) < 10.);
      Alcotest.(check bool) "failover latency grows with back-off" true
        (f1 < f2 && f2 < f3);
      Alcotest.(check bool) "nice < failover" true (n2 < f2)
  | _ -> Alcotest.fail "expected three rows"

let test_ablation_loss_monotonic () =
  let rows = Experiments.loss_sweep ~rates:[ 0.; 0.3 ] () in
  match rows with
  | [ (_, lat0, msgs0); (_, lat3, msgs3) ] ->
      Alcotest.(check bool) "loss costs latency" true (lat3 > lat0);
      Alcotest.(check bool) "loss costs messages" true (msgs3 > msgs0)
  | _ -> Alcotest.fail "expected two rows"

let test_ablation_persistence_ordering () =
  (* the design point: persistent registers push AR past 2PC *)
  match Experiments.persistence_ablation ~transactions:5 () with
  | [ (_, diskless); (_, persistent); (_, tpc) ] ->
      Alcotest.(check bool) "diskless < 2PC" true (diskless < tpc);
      Alcotest.(check bool) "persistent > 2PC" true (persistent > tpc)
  | _ -> Alcotest.fail "expected three configurations"

let test_ablation_consensus_failover_monotone () =
  (* with a useless detector, the round timeout is the fail-over latency *)
  match Experiments.consensus_failover_sweep ~round_timeouts:[ 25.; 200. ] () with
  | [ (_, fast); (_, slow) ] ->
      Alcotest.(check bool) "latency tracks the round timeout" true
        (fast < 60. && slow > 200. && fast < slow)
  | _ -> Alcotest.fail "expected two rows"

let test_ablation_throughput_contention () =
  match Experiments.throughput_sweep ~clients:[ 1; 4 ] ~requests_per_client:3 () with
  | [ (_, hot1, cold1); (_, hot4, cold4) ] ->
      Alcotest.(check bool) "single client: contention irrelevant" true
        (Float.abs (hot1 -. cold1) < 0.5);
      Alcotest.(check bool) "disjoint accounts scale better" true
        (cold4 > hot4);
      Alcotest.(check bool) "disjoint beats single client" true
        (cold4 > cold1)
  | _ -> Alcotest.fail "expected two rows"

let test_ablation_register_backends () =
  match Experiments.register_backend_comparison () with
  | [ (_, ct_nice, ct_failover); (_, blind_nice, blind_failover);
      (_, synod_nice, synod_failover) ] ->
      (* both substrates share the one-round-trip fast path *)
      Alcotest.(check bool) "CT fast path" true (ct_nice < 7.);
      Alcotest.(check bool) "blind-CT fast path" true (blind_nice < 7.);
      Alcotest.(check bool) "Synod fast path" true (synod_nice < 7.);
      (* fail-over: Paxos never waits on a detector; blind CT pays rounds *)
      Alcotest.(check bool) "Synod failover fast" true (synod_failover < 15.);
      Alcotest.(check bool) "oracle CT failover decent" true
        (ct_failover < 40.);
      Alcotest.(check bool) "blind CT pays the round timeout" true
        (blind_failover > 90.)
  | _ -> Alcotest.fail "expected three backends"

let test_ablation_fd_quality () =
  (* the sweep itself asserts the spec in every configuration; here we
     check the performance shape: an aggressive timeout causes spurious
     cleanings and retries, a generous one does not *)
  match Experiments.fd_quality_sweep ~requests:5 ~timeouts:[ 15.; 200. ] () with
  | [ (_, aggressive_cleanings, aggressive_tries, _); (_, calm_cleanings, calm_tries, _) ] ->
      Alcotest.(check bool) "aggressive timeout misfires" true
        (aggressive_cleanings > 0);
      Alcotest.(check bool) "retries follow" true (aggressive_tries > 0);
      Alcotest.(check int) "calm timeout: no cleanings" 0 calm_cleanings;
      Alcotest.(check int) "calm timeout: no retries" 0 calm_tries
  | _ -> Alcotest.fail "expected two rows"

let test_ablation_dbs_flat () =
  let rows = Experiments.db_sweep ~counts:[ 1; 4 ] () in
  match rows with
  | [ (_, b1, a1, t1); (_, b4, a4, t4) ] ->
      (* prepare fan-out is parallel: latency must not grow linearly *)
      Alcotest.(check bool) "baseline flat" true (Float.abs (b4 -. b1) < 10.);
      Alcotest.(check bool) "AR flat" true (Float.abs (a4 -. a1) < 10.);
      Alcotest.(check bool) "2PC flat" true (Float.abs (t4 -. t1) < 10.)
  | _ -> Alcotest.fail "expected two rows"

(* ------------------------------------------------------------------ *)
(* message classification *)

let test_msgclass_kinds () =
  let t = Dsim.Engine.create () in
  let seen = ref [] in
  let rx =
    Dsim.Engine.spawn t ~name:"rx" ~main:(fun ~recovery:_ () ->
        let ch = Dnet.Rchannel.create () in
        Dnet.Rchannel.start ch;
        Dsim.Engine.sleep 1_000.)
  in
  let _ =
    Dsim.Engine.spawn t ~name:"tx" ~main:(fun ~recovery:_ () ->
        let ch = Dnet.Rchannel.create () in
        Dnet.Rchannel.start ch;
        Dnet.Rchannel.send ch rx (Etx.Etx_types.Request_msg
           { request = { rid = 1; key = "x"; body = "x" }; j = 1; group = 0; span = 0 });
        Dsim.Engine.sleep 1_000.)
  in
  ignore (Dsim.Engine.run ~deadline:100. t);
  List.iter
    (fun (e : Dsim.Trace.entry) ->
      match e.event with
      | Dsim.Trace.Sent (m, _) -> seen := Msgclass.kind_of m :: !seen
      | _ -> ())
    (Dsim.Trace.entries (Dsim.Engine.trace t));
  Alcotest.(check bool) "saw application traffic" true
    (List.mem Msgclass.Application !seen);
  Alcotest.(check bool) "saw channel overhead (acks)" true
    (List.mem Msgclass.Overhead !seen)

(* ------------------------------------------------------------------ *)
(* sequence diagrams *)

let count_occurrences haystack needle =
  let n = String.length needle in
  let rec scan i acc =
    if i + n > String.length haystack then acc
    else if String.sub haystack i n = needle then scan (i + 1) (acc + 1)
    else scan (i + 1) acc
  in
  scan 0 0

let test_seqdiag_nice_run () =
  let e, d =
    Harness.Simrun.cluster ~business:Etx.Business.trivial
      ~scripts:[ (fun ~issue -> ignore (issue "x")) ]
      ()
  in
  ignore (Cluster.run_to_quiescence d);
  let diagram = Seqdiag.of_engine e in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("diagram shows " ^ needle) true
        (contains diagram needle))
    [
      "Request(";
      "XaStart(";
      "Exec(";
      "Prepare(";
      "Vote(";
      "Decide(";
      "AckDecide(";
      "Result(";
    ];
  (* messages appear exactly once (no channel-frame duplicates) *)
  Alcotest.(check int) "one Prepare arrow" 1
    (count_occurrences diagram "--Prepare(");
  Alcotest.(check int) "one Vote arrow" 1 (count_occurrences diagram "--Vote(");
  (* consensus substrate elided by default, shown on demand *)
  Alcotest.(check int) "no consensus by default" 0
    (count_occurrences diagram "consensus");
  let with_consensus = Seqdiag.of_engine ~include_consensus:true e in
  Alcotest.(check bool) "consensus on demand" true
    (count_occurrences with_consensus "consensus" > 0)

let test_seqdiag_failover_markers () =
  let e, d =
    Harness.Simrun.cluster ~client_period:300. ~business:Etx.Business.trivial
      ~scripts:[ (fun ~issue -> ignore (issue "x")) ]
      ()
  in
  Dsim.Engine.crash_at e 100. (Cluster.primary d ~shard:0);
  ignore (Cluster.run_to_quiescence ~deadline:60_000. d);
  let diagram = Seqdiag.of_engine e in
  Alcotest.(check bool) "crash marker" true (contains diagram "CRASH");
  Alcotest.(check bool) "cleaner activity" true (contains diagram "cleaned:");
  Alcotest.(check bool) "second try visible" true (contains diagram "j=2")

let test_seqdiag_max_lines () =
  let e, d =
    Harness.Simrun.cluster ~business:Etx.Business.trivial
      ~scripts:[ (fun ~issue -> ignore (issue "x")) ]
      ()
  in
  ignore (Cluster.run_to_quiescence d);
  let diagram = Seqdiag.of_engine ~max_lines:3 e in
  Alcotest.(check bool) "elision marker" true (contains diagram "more events");
  Alcotest.(check int) "four lines total" 4
    (List.length
       (List.filter
          (fun l -> l <> "")
          (String.split_on_char '\n' diagram)))

(* ------------------------------------------------------------------ *)
(* path goldens: see paths.ml *)

(* ------------------------------------------------------------------ *)
(* The artefact table *)

let artefact name = Option.get (Artefact.find name)

let test_table_names () =
  let names = List.map (fun (e : Artefact.t) -> e.name) Artefact.all in
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun (e : Artefact.t) ->
      Alcotest.(check bool) (e.name ^ " has a doc") true (e.doc <> ""))
    Artefact.all

(* the CSV is derived from the rows: a header of row keys, one line each *)
let test_csv name () =
  let out = (artefact name).run ~seed:42 ~domains:1 in
  let lines = String.split_on_char '\n' (Artefact.csv out.rows) in
  Alcotest.(check int) "one line per row" (1 + List.length out.rows)
    (List.length lines);
  List.iter
    (fun (r : Artefact.row) ->
      Alcotest.(check string) "header = row keys" (List.hd lines)
        (String.concat "," (List.map fst r)))
    out.rows

(* each check holds on rows shaped like the real sweep's and reports a
   failure on a counterexample *)
let test_check name ~good ~bad () =
  Alcotest.(check (list string)) (name ^ " holds") []
    ((artefact name).check good);
  List.iter
    (fun rows ->
      Alcotest.(check bool) (name ^ " reports a failure") true
        ((artefact name).check rows <> []))
    bad

let gc_row batch on forces fpc =
  Stats.Json.
    [ ("batch", Int batch); ("group_commit", Bool on); ("forces", Int forces);
      ("forces_per_commit", Float fpc) ]

let cache_row servers on hit read =
  Stats.Json.
    [ ("servers", Int servers); ("cache", Bool on); ("hit_rate", Float hit);
      ("read_tx_per_vs", Float read) ]

let replica_row replicas served =
  Stats.Json.[ ("replicas", Int replicas); ("replica_served", Int served) ]

let recovery_row commits ck steps =
  Stats.Json.
    [ ("commits", Int commits); ("checkpointed", Bool ck);
      ("replay_steps", Int steps) ]

let obs_row mode events =
  Stats.Json.[ ("mode", String mode); ("events", Int events) ]

let check_cases =
  [
    ( "group-commit",
      test_check "group-commit"
        ~good:
          [ gc_row 1 false 512 2.0; gc_row 1 true 28 0.11;
            gc_row 4 false 128 0.5; gc_row 4 true 129 0.5 ]
        ~bad:
          [
            (* forces/commit rises with the cap, group commit off *)
            [ gc_row 1 false 512 2.0; gc_row 1 true 28 0.11;
              gc_row 4 false 1024 4.0 ];
            (* at cap 1 the scheduler saves nothing *)
            [ gc_row 1 false 512 2.0; gc_row 1 true 512 2.0 ];
          ] );
    ( "cache",
      test_check "cache"
        ~good:[ cache_row 1 false 0. 23.0; cache_row 1 true 0.71 45.0 ]
        ~bad:
          [
            [ cache_row 1 false 0. 23.0; cache_row 1 true 0. 45.0 ];
            [ cache_row 1 false 0. 23.0; cache_row 1 true 0.71 20.0 ];
          ] );
    ( "replica",
      test_check "replica"
        ~good:[ replica_row 0 0; replica_row 1 56 ]
        ~bad:[ [ replica_row 0 0; replica_row 1 0 ] ] );
    ( "recovery",
      test_check "recovery"
        ~good:[ recovery_row 64 false 128; recovery_row 64 true 33 ]
        ~bad:[ [ recovery_row 64 false 128; recovery_row 64 true 128 ] ] );
    ( "obs-overhead",
      test_check "obs-overhead"
        ~good:[ obs_row "disabled" 2950; obs_row "traced" 2950 ]
        ~bad:[ [ obs_row "disabled" 2950; obs_row "traced" 2951 ] ] );
  ]

let test_path_golden name build () =
  let file = Paths.golden_file "paths" name in
  let ic = open_in_bin file in
  let golden = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string)
    (file ^ " byte-identical") golden (Paths.render build)

(* a golden pins a run, not its correctness: each path must also meet the
   full cluster specification *)
let test_path_spec build () =
  let _e, c = build (Obs.Registry.create ()) in
  Alcotest.(check bool) "quiesced" true (Cluster.run_to_quiescence c);
  Alcotest.(check (list string)) "cluster spec" [] (Cluster.Spec.check_all c)

let () =
  match Sys.argv with
  | [| _; "regen-paths"; dir |] -> Paths.write dir
  | _ ->
  Alcotest.run "harness"
    [
      ( "paths",
        List.map
          (fun (name, build) ->
            Alcotest.test_case name `Quick (test_path_golden name build))
          Paths.paths );
      ( "paths-spec",
        List.map
          (fun (name, build) ->
            Alcotest.test_case name `Quick (test_path_spec build))
          Paths.paths );
      ( "figure8",
        [
          Alcotest.test_case "four protocols" `Quick
            test_fig8_has_four_protocols;
          Alcotest.test_case "components match paper" `Quick
            test_fig8_component_values_match_paper;
          Alcotest.test_case "2PC forced-IO rows" `Quick
            test_fig8_2pc_forced_io_rows;
          Alcotest.test_case "overhead ordering" `Quick
            test_fig8_overhead_ordering;
          Alcotest.test_case "CI methodology" `Quick test_fig8_ci_methodology;
          Alcotest.test_case "rendering" `Quick test_fig8_rendering;
          Alcotest.test_case "golden byte-identity" `Quick
            test_fig8_golden_identity;
        ] );
      ( "figure7",
        [
          Alcotest.test_case "message ordering" `Quick
            test_fig7_message_ordering;
          Alcotest.test_case "steps ordering" `Quick test_fig7_steps_ordering;
          Alcotest.test_case "forced IOs" `Quick test_fig7_forced_ios;
          Alcotest.test_case "parallel determinism" `Quick
            test_fig7_parallel_determinism;
          Alcotest.test_case "golden byte-identity" `Quick
            test_fig7_golden_identity;
        ] );
      ( "figure1",
        [
          Alcotest.test_case "four executions" `Quick test_fig1_scenarios;
          Alcotest.test_case "parallel determinism" `Quick
            test_fig1_parallel_determinism;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "backoff sweep" `Quick
            test_ablation_backoff_monotonic_failover;
          Alcotest.test_case "loss sweep" `Quick test_ablation_loss_monotonic;
          Alcotest.test_case "db sweep flat" `Quick test_ablation_dbs_flat;
          Alcotest.test_case "persistence ordering" `Quick
            test_ablation_persistence_ordering;
          Alcotest.test_case "consensus fail-over monotone" `Quick
            test_ablation_consensus_failover_monotone;
          Alcotest.test_case "throughput contention" `Quick
            test_ablation_throughput_contention;
          Alcotest.test_case "register backends" `Quick
            test_ablation_register_backends;
          Alcotest.test_case "fd quality" `Quick test_ablation_fd_quality;
        ] );
      ( "artefacts",
        [
          Alcotest.test_case "names and docs" `Quick test_table_names;
          Alcotest.test_case "figure7 csv" `Quick (test_csv "figure7");
          Alcotest.test_case "figure1 csv" `Quick (test_csv "figure1");
        ]
        @ List.map
            (fun (name, f) -> Alcotest.test_case (name ^ " check") `Quick f)
            check_cases );
      ( "msgclass",
        [ Alcotest.test_case "classification" `Quick test_msgclass_kinds ] );
      ( "seqdiag",
        [
          Alcotest.test_case "nice run" `Quick test_seqdiag_nice_run;
          Alcotest.test_case "failover markers" `Quick
            test_seqdiag_failover_markers;
          Alcotest.test_case "line cap" `Quick test_seqdiag_max_lines;
        ] );
    ]
