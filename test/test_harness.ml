(* Tests for the experiment harness: message classification and the shape of
   every regenerated table/figure (the claims EXPERIMENTS.md makes must be
   machine-checked, not eyeballed). *)

open Harness
module Rt = Runtime.Etx_runtime

(* a sweep's rows, read by key the way the artefact checks read them *)
let rows (t : Stats.Table.t) = List.map Stats.Table.fields t.rows
let num = Artefact.num
let int row k = int_of_float (num row k)

let str row k =
  match List.assoc_opt k row with
  | Some (Stats.Json.String s) -> s
  | _ -> Alcotest.failf "no string field %s" k

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let find_protocol rows name =
  match List.find_opt (fun r -> has_prefix name (str r "protocol")) rows with
  | Some p -> p
  | None -> Alcotest.failf "protocol %s missing from figure 8" name

(* figure 8 is the most expensive artefact; compute it once *)
let fig8 = lazy (Experiments.figure8 ~transactions:15 ())
let fig8_rows () = rows (Lazy.force fig8)

let test_fig8_has_four_protocols () =
  Alcotest.(check int) "protocols" 4 (List.length (fig8_rows ()))

let test_fig8_component_values_match_paper () =
  let ar = find_protocol (fig8_rows ()) "AR" in
  let expect name lo hi =
    let v = num ar name in
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
  let tpc = find_protocol (fig8_rows ()) "2PC" in
  (* the paper's 12.5/12.7 ms eager IOs *)
  Alcotest.(check bool) "log-start is a forced write" true
    (num tpc "log-start" >= 12.0);
  Alcotest.(check bool) "log-outcome is a forced write" true
    (num tpc "log-outcome" >= 12.0);
  let baseline = find_protocol (fig8_rows ()) "baseline" in
  Alcotest.(check (float 1e-9)) "baseline has no log rows" 0.
    (num baseline "log-start")

let test_fig8_overhead_ordering () =
  let f = fig8_rows () in
  let total p = num (find_protocol f p) "total" in
  let overhead p = num (find_protocol f p) "overhead_pct" in
  let ar = total "AR" in
  Alcotest.(check bool) "baseline < AR" true (total "baseline" < ar);
  Alcotest.(check bool) "AR < 2PC (the headline result)" true
    (ar < total "2PC");
  (* the paper argues PB and AR have the same cost profile *)
  Alcotest.(check bool) "PB within 3% of AR" true
    (Float.abs (total "primary-backup" -. ar) /. ar < 0.03);
  (* overhead bands: paper 16% and 23%; our calibrated substrate lands at
     12-13% and 20% (the residual is the paper's run-to-run SQL noise) *)
  Alcotest.(check bool) "AR overhead in [8%,20%]" true
    (overhead "AR" > 8. && overhead "AR" < 20.);
  Alcotest.(check bool) "2PC overhead in [15%,28%]" true
    (overhead "2PC" > 15. && overhead "2PC" < 28.);
  Alcotest.(check bool) "2PC costs more than AR" true
    (overhead "2PC" > overhead "AR")

let test_fig8_ci_methodology () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (str p "protocol" ^ " ci90/mean < 10% (paper methodology)")
        true
        (num p "ci90_ratio" < 0.10))
    (fig8_rows ())

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

let test_fig8_rendering () =
  let s = Stats.Table.text (Lazy.force fig8) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("table mentions " ^ needle) true
        (contains s needle))
    [ "SQL"; "prepare"; "log-start"; "cost of reliability"; "total" ]

(* The Figure 8 column read off a hand-built registry: two transactions,
   each phase span and XA histogram with known durations, plus a span a
   crash left open (it must add nothing). *)
let fig8_test_registry () =
  let reg = Obs.Registry.create () in
  let span ?(node = "a1") name at d =
    let id = Obs.Registry.span_open reg ~node ~at ~trace:1 name in
    Obs.Registry.span_close reg ~at:(at +. d) id
  in
  List.iter
    (fun (name, ds) -> List.iter (fun d -> span name 0. d) ds)
    [
      ("election", [ 3.; 5. ]);
      ("prepare", [ 10.; 20. ]);
      ("consensus", [ 4. ]);
      ("terminate", [ 8.; 8. ]);
      ("log-start", [ 12.; 14. ]);
      ("commit", [ 1. ]);
    ];
  span ~node:"a2" "terminate" 0. 2.;
  ignore (Obs.Registry.span_open reg ~node:"a1" ~at:5. ~trace:2 "prepare");
  List.iter
    (fun (name, vs) ->
      List.iter (fun v -> Obs.Registry.observe reg ~node:"a1" ~name v) vs)
    [
      ("xa.start_ms", [ 1.; 3. ]);
      ("xa.exec_ms", [ 100.; 200. ]);
      ("xa.end_ms", [ 2.; 2. ]);
    ];
  Obs.Registry.observe reg ~node:"a2" ~name:"xa.exec_ms" 6.;
  reg

let test_fig8_column_from_registry () =
  let reg = fig8_test_registry () in
  let latencies = [ 190.; 200.; 210. ] in
  let ar =
    Experiments.fig8_column ~protocol:"AR" ~ar:true ~transactions:2
      ~baseline:200. reg ~latencies
  in
  (* the seven rows between the protocol and [other] *)
  let components column =
    let row = Stats.Table.fields column in
    List.map
      (fun (k, _) -> (k, num row k))
      (List.filteri (fun i _ -> i >= 1 && i <= 7) row)
  in
  let expect =
    [
      ("start", 2.); ("end", 2.); ("commit", 9.); ("prepare", 15.);
      ("SQL", 153.); ("log-start", 4.); ("log-outcome", 2.);
    ]
  in
  Alcotest.(check (list (pair string (float 1e-9)))) "AR rows" expect
    (components ar);
  let ar_row = Stats.Table.fields ar in
  Alcotest.(check (float 1e-9)) "AR other" 13. (num ar_row "other");
  Alcotest.(check (float 1e-9)) "AR total" 200. (num ar_row "total");
  let cmp =
    Experiments.fig8_column ~protocol:"2PC" ~ar:false ~transactions:2
      ~baseline:200. reg ~latencies
  in
  Alcotest.(check (list (pair string (float 1e-9))))
    "rows named after themselves"
    [
      ("start", 2.); ("end", 2.); ("commit", 0.5); ("prepare", 15.);
      ("SQL", 153.); ("log-start", 13.); ("log-outcome", 0.);
    ]
    (components cmp);
  Alcotest.(check string) "rendered"
    "Figure 8 — latency components over 2 identical transactions (ms)\n\
    \                        AR    2PC\n\
     -------------------  -----  -----\n\
     start                  2.0    2.0\n\
     end                    2.0    2.0\n\
     commit                 9.0    0.5\n\
     prepare               15.0   15.0\n\
     SQL                  153.0  153.0\n\
     log-start              4.0   13.0\n\
     log-outcome            2.0    0.0\n\
     other                 13.0   14.5\n\
     total                200.0  200.0\n\
     cost of reliability    +0%    +0%\n\
     ci90/mean             9.5%   9.5%"
    (Stats.Table.text (Experiments.fig8_table ~transactions:2 [ ar; cmp ]))

(* Attaching the registry must not move the AR trial's schedule. *)
let test_fig8_ar_obs_invisible () =
  let records obs =
    Experiments.fig8_ar_records ~obs ~transactions:5 ~seed:42
  in
  let plain = records None in
  Alcotest.(check int) "five records" 5 (List.length plain);
  Alcotest.(check bool) "identical client records" true
    (plain = records (Some (Obs.Registry.create ())))

(* ------------------------------------------------------------------ *)

let fig7 = lazy (Experiments.figure7 ())

(* the row of the protocol whose name starts with [name] *)
let fig7_find name = find_protocol (rows (Lazy.force fig7)) name

let test_fig7_parallel_determinism () =
  (* the tentpole guarantee: mapping the trial list over 4 domains renders
     byte-for-byte the same table as the sequential run *)
  let seq = Stats.Table.text (Experiments.figure7 ~domains:1 ()) in
  let par = Stats.Table.text (Experiments.figure7 ~domains:4 ()) in
  Alcotest.(check string) "4-domain table byte-identical to 1-domain" seq par

let test_fig1_parallel_determinism () =
  let seq = Stats.Table.text (Experiments.figure1 ~domains:1 ()) in
  let par = Stats.Table.text (Experiments.figure1 ~domains:4 ()) in
  Alcotest.(check string) "4-domain table byte-identical to 1-domain" seq par

let test_fig7_message_ordering () =
  let app p = int (fig7_find p) "app_messages" in
  Alcotest.(check bool) "baseline fewest app msgs" true
    (app "baseline" < app "2PC" && app "baseline" < app "primary-backup");
  Alcotest.(check bool) "AR app msgs = 2PC app msgs (same commit traffic)"
    true
    (app "AR" = app "2PC");
  Alcotest.(check bool) "PB extra backup round trips" true
    (app "primary-backup" > app "2PC");
  Alcotest.(check bool) "AR replication costs extra substrate msgs" true
    (int (fig7_find "AR") "all_messages" > app "AR")

let test_fig7_steps_ordering () =
  (* the paper's analytic claim: AR has the same number of communication
     steps as primary-backup, more than 2PC, more than baseline *)
  let steps p = int (fig7_find p) "steps" in
  Alcotest.(check bool) "baseline ≤ 2PC" true (steps "baseline" <= steps "2PC");
  Alcotest.(check bool) "2PC < PB" true (steps "2PC" < steps "primary-backup");
  Alcotest.(check int) "AR = PB (the paper's claim)" (steps "primary-backup")
    (steps "AR")

let test_fig7_forced_ios () =
  let forced p = int (fig7_find p) "forced_ios" in
  Alcotest.(check int) "2PC: two eager IOs" 2 (forced "2PC");
  Alcotest.(check int) "AR: none" 0 (forced "AR");
  Alcotest.(check int) "baseline: none" 0 (forced "baseline")

(* ------------------------------------------------------------------ *)
(* byte-identity: the text sections were captured before the
   classed-demux and indexed-outbox rework, the CSV and Figure 1 sections
   before the tables were declared as cells; same seeds must print the
   same bytes *)

let find_sub haystack needle from =
  let n = String.length needle in
  let rec scan i =
    if i + n > String.length haystack then
      Alcotest.failf "marker %s missing from figures.golden" needle
    else if String.sub haystack i n = needle then i
    else scan (i + 1)
  in
  scan from

(* the file's sections, in order, each under a [===NAME===] line *)
let golden_names = [ "FIG7"; "FIG8"; "FIG7CSV"; "FIG8CSV"; "FIG1"; "FIG1CSV" ]

let golden_figures =
  lazy
    (let ic = open_in "figures.golden" in
     let s = really_input_string ic (in_channel_length ic) in
     close_in ic;
     let bounds =
       List.map
         (fun name ->
           let m = "===" ^ name ^ "===\n" in
           let i = find_sub s m 0 in
           (name, i, i + String.length m))
         golden_names
     in
     List.mapi
       (fun k (name, _, body) ->
         let stop =
           match List.nth_opt bounds (k + 1) with
           | Some (_, i, _) -> i
           | None -> String.length s
         in
         (name, String.sub s body (stop - body)))
       bounds)

let golden name = List.assoc name (Lazy.force golden_figures)
let csv t = Artefact.csv (rows t)
let fig8_3 = lazy (Experiments.figure8 ~transactions:3 ())
let fig1 = lazy (Experiments.figure1 ())

let test_fig7_golden_identity () =
  Alcotest.(check string) "figure7 byte-identical to pre-demux render"
    (golden "FIG7")
    (Stats.Table.text (Lazy.force fig7))

let test_fig8_golden_identity () =
  Alcotest.(check string) "figure8 byte-identical to pre-demux render"
    (golden "FIG8")
    (Stats.Table.text (Lazy.force fig8_3))

let test_golden_csv name table () =
  Alcotest.(check string)
    (name ^ " CSV byte-identical to the golden")
    (golden name)
    (csv (Lazy.force table))

let test_fig1_golden_identity () =
  Alcotest.(check string) "figure1 byte-identical to the golden"
    (golden "FIG1")
    (Stats.Table.text (Lazy.force fig1))

(* ------------------------------------------------------------------ *)

let test_fig1_scenarios () =
  let scenarios = rows (Lazy.force fig1) in
  Alcotest.(check int) "four scenarios" 4 (List.length scenarios);
  List.iter
    (fun s ->
      let label = str s "scenario" in
      Alcotest.(check bool) (label ^ " delivered") true
        (Artefact.flag s "delivered");
      Alcotest.(check int) (label ^ " violations") 0 (int s "violations"))
    scenarios;
  let tries i = int (List.nth scenarios i) "tries" in
  let cleaner i = str (List.nth scenarios i) "cleaner" in
  Alcotest.(check int) "(a) single try" 1 (tries 0);
  Alcotest.(check int) "(b) abort then commit" 2 (tries 1);
  Alcotest.(check int) "(c) original result survives" 1 (tries 2);
  Alcotest.(check string) "(c) cleaner finished the commit" "commit"
    (cleaner 2);
  Alcotest.(check int) "(d) fail-over retry" 2 (tries 3);
  Alcotest.(check string) "(d) cleaner aborted" "abort" (cleaner 3)

let test_ablation_backoff_monotonic_failover () =
  let rows = rows (Experiments.backoff_sweep ~periods:[ 100.; 400.; 1600. ] ()) in
  match List.map (fun r -> (num r "nice_ms", num r "failover_ms")) rows with
  | [ (n1, f1); (n2, f2); (n3, f3) ] ->
      Alcotest.(check bool) "nice latency flat" true
        (Float.abs (n1 -. n3) < 10.);
      Alcotest.(check bool) "failover latency grows with back-off" true
        (f1 < f2 && f2 < f3);
      Alcotest.(check bool) "nice < failover" true (n2 < f2)
  | _ -> Alcotest.fail "expected three rows"

let test_ablation_loss_monotonic () =
  let rows = rows (Experiments.loss_sweep ~rates:[ 0.; 0.3 ] ()) in
  match
    List.map (fun r -> (num r "latency_ms", num r "msgs_per_request")) rows
  with
  | [ (lat0, msgs0); (lat3, msgs3) ] ->
      Alcotest.(check bool) "loss costs latency" true (lat3 > lat0);
      Alcotest.(check bool) "loss costs messages" true (msgs3 > msgs0)
  | _ -> Alcotest.fail "expected two rows"

let test_ablation_persistence_ordering () =
  (* the design point: persistent registers push AR past 2PC *)
  match
    List.map
      (fun r -> num r "latency_ms")
      (rows (Experiments.persistence_ablation ~transactions:5 ()))
  with
  | [ diskless; persistent; tpc ] ->
      Alcotest.(check bool) "diskless < 2PC" true (diskless < tpc);
      Alcotest.(check bool) "persistent > 2PC" true (persistent > tpc)
  | _ -> Alcotest.fail "expected three configurations"

let test_ablation_consensus_failover_monotone () =
  (* with a useless detector, the round timeout is the fail-over latency *)
  match
    List.map
      (fun r -> num r "latency_ms")
      (rows (Experiments.consensus_failover_sweep ~round_timeouts:[ 25.; 200. ] ()))
  with
  | [ fast; slow ] ->
      Alcotest.(check bool) "latency tracks the round timeout" true
        (fast < 60. && slow > 200. && fast < slow)
  | _ -> Alcotest.fail "expected two rows"

let test_ablation_throughput_contention () =
  match
    List.map
      (fun r -> (num r "contended_tx_per_s", num r "disjoint_tx_per_s"))
      (rows (Experiments.throughput_sweep ~clients:[ 1; 4 ] ~requests_per_client:3 ()))
  with
  | [ (hot1, cold1); (hot4, cold4) ] ->
      Alcotest.(check bool) "single client: contention irrelevant" true
        (Float.abs (hot1 -. cold1) < 0.5);
      Alcotest.(check bool) "disjoint accounts scale better" true
        (cold4 > hot4);
      Alcotest.(check bool) "disjoint beats single client" true
        (cold4 > cold1)
  | _ -> Alcotest.fail "expected two rows"

let test_ablation_fd_quality () =
  (* the sweep itself asserts the spec in every configuration; here we
     check the performance shape: an aggressive timeout causes spurious
     cleanings and retries, a generous one does not *)
  match
    List.map
      (fun r -> (int r "spurious_cleanings", int r "extra_tries"))
      (rows (Experiments.fd_quality_sweep ~requests:5 ~timeouts:[ 15.; 200. ] ()))
  with
  | [ (aggressive_cleanings, aggressive_tries); (calm_cleanings, calm_tries) ] ->
      Alcotest.(check bool) "aggressive timeout misfires" true
        (aggressive_cleanings > 0);
      Alcotest.(check bool) "retries follow" true (aggressive_tries > 0);
      Alcotest.(check int) "calm timeout: no cleanings" 0 calm_cleanings;
      Alcotest.(check int) "calm timeout: no retries" 0 calm_tries
  | _ -> Alcotest.fail "expected two rows"

let test_ablation_dbs_flat () =
  let rows = rows (Experiments.db_sweep ~counts:[ 1; 4 ] ()) in
  match
    List.map
      (fun r -> (num r "baseline_ms", num r "ar_ms", num r "tpc_ms"))
      rows
  with
  | [ (b1, a1, t1); (b4, a4, t4) ] ->
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
        Rt.sleep 1_000.)
  in
  let _ =
    Dsim.Engine.spawn t ~name:"tx" ~main:(fun ~recovery:_ () ->
        let ch = Dnet.Rchannel.create () in
        Dnet.Rchannel.start ch;
        Dnet.Rchannel.send ch rx (Etx.Etx_types.Request_msg
           { request = { rid = 1; key = "x"; body = "x" }; j = 1; group = 0; span = 0 });
        Rt.sleep 1_000.)
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

let test_seqdiag_batched_window () =
  let e, d =
    Harness.Simrun.cluster ~shards:1 ~batch:4 ~business:Etx.Business.trivial
      ~scripts:
        (List.init 4 (fun i ~issue -> ignore (issue (string_of_int i))))
      ()
  in
  ignore (Cluster.run_to_quiescence d);
  let diagram = Seqdiag.of_engine e in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("diagram shows " ^ needle) true
        (contains diagram needle))
    [ "XaStart("; "Prepare("; "Vote("; "Decide("; "Result(" ]

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

let read_golden name =
  let ic = open_in_bin (Paths.golden_file "paths" name) in
  let golden = really_input_string ic (in_channel_length ic) in
  close_in ic;
  golden

let test_path_golden name build () =
  Alcotest.(check string)
    (Paths.golden_file "paths" name ^ " byte-identical")
    (read_golden name) (Paths.render build)

(* Each try's business logic runs once per path: a [computed:<rid>:<j>:]
   note seen twice in a golden is a try that ran in two windows. *)
let test_goldens_compute_once () =
  let computed line =
    match String.split_on_char ' ' line with
    | "note" :: _ :: note :: _ -> (
        match String.split_on_char ':' note with
        | "computed" :: rid :: j :: _ -> Some (rid ^ ":" ^ j)
        | _ -> None)
    | _ -> None
  in
  List.iter
    (fun (name, _) ->
      let tries =
        List.filter_map computed
          (String.split_on_char '\n' (read_golden name))
      in
      let repeats =
        List.filter
          (fun t -> List.length (List.filter (String.equal t) tries) > 1)
          (List.sort_uniq compare tries)
      in
      Alcotest.(check (list string))
        (name ^ ": tries computed twice") [] repeats)
    Paths.paths

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
          Paths.paths
        @ [
            Alcotest.test_case "each try computed once" `Quick
              test_goldens_compute_once;
          ] );
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
          Alcotest.test_case "golden CSV" `Quick
            (test_golden_csv "FIG8CSV" fig8_3);
          Alcotest.test_case "column from a hand-built registry" `Quick
            test_fig8_column_from_registry;
          Alcotest.test_case "AR records identical with obs" `Quick
            test_fig8_ar_obs_invisible;
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
          Alcotest.test_case "golden CSV" `Quick
            (test_golden_csv "FIG7CSV" fig7);
        ] );
      ( "figure1",
        [
          Alcotest.test_case "four executions" `Quick test_fig1_scenarios;
          Alcotest.test_case "parallel determinism" `Quick
            test_fig1_parallel_determinism;
          Alcotest.test_case "golden byte-identity" `Quick
            test_fig1_golden_identity;
          Alcotest.test_case "golden CSV" `Quick
            (test_golden_csv "FIG1CSV" fig1);
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
          Alcotest.test_case "batched window" `Quick
            test_seqdiag_batched_window;
        ] );
    ]
