(* Tests for the statistics library: summaries, confidence intervals,
   table rendering, JSON. *)

let close = Alcotest.(check (float 1e-6))

let test_mean_stddev () =
  close "mean" 3. (Stats.Summary.mean [ 1.; 2.; 3.; 4.; 5. ]);
  close "stddev" (sqrt 2.5) (Stats.Summary.stddev [ 1.; 2.; 3.; 4.; 5. ]);
  close "stddev singleton" 0. (Stats.Summary.stddev [ 7. ])

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  close "p50" 50. (Stats.Summary.percentile xs 50.);
  close "p95" 95. (Stats.Summary.percentile xs 95.);
  close "p99" 99. (Stats.Summary.percentile xs 99.);
  close "p100 = max" 100. (Stats.Summary.percentile xs 100.);
  close "p0 = min" 1. (Stats.Summary.percentile xs 0.)

let test_of_samples () =
  let s = Stats.Summary.of_samples [ 10.; 12.; 14.; 16.; 18. ] in
  Alcotest.(check int) "n" 5 s.n;
  close "mean" 14. s.mean;
  close "min" 10. s.min;
  close "max" 18. s.max;
  Alcotest.(check bool) "ci brackets mean" true
    (s.ci90_low < s.mean && s.mean < s.ci90_high)

let test_ci_width_shrinks_with_n () =
  let narrow = Stats.Summary.of_samples (List.init 400 (fun i -> 100. +. float_of_int (i mod 10))) in
  let wide = Stats.Summary.of_samples (List.init 4 (fun i -> 100. +. float_of_int (i mod 10) *. 1.0)) in
  Alcotest.(check bool) "more samples, tighter CI" true
    (Stats.Summary.ci90_width_ratio narrow < Stats.Summary.ci90_width_ratio wide)

let test_of_samples_empty_raises () =
  Alcotest.check_raises "empty" (Invalid_argument "Summary.of_samples: empty")
    (fun () -> ignore (Stats.Summary.of_samples []))

let prop_percentile_bounded =
  QCheck.Test.make ~name:"percentile within min/max" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 50) (float_range 0. 1000.)) (float_range 0. 100.))
    (fun (xs, p) ->
      let v = Stats.Summary.percentile xs p in
      let lo = List.fold_left Float.min infinity xs in
      let hi = List.fold_left Float.max neg_infinity xs in
      lo <= v && v <= hi)

let prop_mean_bounded =
  QCheck.Test.make ~name:"mean within min/max" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range 0. 1000.))
    (fun xs ->
      let m = Stats.Summary.mean xs in
      let lo = List.fold_left Float.min infinity xs in
      let hi = List.fold_left Float.max neg_infinity xs in
      lo -. 1e-9 <= m && m <= hi +. 1e-9)

let test_table_render () =
  let s =
    Stats.Table.render ~headers:[ "name"; "v" ]
      ~rows:[ [ "alpha"; "1.0" ]; [ "b"; "22.5" ] ]
  in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "4 lines" 4 (List.length lines);
  (* all lines share the same width *)
  (match lines with
  | first :: rest ->
      List.iter
        (fun l ->
          Alcotest.(check int) "aligned" (String.length first) (String.length l))
        rest
  | [] -> Alcotest.fail "no output");
  Alcotest.(check bool) "contains row" true
    (List.exists (fun l -> String.length l > 0 && l.[0] = 'a') lines)

let test_fmt () =
  Alcotest.(check string) "ms" "216.4" (Stats.Table.fmt_ms 216.44);
  Alcotest.(check string) "pct+" "+16%" (Stats.Table.fmt_pct 16.1);
  Alcotest.(check string) "pct0" "+0%" (Stats.Table.fmt_pct 0.)

(* ------------------------------------------------------------------ *)
(* JSON emitter: the bench and live-smoke artefacts round-trip exactly. *)

let json = Alcotest.testable (Fmt.of_to_string Stats.Json.to_string) ( = )

let roundtrip name v =
  match Stats.Json.of_string (Stats.Json.to_string v) with
  | Ok v' -> Alcotest.check json name v v'
  | Error e -> Alcotest.failf "%s: parse error: %s" name e

let test_json_roundtrip () =
  let open Stats.Json in
  (* one value exercising every constructor, string escapes included *)
  roundtrip "kitchen sink"
    (Obj
       [
         ("schema", String "etx-bench-harness/4");
         ("null", Null);
         ("flags", List [ Bool true; Bool false ]);
         ("counts", List [ Int 0; Int (-3); Int 123_456_789 ]);
         ("escaped", String "a\"b\\c\nd\te\r\x01 é");
         ("empty_obj", Obj []);
         ("empty_list", List []);
         ("nested", Obj [ ("rows", List [ Obj [ ("x", Int 1) ] ]) ]);
       ]);
  (* floats print shortest-round-trip, so equality is exact *)
  List.iter
    (fun f -> roundtrip (string_of_float f) (Float f))
    [ 0.; 1.5; -2.25; 1916.8658909465159; 1.0e22; 4.94e-324 ]

let test_json_rendering () =
  let open Stats.Json in
  Alcotest.(check string) "compact atoms" "[null,true,-2,\"x\"]"
    (to_string ~indent:0 (List [ Null; Bool true; Int (-2); String "x" ]));
  Alcotest.(check string) "escapes" "\"a\\\"b\\\\c\\n\\u0001\""
    (to_string ~indent:0 (String "a\"b\\c\n\x01"));
  Alcotest.(check string) "whole floats keep a decimal point" "2.0"
    (to_string (Float 2.));
  Alcotest.(check string) "nan is null" "null" (to_string (Float Float.nan))

let test_json_member () =
  let open Stats.Json in
  let doc = Obj [ ("a", Int 1); ("b", Obj [ ("c", Bool true) ]) ] in
  Alcotest.(check bool) "present" true (member "a" doc = Some (Int 1));
  Alcotest.(check bool) "missing" true (member "z" doc = None);
  Alcotest.(check bool) "non-object" true (member "a" (Int 3) = None)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "stats"
    [
      ( "summary",
        [
          Alcotest.test_case "mean/stddev" `Quick test_mean_stddev;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "of_samples" `Quick test_of_samples;
          Alcotest.test_case "ci width vs n" `Quick test_ci_width_shrinks_with_n;
          Alcotest.test_case "empty raises" `Quick test_of_samples_empty_raises;
          q prop_percentile_bounded;
          q prop_mean_bounded;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "formatting" `Quick test_fmt;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "rendering" `Quick test_json_rendering;
          Alcotest.test_case "member" `Quick test_json_member;
        ] );
    ]
