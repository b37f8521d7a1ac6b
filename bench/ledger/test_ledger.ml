open Ledger_core

let schedule_tests =
  let open Alcotest in
  [
    test_case "same seed, same schedule; another seed, another" `Quick
      (fun () ->
        let a = Openloop.schedule ~seed:7 ~rate:5. ~n:1_000 ~start:0. in
        let b = Openloop.schedule ~seed:7 ~rate:5. ~n:1_000 ~start:0. in
        let c = Openloop.schedule ~seed:8 ~rate:5. ~n:1_000 ~start:0. in
        check bool "identical" true (a = b);
        check bool "differs" false (a = c);
        check bool "ascending" true
          (Array.for_all Fun.id
             (Array.init 999 (fun i -> a.(i) < a.(i + 1)))));
    test_case "mean rate at n = 10k" `Quick (fun () ->
        (* one 10k schedule's rate has a 1% standard error, so a 2% band
           is missed by about one seed in twenty (seed 1 is one): each of
           20 schedules must land within 4%, and all of them pooled within
           0.5% *)
        let start = 1_000. and rate = 6. in
        let spans =
          List.init 20 (fun seed ->
              let due = Openloop.schedule ~seed ~rate ~n:10_000 ~start in
              let span = due.(9_999) -. start in
              let measured = 10_000. /. (span /. 1_000.) in
              check bool
                (Printf.sprintf "seed %d measured %g" seed measured)
                true
                (Float.abs (measured -. rate) /. rate < 0.04);
              span)
        in
        let pooled = 200_000. /. (List.fold_left ( +. ) 0. spans /. 1_000.) in
        check bool
          (Printf.sprintf "pooled %g" pooled)
          true
          (Float.abs (pooled -. rate) /. rate < 0.005));
    test_case "scaling a unit-rate schedule is the schedule at that rate"
      `Quick (fun () ->
        let unit_ = Openloop.schedule ~seed:3 ~rate:1. ~n:100 ~start:0. in
        let at4 = Openloop.schedule ~seed:3 ~rate:4. ~n:100 ~start:0. in
        Array.iteri
          (fun i u ->
            check (float 1e-9) (string_of_int i) at4.(i) (u /. 4.))
          unit_);
  ]

let percentile_tests =
  let open Alcotest in
  let one_to n = List.init n (fun i -> float_of_int (i + 1)) in
  [
    test_case "nearest rank" `Quick (fun () ->
        let p = Stats.Summary.percentile (one_to 100) in
        check (float 0.) "p50" 50. (p 50.);
        check (float 0.) "p99" 99. (p 99.);
        check (float 0.) "p100" 100. (p 100.));
    test_case "samples beyond the p99" `Quick (fun () ->
        check int "1000 -> 10" 10 (Openloop.beyond 1_000 99.);
        check int "999 -> 9" 9 (Openloop.beyond 999 99.);
        check int "10000 -> 100" 100 (Openloop.beyond 10_000 99.);
        check int "p50 of 10" 5 (Openloop.beyond 10 50.);
        check int "one sample" 0 (Openloop.beyond 1 99.);
        check int "empty" 0 (Openloop.beyond 0 99.));
    test_case "undelivered arrivals drop out of the population" `Quick
      (fun () ->
        check (list (float 0.)) "finite" [ 3.; 1.; 2. ]
          (Openloop.finite [| 3.; Float.nan; 1.; 2.; Float.nan |]));
  ]

let capacity_tests =
  let open Alcotest in
  let rates probes = List.map (fun (p : Openloop.probe) -> p.rate) probes in
  [
    test_case "monotone oracle: ladder then three bisections" `Quick
      (fun () ->
        let cap, probes = Openloop.capacity ~r0:6. (fun r -> r < 10.) in
        (* 6 * 1.1^6 = 10.63 is the first failing rung *)
        check int "7 rungs + 3 bisections" 10 (List.length probes);
        check (float 1e-9) "first rung" 6. (List.hd (rates probes));
        check bool "below the threshold" true (cap < 10.);
        check bool "within one bisection step of it" true
          (cap > 10. /. (1.1 ** (1. /. 8.))));
    test_case "non-monotone oracle stops at the first failing rung" `Quick
      (fun () ->
        (* passes again above 9: the search must not look there *)
        let oracle r = r < 8. || (r >= 9. && r < 20.) in
        let cap, probes = Openloop.capacity ~r0:6. oracle in
        check bool "knee below the first failure" true (cap < 8. && cap > 7.);
        check bool "nothing probed past the first failing rung" true
          (List.for_all
             (fun r -> r <= (6. *. (1.1 ** 4.)) +. 1e-9)
             (rates probes)));
    test_case "failing first rung descends" `Quick (fun () ->
        let cap, probes = Openloop.capacity ~r0:6. (fun r -> r < 5.) in
        check bool "descended" true (List.nth (rates probes) 1 < 6.);
        check bool "below 5, within a rung" true (cap < 5. && cap > 5. /. 1.1));
    test_case "nothing passes" `Quick (fun () ->
        let cap, probes =
          Openloop.capacity ~max_rungs:5 ~r0:6. (fun _ -> false)
        in
        check (float 0.) "zero" 0. cap;
        check int "r0 plus five rungs down" 6 (List.length probes));
    test_case "one rung" `Quick (fun () ->
        let cap, probes =
          Openloop.capacity ~max_rungs:0 ~r0:6. (fun _ -> true)
        in
        check (float 0.) "r0" 6. cap;
        check int "one probe" 1 (List.length probes));
  ]

let guard_tests =
  let open Alcotest in
  let due = Array.init 100 float_of_int in
  let never _ = Float.nan in
  let guard ?(budget = 1_000_000) () =
    Openloop.guard ~due ~limit:10. ~abort_frac:0.01 ~budget
  in
  [
    test_case "early abort past 1% overdue" `Quick (fun () ->
        let g = guard () in
        let v = Openloop.check g ~now:11.5 ~events:0 ~delivered:never in
        (* arrivals 0 and 1 are past their deadline: one may be, two not *)
        check int "overdue" 2 (Openloop.overdue g);
        check bool "aborts" true (v = Openloop.Overdue));
    test_case "on-time deliveries keep running" `Quick (fun () ->
        let g = guard () in
        let on_time i = due.(i) +. 5. in
        let v = Openloop.check g ~now:200. ~events:0 ~delivered:on_time in
        check int "none overdue" 0 (Openloop.overdue g);
        check bool "running" true (v = Openloop.Running));
    test_case "late deliveries count as overdue" `Quick (fun () ->
        let g = guard () in
        let late i = if i < 2 then due.(i) +. 11. else due.(i) +. 1. in
        ignore (Openloop.check g ~now:200. ~events:0 ~delivered:late);
        check int "two late" 2 (Openloop.overdue g));
    test_case "event budget" `Quick (fun () ->
        let g = guard ~budget:500 () in
        let at events = Openloop.check g ~now:0. ~events ~delivered:never in
        check bool "under" true (at 499 = Openloop.Running);
        check bool "exhausted" true (at 500 = Openloop.Budget));
    test_case "fail_frac counts undelivered arrivals" `Quick (fun () ->
        check (float 1e-12) "2 of 5" 0.4
          (Openloop.fail_frac [| 1.; Float.nan; 2.; Float.nan; 3. |]);
        check (float 0.) "none" 0. (Openloop.fail_frac [| 1.; 2. |]));
  ]

(* The same rules wired into a simulated run. *)
let run_tests =
  let open Alcotest in
  let classic = Option.get (Workloads.find "classic") in
  let run ?early_abort w ~rate ~n =
    let inp = Drive.inputs w ~seed:1 ~n in
    Drive.run ?early_abort w inp ~seed:1 ~rate
  in
  [
    test_case "overload stops early" `Quick (fun () ->
        let r = run ~early_abort:true classic ~rate:100. ~n:400 in
        check bool "overdue" true (r.verdict = Openloop.Overdue);
        check bool "stopped before delivering everything" true
          (Drive.delivered_count r < 400));
    test_case "any other run delivers what it can" `Quick (fun () ->
        let r = run classic ~rate:100. ~n:400 in
        check bool "running" true (r.verdict = Openloop.Running);
        check int "every arrival delivered" 400 (Drive.delivered_count r));
    test_case "a light run delivers everything" `Quick (fun () ->
        let r = run classic ~rate:2. ~n:50 in
        check bool "running" true (r.verdict = Openloop.Running);
        check (float 0.) "fail_frac" 0. (Openloop.fail_frac r.delivered));
  ]

(* BENCHMARK.json names exactly the metrics the program reports. *)
let contract_tests =
  let open Alcotest in
  let field key item =
    match Stats.Json.member key item with
    | Some (Stats.Json.String s) -> s
    | _ -> failwith ("BENCHMARK.json entry without " ^ key)
  in
  let entries key =
    let ic = open_in "../../BENCHMARK.json" in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Stats.Json.of_string text with
    | Error e -> failwith e
    | Ok j -> (
        match Stats.Json.member key j with
        | Some (Stats.Json.List items) -> items
        | _ -> failwith ("BENCHMARK.json lacks " ^ key))
  in
  let names key = List.map (field "name") (entries key) in
  [
    test_case "end-to-end metrics" `Quick (fun () ->
        check (list string) "end_to_end" Measure.contract_e2e
          (names "end_to_end"));
    test_case "per-layer metrics" `Quick (fun () ->
        let r =
          Measure.measure ~scale:Smoke ~seed:1 ~seconds:0. ~e2e:false
            ~layers:true
            (Option.get (Workloads.find "classic"))
        in
        check (list string) "per_layer"
          (List.map (fun (m : Measure.metric) -> m.name) r.layers)
          (names "per_layer"));
    test_case "workloads and why each exists" `Quick (fun () ->
        check
          (list (pair string string))
          "workloads"
          (List.map (fun (w : Workloads.t) -> (w.name, w.why)) Workloads.all)
          (List.map
             (fun e -> (field "name" e, field "why" e))
             (entries "workloads")));
  ]

let () =
  Alcotest.run "ledger"
    [
      ("schedule", schedule_tests);
      ("percentile", percentile_tests);
      ("capacity", capacity_tests);
      ("stop-rules", guard_tests);
      ("runs", run_tests);
      ("contract", contract_tests);
    ]
