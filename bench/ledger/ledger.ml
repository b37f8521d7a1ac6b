(* The layer ledger: the repo's benchmark.

   Drives each workload open-loop on the simulator, prints every metric as
   "workload metric value unit n=<samples>", and checks correctness. See
   README.md in this directory for the workloads, the metrics and how a
   change cites them. *)

open Ledger_core

let usage =
  "ledger.exe [--seed N] [--workload NAME]... [--trace [0|1]] [--json FILE] \
   [--seconds S] [--smoke]"

type opts = {
  mutable seed : int;
  mutable workloads : string list;
  mutable trace : bool;
  mutable json : string option;
  mutable seconds : float option;
  mutable smoke : bool;
}

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("ledger: " ^ s);
      prerr_endline ("usage: " ^ usage);
      exit 2)
    fmt

let parse argv =
  let o =
    {
      seed = 1;
      workloads = [];
      trace = false;
      json = None;
      seconds = None;
      smoke = false;
    }
  in
  let rec go = function
    | [] -> ()
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n -> o.seed <- n
        | None -> die "--seed wants an integer");
        go rest
    | "--workload" :: v :: rest ->
        List.iter
          (fun name ->
            if Workloads.find name = None then die "unknown workload %S" name;
            o.workloads <- o.workloads @ [ name ])
          (String.split_on_char ',' v);
        go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        o.trace <- v = "1";
        go rest
    | "--trace" :: rest ->
        o.trace <- true;
        go rest
    | "--json" :: v :: rest ->
        o.json <- Some v;
        go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s >= 0. -> o.seconds <- Some s
        | _ -> die "--seconds wants a non-negative number");
        go rest
    | "--smoke" :: rest ->
        o.smoke <- true;
        go rest
    | ("-help" | "--help") :: _ ->
        print_endline usage;
        exit 0
    | arg :: _ -> die "unexpected argument %S" arg
  in
  go (List.tl (Array.to_list argv));
  o

let print_metric name (m : Measure.metric) =
  Printf.printf "%s %s %.6g %s n=%d\n" name m.name m.value m.unit_ m.n

let json_metric (m : Measure.metric) =
  Stats.Json.Obj
    [
      ("name", String m.name);
      ("value", Float m.value);
      ("unit", String m.unit_);
      ("n", Int m.n);
    ]

let json_result (r : Measure.result) =
  let w = r.w in
  let failover =
    match w.failover with
    | None -> []
    | Some f ->
        [
          ("trials", Stats.Json.Int f.trials);
          ("per_trial", Int (Workloads.per_trial w f));
        ]
  in
  Stats.Json.Obj
    [
      ("name", String w.name);
      ( "constants",
        Obj
          ([
             ("ref_rate", Stats.Json.Float w.ref_rate);
             ("n_ref", Int w.n_ref);
             ("limit_ms", Float w.limit_ms);
             ("r0", Float w.r0);
             ("searches", Int w.searches);
             ("probe_arrivals", Int (Measure.arrivals Full));
             ("events_per_arrival", Int Drive.events_per_arrival);
           ]
          @ failover) );
      ("offered", Int r.offered);
      ("issued", Int r.issued);
      ("undelivered", Int r.undelivered);
      ( "probes",
        List
          (List.map
             (fun (p : Openloop.probe) ->
               Stats.Json.Obj [ ("rate", Float p.rate); ("pass", Bool p.pass) ])
             r.probes) );
      ("metrics", List (List.map json_metric r.e2e));
      ("layers", List (List.map json_metric r.layers));
      ( "violations",
        List (List.map (fun v -> Stats.Json.String v) r.violations) );
    ]

(* The contract's last line: one JSON object with the named metrics. *)
let contract_line (r : Measure.result) names =
  let metrics = r.e2e @ r.layers in
  let fields =
    List.filter_map
      (fun name ->
        List.find_opt (fun (m : Measure.metric) -> m.name = name) metrics
        |> Option.map (fun (m : Measure.metric) ->
               ( name,
                 Stats.Json.Obj
                   [ ("value", Float m.value); ("unit", String m.unit_) ] )))
      names
  in
  Stats.Json.to_string ~indent:0
    (Obj
       [
         ( "correct",
           Bool (r.violations = [] && List.length fields = List.length names) );
         ("attempted", Int r.offered);
         ("failed", Int r.undelivered);
         ("metrics", Obj fields);
       ])

let () =
  let o = parse Sys.argv in
  let names =
    if o.workloads = [] then
      List.map (fun (w : Workloads.t) -> w.name) Workloads.all
    else o.workloads
  in
  let contract = o.seconds <> None in
  if contract && List.length names <> 1 then
    die "--seconds measures exactly one --workload";
  let scale = if o.smoke then Measure.Smoke else Full in
  let measure name =
    let w = Option.get (Workloads.find name) in
    let t0 = Unix.gettimeofday () in
    let r =
      Measure.measure ~scale ~seed:o.seed
        ~seconds:(Option.value o.seconds ~default:0.)
        ~e2e:(not (contract && o.trace))
        ~layers:(o.trace || o.smoke) w
    in
    (* the fixed work (reference run, capacity searches, check run, set-up
       timing between them) does not stop at --seconds; say when it
       overran *)
    Option.iter
      (fun s ->
        let took = Unix.gettimeofday () -. t0 in
        if took > s then
          Printf.eprintf "ledger: %s took %.1f s, more than --seconds %g\n"
            name took s)
      o.seconds;
    if not o.smoke then begin
      List.iter (print_metric name) (r.e2e @ r.layers);
      if r.layers <> [] && r.violations = [] then
        Printf.printf
          "%s traced rerun delivered every request at the same virtual time \
           as the timed run (%d arrivals)\n"
          name r.offered
    end;
    if r.violations <> [] then begin
      List.iter
        (fun v -> Printf.eprintf "ledger: %s (seed %d): %s\n" name o.seed v)
        r.violations;
      Printf.eprintf
        "ledger: reproduce with: dune exec bench/ledger/ledger.exe -- \
         --workload %s --seed %d%s%s\n"
        name o.seed
        (if o.trace then " --trace" else "")
        (if o.smoke then " --smoke" else "")
    end;
    flush stdout;
    r
  in
  let results = List.map measure names in
  Option.iter
    (fun file ->
      let oc = open_out file in
      Stats.Json.to_channel oc
        (Obj
           [
             ("schema", String "etx-ledger/1");
             ("seed", Int o.seed);
             ("host_cores", Int (Domain.recommended_domain_count ()));
             ("workloads", List (List.map json_result results));
           ]);
      close_out oc)
    o.json;
  let ok =
    List.for_all (fun (r : Measure.result) -> r.violations = []) results
  in
  if o.smoke && ok then
    Printf.printf "ledger smoke: %d workloads correct (seed %d)\n"
      (List.length results) o.seed;
  match results with
  | [ r ] when contract ->
      (* the contract reads correctness from this line, not the exit code *)
      print_endline
        (contract_line r
           (if o.trace then
              List.map (fun (m : Measure.metric) -> m.name) r.layers
            else Measure.contract_e2e))
  | _ -> if not ok then exit 1
