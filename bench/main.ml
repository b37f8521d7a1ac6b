(* Benchmark harness. Every figure and ablation it regenerates is an entry
   of the artefact table, Harness.Artefact (lib/harness/artefact.mli);
   [parallel], [live] and [micro] are bench-only. DESIGN.md gives the usage
   and the BENCH_harness.json schema. *)

module A = Harness.Artefact

let domains = ref 1
let host_cores = Domain.recommended_domain_count ()

(* the experiments' default seed *)
let seed = 42

(* (name, backend, obs mode, wall seconds, rows) of every artefact run,
   dumped to BENCH_harness.json on exit *)
let ledger : (string * string * string * float * A.row list) list ref = ref []

(* set by any failed check; the harness then exits 1 *)
let failed = ref false

let record ?(backend = "sim") ?(obs = "off") name wall_s rows =
  ledger := !ledger @ [ (name, backend, obs, wall_s, rows) ]

let report name =
  List.iter (fun m ->
      Printf.eprintf "%s: %s\n%!" name m;
      failed := true)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let section title body = Printf.printf "== %s ==\n%s\n\n%!" title body

let write_bench_json () =
  let open Stats.Json in
  let artefact (name, backend, obs, wall_s, rows) =
    Obj
      [
        ("name", String name);
        ("backend", String backend);
        ("obs", String obs);
        ("wall_s", Float wall_s);
        ("rows", List (List.map (fun r -> Obj r) rows));
      ]
  in
  let oc = open_out "BENCH_harness.json" in
  to_channel oc
    (Obj
       [
         ("schema", String "etx-bench-harness/11");
         ("domains", Int !domains);
         ("host_cores", Int host_cores);
         ("artefacts", List (List.map artefact !ledger));
       ]);
  close_out oc;
  Printf.printf
    "wrote BENCH_harness.json (%d artefacts, domains=%d, host_cores=%d)\n%!"
    (List.length !ledger) !domains host_cores

let run_entry ~domains (e : A.t) =
  let out, wall = timed (fun () -> e.run ~seed ~domains) in
  section e.title out.text;
  record ~obs:e.obs e.name wall out.rows;
  report e.name (e.check out.rows);
  (out, wall)

(* ------------------------------------------------------------------ *)
(* Parallel artefact: every entry whose text is host-independent, at 1
   domain and at N. The texts must be byte-identical and the rows must
   pass the entry's check. *)

let run_parallel () =
  let n =
    if !domains > 1 then !domains
    else min 4 (max 2 (Dsim.Pool.default_domains ()))
  in
  let compare (e : A.t) =
    let seq, t_seq = run_entry ~domains:1 e in
    let par, t_par = timed (fun () -> e.run ~seed ~domains:n) in
    if not (String.equal seq.text par.text) then
      report "parallel"
        [ Printf.sprintf "%s differs between 1 and %d domains" e.name n ];
    (e.name, t_seq, t_par)
  in
  let times =
    List.map compare (List.filter (fun (e : A.t) -> not e.host_timed) A.all)
  in
  record "parallel"
    (List.fold_left (fun acc (_, s, p) -> acc +. s +. p) 0. times)
    (List.map
       (fun (name, s, p) ->
         Stats.Json.
           [ ("artefact", String name); ("domains", Int n);
             ("seq_s", Float s); ("par_s", Float p) ])
       times);
  Printf.printf
    "== parallel harness: 1 domain vs %d domains (text compared byte for byte) ==\n"
    n;
  Printf.printf "  (%d cores recommended by this machine)\n"
    (Dsim.Pool.default_domains ());
  if host_cores <= 1 then
    Printf.printf
      "  note: single-core host — speedup not expected; domains time-slice \
       one core\n";
  List.iter
    (fun (name, s, p) ->
      Printf.printf "  %-18s  1-dom %6.2fs   %d-dom %6.2fs   speedup %.2fx\n"
        name s n p (s /. p))
    times;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Live artefact: bank-update clients on the wall-clock threads backend —
   one shard, two shards, and batch 4. Sleeps, disk forces and network
   delays cost real milliseconds, so the figure of merit is requests per
   wall-clock second. A row fails unless the cluster quiesced, every
   request was delivered and the specification holds. *)

let live_row ?map ?batch keys ~requests =
  let lt = Runtime_live.create ~seed:1 () in
  let scripts =
    List.map
      (fun key ~issue ->
        for _ = 1 to requests do
          ignore (issue (key ^ ":1"))
        done)
      keys
  in
  let c =
    Cluster.build ?map ?batch ~rt:(Runtime_live.runtime lt)
      ~seed_data:
        (Workload.Bank.seed_accounts (List.map (fun k -> (k, 1000)) keys))
      ~business:Workload.Bank.update ~scripts ()
  in
  let quiesced, wall =
    timed (fun () -> Cluster.run_to_quiescence ~deadline:120_000. c)
  in
  Runtime_live.shutdown lt;
  let shards = Option.fold ~none:1 ~some:Etx.Shard_map.shards map in
  let batch = Option.value ~default:1 batch in
  let total = List.length keys * requests in
  let delivered = List.length (Cluster.all_records c) in
  let violations = Cluster.Spec.check_all c in
  if not (quiesced && delivered = total && violations = []) then
    report "live"
      (Printf.sprintf
         "shards=%d batch=%d: quiesced %b, %d/%d delivered, %d violations"
         shards batch quiesced delivered total (List.length violations)
      :: violations);
  Stats.Json.
    [
      ("shards", Int shards);
      ("batch", Int batch);
      ("clients", Int (List.length keys));
      ("requests", Int total);
      ("delivered", Int delivered);
      ("quiesced", Bool quiesced);
      ("violations", Int (List.length violations));
      ("wall_s", Float wall);
      ("requests_per_sec", Float (float_of_int delivered /. wall));
    ]

let run_live () =
  let accounts n = List.init n (Printf.sprintf "acct%d") in
  let map = Etx.Shard_map.create ~shards:2 () in
  let rows, wall =
    timed (fun () ->
        [
          live_row (accounts 2) ~requests:3;
          live_row ~map ~requests:3
            (List.concat
               (Array.to_list
                  (Harness.Experiments.shard_accounts ~map ~per_shard:2)));
          live_row ~batch:4 (accounts 4) ~requests:2;
        ])
  in
  record ~backend:"live" "live" wall rows;
  let cell = function
    | Stats.Json.Float x -> Printf.sprintf "%.2f" x
    | v -> Stats.Json.to_string ~indent:0 v
  in
  section "Live backend (wall clock)"
    (Stats.Table.render
       ~headers:(List.map fst (List.hd rows))
       ~rows:(List.map (List.map (fun (_, v) -> cell v)) rows))

(* ------------------------------------------------------------------ *)
(* Bechamel micro-suite *)

open Bechamel

let micro_tests =
  let heap_bench () =
    let h = Runtime.Heap.create ~leq:(fun (a : int) b -> a <= b) () in
    for i = 0 to 999 do
      Runtime.Heap.push h ((i * 7919) mod 1000)
    done;
    let rec drain () = match Runtime.Heap.pop h with None -> () | Some _ -> drain () in
    drain ()
  in
  let rng_bench () =
    let r = Runtime.Rng.create ~seed:1 in
    let acc = ref 0L in
    for _ = 0 to 999 do
      acc := Int64.add !acc (Runtime.Rng.int64 r)
    done;
    !acc
  in
  let one_etx () =
    let _e, d =
      Harness.Simrun.cluster ~business:Etx.Business.trivial
        ~scripts:[ (fun ~issue -> ignore (issue "x")) ]
        ()
    in
    ignore (Cluster.run_to_quiescence d)
  in
  let one_consensus () =
    (* a full three-member wo-register write *)
    let value = Etx.Etx_types.Reg_a_value 0 in
    let t = Dsim.Engine.create () in
    let rt = Dsim.Runtime_sim.of_engine t in
    let peers = [ 0; 1; 2 ] in
    let decided = ref false in
    List.iter
      (fun i ->
        let pid =
          Dsim.Engine.spawn t ~name:(Printf.sprintf "m%d" i)
            ~main:(fun ~recovery:_ () ->
              let ch = Dnet.Rchannel.create () in
              Dnet.Rchannel.start ch;
              let fd = Dnet.Fdetect.oracle rt in
              let agent = Consensus.Agent.create ~peers ~fd ~ch () in
              Consensus.Agent.start agent;
              if i = 0 then begin
                ignore (Consensus.Agent.propose agent ~key:"k" value);
                decided := true
              end)
        in
        assert (pid = i))
      peers;
    ignore (Dsim.Engine.run_until ~deadline:10_000. t (fun () -> !decided))
  in
  Test.make_grouped ~name:"etx"
    [
      Test.make ~name:"heap-1k-push-pop" (Staged.stage heap_bench);
      Test.make ~name:"rng-1k" (Staged.stage rng_bench);
      Test.make ~name:"consensus-write" (Staged.stage one_consensus);
      Test.make ~name:"one-e-transaction" (Staged.stage one_etx);
      Test.make ~name:"figure1-suite"
        (Staged.stage (fun () -> ignore (Harness.Experiments.figure1 ())));
      Test.make ~name:"figure7-suite"
        (Staged.stage (fun () -> ignore (Harness.Experiments.figure7 ())));
      Test.make ~name:"figure8-table-5txn"
        (Staged.stage (fun () ->
             ignore (Harness.Experiments.figure8 ~transactions:5 ())));
    ]

let run_micro () =
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] micro_tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  print_endline "== Bechamel micro-benchmarks (wall-clock per run) ==";
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some [ est ] -> est
        | Some (est :: _) -> est
        | Some [] | None -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  List.iter
    (fun (name, ns) ->
      if Float.is_nan ns then Printf.printf "  %-28s (no estimate)\n" name
      else if ns > 1e6 then Printf.printf "  %-28s %8.2f ms\n" name (ns /. 1e6)
      else Printf.printf "  %-28s %8.2f us\n" name (ns /. 1e3))
    (List.sort compare !rows);
  print_newline ()


let bench_only =
  [ ("parallel", run_parallel); ("live", run_live); ("micro", run_micro) ]

let run name =
  match (A.find name, List.assoc_opt name bench_only) with
  | Some e, _ -> ignore (run_entry ~domains:!domains e)
  | None, Some f -> f ()
  | None, None ->
      Printf.eprintf "unknown artefact %S (expected one of: %s)\n" name
        (String.concat " "
           (List.map (fun (e : A.t) -> e.name) A.all
           @ List.map fst bench_only));
      exit 2

let () =
  (* peel off --domains N before dispatching artefact names *)
  let rec parse acc = function
    | "--domains" :: n :: rest ->
        (match int_of_string_opt n with
        | Some d when d >= 1 -> domains := d
        | _ ->
            Printf.eprintf "--domains expects a positive integer, got %S\n" n;
            exit 2);
        parse acc rest
    | "--domains" :: [] ->
        Printf.eprintf "--domains expects an argument\n";
        exit 2
    | a :: rest -> parse (a :: acc) rest
    | [] -> List.rev acc
  in
  (match parse [] (List.tl (Array.to_list Sys.argv)) with
  | [] ->
      List.iter
        (fun (e : A.t) ->
          if not e.smoke then ignore (run_entry ~domains:!domains e))
        A.all;
      run_live ();
      run_micro ()
  | args -> List.iter run args);
  write_bench_json ();
  if !failed then exit 1
