let bank_seed = Workload.Bank.seed_accounts [ ("acct0", 1_000_000) ]

let update_body = "acct0:10"

let latencies records =
  List.map
    (fun (r : Etx.Client.record) -> r.delivered_at -. r.issued_at)
    records

(* ------------------------------------------------------------------ *)
(* Trial records

   Every sweep below is a list of self-contained trials mapped over a
   domain pool: each trial owns its private engine, RNG, trace and
   obs registry, built inside [run], so trials share no mutable state and the
   results are bit-identical whatever the domain count. *)

type 'a trial = { seed : int; run : seed:int -> 'a }

let run_trials ?(domains = 1) trials =
  Dsim.Pool.map ~domains (fun tr -> tr.run ~seed:tr.seed) trials

(* one trial per point, each on the sweep's seed *)
let sweep ?domains ~seed points run =
  run_trials ?domains (List.map (fun p -> { seed; run = run p }) points)

(* ------------------------------------------------------------------ *)
(* Figure 8 *)

type fig8_protocol = {
  protocol : string;
  components : (string * float) list;
  other : float;
  total : float;
  overhead_pct : float;
  ci90_ratio : float;
}

type fig8 = { transactions : int; protocols : fig8_protocol list }

(* Figure 8's rows in table order, each with the obs instrument that times
   it: a histogram of the XA stub's round trips, or a phase span. The AR's
   spans carry its protocol's phase names; the comparison protocols name
   theirs after the row. *)
type fig8_source = Xa of string | Phase of string

let fig8_rows =
  [
    ("start", Xa "xa.start_ms");
    ("end", Xa "xa.end_ms");
    ("commit", Phase "terminate");
    ("prepare", Phase "prepare");
    ("SQL", Xa "xa.exec_ms");
    ("log-start", Phase "election");
    ("log-outcome", Phase "consensus");
  ]

let fig8_column ~protocol ~ar ~transactions reg ~latencies =
  let spans = Obs.Registry.spans reg in
  let total (row, source) =
    match source with
    | Xa name ->
        Option.fold ~none:0. ~some:Obs.Histogram.sum
          (Obs.Registry.merged_histogram reg name)
    | Phase name -> Obs.Span.total spans (if ar then name else row)
  in
  let totals = List.map (fun r -> (fst r, total r)) fig8_rows in
  let n = float_of_int (max 1 transactions) in
  let summary = Stats.Summary.of_samples latencies in
  let mean = summary.Stats.Summary.mean in
  {
    protocol;
    components = List.map (fun (row, t) -> (row, t /. n)) totals;
    other = mean -. (List.fold_left (fun a (_, t) -> a +. t) 0. totals /. n);
    total = mean;
    overhead_pct = 0.;
    ci90_ratio = Stats.Summary.ci90_width_ratio summary;
  }

let identical_updates ~transactions ~issue =
  for _ = 1 to transactions do
    ignore (issue update_body)
  done

(* the AR trial keeps tracing on: [Spec.check_all] replays trace notes *)
let fig8_ar_records ~obs ~transactions ~seed =
  let _e, d =
    Simrun.cluster ~seed ?obs ~seed_data:bank_seed
      ~business:Workload.Bank.update
      ~scripts:[ identical_updates ~transactions ]
      ()
  in
  if not (Cluster.run_to_quiescence d) then
    failwith "figure8: AR run did not quiesce";
  (match Cluster.Spec.check_all d with
  | [] -> ()
  | vs -> failwith ("figure8: AR violations: " ^ String.concat "; " vs));
  Cluster.all_records d

let run_ar ~transactions ~seed =
  let reg = Obs.Registry.create () in
  let records = fig8_ar_records ~obs:(Some reg) ~transactions ~seed in
  fig8_column ~protocol:"AR (e-Transactions)" ~ar:true ~transactions reg
    ~latencies:(latencies records)

(* A comparison protocol's trial: [build] runs it on a fresh engine with
   [reg] attached and returns the engine and its client. *)
let run_comparison ~protocol build ~transactions ~seed =
  let reg = Obs.Registry.create () in
  let e, client = build ~seed ~reg ~script:(identical_updates ~transactions) in
  let done_ () = Etx.Client.script_done client in
  if not (Dsim.Engine.run_until ~deadline:600_000. e done_) then
    failwith ("figure8: " ^ protocol ^ " run did not finish");
  fig8_column ~protocol ~ar:false ~transactions reg
    ~latencies:(latencies (Etx.Client.records client))

let run_baseline =
  run_comparison ~protocol:"baseline (unreliable)" (fun ~seed ~reg ~script ->
      let e, b =
        Simrun.baseline ~seed ~obs:reg ~tracing:false ~seed_data:bank_seed
          ~business:Workload.Bank.update ~script ()
      in
      (e, b.client))

let run_tpc =
  run_comparison ~protocol:"2PC (at-most-once)" (fun ~seed ~reg ~script ->
      let e, t =
        Simrun.tpc ~seed ~obs:reg ~tracing:false ~seed_data:bank_seed
          ~business:Workload.Bank.update ~script ()
      in
      (e, t.client))

let run_pb =
  run_comparison ~protocol:"primary-backup" (fun ~seed ~reg ~script ->
      let e, p =
        Simrun.pbackup ~seed ~obs:reg ~tracing:false ~seed_data:bank_seed
          ~business:Workload.Bank.update ~script ()
      in
      (e, p.client))

let figure8 ?(transactions = 40) ?(seed = 42) ?domains () =
  let results =
    sweep ?domains ~seed [ run_baseline; run_ar; run_tpc; run_pb ]
      (fun run -> run ~transactions)
  in
  let baseline, ar, tpc, pb =
    match results with
    | [ baseline; ar; tpc; pb ] -> (baseline, ar, tpc, pb)
    | _ -> assert false
  in
  let with_overhead p =
    {
      p with
      overhead_pct = (p.total -. baseline.total) /. baseline.total *. 100.;
    }
  in
  {
    transactions;
    protocols =
      [ baseline; with_overhead ar; with_overhead tpc; with_overhead pb ];
  }

let render_figure8 f =
  let headers = "" :: List.map (fun p -> p.protocol) f.protocols in
  let component_row name =
    name
    :: List.map
         (fun p -> Stats.Table.fmt_ms (List.assoc name p.components))
         f.protocols
  in
  let rows =
    List.map (fun (row, _) -> component_row row) fig8_rows
    @ [
        "other" :: List.map (fun p -> Stats.Table.fmt_ms p.other) f.protocols;
        "total" :: List.map (fun p -> Stats.Table.fmt_ms p.total) f.protocols;
        "cost of reliability"
        :: List.map (fun p -> Stats.Table.fmt_pct p.overhead_pct) f.protocols;
        "ci90/mean"
        :: List.map
             (fun p -> Printf.sprintf "%.1f%%" (p.ci90_ratio *. 100.))
             f.protocols;
      ]
  in
  Printf.sprintf
    "Figure 8 — latency components over %d identical transactions (ms)\n%s"
    f.transactions
    (Stats.Table.render ~headers ~rows)

(* ------------------------------------------------------------------ *)
(* Figure 7 *)

type fig7_row = {
  proto : string;
  app_messages : int;
  all_messages : int;
  steps : int;
  forced_ios : int;
}

let one_request_script ~issue = ignore (issue update_body)

let figure7 ?(seed = 42) ?domains () =
  (* every trial needs its trace: the whole figure is message counting *)
  let measure proto engine ~forced_ios =
    let trace = Dsim.Engine.trace engine in
    {
      proto;
      app_messages = Msgclass.application_messages trace;
      all_messages = Msgclass.protocol_messages trace;
      steps = Msgclass.protocol_steps trace;
      forced_ios;
    }
  in
  let trial run = { seed; run } in
  run_trials ?domains
    [
      trial (fun ~seed ->
          let e, b =
            Simrun.baseline ~seed ~seed_data:bank_seed
              ~business:Workload.Bank.update ~script:one_request_script ()
          in
          ignore
            (Dsim.Engine.run_until ~deadline:60_000. e (fun () ->
                 Etx.Client.script_done b.client));
          measure "baseline" e ~forced_ios:0);
      trial (fun ~seed ->
          let e, t =
            Simrun.tpc ~seed ~seed_data:bank_seed
              ~business:Workload.Bank.update ~script:one_request_script ()
          in
          ignore
            (Dsim.Engine.run_until ~deadline:60_000. e (fun () ->
                 Etx.Client.script_done t.client));
          measure "2PC" e
            ~forced_ios:(Dstore.Disk.forced_writes t.coordinator_disk));
      trial (fun ~seed ->
          let e, p =
            Simrun.pbackup ~seed ~seed_data:bank_seed
              ~business:Workload.Bank.update ~script:one_request_script ()
          in
          ignore
            (Dsim.Engine.run_until ~deadline:60_000. e (fun () ->
                 Etx.Client.script_done p.client));
          measure "primary-backup" e ~forced_ios:0);
      trial (fun ~seed ->
          let e, d =
            Simrun.cluster ~seed ~seed_data:bank_seed
              ~business:Workload.Bank.update ~scripts:[ one_request_script ] ()
          in
          ignore (Cluster.run_to_quiescence d);
          measure "AR (e-Transactions)" e ~forced_ios:0);
    ]

let render_figure7 rows =
  let headers =
    [ "protocol"; "app msgs"; "all msgs"; "steps"; "forced IOs" ]
  in
  let body =
    List.map
      (fun r ->
        [
          r.proto;
          string_of_int r.app_messages;
          string_of_int r.all_messages;
          string_of_int r.steps;
          string_of_int r.forced_ios;
        ])
      rows
  in
  "Figure 7 — communication in a failure-free committed execution\n"
  ^ Stats.Table.render ~headers ~rows:body

(* ------------------------------------------------------------------ *)
(* Figure 1 *)

type fig1_scenario = {
  label : string;
  delivered : bool;
  tries : int;
  cleaner_outcome : string option;
  violations : string list;
}

let cleaner_note engine =
  List.find_map
    (fun (e : Dsim.Trace.entry) ->
      match e.event with
      | Dsim.Trace.Note (_, s)
        when String.length s > 8 && String.sub s 0 8 = "cleaned:" -> (
          match String.rindex_opt s ':' with
          | Some i -> Some (String.sub s (i + 1) (String.length s - i - 1))
          | None -> None)
      | _ -> None)
    (Dsim.Trace.entries (Dsim.Engine.trace engine))

let fig1_run ~label ~seed ?(crash_primary_at = None) ?business
    ?(seed_data = bank_seed) ?(body = update_body) () =
  let business = Option.value ~default:Workload.Bank.update business in
  let e, d =
    Simrun.cluster ~seed ~client_period:300. ~seed_data ~business
      ~scripts:[ (fun ~issue -> ignore (issue body)) ]
      ()
  in
  (match crash_primary_at with
  | Some t -> Dsim.Engine.crash_at e t (Cluster.primary d ~shard:0)
  | None -> ());
  let ok = Cluster.run_to_quiescence ~deadline:120_000. d in
  let tries =
    match Cluster.all_records d with
    | [ r ] -> r.tries
    | _ -> -1
  in
  {
    label;
    delivered = ok && Cluster.all_records d <> [];
    tries;
    cleaner_outcome = cleaner_note e;
    violations = Cluster.Spec.check_all d;
  }

let figure1 ?(seed = 42) ?domains () =
  let trial run = { seed; run } in
  run_trials ?domains
    [
      trial (fun ~seed ->
          fig1_run ~label:"(a) failure-free commit" ~seed ());
      trial (fun ~seed ->
          fig1_run ~label:"(b) failure-free abort (user-level)" ~seed
            ~business:Workload.Bank.transfer
            ~seed_data:
              (Workload.Bank.seed_accounts [ ("acct0", 5); ("acct1", 0) ])
            ~body:"acct0:acct1:100" ());
      trial (fun ~seed ->
          fig1_run ~label:"(c) fail-over with commit" ~seed
            ~crash_primary_at:(Some 230.) ());
      trial (fun ~seed ->
          fig1_run ~label:"(d) fail-over with abort" ~seed
            ~crash_primary_at:(Some 100.) ());
    ]

let render_figure1 scenarios =
  let headers = [ "scenario"; "delivered"; "tries"; "cleaner"; "violations" ] in
  let body =
    List.map
      (fun s ->
        [
          s.label;
          string_of_bool s.delivered;
          string_of_int s.tries;
          Option.value ~default:"-" s.cleaner_outcome;
          (match s.violations with
          | [] -> "none"
          | vs -> string_of_int (List.length vs) ^ "!");
        ])
      scenarios
  in
  "Figure 1 — the four canonical executions\n"
  ^ Stats.Table.render ~headers ~rows:body

(* ------------------------------------------------------------------ *)
(* Ablations *)

let failover_sweep ?(seed = 42) ?domains () =
  sweep ?domains ~seed [ 20.; 50.; 100.; 200.; 400. ] (fun timeout ~seed ->
      let e, d =
        Simrun.cluster ~seed ~client_period:300. ~tracing:false
          ~fd_spec:
            (Etx.Appserver.Fd_heartbeat
               {
                 period = 10.;
                 initial_timeout = timeout;
                 timeout_bump = 25.;
               })
          ~seed_data:bank_seed ~business:Workload.Bank.update
          ~scripts:[ one_request_script ] ()
      in
      Dsim.Engine.crash_at e 100. (Cluster.primary d ~shard:0);
      if not (Cluster.run_to_quiescence ~deadline:300_000. d)
      then failwith "failover_sweep: run did not quiesce";
      match Cluster.all_records d with
      | [ r ] -> (timeout, r.delivered_at -. r.issued_at, r.tries)
      | _ -> failwith "failover_sweep: expected one record")

let render_failover rows =
  let headers = [ "fd timeout (ms)"; "latency (ms)"; "tries" ] in
  let body =
    List.map
      (fun (t, l, tries) ->
        [ Stats.Table.fmt_ms t; Stats.Table.fmt_ms l; string_of_int tries ])
      rows
  in
  "A1 — fail-over latency vs failure-detector timeout (primary crashes at \
   t=100ms)\n"
  ^ Stats.Table.render ~headers ~rows:body

let backoff_sweep ?(seed = 42) ?(periods = [ 100.; 200.; 400.; 800.; 1600. ])
    ?domains () =
  sweep ?domains ~seed periods (fun period ~seed ->
      let nice =
        let _e, d =
          Simrun.cluster ~seed ~client_period:period
            ~tracing:false ~seed_data:bank_seed
            ~business:Workload.Bank.update
            ~scripts:[ one_request_script ] ()
        in
        if not (Cluster.run_to_quiescence ~deadline:120_000. d)
        then failwith "backoff_sweep: nice run did not quiesce";
        match Cluster.all_records d with
        | [ r ] -> r.delivered_at -. r.issued_at
        | _ -> failwith "backoff_sweep: expected one record"
      in
      let failover =
        let e, d =
          Simrun.cluster ~seed ~client_period:period
            ~tracing:false ~seed_data:bank_seed
            ~business:Workload.Bank.update
            ~scripts:[ one_request_script ] ()
        in
        Dsim.Engine.crash_at e 100. (Cluster.primary d ~shard:0);
        if not (Cluster.run_to_quiescence ~deadline:300_000. d)
        then failwith "backoff_sweep: failover run did not quiesce";
        match Cluster.all_records d with
        | [ r ] -> r.delivered_at -. r.issued_at
        | _ -> failwith "backoff_sweep: expected one record"
      in
      (period, nice, failover))

let render_backoff rows =
  let headers =
    [ "back-off (ms)"; "nice latency (ms)"; "fail-over latency (ms)" ]
  in
  let body =
    List.map
      (fun (p, n, f) ->
        [ Stats.Table.fmt_ms p; Stats.Table.fmt_ms n; Stats.Table.fmt_ms f ])
      rows
  in
  "A2 — client back-off period: failure-free vs fail-over latency\n"
  ^ Stats.Table.render ~headers ~rows:body

let loss_sweep ?(seed = 42) ?(rates = [ 0.; 0.05; 0.1; 0.2; 0.3 ]) ?domains ()
    =
  (* tracing stays on: msgs/request is counted from the trace *)
  sweep ?domains ~seed rates (fun rate ~seed ->
      let net =
        Dnet.Netmodel.lossy ~loss:rate (Dnet.Netmodel.lan ())
      in
      let n = 10 in
      let e, d =
        Simrun.cluster ~seed ~net ~client_period:300.
          ~seed_data:bank_seed ~business:Workload.Bank.update
          ~scripts:
            [
              (fun ~issue ->
                for _ = 1 to n do
                  ignore (issue update_body)
                done);
            ]
          ()
      in
      if not (Cluster.run_to_quiescence ~deadline:600_000. d)
      then failwith "loss_sweep: run did not quiesce";
      let mean =
        Stats.Summary.mean (latencies (Cluster.all_records d))
      in
      let msgs =
        Msgclass.protocol_messages (Dsim.Engine.trace e) / n
      in
      (rate, mean, msgs))

let render_loss rows =
  let headers = [ "loss rate"; "mean latency (ms)"; "msgs/request" ] in
  let body =
    List.map
      (fun (r, l, m) ->
        [
          Printf.sprintf "%.0f%%" (r *. 100.);
          Stats.Table.fmt_ms l;
          string_of_int m;
        ])
      rows
  in
  "A3 — message loss: reliable-channel retransmission cost\n"
  ^ Stats.Table.render ~headers ~rows:body

let db_sweep ?(seed = 42) ?(counts = [ 1; 2; 4; 8 ]) ?domains () =
  sweep ?domains ~seed counts (fun n_dbs ~seed ->
      let baseline =
        let e, b =
          Simrun.baseline ~seed ~n_dbs ~tracing:false
            ~seed_data:bank_seed ~business:Workload.Bank.update
            ~script:one_request_script ()
        in
        ignore
          (Dsim.Engine.run_until ~deadline:120_000. e (fun () ->
               Etx.Client.script_done b.client));
        match Etx.Client.records b.client with
        | [ r ] -> r.delivered_at -. r.issued_at
        | _ -> failwith "db_sweep: baseline"
      in
      let ar =
        let _e, d =
          Simrun.cluster ~seed ~n_dbs ~tracing:false
            ~seed_data:bank_seed ~business:Workload.Bank.update
            ~scripts:[ one_request_script ] ()
        in
        if not (Cluster.run_to_quiescence ~deadline:120_000. d)
        then failwith "db_sweep: AR did not quiesce";
        match Cluster.all_records d with
        | [ r ] -> r.delivered_at -. r.issued_at
        | _ -> failwith "db_sweep: AR"
      in
      let tpc =
        let e, t =
          Simrun.tpc ~seed ~n_dbs ~tracing:false
            ~seed_data:bank_seed ~business:Workload.Bank.update
            ~script:one_request_script ()
        in
        ignore
          (Dsim.Engine.run_until ~deadline:120_000. e (fun () ->
               Etx.Client.script_done t.client));
        match Etx.Client.records t.client with
        | [ r ] -> r.delivered_at -. r.issued_at
        | _ -> failwith "db_sweep: 2PC"
      in
      (n_dbs, baseline, ar, tpc))

let render_dbs rows =
  let headers = [ "databases"; "baseline (ms)"; "AR (ms)"; "2PC (ms)" ] in
  let body =
    List.map
      (fun (n, b, a, t) ->
        [
          string_of_int n;
          Stats.Table.fmt_ms b;
          Stats.Table.fmt_ms a;
          Stats.Table.fmt_ms t;
        ])
      rows
  in
  "A4 — prepare fan-out: latency vs number of databases\n"
  ^ Stats.Table.render ~headers ~rows:body

let persistence_ablation ?(seed = 42) ?(transactions = 15) ?domains () =
  let script ~issue =
    for _ = 1 to transactions do
      ignore (issue update_body)
    done
  in
  let ar_mean ~recoverable ~seed =
    let _e, d =
      Simrun.cluster ~seed ~recoverable ~tracing:false
        ~seed_data:bank_seed ~business:Workload.Bank.update
        ~scripts:[ script ] ()
    in
    if not (Cluster.run_to_quiescence ~deadline:600_000. d) then
      failwith "persistence_ablation: run did not quiesce";
    Stats.Summary.mean (latencies (Cluster.all_records d))
  in
  let tpc_mean ~seed =
    let e, t =
      Simrun.tpc ~seed ~tracing:false ~seed_data:bank_seed
        ~business:Workload.Bank.update ~script ()
    in
    ignore
      (Dsim.Engine.run_until ~deadline:600_000. e (fun () ->
           Etx.Client.script_done t.client));
    Stats.Summary.mean (latencies (Etx.Client.records t.client))
  in
  let trial run = { seed; run } in
  run_trials ?domains
    [
      trial (fun ~seed ->
          ( "AR, diskless (the paper's choice)",
            ar_mean ~recoverable:false ~seed ));
      trial (fun ~seed ->
          ( "AR, persistent registers (crash-recovery)",
            ar_mean ~recoverable:true ~seed ));
      trial (fun ~seed -> ("2PC (reference)", tpc_mean ~seed));
    ]

let render_persistence rows =
  let headers = [ "configuration"; "mean latency (ms)" ] in
  let body =
    List.map (fun (name, ms) -> [ name; Stats.Table.fmt_ms ms ]) rows
  in
  "A5 — the cost of recoverable application servers (why the middle tier is \
   diskless)\n"
  ^ Stats.Table.render ~headers ~rows:body

type Runtime.Types.payload += Sweep_value

let consensus_failover_sweep ?(seed = 42)
    ?(round_timeouts = [ 25.; 50.; 100.; 200.; 400. ]) ?domains () =
  let one round_timeout ~seed =
    let t =
      Dsim.Engine.create ~seed ~net:(Dnet.Netmodel.lan ()) ~tracing:false ()
    in
    let peers = [ 0; 1; 2 ] in
    let latency = ref infinity in
    let spawn_member i =
      let pid =
        Dsim.Engine.spawn t
          ~name:(Printf.sprintf "a%d" (i + 1))
          ~main:(fun ~recovery:_ () ->
            let ch = Dnet.Rchannel.create () in
            Dnet.Rchannel.start ch;
            (* a uselessly patient detector: only the round timeout can end
               a round whose coordinator is gone *)
            let fd =
              Dnet.Fdetect.heartbeat ~initial_timeout:1_000_000. ~peers ()
            in
            Dnet.Fdetect.start fd;
            let agent =
              Consensus.Agent.create ~round_timeout ~peers ~fd ~ch ()
            in
            Consensus.Agent.start agent;
            if i = 1 then begin
              Dsim.Engine.sleep 10.;
              let t0 = Dsim.Engine.now () in
              ignore (Consensus.Agent.propose agent ~key:"k" Sweep_value);
              latency := Dsim.Engine.now () -. t0
            end)
      in
      assert (pid = i)
    in
    List.iter spawn_member peers;
    (* the round-0 coordinator dies before anything happens *)
    Dsim.Engine.crash_at t 1. 0;
    if
      not
        (Dsim.Engine.run_until ~deadline:120_000. t (fun () ->
             !latency < infinity))
    then failwith "consensus_failover_sweep: no decision";
    (round_timeout, !latency)
  in
  sweep ?domains ~seed round_timeouts one

let render_consensus_failover rows =
  let headers = [ "round timeout (ms)"; "register-write latency (ms)" ] in
  let body =
    List.map
      (fun (rt, l) -> [ Stats.Table.fmt_ms rt; Stats.Table.fmt_ms l ])
      rows
  in
  "A6 — consensus optimised for failures: wo-register write with a crashed \
   first coordinator\n"
  ^ Stats.Table.render ~headers ~rows:body

let throughput_sweep ?(seed = 42) ?(clients = [ 1; 2; 4; 8 ])
    ?(requests_per_client = 5) ?domains () =
  let run ~n_clients ~contended ~seed =
    let account i = if contended then "hot" else Printf.sprintf "acct%d" i in
    let seed_data =
      Workload.Bank.seed_accounts
        (("hot", 1_000_000)
        :: List.init n_clients (fun i -> (Printf.sprintf "acct%d" i, 1_000_000))
        )
    in
    let script_for i ~issue =
      for _ = 1 to requests_per_client do
        ignore (issue (Printf.sprintf "%s:1" (account i)))
      done
    in
    let e, d =
      Simrun.cluster ~seed ~tracing:false ~seed_data
        ~business:Workload.Bank.update
        ~scripts:(List.init n_clients script_for)
        ()
    in
    let all_done () = List.for_all Etx.Client.script_done d.clients in
    if not (Dsim.Engine.run_until ~deadline:3_600_000. e all_done) then
      failwith "throughput_sweep: run did not finish";
    let total = float_of_int (n_clients * requests_per_client) in
    total /. (Dsim.Engine.now_of e /. 1_000.)
  in
  sweep ?domains ~seed clients (fun n_clients ~seed ->
      ( n_clients,
        run ~n_clients ~contended:true ~seed,
        run ~n_clients ~contended:false ~seed ))

let render_throughput rows =
  let headers =
    [ "clients"; "contended (tx/s)"; "disjoint accounts (tx/s)" ]
  in
  let body =
    List.map
      (fun (n, hot, cold) ->
        [
          string_of_int n;
          Printf.sprintf "%.2f" hot;
          Printf.sprintf "%.2f" cold;
        ])
      rows
  in
  "A7 — aggregate throughput vs concurrent clients (single database)\n"
  ^ Stats.Table.render ~headers ~rows:body

let scale_points = [ (3, 1); (3, 8); (5, 32); (10, 128); (25, 512) ]

let scale_sweep ?(seed = 42) ?obs ?(points = scale_points)
    ?(requests_per_client = 1) () =
  (* disjoint accounts: we are measuring substrate cost per simulated event,
     not lock contention, so the protocol work should scale with the cluster
     and not with retry storms *)
  let one (n_servers, n_clients) =
    let seed_data =
      Workload.Bank.seed_accounts
        (List.init n_clients (fun i -> (Printf.sprintf "acct%d" i, 1_000_000)))
    in
    let script_for i ~issue =
      for _ = 1 to requests_per_client do
        ignore (issue (Printf.sprintf "acct%d:1" i))
      done
    in
    let t0 = Unix.gettimeofday () in
    let e, d =
      Simrun.cluster ~seed ~tracing:false ?obs ~n_app_servers:n_servers
        ~seed_data ~business:Workload.Bank.update
        ~scripts:(List.init n_clients script_for)
        ()
    in
    let all_done () = List.for_all Etx.Client.script_done d.clients in
    if not (Dsim.Engine.run_until ~deadline:7_200_000. e all_done) then
      failwith "scale_sweep: run did not finish";
    let wall_s = Unix.gettimeofday () -. t0 in
    let events = Dsim.Engine.events_of e in
    (n_servers, n_clients, events, wall_s, float_of_int events /. wall_s)
  in
  List.map one points

let render_scale rows =
  let headers =
    [ "app servers"; "clients"; "sim events"; "wall (s)"; "events/s" ]
  in
  let body =
    List.map
      (fun (s, c, ev, wall, rate) ->
        [
          string_of_int s;
          string_of_int c;
          string_of_int ev;
          Printf.sprintf "%.3f" wall;
          Printf.sprintf "%.0f" rate;
        ])
      rows
  in
  "A10 — substrate scalability: events/sec across cluster sizes (wall-clock, \
   host-dependent)\n"
  ^ Stats.Table.render ~headers ~rows:body

(* ------------------------------------------------------------------ *)
(* A11 — shard scaling: S independent replica groups on one simulator.

   Unlike the substrate-cost scale sweep above (wall-clock events/sec,
   host-dependent), the figure of merit here is virtual-time throughput:
   committed transactions per simulated second at quiescence. Shards work
   in parallel in virtual time, so the quiescence time stays roughly flat
   while the request count grows with S — that ratio is the scaling story.
   Each trial is deterministic, so the rows are reproducible anywhere. *)

type shard_row = {
  shards : int;
  clients : int;
  requests : int;  (** total issued across all clients *)
  delivered : int;
  events : int;  (** simulation events to quiescence *)
  vtime_ms : float;  (** virtual time at quiescence *)
  tx_per_vs : float;  (** delivered per {e virtual} second *)
}

(* Deterministically pick [per_shard] account names owned by each shard:
   scan acct0, acct1, ... and keep the first hits per shard. *)
let shard_accounts ~map ~per_shard =
  let shards = Etx.Shard_map.shards map in
  let want = Array.make shards per_shard in
  let acc = Array.make shards [] in
  let rec scan a remaining =
    if remaining = 0 then ()
    else
      let key = Printf.sprintf "acct%d" a in
      let s = Etx.Shard_map.shard_of map key in
      if want.(s) > 0 then begin
        want.(s) <- want.(s) - 1;
        acc.(s) <- acc.(s) @ [ key ];
        scan (a + 1) (remaining - 1)
      end
      else scan (a + 1) remaining
  in
  scan 0 (shards * per_shard);
  acc

let shard_sweep ?(seed = 42) ?domains () =
  let clients_per_shard = 2 and requests_per_client = 4 in
  let one n_shards ~seed =
    let map = Etx.Shard_map.create ~shards:n_shards () in
    let accounts = shard_accounts ~map ~per_shard:clients_per_shard in
    let keys = List.concat (Array.to_list accounts) in
    let n_clients = List.length keys in
    let seed_data =
      Workload.Bank.seed_accounts (List.map (fun k -> (k, 1_000_000)) keys)
    in
    (* client i hammers its own account, so every shard serves exactly
       [clients_per_shard] clients and there is no lock contention *)
    let scripts =
      List.map
        (fun key ~issue ->
          for _ = 1 to requests_per_client do
            ignore (issue (key ^ ":1"))
          done)
        keys
    in
    let e, c =
      Simrun.cluster ~seed ~map ~seed_data ~business:Workload.Bank.update
        ~scripts ()
    in
    if not (Cluster.run_to_quiescence ~deadline:7_200_000. c) then
      failwith "shard_sweep: cluster did not quiesce";
    (match Cluster.Spec.check_all c with
    | [] -> ()
    | violations ->
        failwith ("shard_sweep: spec violated: " ^ String.concat "; " violations));
    let vtime_ms = Dsim.Engine.now_of e in
    let delivered = List.length (Cluster.all_records c) in
    {
      shards = n_shards;
      clients = n_clients;
      requests = n_clients * requests_per_client;
      delivered;
      events = Dsim.Engine.events_of e;
      vtime_ms;
      tx_per_vs = float_of_int delivered /. (vtime_ms /. 1000.);
    }
  in
  sweep ?domains ~seed [ 1; 2; 4 ] one

let render_shard rows =
  let headers =
    [
      "shards";
      "clients";
      "requests";
      "delivered";
      "sim events";
      "vtime (ms)";
      "tx/vsec";
    ]
  in
  let body =
    List.map
      (fun r ->
        [
          string_of_int r.shards;
          string_of_int r.clients;
          string_of_int r.requests;
          string_of_int r.delivered;
          string_of_int r.events;
          Printf.sprintf "%.1f" r.vtime_ms;
          Printf.sprintf "%.2f" r.tx_per_vs;
        ])
      rows
  in
  "A11 — shard scaling: independent replica groups, virtual-time throughput \
   (deterministic)\n"
  ^ Stats.Table.render ~headers ~rows:body

(* ------------------------------------------------------------------ *)
(* A16 — cross-shard commit: global atomicity's price in messages and
   throughput.

   Same figure of merit as A11 (virtual-time throughput at quiescence),
   but the workload is bank transfers with a controlled fraction of
   cross-shard destinations. Each cross transfer runs a Paxos-Commit
   instance over the participant groups' wo-registers instead of the
   group-local classic path, so the sweep exposes the message overhead
   (msgs/commit vs participant count) and the throughput cost as the
   cross fraction grows. Every row asserts the full cluster spec —
   including global atomicity — before reporting. *)

type cross_row = {
  cx_shards : int;
  cx_ratio : float;  (** requested cross-shard fraction of the workload *)
  cx_clients : int;
  cx_requests : int;
  cx_cross : int;  (** bodies whose two accounts live on different shards *)
  cx_delivered : int;
  cx_mean_participants : float;
      (** mean distinct shards per delivered transfer *)
  cx_events : int;
  cx_vtime_ms : float;
  cx_tx_per_vs : float;
  cx_msgs_per_commit : float;
}

let cross_points =
  [
    (2, 0.0); (2, 0.1); (2, 0.5); (2, 1.0);
    (4, 0.0); (4, 0.1); (4, 0.5); (4, 1.0);
  ]

(* distinct shards a transfer body touches, from its account keys *)
let body_shards ~map body =
  match String.split_on_char ':' body with
  | [ a; b; _ ] ->
      List.sort_uniq compare
        [ Etx.Shard_map.shard_of map a; Etx.Shard_map.shard_of map b ]
  | _ -> [ Etx.Shard_map.shard_of_body map body ]

let cross_sweep ?(seed = 42) ?domains () =
  let clients = 3 and requests = 12 in
  let one (n_shards, ratio) ~seed =
    let map = Etx.Shard_map.create ~shards:n_shards () in
    let kind =
      Workload.Generator.Bank_transfers
        { accounts = 4 * n_shards; max_amount = 5 }
    in
    let bodies =
      Workload.Generator.sharded_bodies ~map ~cross_ratio:ratio ~seed
        ~n:requests kind
    in
    let n_cross =
      List.length
        (List.filter
           (fun (_, b) -> List.length (body_shards ~map b) > 1)
           bodies)
    in
    (* deal the body stream round-robin over the clients, preserving each
       client's issue order *)
    let slices = Array.make clients [] in
    List.iteri
      (fun i (_, body) ->
        slices.(i mod clients) <- slices.(i mod clients) @ [ body ])
      bodies;
    let scripts =
      Array.to_list
        (Array.map
           (fun bodies ~issue ->
             List.iter (fun b -> ignore (issue b)) bodies)
           slices)
    in
    let e, c =
      Simrun.cluster ~seed ~map
        ~seed_data:(Workload.Generator.seed_data_of kind) ~cross:true
        ~business:(Workload.Generator.business_of kind) ~scripts ()
    in
    if not (Cluster.run_to_quiescence ~deadline:7_200_000. c) then
      failwith "cross_sweep: cluster did not quiesce";
    (match Cluster.Spec.check_all c with
    | [] -> ()
    | violations ->
        failwith ("cross_sweep: spec violated: " ^ String.concat "; " violations));
    let vtime_ms = Dsim.Engine.now_of e in
    let records = Cluster.all_records c in
    let delivered = List.length records in
    let participants =
      List.fold_left
        (fun acc (r : Etx.Client.record) ->
          acc + List.length (body_shards ~map r.body))
        0 records
    in
    let msgs = Msgclass.protocol_messages (Dsim.Engine.trace e) in
    {
      cx_shards = n_shards;
      cx_ratio = ratio;
      cx_clients = clients;
      cx_requests = requests;
      cx_cross = n_cross;
      cx_delivered = delivered;
      cx_mean_participants =
        float_of_int participants /. float_of_int (max 1 delivered);
      cx_events = Dsim.Engine.events_of e;
      cx_vtime_ms = vtime_ms;
      cx_tx_per_vs = float_of_int delivered /. (vtime_ms /. 1000.);
      cx_msgs_per_commit =
        float_of_int msgs /. float_of_int (max 1 delivered);
    }
  in
  sweep ?domains ~seed cross_points one

let render_cross rows =
  let headers =
    [
      "shards";
      "cross ratio";
      "cross/total";
      "delivered";
      "mean parts";
      "vtime (ms)";
      "tx/vsec";
      "msgs/commit";
    ]
  in
  let body =
    List.map
      (fun r ->
        [
          string_of_int r.cx_shards;
          Printf.sprintf "%.2f" r.cx_ratio;
          Printf.sprintf "%d/%d" r.cx_cross r.cx_requests;
          string_of_int r.cx_delivered;
          Printf.sprintf "%.2f" r.cx_mean_participants;
          Printf.sprintf "%.1f" r.cx_vtime_ms;
          Printf.sprintf "%.2f" r.cx_tx_per_vs;
          Printf.sprintf "%.1f" r.cx_msgs_per_commit;
        ])
      rows
  in
  "A16 — cross-shard commit: Paxos Commit over the replica groups, cost vs \
   cross fraction (deterministic)\n"
  ^ Stats.Table.render ~headers ~rows:body

(* A17 — elastic reconfiguration: an online 2 -> 3-group split under live
   traffic, throughput bucketed by migration phase.

   One trial warms the cluster with bank-update traffic, starts a split of
   group 0's slots toward the pre-provisioned spare, waits for the epoch
   flip, and runs to quiescence. Delivered records are bucketed by their
   delivery time against the [split, flip] window, so the "during" column
   is the throughput cost of sealing + copying + bouncing, and
   "before"/"after" bracket it with the undisturbed rates. The full
   cluster spec — including migration integrity and exactly-once — is
   asserted before any row is reported, and the row carries the copy and
   re-routing counters so regressions in bounce volume are visible, not
   just latency. *)

type migrate_row = {
  mg_clients : int;
  mg_requests : int;  (** issued across all clients *)
  mg_delivered : int;
  mg_before_tx_per_vs : float;
  mg_during_tx_per_vs : float;
  mg_after_tx_per_vs : float;
  mg_during_ms : float;  (** split -> flip window, virtual ms *)
  mg_drain_ms : float;  (** source databases' seal-to-drained time *)
  mg_keys_moved : int;
  mg_bounced : int;
  mg_map_refresh : int;
  mg_events : int;
}

let migrate_sweep ?(seed = 42) ?domains () =
  let issues = 10 in
  let one ~seed =
    let reg = Obs.Registry.create () in
    let keys = List.init 6 (Printf.sprintf "acct%d") in
    let seed_data =
      Workload.Bank.seed_accounts (List.map (fun k -> (k, 1000)) keys)
    in
    let scripts =
      List.map
        (fun k ~issue ->
          for _ = 1 to issues do
            ignore (issue (k ^ ":1"))
          done)
        keys
    in
    let e, c =
      Simrun.cluster ~seed ~obs:reg ~shards:2 ~reconfig:true ~provision:1
        ~client_period:200. ~seed_data ~business:Workload.Bank.update ~scripts
        ()
    in
    (* warm: let the epoch-0 cluster serve traffic before splitting *)
    ignore (Dsim.Engine.run_until ~deadline:600. e (fun () -> false));
    let t_split = Dsim.Engine.now_of e in
    ignore (Cluster.split c ~group:0 ~target:2);
    if not (Cluster.await_epoch ~deadline:600_000. c 1) then
      failwith "migrate_sweep: epoch flip did not happen";
    let t_flip = Dsim.Engine.now_of e in
    if not (Cluster.run_to_quiescence ~deadline:1_200_000. c) then
      failwith "migrate_sweep: cluster did not quiesce";
    (match Cluster.Spec.check_all c with
    | [] -> ()
    | violations ->
        failwith
          ("migrate_sweep: spec violated: " ^ String.concat "; " violations));
    let records = Cluster.all_records c in
    let delivered = List.length records in
    let requests = 6 * issues in
    if delivered <> requests then
      failwith
        (Printf.sprintf "migrate_sweep: %d of %d requests delivered" delivered
           requests);
    let in_phase lo hi =
      List.length
        (List.filter
           (fun (r : Etx.Client.record) ->
             r.delivered_at >= lo && r.delivered_at < hi)
           records)
    in
    let t_end =
      List.fold_left
        (fun a (r : Etx.Client.record) -> max a r.delivered_at)
        t_flip records
    in
    let rate n window =
      if window <= 0. then 0. else float_of_int n /. (window /. 1000.)
    in
    let counter = Obs.Registry.counter_total reg in
    {
      mg_clients = 6;
      mg_requests = requests;
      mg_delivered = delivered;
      mg_before_tx_per_vs = rate (in_phase 0. t_split) t_split;
      mg_during_tx_per_vs = rate (in_phase t_split t_flip) (t_flip -. t_split);
      mg_after_tx_per_vs =
        rate (in_phase t_flip infinity) (t_end -. t_flip);
      mg_during_ms = t_flip -. t_split;
      mg_drain_ms =
        (match Obs.Registry.merged_histogram reg "migrate.drain_ms" with
        | Some h -> Option.value ~default:0. (Obs.Histogram.mean h)
        | None -> 0.);
      mg_keys_moved = counter "migrate.keys_moved";
      mg_bounced = counter "migrate.bounced";
      mg_map_refresh = counter "client.map_refresh";
      mg_events = Dsim.Engine.events_of e;
    }
  in
  run_trials ?domains [ { seed; run = one } ]

let render_migrate rows =
  let headers =
    [
      "clients";
      "delivered";
      "tx/vsec before";
      "tx/vsec during";
      "tx/vsec after";
      "window (ms)";
      "drain (ms)";
      "keys moved";
      "bounced";
      "refreshes";
    ]
  in
  let body =
    List.map
      (fun r ->
        [
          string_of_int r.mg_clients;
          Printf.sprintf "%d/%d" r.mg_delivered r.mg_requests;
          Printf.sprintf "%.2f" r.mg_before_tx_per_vs;
          Printf.sprintf "%.2f" r.mg_during_tx_per_vs;
          Printf.sprintf "%.2f" r.mg_after_tx_per_vs;
          Printf.sprintf "%.1f" r.mg_during_ms;
          Printf.sprintf "%.1f" r.mg_drain_ms;
          string_of_int r.mg_keys_moved;
          string_of_int r.mg_bounced;
          string_of_int r.mg_map_refresh;
        ])
      rows
  in
  "A17 — elastic reconfiguration: online split under live traffic, \
   throughput by migration phase (deterministic)\n"
  ^ Stats.Table.render ~headers ~rows:body

let fd_quality_sweep ?(seed = 42) ?(requests = 10)
    ?(timeouts = [ 15.; 25.; 50.; 100.; 200. ]) ?domains () =
  (* tracing stays on: cleanings are counted from trace notes and
     [Spec.check_all] replays them too *)
  let one timeout ~seed =
    (* jitter plus heartbeat loss: a dropped heartbeat stretches the
       silence past an aggressive timeout *)
    let net =
      Dnet.Netmodel.lossy ~loss:0.15 (Dnet.Netmodel.uniform ~lo:1.0 ~hi:6.0)
    in
    let e, d =
      (* timeout_bump = 0 disables the ◇P adaptation so the sweep shows the
         raw cost of a mis-set timeout; with the default bump the detector
         absorbs this jitter after a couple of mistakes (tested) *)
      Simrun.cluster ~seed ~net ~client_period:300. ~clean_period:10.
        ~fd_spec:
          (Etx.Appserver.Fd_heartbeat
             { period = 10.; initial_timeout = timeout; timeout_bump = 0. })
        ~seed_data:bank_seed ~business:Workload.Bank.update
        ~scripts:
          [
            (fun ~issue ->
              for _ = 1 to requests do
                ignore (issue update_body)
              done);
          ]
        ()
    in
    if not (Cluster.run_to_quiescence ~deadline:600_000. d) then
      failwith "fd_quality_sweep: run did not quiesce";
    (match Cluster.Spec.check_all d with
    | [] -> ()
    | vs ->
        failwith
          ("fd_quality_sweep: suspicions broke the spec!? "
          ^ String.concat "; " vs));
    let cleanings =
      List.length
        (List.filter
           (fun (e : Dsim.Trace.entry) ->
             match e.event with
             | Dsim.Trace.Note (_, s) ->
                 String.length s > 8 && String.sub s 0 8 = "cleaned:"
             | _ -> false)
           (Dsim.Trace.entries (Dsim.Engine.trace e)))
    in
    let extra_tries =
      List.fold_left
        (fun acc (r : Etx.Client.record) -> acc + r.tries - 1)
        0
        (Cluster.all_records d)
    in
    let mean = Stats.Summary.mean (latencies (Cluster.all_records d)) in
    (timeout, cleanings, extra_tries, mean)
  in
  sweep ?domains ~seed timeouts one

let render_fd_quality rows =
  let headers =
    [
      "fd timeout (ms)";
      "spurious cleanings";
      "extra tries";
      "mean latency (ms)";
    ]
  in
  let body =
    List.map
      (fun (t, c, x, l) ->
        [
          Stats.Table.fmt_ms t;
          string_of_int c;
          string_of_int x;
          Stats.Table.fmt_ms l;
        ])
      rows
  in
  "A9 — detector quality: false suspicions cost retries, never consistency \
   (spec asserted per row)\n"
  ^ Stats.Table.render ~headers ~rows:body

(* ------------------------------------------------------------------ *)
(* A12 — per-phase latency attribution of the fail-over path.

   Re-runs the Figure 1(c) scenario (the primary crashes mid-request, a
   backup wins the next election and commits) with an observability
   registry attached, and attributes the client-visible latency of the
   committed request to the phases the span layer records: election,
   compute, prepare, consensus (the wo-register outcome write),
   terminate. The crashed owner's spans never close, so they are counted
   separately as abandoned work; the residue — failure-detection delay,
   client back-off, transport — is [other]. *)

type phase_row = { phase : string; mean_ms : float; share_pct : float }

type failover_phase_report = {
  trials : int;
  mean_latency_ms : float;
  mean_tries : float;
  abandoned_spans : float;  (** mean spans left open by the crash *)
  phases : phase_row list;
  other_ms : float;
}

let failover_phase_names =
  [ "election"; "compute"; "prepare"; "consensus"; "terminate" ]

let failover_phases ?(seed = 42) ?domains () =
  let trials = 5 in
  let one ~seed =
    let reg = Obs.Registry.create () in
    let e, d =
      Simrun.cluster ~seed ~client_period:300. ~tracing:false ~obs:reg
        ~seed_data:bank_seed ~business:Workload.Bank.update
        ~scripts:[ one_request_script ] ()
    in
    Dsim.Engine.crash_at e 230. (Cluster.primary d ~shard:0);
    if not (Cluster.run_to_quiescence ~deadline:300_000. d) then
      failwith "failover_phases: run did not quiesce";
    let r =
      match Cluster.all_records d with
      | [ r ] -> r
      | _ -> failwith "failover_phases: expected one record"
    in
    let spans =
      List.filter
        (fun (s : Obs.Span.t) -> s.trace = r.rid)
        (Obs.Registry.spans reg)
    in
    let abandoned =
      List.length (List.filter (fun s -> not (Obs.Span.closed s)) spans)
    in
    ( r.delivered_at -. r.issued_at,
      r.tries,
      abandoned,
      List.map (fun n -> (n, Obs.Span.total spans n)) failover_phase_names )
  in
  let results =
    run_trials ?domains
      (List.init trials (fun i -> { seed = seed + i; run = one }))
  in
  let n = float_of_int (List.length results) in
  let mean f = List.fold_left (fun acc r -> acc +. f r) 0. results /. n in
  let mean_latency = mean (fun (l, _, _, _) -> l) in
  let phases =
    List.map
      (fun name ->
        let m = mean (fun (_, _, _, ds) -> List.assoc name ds) in
        { phase = name; mean_ms = m; share_pct = 100. *. m /. mean_latency })
      failover_phase_names
  in
  let attributed = List.fold_left (fun a p -> a +. p.mean_ms) 0. phases in
  {
    trials = List.length results;
    mean_latency_ms = mean_latency;
    mean_tries = mean (fun (_, t, _, _) -> float_of_int t);
    abandoned_spans = mean (fun (_, _, a, _) -> float_of_int a);
    phases;
    other_ms = mean_latency -. attributed;
  }

let render_failover_phases rep =
  let headers = [ "phase"; "mean (ms)"; "share" ] in
  let body =
    List.map
      (fun p ->
        [
          p.phase;
          Stats.Table.fmt_ms p.mean_ms;
          Printf.sprintf "%.1f%%" p.share_pct;
        ])
      rep.phases
    @ [
        [
          "other (detection, back-off, transport)";
          Stats.Table.fmt_ms rep.other_ms;
          Printf.sprintf "%.1f%%" (100. *. rep.other_ms /. rep.mean_latency_ms);
        ];
      ]
  in
  Printf.sprintf
    "A12 — fail-over latency attribution from spans (%d trials, mean latency \
     %.1f ms, mean tries %.1f, %.1f spans abandoned by the crash)\n"
    rep.trials rep.mean_latency_ms rep.mean_tries rep.abandoned_spans
  ^ Stats.Table.render ~headers ~rows:body

(* ------------------------------------------------------------------ *)
(* A13 — batched commit pipeline: throughput and message amortization
   against the batch cap.

   One shard, many concurrent clients on disjoint accounts, so the
   leaseholder has a deep queue and every window fills up to the cap.
   tx/vsec is delivered requests over the run's virtual time; messages
   per commit counts every protocol message on the wire (consensus,
   2PC, client traffic — retries included) over delivered requests, the
   amortization Figure 7 counts per single commit. *)

(* the A13 workload, shared by A13b and A15a: twice as many clients as
   the deepest cap, each issuing two updates *)
let batch_clients = 128
let batch_requests = 2

type batch_row = {
  batch : int;
  tx_per_vs : float;
  msgs_per_commit : float;
  mean_latency_ms : float;
  mean_fill : float;
}

let batch_run ~seed ~batch =
  let clients = batch_clients and requests = batch_requests in
  let reg = Obs.Registry.create ~spans:false () in
  let seed_data =
    Workload.Bank.seed_accounts
      (List.init clients (fun i -> (Printf.sprintf "acct%d" i, 1_000_000)))
  in
  let scripts =
    List.init clients (fun i ~issue ->
        for _ = 1 to requests do
          ignore (issue (Printf.sprintf "acct%d:1" i))
        done)
  in
  let e, c =
    Simrun.cluster ~seed ~obs:reg ~shards:1 ~batch ~seed_data
      ~business:Workload.Bank.update ~scripts ()
  in
  if not (Cluster.run_to_quiescence ~deadline:3_600_000. c) then
    failwith "batch_sweep: run did not quiesce";
  let records = Cluster.all_records c in
  let delivered = List.length records in
  if delivered <> clients * requests then
    failwith "batch_sweep: not every request delivered";
  let dn = float_of_int delivered in
  let vs = Dsim.Engine.now_of e /. 1_000. in
  let msgs = Msgclass.protocol_messages (Dsim.Engine.trace e) in
  let mean_fill =
    (* the classic path (batch = 1) assembles no windows and records no
       batch-size histogram: its fill is one by definition *)
    match Obs.Registry.merged_histogram reg "server.batch_size" with
    | Some h when Obs.Histogram.count h > 0 ->
        Obs.Histogram.sum h /. float_of_int (Obs.Histogram.count h)
    | _ -> 1.
  in
  {
    batch;
    tx_per_vs = dn /. vs;
    msgs_per_commit = float_of_int msgs /. dn;
    mean_latency_ms =
      List.fold_left ( +. ) 0. (latencies records) /. dn;
    mean_fill;
  }

let batch_sweep ?(seed = 42) ?domains () =
  sweep ?domains ~seed [ 1; 4; 16; 64 ] (fun batch ~seed ->
      batch_run ~seed ~batch)

let render_batch rows =
  let headers =
    [ "batch cap"; "tx/vsec"; "msgs/commit"; "mean latency"; "mean fill" ]
  in
  let body =
    List.map
      (fun r ->
        [
          string_of_int r.batch;
          Printf.sprintf "%.1f" r.tx_per_vs;
          Printf.sprintf "%.1f" r.msgs_per_commit;
          Stats.Table.fmt_ms r.mean_latency_ms;
          Printf.sprintf "%.1f" r.mean_fill;
        ])
      rows
  in
  "A13 — batched commit pipeline: one compute/log/decide cycle per window \
   (single shard, disjoint accounts; spec asserted per row)\n"
  ^ Stats.Table.render ~headers ~rows:body

(* A13b — which phase the batch collapses: amortized closed-span time per
   committed request, classic path vs a deep window. The same span names
   as A12, so the two tables line up. *)

let batch_phases ?(seed = 42) ?domains () =
  let clients = batch_clients and requests = batch_requests in
  let one ~batch ~seed =
    let reg = Obs.Registry.create () in
    let seed_data =
      Workload.Bank.seed_accounts
        (List.init clients (fun i -> (Printf.sprintf "acct%d" i, 1_000_000)))
    in
    let scripts =
      List.init clients (fun i ~issue ->
          for _ = 1 to requests do
            ignore (issue (Printf.sprintf "acct%d:1" i))
          done)
    in
    let _e, c =
      Simrun.cluster ~seed ~tracing:false ~obs:reg ~shards:1 ~batch
        ~seed_data ~business:Workload.Bank.update ~scripts ()
    in
    if not (Cluster.run_to_quiescence ~deadline:3_600_000. c) then
      failwith "batch_phases: run did not quiesce";
    let dn = float_of_int (List.length (Cluster.all_records c)) in
    let spans = Obs.Registry.spans reg in
    let per_commit name = Obs.Span.total spans name /. dn in
    let durs = List.map (fun n -> (n, per_commit n)) failover_phase_names in
    let attributed = List.fold_left (fun a (_, d) -> a +. d) 0. durs in
    ( batch,
      List.map
        (fun (name, d) ->
          {
            phase = name;
            mean_ms = d;
            share_pct = (if attributed > 0. then 100. *. d /. attributed else 0.);
          })
        durs )
  in
  sweep ?domains ~seed [ 1; 16 ] (fun batch -> one ~batch)

let render_batch_phases reports =
  let headers =
    "phase"
    :: List.map (fun (b, _) -> Printf.sprintf "batch=%d (ms/commit)" b) reports
  in
  let body =
    List.map
      (fun name ->
        name
        :: List.map
             (fun (_, phases) ->
               let p = List.find (fun p -> p.phase = name) phases in
               Stats.Table.fmt_ms p.mean_ms)
             reports)
      failover_phase_names
  in
  "A13b — amortized per-commit phase cost: batching collapses the \
   election (leased), consensus and terminate phases; SQL compute is \
   already overlapped\n"
  ^ Stats.Table.render ~headers ~rows:body

(* ------------------------------------------------------------------ *)
(* A14 — method cache: read-heavy sweep across app-server counts × cache
   on/off.

   One shard, a read-dominant mix (Bank.mixed audits with interleaved
   updates) over a handful of hot accounts, so repeat audits are frequent
   and the cache can serve them. With caching on, clients rotate their
   first-try server, so cached read throughput grows with the server
   count while the uncached curve stays flat (every request still rides
   the full commit pipeline at the group head); messages per delivered
   read collapse because a hit is one request/response round trip. The
   specification — including cache coherence — is asserted per row. *)

type read_row = {
  servers : int;
  cache : bool;
  reads : int;
  tx_per_vs : float;
  read_tx_per_vs : float;
  msgs_per_read : float;
  hit_rate : float;
  mean_read_latency_ms : float;
}

(* A14 and A15c: eight clients, eight requests each, seven audits per
   update *)
let read_clients = 8
let read_requests = 8
let reads_per_write = 7

let read_run ~seed ~servers ~cache =
  let clients = read_clients and requests = read_requests in
  let reg = Obs.Registry.create ~spans:false () in
  let kind =
    Workload.Generator.Read_heavy
      { accounts = 4; max_delta = 3; reads_per_write }
  in
  (* per-client seeds so the clients do not issue identical streams *)
  let scripts =
    List.init clients (fun i ~issue ->
        List.iter
          (fun body -> ignore (issue body))
          (Workload.Generator.bodies ~seed:(seed + (31 * i)) ~n:requests kind))
  in
  let e, c =
    Simrun.cluster ~seed ~obs:reg ~shards:1 ~n_app_servers:servers ~cache
      ~seed_data:(Workload.Generator.seed_data_of kind)
      ~business:(Workload.Generator.business_of kind)
      ~scripts ()
  in
  if not (Cluster.run_to_quiescence ~deadline:3_600_000. c) then
    failwith "read_sweep: run did not quiesce";
  (match Cluster.Spec.check_all c with
  | [] -> ()
  | vs -> failwith ("read_sweep: spec violated: " ^ String.concat "; " vs));
  let records = Cluster.all_records c in
  let delivered = List.length records in
  if delivered <> clients * requests then
    failwith "read_sweep: not every request delivered";
  (* audits answer "balance:..."; everything else is a write *)
  let read_records =
    List.filter
      (fun (r : Etx.Client.record) ->
        String.length r.result >= 8 && String.sub r.result 0 8 = "balance:")
      records
  in
  let reads = List.length read_records in
  let rn = float_of_int reads in
  let vs = Dsim.Engine.now_of e /. 1_000. in
  let msgs = Msgclass.protocol_messages (Dsim.Engine.trace e) in
  let hits = Obs.Registry.counter_total reg "cache.hit" in
  let misses = Obs.Registry.counter_total reg "cache.miss" in
  {
    servers;
    cache;
    reads;
    tx_per_vs = float_of_int delivered /. vs;
    read_tx_per_vs = rn /. vs;
    msgs_per_read = (if reads = 0 then 0. else float_of_int msgs /. rn);
    hit_rate =
      (if hits + misses = 0 then 0.
       else float_of_int hits /. float_of_int (hits + misses));
    mean_read_latency_ms =
      (if reads = 0 then 0.
       else List.fold_left ( +. ) 0. (latencies read_records) /. rn);
  }

let read_sweep ?(seed = 42) ?domains () =
  sweep ?domains ~seed
    (List.concat_map (fun n -> [ (n, false); (n, true) ]) [ 1; 2; 3; 4 ])
    (fun (servers, cache) ~seed -> read_run ~seed ~servers ~cache)

let render_read rows =
  let headers =
    [
      "servers";
      "cache";
      "reads";
      "tx/vsec";
      "read tx/vsec";
      "msgs/read";
      "hit rate";
      "read latency";
    ]
  in
  let body =
    List.map
      (fun r ->
        [
          string_of_int r.servers;
          (if r.cache then "on" else "off");
          string_of_int r.reads;
          Printf.sprintf "%.1f" r.tx_per_vs;
          Printf.sprintf "%.1f" r.read_tx_per_vs;
          Printf.sprintf "%.1f" r.msgs_per_read;
          Printf.sprintf "%.0f%%" (r.hit_rate *. 100.);
          Stats.Table.fmt_ms r.mean_read_latency_ms;
        ])
      rows
  in
  "A14 — method cache: read-heavy mix across app servers × cache on/off \
   (single shard; spec incl. cache coherence asserted per row)\n"
  ^ Stats.Table.render ~headers ~rows:body

(* ------------------------------------------------------------------ *)
(* A15 — the log-structured storage tier (DESIGN.md §14), three sweeps:

   a) group commit — disk forces per committed request against the batch
      cap, coalescing scheduler off vs on, at the default nonzero force
      latency. The window cap already amortizes the log writes of one
      window into one force; the scheduler additionally merges forces
      from *concurrent* windows and transactions, so both columns fall
      with the cap and the coalesced one falls faster.
   b) checkpointed recovery — a direct Rm micro-harness: commit a known
      history, optionally checkpointing along the way, then measure the
      checkpoint-bounded replay ([Rm.recovery_steps]) and the host cost
      of re-running recovery over the retained log.
   c) read replicas — the A14 read-heavy mix with the method cache on,
      across replica counts: cache-miss reads are served by bounded-
      staleness change-log replicas instead of riding the full commit
      pipeline, so read throughput keeps scaling after the cache alone
      has saturated. *)

type gc_row = {
  gc_batch : int;
  gc_on : bool;
  forces : int;
  forces_per_commit : float;
  gc_tx_per_vs : float;
  gc_mean_latency_ms : float;
}

(* 16 application servers, not the default 3: each server's compute
   thread runs one transaction at a time (the paper's architecture), so
   the db sees at most 16 concurrent commitment steps. With only 3 the
   ~25 ms of forced IO per ~600 ms transaction essentially never collides
   and the coalescing scheduler has nothing to merge — group commit
   without concurrent sessions buys exactly nothing. *)
let gc_run ~seed ~batch ~gc =
  let clients = batch_clients and requests = batch_requests in
  let reg = Obs.Registry.create ~spans:false () in
  let seed_data =
    Workload.Bank.seed_accounts
      (List.init clients (fun i -> (Printf.sprintf "acct%d" i, 1_000_000)))
  in
  let scripts =
    List.init clients (fun i ~issue ->
        for _ = 1 to requests do
          ignore (issue (Printf.sprintf "acct%d:1" i))
        done)
  in
  let e, c =
    Simrun.cluster ~seed ~obs:reg ~shards:1 ~n_app_servers:16 ~batch
      ~group_commit:gc ~seed_data ~business:Workload.Bank.update ~scripts ()
  in
  if not (Cluster.run_to_quiescence ~deadline:3_600_000. c) then
    failwith "group_commit_sweep: run did not quiesce";
  (match Cluster.Spec.check_all c with
  | [] -> ()
  | vs ->
      failwith ("group_commit_sweep: spec violated: " ^ String.concat "; " vs));
  let records = Cluster.all_records c in
  let delivered = List.length records in
  if delivered <> clients * requests then
    failwith "group_commit_sweep: not every request delivered";
  let dn = float_of_int delivered in
  let vs = Dsim.Engine.now_of e /. 1_000. in
  let forces = Obs.Registry.counter_total reg "db.force" in
  {
    gc_batch = batch;
    gc_on = gc;
    forces;
    forces_per_commit = float_of_int forces /. dn;
    gc_tx_per_vs = dn /. vs;
    gc_mean_latency_ms = List.fold_left ( +. ) 0. (latencies records) /. dn;
  }

let group_commit_sweep ?(seed = 42) ?domains () =
  sweep ?domains ~seed
    (List.concat_map
       (fun batch -> [ (batch, false); (batch, true) ])
       [ 1; 4; 16; 64 ])
    (fun (batch, gc) ~seed -> gc_run ~seed ~batch ~gc)

let render_gc rows =
  let headers =
    [
      "batch cap";
      "group commit";
      "forces";
      "forces/commit";
      "tx/vsec";
      "mean latency";
    ]
  in
  let body =
    List.map
      (fun r ->
        [
          string_of_int r.gc_batch;
          (if r.gc_on then "on" else "off");
          string_of_int r.forces;
          Printf.sprintf "%.2f" r.forces_per_commit;
          Printf.sprintf "%.1f" r.gc_tx_per_vs;
          Stats.Table.fmt_ms r.gc_mean_latency_ms;
        ])
      rows
  in
  "A15a — group commit: disk forces per committed request vs the window \
   cap, coalescing scheduler off vs on (force latency 12.5 ms; spec \
   asserted per row)\n"
  ^ Stats.Table.render ~headers ~rows:body

type recovery_row = {
  commits : int;
  checkpointed : bool;
  log_len : int;
  steps : int;
  replay_ms : float;
}

let recovery_run ~seed ~commits ~checkpoint_every =
  let t = Dsim.Engine.create ~seed () in
  let disk = Dstore.Disk.create ~force_latency:1. ~label:"log" () in
  let rm =
    Dbms.Rm.create ~timing:Dbms.Rm.zero_timing ~seed_data:[] ~disk ~name:"db"
      ()
  in
  let row = ref None in
  let _pid =
    Dsim.Engine.spawn t ~name:"db" ~main:(fun ~recovery:_ () ->
        for i = 1 to commits do
          let x = Dbms.Xid.make ~rid:1 ~j:i in
          Dbms.Rm.xa_start rm ~xid:x;
          ignore
            (Dbms.Rm.exec rm ~xid:x
               [
                 Dbms.Rm.Put
                   (Printf.sprintf "k%d" (i mod 32), Dbms.Value.Int i);
               ]);
          ignore (Dbms.Rm.vote rm ~xid:x);
          ignore (Dbms.Rm.decide rm ~xid:x Dbms.Rm.Commit);
          match checkpoint_every with
          | Some k when i mod k = 0 -> Dbms.Rm.checkpoint rm
          | _ -> ()
        done;
        (* the history is fully durable (the last decide forced it), so
           [recover] finds no tail to cut and is pure replay — time it
           over enough repetitions to rise above timer noise *)
        let reps = 32 in
        let t0 = Unix.gettimeofday () in
        for _ = 1 to reps do
          Dbms.Rm.recover rm
        done;
        let dt = (Unix.gettimeofday () -. t0) /. float_of_int reps in
        row :=
          Some
            {
              commits;
              checkpointed = checkpoint_every <> None;
              log_len = Dbms.Rm.log_length rm;
              steps = Dbms.Rm.recovery_steps rm;
              replay_ms = dt *. 1_000.;
            })
  in
  ignore (Dsim.Engine.run t);
  match !row with
  | Some r -> r
  | None -> failwith "recovery_sweep: micro-harness did not finish"

(* checkpoint every 48 commits: deliberately not a divisor of the history
   lengths, so a residual suffix survives the last snapshot *)
let recovery_sweep ?(seed = 42) ?domains () =
  sweep ?domains ~seed
    (List.concat_map
       (fun commits -> [ (commits, None); (commits, Some 48) ])
       [ 64; 256; 1024 ])
    (fun (commits, ck) ~seed ->
      recovery_run ~seed ~commits ~checkpoint_every:ck)

let render_recovery rows =
  let headers =
    [ "commits"; "checkpoints"; "log records"; "replay steps"; "replay ms" ]
  in
  let body =
    List.map
      (fun r ->
        [
          string_of_int r.commits;
          (if r.checkpointed then "on" else "off");
          string_of_int r.log_len;
          string_of_int r.steps;
          Printf.sprintf "%.3f" r.replay_ms;
        ])
      rows
  in
  "A15b — checkpointed recovery: replay work vs committed history, with \
   and without periodic checkpoints (replay ms is host CPU time, \
   machine-dependent; steps are deterministic)\n"
  ^ Stats.Table.render ~headers ~rows:body

type replica_row = {
  rep_replicas : int;
  rep_reads : int;
  rep_read_tx_per_vs : float;
  rep_served : int;
  rep_fallbacks : int;
  rep_hit_rate : float;
  rep_mean_read_latency_ms : float;
}

let replica_run ~seed ~replicas =
  let clients = read_clients and requests = read_requests in
  let reg = Obs.Registry.create ~spans:false () in
  (* a WIDE key space, deliberately: repeat audits are rare, so the method
     cache — which only pays off on repeats — stays cold and nearly every
     read is a miss. This is the mix the cache cannot help with and
     replicas can: each replica is one more SQL engine serving misses off
     the primary's commit pipeline. (A14 covers the opposite regime, a
     few hot accounts where the cache absorbs the repeats.) *)
  let kind =
    Workload.Generator.Read_heavy
      { accounts = 48; max_delta = 3; reads_per_write }
  in
  let scripts =
    List.init clients (fun i ~issue ->
        List.iter
          (fun body -> ignore (issue body))
          (Workload.Generator.bodies ~seed:(seed + (31 * i)) ~n:requests kind))
  in
  (* retransmit later than the default 400 ms: a loaded replica answers in
     a few SQL rounds (~0.5 s), and every premature retry lands on the
     next server, which then runs its own replica read of the same rid *)
  let e, c =
    Simrun.cluster ~seed ~obs:reg ~shards:1 ~cache:true ~replicas
      ~client_period:1_500.
      ~seed_data:(Workload.Generator.seed_data_of kind)
      ~business:(Workload.Generator.business_of kind)
      ~scripts ()
  in
  if not (Cluster.run_to_quiescence ~deadline:3_600_000. c) then
    failwith "replica_sweep: run did not quiesce";
  (match Cluster.Spec.check_all c with
  | [] -> ()
  | vs -> failwith ("replica_sweep: spec violated: " ^ String.concat "; " vs));
  let records = Cluster.all_records c in
  let delivered = List.length records in
  if delivered <> clients * requests then
    failwith "replica_sweep: not every request delivered";
  let read_records =
    List.filter
      (fun (r : Etx.Client.record) ->
        String.length r.result >= 8 && String.sub r.result 0 8 = "balance:")
      records
  in
  let reads = List.length read_records in
  let rn = float_of_int reads in
  let vs = Dsim.Engine.now_of e /. 1_000. in
  let hits = Obs.Registry.counter_total reg "cache.hit" in
  let misses = Obs.Registry.counter_total reg "cache.miss" in
  {
    rep_replicas = replicas;
    rep_reads = reads;
    rep_read_tx_per_vs = rn /. vs;
    rep_served = Obs.Registry.counter_total reg "server.replica_served";
    rep_fallbacks = Obs.Registry.counter_total reg "server.replica_fallback";
    rep_hit_rate =
      (if hits + misses = 0 then 0.
       else float_of_int hits /. float_of_int (hits + misses));
    rep_mean_read_latency_ms =
      (if reads = 0 then 0.
       else List.fold_left ( +. ) 0. (latencies read_records) /. rn);
  }

let replica_sweep ?(seed = 42) ?domains () =
  sweep ?domains ~seed [ 0; 1; 2 ] (fun replicas ~seed ->
      replica_run ~seed ~replicas)

let render_replica rows =
  let headers =
    [
      "replicas";
      "reads";
      "read tx/vsec";
      "replica-served";
      "fallbacks";
      "hit rate";
      "read latency";
    ]
  in
  let body =
    List.map
      (fun r ->
        [
          string_of_int r.rep_replicas;
          string_of_int r.rep_reads;
          Printf.sprintf "%.1f" r.rep_read_tx_per_vs;
          string_of_int r.rep_served;
          string_of_int r.rep_fallbacks;
          Printf.sprintf "%.0f%%" (r.rep_hit_rate *. 100.);
          Stats.Table.fmt_ms r.rep_mean_read_latency_ms;
        ])
      rows
  in
  "A15c — change-log read replicas: cache-miss reads served at bounded \
   staleness, across replica counts (method cache on; spec incl. replica \
   consistency asserted per row)\n"
  ^ Stats.Table.render ~headers ~rows:body
