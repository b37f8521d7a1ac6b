module T = Stats.Table
module Rt = Runtime.Etx_runtime

let bank_seed = Workload.Bank.seed_accounts [ ("acct0", 1_000_000) ]

let update_body = "acct0:10"

let latency (r : Etx.Client.record) = r.delivered_at -. r.issued_at
let latencies records = List.map latency records

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
(* Cells: a trial declares each column of its row once, as the header
   and text of the printed table and the key and typed value of the
   CSV / JSON field *)

let int h k n = T.cell h k (Stats.Json.Int n) (string_of_int n)
let str h k s = T.cell h k (Stats.Json.String s) s
let ms h k x = T.cell h k (Stats.Json.Float x) (T.fmt_ms x)
let num fmt h k x = T.cell h k (Stats.Json.Float x) (Printf.sprintf fmt x)

(* a ratio, printed as a percentage *)
let pct fmt h k x =
  T.cell h k (Stats.Json.Float x) (Printf.sprintf fmt (x *. 100.))

let on_off h k b = T.cell h k (Stats.Json.Bool b) (if b then "on" else "off")

let table ?(transposed = false) caption rows = { T.caption; transposed; rows }

(* ------------------------------------------------------------------ *)
(* Runs *)

(* Run [c] to quiescence and return its delivered records, or fail with
   [what ^ " did not quiesce"]; with [~spec] the cluster specification
   must hold too, else fail with [spec] and the violations. *)
let quiesce ?deadline ?spec what c =
  if not (Cluster.run_to_quiescence ?deadline c) then
    failwith (what ^ " did not quiesce");
  Option.iter
    (fun prefix ->
      match Cluster.Spec.check_all c with
      | [] -> ()
      | vs -> failwith (prefix ^ String.concat "; " vs))
    spec;
  Cluster.all_records c

let one_record what = function [ r ] -> r | _ -> failwith what

(* The comparison protocols on [rt], over the bank seed. *)
let baseline ?n_dbs ~rt script =
  Baselines.Baseline.build ?n_dbs ~rt ~seed_data:bank_seed
    ~business:Workload.Bank.update ~script ()

let tpc ?n_dbs ~rt script =
  Baselines.Tpc.build ?n_dbs ~rt ~seed_data:bank_seed
    ~business:Workload.Bank.update ~script ()

let pbackup ~rt script =
  Baselines.Pbackup.build ~rt ~seed_data:bank_seed
    ~business:Workload.Bank.update ~script ()

(* run [e] until [client]'s script is done; false at the deadline *)
let finish ~deadline e client =
  Dsim.Engine.run_until ~deadline e (fun () -> Etx.Client.script_done client)

let one_request_script ~issue = ignore (issue update_body)

(* ------------------------------------------------------------------ *)
(* Figure 8 *)

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

let fig8_column ~protocol ~ar ~transactions ~baseline reg ~latencies =
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
  let overhead = (mean -. baseline) /. baseline *. 100. in
  (str "" "protocol" protocol
  :: List.map (fun (row, t) -> ms row row (t /. n)) totals)
  @ [
      ms "other" "other"
        (mean -. (List.fold_left (fun a (_, t) -> a +. t) 0. totals /. n));
      ms "total" "total" mean;
      T.cell "cost of reliability" "overhead_pct" (Stats.Json.Float overhead)
        (T.fmt_pct overhead);
      pct "%.1f%%" "ci90/mean" "ci90_ratio"
        (Stats.Summary.ci90_width_ratio summary);
    ]

let fig8_table ~transactions columns =
  table ~transposed:true
    (Printf.sprintf
       "Figure 8 — latency components over %d identical transactions (ms)"
       transactions)
    columns

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
  quiesce ~spec:"figure8: AR violations: " "figure8: AR run" d

(* Each trial returns its protocol, whether it is the AR, its registry and
   its client-visible latencies; the columns are read once the baseline's
   mean is known. *)
let run_ar ~transactions ~seed =
  let reg = Obs.Registry.create () in
  let records = fig8_ar_records ~obs:(Some reg) ~transactions ~seed in
  ("AR (e-Transactions)", true, reg, latencies records)

(* A comparison protocol's trial: [build ~rt script] runs it on a fresh
   engine with a registry attached and returns its client. *)
let run_comparison ~protocol build ~transactions ~seed =
  let reg = Obs.Registry.create () in
  let e, rt = Simrun.engine ~seed ~obs:reg ~tracing:false () in
  let client = build ~rt (identical_updates ~transactions) in
  if not (finish ~deadline:600_000. e client) then
    failwith ("figure8: " ^ protocol ^ " run did not finish");
  (protocol, false, reg, latencies (Etx.Client.records client))

let figure8 ?(transactions = 40) ?(seed = 42) ?domains () =
  let runs =
    sweep ?domains ~seed
      [
        run_comparison ~protocol:"baseline (unreliable)" (fun ~rt s ->
            (baseline ~rt s).client);
        run_ar;
        run_comparison ~protocol:"2PC (at-most-once)" (fun ~rt s ->
            (tpc ~rt s).client);
        run_comparison ~protocol:"primary-backup" (fun ~rt s ->
            (pbackup ~rt s).client);
      ]
      (fun run -> run ~transactions)
  in
  let baseline =
    match runs with
    | (_, _, _, l) :: _ -> (Stats.Summary.of_samples l).mean
    | [] -> assert false
  in
  fig8_table ~transactions
    (List.map
       (fun (protocol, ar, reg, latencies) ->
         fig8_column ~protocol ~ar ~transactions ~baseline reg ~latencies)
       runs)

(* ------------------------------------------------------------------ *)
(* Figure 7 *)

let figure7 ?(seed = 42) ?domains () =
  (* every trial needs its trace: the whole figure is message counting *)
  let measure proto engine ~forced_ios =
    let trace = Dsim.Engine.trace engine in
    [
      str "protocol" "protocol" proto;
      int "app msgs" "app_messages" (Msgclass.application_messages trace);
      int "all msgs" "all_messages" (Msgclass.protocol_messages trace);
      int "steps" "steps" (Msgclass.protocol_steps trace);
      int "forced IOs" "forced_ios" forced_ios;
    ]
  in
  let finished e client = ignore (finish ~deadline:60_000. e client) in
  let trial run = { seed; run } in
  table "Figure 7 — communication in a failure-free committed execution"
    (run_trials ?domains
       [
         trial (fun ~seed ->
             let e, rt = Simrun.engine ~seed () in
             finished e (baseline ~rt one_request_script).client;
             measure "baseline" e ~forced_ios:0);
         trial (fun ~seed ->
             let e, rt = Simrun.engine ~seed () in
             let t = tpc ~rt one_request_script in
             finished e t.client;
             measure "2PC" e
               ~forced_ios:(Dstore.Disk.forced_writes t.coordinator_disk));
         trial (fun ~seed ->
             let e, rt = Simrun.engine ~seed () in
             finished e (pbackup ~rt one_request_script).client;
             measure "primary-backup" e ~forced_ios:0);
         trial (fun ~seed ->
             let e, d =
               Simrun.cluster ~seed ~seed_data:bank_seed
                 ~business:Workload.Bank.update
                 ~scripts:[ one_request_script ] ()
             in
             ignore (Cluster.run_to_quiescence d);
             measure "AR (e-Transactions)" e ~forced_ios:0);
       ])

(* ------------------------------------------------------------------ *)
(* Figure 1 *)

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

let fig1_run ~label ~seed ?crash_primary_at ?business
    ?(seed_data = bank_seed) ?(body = update_body) () =
  let business = Option.value ~default:Workload.Bank.update business in
  let e, d =
    Simrun.cluster ~seed ~client_period:300. ~seed_data ~business
      ~scripts:[ (fun ~issue -> ignore (issue body)) ]
      ()
  in
  Option.iter
    (fun t -> Dsim.Engine.crash_at e t (Cluster.primary d ~shard:0))
    crash_primary_at;
  let ok = Cluster.run_to_quiescence ~deadline:120_000. d in
  let records = Cluster.all_records d in
  let delivered = ok && records <> [] in
  let tries = match records with [ r ] -> r.tries | _ -> -1 in
  let cleaner = cleaner_note e in
  let violations = List.length (Cluster.Spec.check_all d) in
  [
    str "scenario" "scenario" label;
    T.cell "delivered" "delivered" (Stats.Json.Bool delivered)
      (string_of_bool delivered);
    int "tries" "tries" tries;
    T.cell "cleaner" "cleaner"
      (Stats.Json.String (Option.value ~default:"" cleaner))
      (Option.value ~default:"-" cleaner);
    T.cell "violations" "violations" (Stats.Json.Int violations)
      (if violations = 0 then "none" else string_of_int violations ^ "!");
  ]

let figure1 ?(seed = 42) ?domains () =
  let trial run = { seed; run } in
  table "Figure 1 — the four canonical executions"
    (run_trials ?domains
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
               ~crash_primary_at:230. ());
         trial (fun ~seed ->
             fig1_run ~label:"(d) fail-over with abort" ~seed
               ~crash_primary_at:100. ());
       ])

(* ------------------------------------------------------------------ *)
(* Ablations *)

let failover_sweep ?(seed = 42) ?domains () =
  table
    "A1 — fail-over latency vs failure-detector timeout (primary crashes at \
     t=100ms)"
    (sweep ?domains ~seed [ 20.; 50.; 100.; 200.; 400. ] (fun timeout ~seed ->
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
         let r =
           one_record "failover_sweep: expected one record"
             (quiesce ~deadline:300_000. "failover_sweep: run" d)
         in
         [
           ms "fd timeout (ms)" "fd_timeout_ms" timeout;
           ms "latency (ms)" "latency_ms" (latency r);
           int "tries" "tries" r.tries;
         ]))

let backoff_sweep ?(seed = 42) ?(periods = [ 100.; 200.; 400.; 800.; 1600. ])
    ?domains () =
  (* one request's latency, the primary crashing at 100 ms when [crash] *)
  let run ~seed ~period ~crash what =
    let e, d =
      Simrun.cluster ~seed ~client_period:period ~tracing:false
        ~seed_data:bank_seed ~business:Workload.Bank.update
        ~scripts:[ one_request_script ] ()
    in
    if crash then Dsim.Engine.crash_at e 100. (Cluster.primary d ~shard:0);
    let deadline = if crash then 300_000. else 120_000. in
    latency
      (one_record "backoff_sweep: expected one record"
         (quiesce ~deadline ("backoff_sweep: " ^ what ^ " run") d))
  in
  table "A2 — client back-off period: failure-free vs fail-over latency"
    (sweep ?domains ~seed periods (fun period ~seed ->
         let nice = run ~seed ~period ~crash:false "nice" in
         let failover = run ~seed ~period ~crash:true "failover" in
         [
           ms "back-off (ms)" "backoff_ms" period;
           ms "nice latency (ms)" "nice_ms" nice;
           ms "fail-over latency (ms)" "failover_ms" failover;
         ]))

let loss_sweep ?(seed = 42) ?(rates = [ 0.; 0.05; 0.1; 0.2; 0.3 ]) ?domains ()
    =
  (* tracing stays on: msgs/request is counted from the trace *)
  table "A3 — message loss: reliable-channel retransmission cost"
    (sweep ?domains ~seed rates (fun rate ~seed ->
         let net = Dnet.Netmodel.lossy ~loss:rate (Dnet.Netmodel.lan ()) in
         let n = 10 in
         let e, d =
           Simrun.cluster ~seed ~net ~client_period:300. ~seed_data:bank_seed
             ~business:Workload.Bank.update
             ~scripts:[ identical_updates ~transactions:n ]
             ()
         in
         let records = quiesce ~deadline:600_000. "loss_sweep: run" d in
         [
           pct "%.0f%%" "loss rate" "loss_rate" rate;
           ms "mean latency (ms)" "latency_ms"
             (Stats.Summary.mean (latencies records));
           int "msgs/request" "msgs_per_request"
             (Msgclass.protocol_messages (Dsim.Engine.trace e) / n);
         ]))

let db_sweep ?(seed = 42) ?(counts = [ 1; 2; 4; 8 ]) ?domains () =
  table "A4 — prepare fan-out: latency vs number of databases"
    (sweep ?domains ~seed counts (fun n_dbs ~seed ->
         (* one request through a comparison protocol *)
         let comparison what build =
           let e, rt = Simrun.engine ~seed ~tracing:false () in
           let client = build ~rt in
           ignore (finish ~deadline:120_000. e client);
           latency
             (one_record ("db_sweep: " ^ what) (Etx.Client.records client))
         in
         let baseline_ms =
           comparison "baseline" (fun ~rt ->
               (baseline ~n_dbs ~rt one_request_script).client)
         in
         let ar_ms =
           let _e, d =
             Simrun.cluster ~seed ~n_dbs ~tracing:false ~seed_data:bank_seed
               ~business:Workload.Bank.update ~scripts:[ one_request_script ]
               ()
           in
           latency
             (one_record "db_sweep: AR"
                (quiesce ~deadline:120_000. "db_sweep: AR" d))
         in
         let tpc_ms =
           comparison "2PC" (fun ~rt ->
               (tpc ~n_dbs ~rt one_request_script).client)
         in
         [
           int "databases" "databases" n_dbs;
           ms "baseline (ms)" "baseline_ms" baseline_ms;
           ms "AR (ms)" "ar_ms" ar_ms;
           ms "2PC (ms)" "tpc_ms" tpc_ms;
         ]))

let persistence_ablation ?(seed = 42) ?(transactions = 15) ?domains () =
  let script = identical_updates ~transactions in
  let ar_mean ~recoverable ~seed =
    let _e, d =
      Simrun.cluster ~seed ~recoverable ~tracing:false ~seed_data:bank_seed
        ~business:Workload.Bank.update ~scripts:[ script ] ()
    in
    Stats.Summary.mean
      (latencies (quiesce ~deadline:600_000. "persistence_ablation: run" d))
  in
  let tpc_mean ~seed =
    let e, rt = Simrun.engine ~seed ~tracing:false () in
    let t = tpc ~rt script in
    ignore (finish ~deadline:600_000. e t.client);
    Stats.Summary.mean (latencies (Etx.Client.records t.client))
  in
  let trial name mean =
    {
      seed;
      run =
        (fun ~seed ->
          [
            str "configuration" "configuration" name;
            ms "mean latency (ms)" "latency_ms" (mean ~seed);
          ]);
    }
  in
  table
    "A5 — the cost of recoverable application servers (why the middle tier \
     is diskless)"
    (run_trials ?domains
       [
         trial "AR, diskless (the paper's choice)" (ar_mean ~recoverable:false);
         trial "AR, persistent registers (crash-recovery)"
           (ar_mean ~recoverable:true);
         trial "2PC (reference)" tpc_mean;
       ])

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
              Rt.sleep 10.;
              let t0 = Rt.now () in
              ignore (Consensus.Agent.propose agent ~key:"k" Sweep_value);
              latency := Rt.now () -. t0
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
    [
      ms "round timeout (ms)" "round_timeout_ms" round_timeout;
      ms "register-write latency (ms)" "latency_ms" !latency;
    ]
  in
  table
    "A6 — consensus optimised for failures: wo-register write with a crashed \
     first coordinator"
    (sweep ?domains ~seed round_timeouts one)

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
  table "A7 — aggregate throughput vs concurrent clients (single database)"
    (sweep ?domains ~seed clients (fun n_clients ~seed ->
         let hot = run ~n_clients ~contended:true ~seed in
         let cold = run ~n_clients ~contended:false ~seed in
         [
           int "clients" "clients" n_clients;
           num "%.2f" "contended (tx/s)" "contended_tx_per_s" hot;
           num "%.2f" "disjoint accounts (tx/s)" "disjoint_tx_per_s" cold;
         ]))

let scale_points = [ (3, 1); (3, 8); (5, 32); (10, 128); (25, 512) ]

(* One scale point: simulated events to the end of every client's
   script, and the wall-clock seconds they took. Disjoint accounts: this
   measures substrate cost per simulated event, not lock contention, so
   the protocol work should scale with the cluster and not with retry
   storms. *)
let scale_point ~seed ?obs ~requests_per_client (n_servers, n_clients) =
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
  (Dsim.Engine.events_of e, wall_s)

let scale_sweep ?(seed = 42) ?(points = scale_points) () =
  table
    "A10 — substrate scalability: events/sec across cluster sizes \
     (wall-clock, host-dependent)"
    (List.map
       (fun ((servers, clients) as point) ->
         let events, wall = scale_point ~seed ~requests_per_client:1 point in
         [
           int "app servers" "servers" servers;
           int "clients" "clients" clients;
           int "sim events" "events" events;
           num "%.3f" "wall (s)" "wall_s" wall;
           num "%.0f" "events/s" "events_per_sec" (float_of_int events /. wall);
         ])
       points)

(* Obs overhead: the zero-cost claim, measured. The A10 point of 3 app
   servers and 8 clients, run with no registry attached, with metrics only,
   and fully traced. Tracing must never perturb the schedule, so the event
   counts must agree. *)
let obs_overhead ~seed =
  let clients = 8 and requests_per_client = 2 in
  let one mode =
    let obs =
      match mode with
      | "disabled" -> None
      | "metrics" -> Some (Obs.Registry.create ~spans:false ())
      | _ -> Some (Obs.Registry.create ())
    in
    let events, wall =
      scale_point ~seed ?obs ~requests_per_client (3, clients)
    in
    (* the committed counter must equal the requests delivered *)
    Option.iter
      (fun reg ->
        let counted = Obs.Registry.counter_total reg "client.committed" in
        if counted <> requests_per_client * clients then
          failwith
            (Printf.sprintf
               "obs-overhead (%s): client.committed=%d, %d delivered" mode
               counted
               (requests_per_client * clients)))
      obs;
    (mode, events, wall, float_of_int events /. wall)
  in
  let runs = List.map one [ "disabled"; "metrics"; "traced" ] in
  let base = match runs with (_, _, _, rate) :: _ -> rate | [] -> nan in
  table ""
    (List.map
       (fun (mode, events, wall, rate) ->
         [
           str "obs mode" "mode" mode;
           int "sim events" "events" events;
           num "%.3f" "wall (s)" "wall_s" wall;
           num "%.0f" "events/s" "events_per_sec" rate;
           T.shown_as "vs off" (Printf.sprintf "%.2fx" (rate /. base)) [];
         ])
       runs)

(* ------------------------------------------------------------------ *)
(* A11 — shard scaling: S independent replica groups on one simulator.

   Unlike the substrate-cost scale sweep above (wall-clock events/sec,
   host-dependent), the figure of merit here is virtual-time throughput:
   committed transactions per simulated second at quiescence. Shards work
   in parallel in virtual time, so the quiescence time stays roughly flat
   while the request count grows with S — that ratio is the scaling story.
   Each trial is deterministic, so the rows are reproducible anywhere. *)

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
    let records =
      quiesce ~deadline:7_200_000. ~spec:"shard_sweep: spec violated: "
        "shard_sweep: cluster" c
    in
    let vtime_ms = Dsim.Engine.now_of e in
    let delivered = List.length records in
    [
      int "shards" "shards" n_shards;
      int "clients" "clients" n_clients;
      int "requests" "requests" (n_clients * requests_per_client);
      int "delivered" "delivered" delivered;
      int "sim events" "events" (Dsim.Engine.events_of e);
      num "%.1f" "vtime (ms)" "vtime_ms" vtime_ms;
      num "%.2f" "tx/vsec" "tx_per_vs"
        (float_of_int delivered /. (vtime_ms /. 1000.));
    ]
  in
  table
    "A11 — shard scaling: independent replica groups, virtual-time \
     throughput (deterministic)"
    (sweep ?domains ~seed [ 1; 2; 4 ] one)

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
    let records =
      quiesce ~deadline:7_200_000. ~spec:"cross_sweep: spec violated: "
        "cross_sweep: cluster" c
    in
    let vtime_ms = Dsim.Engine.now_of e in
    let delivered = List.length records in
    let participants =
      List.fold_left
        (fun acc (r : Etx.Client.record) ->
          acc + List.length (body_shards ~map r.body))
        0 records
    in
    let msgs = Msgclass.protocol_messages (Dsim.Engine.trace e) in
    [
      int "shards" "shards" n_shards;
      num "%.2f" "cross ratio" "cross_ratio" ratio;
      T.shown_as "cross/total"
        (Printf.sprintf "%d/%d" n_cross requests)
        Stats.Json.[ ("cross", Int n_cross); ("requests", Int requests) ];
      int "delivered" "delivered" delivered;
      num "%.2f" "mean parts" "mean_participants"
        (float_of_int participants /. float_of_int (max 1 delivered));
      T.field_only "events" (Stats.Json.Int (Dsim.Engine.events_of e));
      num "%.1f" "vtime (ms)" "vtime_ms" vtime_ms;
      num "%.2f" "tx/vsec" "tx_per_vs"
        (float_of_int delivered /. (vtime_ms /. 1000.));
      num "%.1f" "msgs/commit" "msgs_per_commit"
        (float_of_int msgs /. float_of_int (max 1 delivered));
    ]
  in
  table
    "A16 — cross-shard commit: Paxos Commit over the replica groups, cost \
     vs cross fraction (deterministic)"
    (sweep ?domains ~seed cross_points one)

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
    let records =
      quiesce ~deadline:1_200_000. ~spec:"migrate_sweep: spec violated: "
        "migrate_sweep: cluster" c
    in
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
    [
      int "clients" "clients" 6;
      T.shown_as "delivered"
        (Printf.sprintf "%d/%d" delivered requests)
        Stats.Json.[ ("requests", Int requests); ("delivered", Int delivered) ];
      num "%.2f" "tx/vsec before" "before_tx_per_vs"
        (rate (in_phase 0. t_split) t_split);
      num "%.2f" "tx/vsec during" "during_tx_per_vs"
        (rate (in_phase t_split t_flip) (t_flip -. t_split));
      num "%.2f" "tx/vsec after" "after_tx_per_vs"
        (rate (in_phase t_flip infinity) (t_end -. t_flip));
      num "%.1f" "window (ms)" "during_ms" (t_flip -. t_split);
      num "%.1f" "drain (ms)" "drain_ms"
        (match Obs.Registry.merged_histogram reg "migrate.drain_ms" with
        | Some h -> Option.value ~default:0. (Obs.Histogram.mean h)
        | None -> 0.);
      int "keys moved" "keys_moved" (counter "migrate.keys_moved");
      int "bounced" "bounced" (counter "migrate.bounced");
      int "refreshes" "map_refresh" (counter "client.map_refresh");
      T.field_only "events" (Stats.Json.Int (Dsim.Engine.events_of e));
    ]
  in
  table
    "A17 — elastic reconfiguration: online split under live traffic, \
     throughput by migration phase (deterministic)"
    (run_trials ?domains [ { seed; run = one } ])

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
        ~scripts:[ identical_updates ~transactions:requests ]
        ()
    in
    let records =
      quiesce ~deadline:600_000.
        ~spec:"fd_quality_sweep: suspicions broke the spec!? "
        "fd_quality_sweep: run" d
    in
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
        0 records
    in
    [
      ms "fd timeout (ms)" "timeout_ms" timeout;
      int "spurious cleanings" "spurious_cleanings" cleanings;
      int "extra tries" "extra_tries" extra_tries;
      ms "mean latency (ms)" "mean_latency_ms"
        (Stats.Summary.mean (latencies records));
    ]
  in
  table
    "A9 — detector quality: false suspicions cost retries, never \
     consistency (spec asserted per row)"
    (sweep ?domains ~seed timeouts one)

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
    let r =
      one_record "failover_phases: expected one record"
        (quiesce ~deadline:300_000. "failover_phases: run" d)
    in
    let spans =
      List.filter
        (fun (s : Obs.Span.t) -> s.trace = r.rid)
        (Obs.Registry.spans reg)
    in
    let abandoned =
      List.length (List.filter (fun s -> not (Obs.Span.closed s)) spans)
    in
    ( latency r,
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
  let row phase label mean_ms =
    [
      T.cell "phase" "phase" (Stats.Json.String phase) label;
      ms "mean (ms)" "mean_ms" mean_ms;
      num "%.1f%%" "share" "share_pct" (100. *. mean_ms /. mean_latency);
    ]
  in
  let phases =
    List.map
      (fun name -> (name, mean (fun (_, _, _, ds) -> List.assoc name ds)))
      failover_phase_names
  in
  let other =
    mean_latency -. List.fold_left (fun a (_, m) -> a +. m) 0. phases
  in
  table
    (Printf.sprintf
       "A12 — fail-over latency attribution from spans (%d trials, mean \
        latency %.1f ms, mean tries %.1f, %.1f spans abandoned by the crash)"
       (List.length results) mean_latency
       (mean (fun (_, t, _, _) -> float_of_int t))
       (mean (fun (_, _, a, _) -> float_of_int a)))
    (List.map (fun (name, m) -> row name name m) phases
    @ [ row "other" "other (detection, back-off, transport)" other ])

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
   the deepest cap on disjoint accounts, each issuing two updates *)
let batch_clients = 128
let batch_requests = 2

let batch_workload () =
  ( Workload.Bank.seed_accounts
      (List.init batch_clients (fun i ->
           (Printf.sprintf "acct%d" i, 1_000_000))),
    List.init batch_clients (fun i ~issue ->
        for _ = 1 to batch_requests do
          ignore (issue (Printf.sprintf "acct%d:1" i))
        done) )

(* the run's records, failing unless every request was delivered *)
let all_delivered what ~clients ~requests records =
  if List.length records <> clients * requests then
    failwith (what ^ ": not every request delivered");
  records

let batch_run ~seed ~batch =
  let reg = Obs.Registry.create ~spans:false () in
  let seed_data, scripts = batch_workload () in
  let e, c =
    Simrun.cluster ~seed ~obs:reg ~shards:1 ~batch ~seed_data
      ~business:Workload.Bank.update ~scripts ()
  in
  let records =
    all_delivered "batch_sweep" ~clients:batch_clients
      ~requests:batch_requests
      (quiesce ~deadline:3_600_000. "batch_sweep: run" c)
  in
  let dn = float_of_int (List.length records) in
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
  [
    int "batch cap" "batch" batch;
    num "%.1f" "tx/vsec" "tx_per_vs" (dn /. vs);
    num "%.1f" "msgs/commit" "msgs_per_commit" (float_of_int msgs /. dn);
    ms "mean latency" "mean_latency_ms"
      (List.fold_left ( +. ) 0. (latencies records) /. dn);
    num "%.1f" "mean fill" "mean_fill" mean_fill;
  ]

let batch_sweep ?(seed = 42) ?domains () =
  table
    "A13 — batched commit pipeline: one compute/log/decide cycle per window \
     (single shard, disjoint accounts; spec asserted per row)"
    (sweep ?domains ~seed [ 1; 4; 16; 64 ] (fun batch ~seed ->
         batch_run ~seed ~batch))

(* A13b — which phase the batch collapses: amortized closed-span time per
   committed request, classic path vs a deep window. The same span names
   as A12, so the two tables line up. *)

let batch_phases ?(seed = 42) ?domains () =
  let one ~batch ~seed =
    let reg = Obs.Registry.create () in
    let seed_data, scripts = batch_workload () in
    let _e, c =
      Simrun.cluster ~seed ~tracing:false ~obs:reg ~shards:1 ~batch
        ~seed_data ~business:Workload.Bank.update ~scripts ()
    in
    let dn =
      float_of_int
        (List.length (quiesce ~deadline:3_600_000. "batch_phases: run" c))
    in
    let spans = Obs.Registry.spans reg in
    T.shown_as "phase" (Printf.sprintf "batch=%d (ms/commit)" batch) []
    :: List.map
         (fun name ->
           T.shown_as name (T.fmt_ms (Obs.Span.total spans name /. dn)) [])
         failover_phase_names
  in
  table ~transposed:true
    "A13b — amortized per-commit phase cost: batching collapses the \
     election (leased), consensus and terminate phases; SQL compute is \
     already overlapped"
    (sweep ?domains ~seed [ 1; 16 ] (fun batch -> one ~batch))

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

(* A14 and A15c: eight clients, eight requests each, seven audits per
   update *)
let read_clients = 8
let read_requests = 8
let reads_per_write = 7

(* per-client seeds so the clients do not issue identical streams *)
let read_scripts ~seed kind =
  List.init read_clients (fun i ~issue ->
      List.iter
        (fun body -> ignore (issue body))
        (Workload.Generator.bodies ~seed:(seed + (31 * i)) ~n:read_requests
           kind))

(* The delivered audits (they answer "balance:..."; everything else is a
   write), their count as a float, and the mean read latency. *)
let read_records records =
  let reads =
    List.filter
      (fun (r : Etx.Client.record) ->
        String.length r.result >= 8 && String.sub r.result 0 8 = "balance:")
      records
  in
  let rn = float_of_int (List.length reads) in
  ( reads,
    rn,
    if reads = [] then 0. else List.fold_left ( +. ) 0. (latencies reads) /. rn
  )

let hit_rate reg =
  let hits = Obs.Registry.counter_total reg "cache.hit" in
  let misses = Obs.Registry.counter_total reg "cache.miss" in
  if hits + misses = 0 then 0.
  else float_of_int hits /. float_of_int (hits + misses)

let read_run ~seed ~servers ~cache =
  let reg = Obs.Registry.create ~spans:false () in
  let kind =
    Workload.Generator.Read_heavy
      { accounts = 4; max_delta = 3; reads_per_write }
  in
  let e, c =
    Simrun.cluster ~seed ~obs:reg ~shards:1 ~n_app_servers:servers ~cache
      ~seed_data:(Workload.Generator.seed_data_of kind)
      ~business:(Workload.Generator.business_of kind)
      ~scripts:(read_scripts ~seed kind) ()
  in
  let records =
    all_delivered "read_sweep" ~clients:read_clients ~requests:read_requests
      (quiesce ~deadline:3_600_000. ~spec:"read_sweep: spec violated: "
         "read_sweep: run" c)
  in
  let reads, rn, read_latency = read_records records in
  let vs = Dsim.Engine.now_of e /. 1_000. in
  let msgs = Msgclass.protocol_messages (Dsim.Engine.trace e) in
  [
    int "servers" "servers" servers;
    on_off "cache" "cache" cache;
    int "reads" "reads" (List.length reads);
    num "%.1f" "tx/vsec" "tx_per_vs"
      (float_of_int (List.length records) /. vs);
    num "%.1f" "read tx/vsec" "read_tx_per_vs" (rn /. vs);
    num "%.1f" "msgs/read" "msgs_per_read"
      (if reads = [] then 0. else float_of_int msgs /. rn);
    pct "%.0f%%" "hit rate" "hit_rate" (hit_rate reg);
    ms "read latency" "mean_read_latency_ms" read_latency;
  ]

let read_sweep ?(seed = 42) ?domains () =
  table
    "A14 — method cache: read-heavy mix across app servers × cache on/off \
     (single shard; spec incl. cache coherence asserted per row)"
    (sweep ?domains ~seed
       (List.concat_map (fun n -> [ (n, false); (n, true) ]) [ 1; 2; 3; 4 ])
       (fun (servers, cache) ~seed -> read_run ~seed ~servers ~cache))

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

(* 16 application servers, not the default 3: each server's compute
   thread runs one transaction at a time (the paper's architecture), so
   the db sees at most 16 concurrent commitment steps. With only 3 the
   ~25 ms of forced IO per ~600 ms transaction essentially never collides
   and the coalescing scheduler has nothing to merge — group commit
   without concurrent sessions buys exactly nothing. *)
let gc_run ~seed ~batch ~gc =
  let reg = Obs.Registry.create ~spans:false () in
  let seed_data, scripts = batch_workload () in
  let e, c =
    Simrun.cluster ~seed ~obs:reg ~shards:1 ~n_app_servers:16 ~batch
      ~group_commit:gc ~seed_data ~business:Workload.Bank.update ~scripts ()
  in
  let records =
    all_delivered "group_commit_sweep" ~clients:batch_clients
      ~requests:batch_requests
      (quiesce ~deadline:3_600_000. ~spec:"group_commit_sweep: spec violated: "
         "group_commit_sweep: run" c)
  in
  let dn = float_of_int (List.length records) in
  let vs = Dsim.Engine.now_of e /. 1_000. in
  let forces = Obs.Registry.counter_total reg "db.force" in
  [
    int "batch cap" "batch" batch;
    on_off "group commit" "group_commit" gc;
    int "forces" "forces" forces;
    num "%.2f" "forces/commit" "forces_per_commit" (float_of_int forces /. dn);
    num "%.1f" "tx/vsec" "tx_per_vs" (dn /. vs);
    ms "mean latency" "mean_latency_ms"
      (List.fold_left ( +. ) 0. (latencies records) /. dn);
  ]

let group_commit_sweep ?(seed = 42) ?domains () =
  table
    "A15a — group commit: disk forces per committed request vs the window \
     cap, coalescing scheduler off vs on (force latency 12.5 ms; spec \
     asserted per row)"
    (sweep ?domains ~seed
       (List.concat_map
          (fun batch -> [ (batch, false); (batch, true) ])
          [ 1; 4; 16; 64 ])
       (fun (batch, gc) ~seed -> gc_run ~seed ~batch ~gc))

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
            [
              int "commits" "commits" commits;
              on_off "checkpoints" "checkpointed" (checkpoint_every <> None);
              int "log records" "log_len" (Dbms.Rm.log_length rm);
              int "replay steps" "replay_steps" (Dbms.Rm.recovery_steps rm);
              num "%.3f" "replay ms" "replay_ms" (dt *. 1_000.);
            ])
  in
  ignore (Dsim.Engine.run t);
  match !row with
  | Some r -> r
  | None -> failwith "recovery_sweep: micro-harness did not finish"

(* checkpoint every 48 commits: deliberately not a divisor of the history
   lengths, so a residual suffix survives the last snapshot *)
let recovery_sweep ?(seed = 42) ?domains () =
  table
    "A15b — checkpointed recovery: replay work vs committed history, with \
     and without periodic checkpoints (replay ms is host CPU time, \
     machine-dependent; steps are deterministic)"
    (sweep ?domains ~seed
       (List.concat_map
          (fun commits -> [ (commits, None); (commits, Some 48) ])
          [ 64; 256; 1024 ])
       (fun (commits, ck) ~seed ->
         recovery_run ~seed ~commits ~checkpoint_every:ck))

let replica_run ~seed ~replicas =
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
  (* retransmit later than the default 400 ms: a loaded replica answers in
     a few SQL rounds (~0.5 s), and every premature retry lands on the
     next server, which then runs its own replica read of the same rid *)
  let e, c =
    Simrun.cluster ~seed ~obs:reg ~shards:1 ~cache:true ~replicas
      ~client_period:1_500.
      ~seed_data:(Workload.Generator.seed_data_of kind)
      ~business:(Workload.Generator.business_of kind)
      ~scripts:(read_scripts ~seed kind) ()
  in
  let records =
    all_delivered "replica_sweep" ~clients:read_clients
      ~requests:read_requests
      (quiesce ~deadline:3_600_000. ~spec:"replica_sweep: spec violated: "
         "replica_sweep: run" c)
  in
  let reads, rn, read_latency = read_records records in
  let vs = Dsim.Engine.now_of e /. 1_000. in
  let counter = Obs.Registry.counter_total reg in
  [
    int "replicas" "replicas" replicas;
    int "reads" "reads" (List.length reads);
    num "%.1f" "read tx/vsec" "read_tx_per_vs" (rn /. vs);
    int "replica-served" "replica_served" (counter "server.replica_served");
    int "fallbacks" "fallbacks" (counter "server.replica_fallback");
    pct "%.0f%%" "hit rate" "hit_rate" (hit_rate reg);
    ms "read latency" "mean_read_latency_ms" read_latency;
  ]

let replica_sweep ?(seed = 42) ?domains () =
  table
    "A15c — change-log read replicas: cache-miss reads served at bounded \
     staleness, across replica counts (method cache on; spec incl. replica \
     consistency asserted per row)"
    (sweep ?domains ~seed [ 0; 1; 2 ] (fun replicas ~seed ->
         replica_run ~seed ~replicas))
