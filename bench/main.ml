(* Benchmark harness.

   Running this executable regenerates every table and figure of the paper's
   evaluation (Appendix 3) plus the ablations listed in DESIGN.md, then runs
   a Bechamel suite with one [Test.make] per experiment (wall-clock cost of
   regenerating each artefact) and micro-benchmarks of the simulation
   substrate.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- figure8      # one artefact
     dune exec bench/main.exe -- --domains 4 figure8
     dune exec bench/main.exe -- parallel     # 1-domain vs N-domain
     (artefacts: figure8 figure7 figure1 failover backoff loss dbs
      persistence consensus-failover throughput registers fd-quality
      scale scale-smoke shard shard-smoke cross cross-smoke migrate
      migrate-smoke batch batch-smoke cache cache-smoke group-commit
      group-commit-smoke recovery recovery-smoke replica replica-smoke
      parallel live micro failover-phases obs-overhead)

   Each invocation also writes BENCH_harness.json (via {!Stats.Json}) —
   per-artefact wall-clock seconds plus the sweep points, machine-readable:
     { "schema": "etx-bench-harness/10", "domains": N, "host_cores": C,
       "artefacts": [ { "name": "figure8", "backend": "sim", "obs": "off",
                        "wall_s": 1.234 }, ... ],
       "scale": [ { "servers": 3, "clients": 1, "events": 12345,
                    "wall_s": 0.5, "events_per_sec": 24690.0 }, ... ],
       "shard": [ { "backend": "sim", "shards": 2, "clients": 4,
                    "requests": 16, "delivered": 16, "events": 3606,
                    "vtime_ms": 1916.9, "tx_per_vs": 8.3, "wall_s": 0.2 },
                  { "backend": "live", "shards": 2, ...,
                    "requests_per_sec": 5.0 }, ... ],
       "cross": [ { "backend": "sim", "shards": 2, "cross_ratio": 0.5,
                    "cross": 6, "requests": 12, "delivered": 12,
                    "mean_participants": 1.5, "tx_per_vs": 4.1,
                    "msgs_per_commit": 61.0, "wall_s": 0.3 }, ... ],
       "migrate": [ { "backend": "sim", "clients": 6, "requests": 60,
                      "delivered": 60, "before_tx_per_vs": 9.1,
                      "during_tx_per_vs": 5.2, "after_tx_per_vs": 8.8,
                      "during_ms": 512.0, "drain_ms": 210.0,
                      "keys_moved": 3, "bounced": 7, "map_refresh": 4,
                      "wall_s": 0.4 }, ... ],
       "live": [ { "clients": 2, "requests": 6, "wall_s": 1.2,
                   "requests_per_sec": 5.0 }, ... ],
       "obs_overhead": [ { "mode": "disabled", "events": 12345,
                           "wall_s": 0.5, "events_per_sec": 24690.0 }, ... ],
       "group_commit": [ { "batch": 4, "group_commit": true, "forces": 129,
                           "forces_per_commit": 0.50, "tx_per_vs": 12.3,
                           "mean_latency_ms": 410.2 }, ... ],
       "recovery": [ { "commits": 256, "checkpointed": true, "log_len": 9,
                       "replay_steps": 9, "replay_ms": 0.021 }, ... ],
       "replica": [ { "replicas": 2, "reads": 56, "read_tx_per_vs": 3.1,
                      "replica_served": 18, "fallbacks": 2,
                      "hit_rate": 0.61, "mean_read_latency_ms": 220.4 },
                    ... ] }
   Every artefact records which runtime backend produced it ("sim" for the
   deterministic discrete-event engine, "live" for the wall-clock threads
   backend — the [live] and [shard] artefacts' live rows) and which
   observability mode it ran under ("off" = no registry attached,
   "metrics" = counters/histograms only, "traced" = spans too, "sweep" =
   the obs-overhead artefact compares all three). *)

let domains = ref 1

let section title body =
  Printf.printf "== %s ==\n%s\n\n%!" title body

let host_cores = Domain.recommended_domain_count ()

(* wall-clock ledger (name, backend, obs mode, seconds), dumped to
   BENCH_harness.json on exit *)
let timings : (string * string * string * float) list ref = ref []

(* (servers, clients, events, wall_s, events/s) points from the scale sweep *)
let scale_rows : (int * int * int * float * float) list ref = ref []

(* (clients, total requests, wall_s, requests/s) from the live artefact *)
let live_rows : (int * int * float * float) list ref = ref []

(* shard-sweep rows on the simulator, plus live cluster rows:
   (shards, clients, requests, delivered, wall_s, requests/s) *)
let shard_rows : Harness.Experiments.shard_row list ref = ref []

let shard_live_rows : (int * int * int * int * float * float) list ref = ref []

(* A16 rows: cross-shard commit cost vs cross fraction *)
let cross_rows : Harness.Experiments.cross_row list ref = ref []

(* A17 rows: online split under live traffic, throughput by phase *)
let migrate_rows : Harness.Experiments.migrate_row list ref = ref []

(* (mode, events, wall_s, events/s) rows from the obs-overhead artefact *)
let obs_rows : (string * int * float * float) list ref = ref []

(* A13 sim rows (batch cap vs throughput/messages), plus the live check:
   (batch, requests, delivered, wall_s, requests/s) *)
let batch_rows : Harness.Experiments.batch_row list ref = ref []

let batch_live_rows : (int * int * int * float * float) list ref = ref []

(* A14 rows (app servers × cache on/off, read-heavy mix) *)
let cache_rows : Harness.Experiments.read_row list ref = ref []

(* A15 rows: group-commit force amortization, checkpoint-bounded recovery
   replay, and read throughput served from change-log replicas *)
let gc_rows : Harness.Experiments.gc_row list ref = ref []

let recovery_rows : Harness.Experiments.recovery_row list ref = ref []

let replica_rows : Harness.Experiments.replica_row list ref = ref []

let timed ?(backend = "sim") ?(obs = "off") name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  timings := !timings @ [ (name, backend, obs, dt) ];
  r

let write_bench_json () =
  let open Stats.Json in
  let shard_json =
    List.map
      (fun (r : Harness.Experiments.shard_row) ->
        Obj
          [
            ("backend", String "sim");
            ("shards", Int r.shards);
            ("clients", Int r.clients);
            ("requests", Int r.requests);
            ("delivered", Int r.delivered);
            ("events", Int r.events);
            ("vtime_ms", Float r.vtime_ms);
            ("tx_per_vs", Float r.tx_per_vs);
            ("wall_s", Float r.wall_s);
          ])
      !shard_rows
    @ List.map
        (fun (shards, clients, requests, delivered, wall_s, rate) ->
          Obj
            [
              ("backend", String "live");
              ("shards", Int shards);
              ("clients", Int clients);
              ("requests", Int requests);
              ("delivered", Int delivered);
              ("wall_s", Float wall_s);
              ("requests_per_sec", Float rate);
            ])
        !shard_live_rows
  in
  let doc =
    Obj
      [
        ("schema", String "etx-bench-harness/10");
        ("domains", Int !domains);
        ("host_cores", Int host_cores);
        ( "artefacts",
          List
            (List.map
               (fun (name, backend, obs, wall_s) ->
                 Obj
                   [
                     ("name", String name);
                     ("backend", String backend);
                     ("obs", String obs);
                     ("wall_s", Float wall_s);
                   ])
               !timings) );
        ( "scale",
          List
            (List.map
               (fun (s, c, ev, wall, rate) ->
                 Obj
                   [
                     ("servers", Int s);
                     ("clients", Int c);
                     ("events", Int ev);
                     ("wall_s", Float wall);
                     ("events_per_sec", Float rate);
                   ])
               !scale_rows) );
        ("shard", List shard_json);
        ( "cross",
          List
            (List.map
               (fun (r : Harness.Experiments.cross_row) ->
                 Obj
                   [
                     ("backend", String "sim");
                     ("shards", Int r.cx_shards);
                     ("cross_ratio", Float r.cx_ratio);
                     ("cross", Int r.cx_cross);
                     ("requests", Int r.cx_requests);
                     ("delivered", Int r.cx_delivered);
                     ("mean_participants", Float r.cx_mean_participants);
                     ("events", Int r.cx_events);
                     ("vtime_ms", Float r.cx_vtime_ms);
                     ("tx_per_vs", Float r.cx_tx_per_vs);
                     ("msgs_per_commit", Float r.cx_msgs_per_commit);
                     ("wall_s", Float r.cx_wall_s);
                   ])
               !cross_rows) );
        ( "migrate",
          List
            (List.map
               (fun (r : Harness.Experiments.migrate_row) ->
                 Obj
                   [
                     ("backend", String "sim");
                     ("clients", Int r.mg_clients);
                     ("requests", Int r.mg_requests);
                     ("delivered", Int r.mg_delivered);
                     ("before_tx_per_vs", Float r.mg_before_tx_per_vs);
                     ("during_tx_per_vs", Float r.mg_during_tx_per_vs);
                     ("after_tx_per_vs", Float r.mg_after_tx_per_vs);
                     ("during_ms", Float r.mg_during_ms);
                     ("drain_ms", Float r.mg_drain_ms);
                     ("keys_moved", Int r.mg_keys_moved);
                     ("bounced", Int r.mg_bounced);
                     ("map_refresh", Int r.mg_map_refresh);
                     ("events", Int r.mg_events);
                     ("wall_s", Float r.mg_wall_s);
                   ])
               !migrate_rows) );
        ( "live",
          List
            (List.map
               (fun (clients, reqs, wall, rate) ->
                 Obj
                   [
                     ("clients", Int clients);
                     ("requests", Int reqs);
                     ("wall_s", Float wall);
                     ("requests_per_sec", Float rate);
                   ])
               !live_rows) );
        ( "obs_overhead",
          List
            (List.map
               (fun (mode, events, wall, rate) ->
                 Obj
                   [
                     ("mode", String mode);
                     ("events", Int events);
                     ("wall_s", Float wall);
                     ("events_per_sec", Float rate);
                   ])
               !obs_rows) );
        ( "batch",
          List
            (List.map
               (fun (r : Harness.Experiments.batch_row) ->
                 Obj
                   [
                     ("batch", Int r.batch);
                     ("tx_per_vs", Float r.tx_per_vs);
                     ("msgs_per_commit", Float r.msgs_per_commit);
                     ("mean_latency_ms", Float r.mean_latency_ms);
                     ("mean_fill", Float r.mean_fill);
                   ])
               !batch_rows) );
        ( "batch_live",
          List
            (List.map
               (fun (batch, requests, delivered, wall, rate) ->
                 Obj
                   [
                     ("batch", Int batch);
                     ("requests", Int requests);
                     ("delivered", Int delivered);
                     ("wall_s", Float wall);
                     ("requests_per_sec", Float rate);
                   ])
               !batch_live_rows) );
        ( "cache",
          List
            (List.map
               (fun (r : Harness.Experiments.read_row) ->
                 Obj
                   [
                     ("servers", Int r.servers);
                     ("cache", Bool r.cache);
                     ("reads", Int r.reads);
                     ("tx_per_vs", Float r.tx_per_vs);
                     ("read_tx_per_vs", Float r.read_tx_per_vs);
                     ("msgs_per_read", Float r.msgs_per_read);
                     ("hit_rate", Float r.hit_rate);
                     ("mean_read_latency_ms", Float r.mean_read_latency_ms);
                   ])
               !cache_rows) );
        ( "group_commit",
          List
            (List.map
               (fun (r : Harness.Experiments.gc_row) ->
                 Obj
                   [
                     ("batch", Int r.gc_batch);
                     ("group_commit", Bool r.gc_on);
                     ("forces", Int r.forces);
                     ("forces_per_commit", Float r.forces_per_commit);
                     ("tx_per_vs", Float r.gc_tx_per_vs);
                     ("mean_latency_ms", Float r.gc_mean_latency_ms);
                   ])
               !gc_rows) );
        ( "recovery",
          List
            (List.map
               (fun (r : Harness.Experiments.recovery_row) ->
                 Obj
                   [
                     ("commits", Int r.commits);
                     ("checkpointed", Bool r.checkpointed);
                     ("log_len", Int r.log_len);
                     ("replay_steps", Int r.steps);
                     ("replay_ms", Float r.replay_ms);
                   ])
               !recovery_rows) );
        ( "replica",
          List
            (List.map
               (fun (r : Harness.Experiments.replica_row) ->
                 Obj
                   [
                     ("replicas", Int r.rep_replicas);
                     ("reads", Int r.rep_reads);
                     ("read_tx_per_vs", Float r.rep_read_tx_per_vs);
                     ("replica_served", Int r.rep_served);
                     ("fallbacks", Int r.rep_fallbacks);
                     ("hit_rate", Float r.rep_hit_rate);
                     ( "mean_read_latency_ms",
                       Float r.rep_mean_read_latency_ms );
                   ])
               !replica_rows) );
      ]
  in
  let oc = open_out "BENCH_harness.json" in
  to_channel oc doc;
  close_out oc;
  Printf.printf
    "wrote BENCH_harness.json (%d artefacts, %d scale points, %d shard rows, \
     domains=%d, host_cores=%d)\n\
     %!"
    (List.length !timings)
    (List.length !scale_rows)
    (List.length shard_json)
    !domains host_cores

let run_figure8 () =
  timed "figure8" @@ fun () ->
  section "E1/E4 (paper Figure 8)"
    (Harness.Experiments.render_figure8
       (Harness.Experiments.figure8 ~domains:!domains ()))

let run_figure7 () =
  timed "figure7" @@ fun () ->
  section "E2 (paper Figure 7)"
    (Harness.Experiments.render_figure7
       (Harness.Experiments.figure7 ~domains:!domains ()))

let run_figure1 () =
  timed "figure1" @@ fun () ->
  section "E3 (paper Figure 1)"
    (Harness.Experiments.render_figure1
       (Harness.Experiments.figure1 ~domains:!domains ()))

let run_failover () =
  timed "failover" @@ fun () ->
  section "A1 (ablation)"
    (Harness.Experiments.render_failover
       (Harness.Experiments.failover_sweep ~domains:!domains ()))

let run_backoff () =
  timed "backoff" @@ fun () ->
  section "A2 (ablation)"
    (Harness.Experiments.render_backoff
       (Harness.Experiments.backoff_sweep ~domains:!domains ()))

let run_loss () =
  timed "loss" @@ fun () ->
  section "A3 (ablation)"
    (Harness.Experiments.render_loss
       (Harness.Experiments.loss_sweep ~domains:!domains ()))

let run_dbs () =
  timed "dbs" @@ fun () ->
  section "A4 (ablation)"
    (Harness.Experiments.render_dbs
       (Harness.Experiments.db_sweep ~domains:!domains ()))

let run_persistence () =
  timed "persistence" @@ fun () ->
  section "A5 (ablation)"
    (Harness.Experiments.render_persistence
       (Harness.Experiments.persistence_ablation ~domains:!domains ()))

let run_consensus_failover () =
  timed "consensus-failover" @@ fun () ->
  section "A6 (ablation)"
    (Harness.Experiments.render_consensus_failover
       (Harness.Experiments.consensus_failover_sweep ~domains:!domains ()))

let run_throughput () =
  timed "throughput" @@ fun () ->
  section "A7 (ablation)"
    (Harness.Experiments.render_throughput
       (Harness.Experiments.throughput_sweep ~domains:!domains ()))

let run_register_backends () =
  timed "registers" @@ fun () ->
  section "A8 (ablation)"
    (Harness.Experiments.render_register_backends
       (Harness.Experiments.register_backend_comparison ~domains:!domains ()))

let run_fd_quality () =
  timed "fd-quality" @@ fun () ->
  section "A9 (ablation)"
    (Harness.Experiments.render_fd_quality
       (Harness.Experiments.fd_quality_sweep ~domains:!domains ()))

let run_failover_phases () =
  timed ~obs:"traced" "failover-phases" @@ fun () ->
  section "A12 (ablation)"
    (Harness.Experiments.render_failover_phases
       (Harness.Experiments.failover_phases ~domains:!domains ()))

(* ------------------------------------------------------------------ *)
(* Obs-overhead artefact: the zero-cost claim, measured. One mid-size
   scale point run three ways — no registry attached (every instrument
   site is a single None-branch), metrics only (counters + histograms,
   spans disabled in the registry), fully traced — reporting simulated
   events per wall-clock second for each. With obs off the rate must sit
   within noise of the plain scale sweep's same point. *)

let run_obs_overhead () =
  let n_servers = 3 and n_clients = 8 and requests = 2 in
  timed ~obs:"sweep" "obs-overhead" @@ fun () ->
  let one mode =
    let reg =
      match mode with
      | "disabled" -> None
      | "metrics" -> Some (Obs.Registry.create ~spans:false ())
      | _ -> Some (Obs.Registry.create ())
    in
    let seed_data =
      Workload.Bank.seed_accounts
        (List.init n_clients (fun i -> (Printf.sprintf "acct%d" i, 1_000_000)))
    in
    let script_for i ~issue =
      for _ = 1 to requests do
        ignore (issue (Printf.sprintf "acct%d:1" i))
      done
    in
    let t0 = Unix.gettimeofday () in
    let e, d =
      Harness.Simrun.cluster ~seed:42 ~tracing:false ?obs:reg
        ~n_app_servers:n_servers ~seed_data ~business:Workload.Bank.update
        ~scripts:(List.init n_clients script_for)
        ()
    in
    let clients = d.clients in
    let all_done () = List.for_all Etx.Client.script_done clients in
    if not (Dsim.Engine.run_until ~deadline:7_200_000. e all_done) then
      failwith "obs-overhead: run did not finish";
    let wall = Unix.gettimeofday () -. t0 in
    (* self-check while we have a registry: the committed counter must
       equal the clients' delivered records exactly *)
    (match reg with
    | Some reg ->
        let delivered =
          List.fold_left
            (fun acc c -> acc + List.length (Etx.Client.records c))
            0 clients
        in
        let counted = Obs.Registry.counter_total reg "client.committed" in
        if counted <> delivered then
          failwith
            (Printf.sprintf
               "obs-overhead (%s): client.committed=%d but %d records \
                delivered"
               mode counted delivered)
    | None -> ());
    let events = Dsim.Engine.events_of e in
    (mode, events, wall, float_of_int events /. wall)
  in
  let rows = List.map one [ "disabled"; "metrics"; "traced" ] in
  obs_rows := !obs_rows @ rows;
  let base =
    match rows with (_, _, _, r) :: _ -> r | [] -> assert false
  in
  section "Obs overhead (events/sec, wall-clock, host-dependent)"
    (Stats.Table.render
       ~headers:[ "obs mode"; "sim events"; "wall (s)"; "events/s"; "vs off" ]
       ~rows:
         (List.map
            (fun (mode, ev, wall, rate) ->
              [
                mode;
                string_of_int ev;
                Printf.sprintf "%.3f" wall;
                Printf.sprintf "%.0f" rate;
                Printf.sprintf "%.2fx" (rate /. base);
              ])
            rows))

let run_scale ?points () =
  let rows =
    timed "scale" @@ fun () -> Harness.Experiments.scale_sweep ?points ()
  in
  scale_rows := !scale_rows @ rows;
  section "A10 (cluster-scale sweep)" (Harness.Experiments.render_scale rows)

(* the cheapest point only: keeps the sweep code exercised in CI without
   paying for the 25-server × 512-client run *)
let run_scale_smoke () =
  run_scale ~points:[ List.hd Harness.Experiments.scale_points ] ()

(* ------------------------------------------------------------------ *)
(* Shard artefact: S independent replica groups. Sim rows measure
   virtual-time throughput scaling (deterministic); the live row runs a
   2-shard cluster on the threads backend for wall-clock requests/sec. *)

(* first [per_shard] account keys owned by each shard of [map], scan order *)
let shard_keys map ~per_shard =
  let shards = Etx.Shard_map.shards map in
  let want = Array.make shards per_shard in
  let rec scan a acc remaining =
    if remaining = 0 then List.rev acc
    else
      let key = Printf.sprintf "acct%d" a in
      let s = Etx.Shard_map.shard_of map key in
      if want.(s) > 0 then begin
        want.(s) <- want.(s) - 1;
        scan (a + 1) (key :: acc) (remaining - 1)
      end
      else scan (a + 1) acc remaining
  in
  scan 0 [] (shards * per_shard)

let run_shard_sim ?points () =
  let rows =
    timed "shard" @@ fun () ->
    Harness.Experiments.shard_sweep ?points ~domains:!domains ()
  in
  shard_rows := !shard_rows @ rows;
  section "A11 (shard scaling)" (Harness.Experiments.render_shard rows)

let run_shard_live () =
  let shards = 2 and per_shard = 2 and n_requests = 3 in
  timed ~backend:"live" "shard-live" @@ fun () ->
  let map = Etx.Shard_map.create ~shards () in
  let keys = shard_keys map ~per_shard in
  let n_clients = List.length keys in
  let lt = Runtime_live.create ~seed:1 () in
  let rt = Runtime_live.runtime lt in
  let seed_data =
    Workload.Bank.seed_accounts (List.map (fun k -> (k, 1000)) keys)
  in
  let scripts =
    List.map
      (fun key ~issue ->
        for _ = 1 to n_requests do
          ignore (issue (key ^ ":1"))
        done)
      keys
  in
  let c =
    Cluster.build ~map ~seed_data ~business:Workload.Bank.update ~rt ~scripts
      ()
  in
  let t0 = Unix.gettimeofday () in
  let ok = Cluster.run_to_quiescence ~deadline:120_000. c in
  let wall = Unix.gettimeofday () -. t0 in
  Runtime_live.shutdown lt;
  let total = n_clients * n_requests in
  let delivered = List.length (Cluster.all_records c) in
  let rate = float_of_int delivered /. wall in
  shard_live_rows :=
    !shard_live_rows @ [ (shards, n_clients, total, delivered, wall, rate) ];
  section "Shard scaling (live backend, wall clock)"
    (Printf.sprintf
       "%d shards x %d clients x %d requests on the threads backend: %d/%d \
        delivered in %.2f s wall = %.2f requests/sec (quiesced: %b)"
       shards n_clients n_requests delivered total wall rate ok)

let run_shard () =
  run_shard_sim ();
  run_shard_live ()

(* sim-only, shards 1-2: the CI smoke *)
let run_shard_smoke () = run_shard_sim ~points:[ 1; 2 ] ()

(* ------------------------------------------------------------------ *)
(* A16: cross-shard commit — throughput and msgs/commit vs the cross
   fraction of the workload, at 2 and 4 shards. Every row asserts the full
   cluster spec (global atomicity included), so the artefact doubles as a
   correctness sweep. *)

let run_cross_sim ?points ?requests () =
  let rows =
    timed "cross" @@ fun () ->
    Harness.Experiments.cross_sweep ?points ?requests ~domains:!domains ()
  in
  cross_rows := !cross_rows @ rows;
  section "A16 (cross-shard commit)" (Harness.Experiments.render_cross rows)

let run_cross () = run_cross_sim ()

(* 2 shards, ends of the ratio range, smaller workload: the CI smoke *)
let run_cross_smoke () =
  run_cross_sim ~points:[ (2, 0.0); (2, 1.0) ] ~requests:6 ()

(* ------------------------------------------------------------------ *)
(* A17: elastic reconfiguration — an online split of group 0's slots
   toward a pre-provisioned spare while clients keep issuing, reported as
   throughput before / during / after the migration window plus the copy
   and bounce counters. The spec assertion inside the sweep makes this
   artefact a correctness check as much as a measurement. *)

let run_migrate_sim ?issues () =
  let rows =
    timed "migrate" @@ fun () ->
    Harness.Experiments.migrate_sweep ?issues ~domains:!domains ()
  in
  migrate_rows := !migrate_rows @ rows;
  section "A17 (elastic reconfiguration)"
    (Harness.Experiments.render_migrate rows)

let run_migrate () = run_migrate_sim ()

(* fewer issues per client: the CI smoke *)
let run_migrate_smoke () = run_migrate_sim ~issues:4 ()

(* ------------------------------------------------------------------ *)
(* Live-backend artefact: wall-clock requests/sec on a small cluster.
   The only artefact that does not run on the simulator — sleeps, disk
   forces and network delays cost real milliseconds, so the figure of merit
   is end-to-end requests per wall-clock second, not events/sec. *)

let run_live () =
  let n_clients = 2 and n_requests = 3 in
  timed ~backend:"live" "live" @@ fun () ->
  let lt = Runtime_live.create ~seed:1 () in
  let rt = Runtime_live.runtime lt in
  let seed_data =
    Workload.Bank.seed_accounts
      (List.init n_clients (fun i -> (Printf.sprintf "acct%d" i, 1000)))
  in
  let script_for i ~issue =
    for _ = 1 to n_requests do
      ignore (issue (Printf.sprintf "acct%d:1" i))
    done
  in
  let c =
    Cluster.build ~rt ~seed_data ~business:Workload.Bank.update
      ~scripts:(List.init n_clients script_for)
      ()
  in
  let t0 = Unix.gettimeofday () in
  let ok = Cluster.run_to_quiescence ~deadline:120_000. c in
  let wall = Unix.gettimeofday () -. t0 in
  Runtime_live.shutdown lt;
  let total = n_clients * n_requests in
  let delivered = List.length (Cluster.all_records c) in
  let rate = float_of_int delivered /. wall in
  live_rows := !live_rows @ [ (n_clients, total, wall, rate) ];
  section "Live backend (wall clock)"
    (Printf.sprintf
       "%d clients x %d requests on the threads backend: %d/%d delivered in \
        %.2f s wall = %.2f requests/sec (quiesced: %b)"
       n_clients n_requests delivered total wall rate ok)

(* ------------------------------------------------------------------ *)
(* Batch artefact: A13 throughput/message amortization against the batch
   cap on the simulator, the A13b phase table, and one live-backend row
   confirming the leased pipeline also runs on OS threads. *)

let run_batch_sim ?points ?clients ?requests () =
  let rows =
    timed "batch" @@ fun () ->
    Harness.Experiments.batch_sweep ?clients ?requests ?points
      ~domains:!domains ()
  in
  batch_rows := !batch_rows @ rows;
  section "A13 (batched commit pipeline)"
    (Harness.Experiments.render_batch rows);
  let phases =
    timed ~obs:"traced" "batch-phases" @@ fun () ->
    Harness.Experiments.batch_phases ?clients ?requests ~domains:!domains ()
  in
  section "A13b (amortized phase cost)"
    (Harness.Experiments.render_batch_phases phases)

let run_batch_live () =
  let n_clients = 4 and n_requests = 2 and batch = 4 in
  timed ~backend:"live" "batch-live" @@ fun () ->
  let lt = Runtime_live.create ~seed:1 () in
  let rt = Runtime_live.runtime lt in
  let seed_data =
    Workload.Bank.seed_accounts
      (List.init n_clients (fun i -> (Printf.sprintf "acct%d" i, 1000)))
  in
  let scripts =
    List.init n_clients (fun i ~issue ->
        for _ = 1 to n_requests do
          ignore (issue (Printf.sprintf "acct%d:1" i))
        done)
  in
  let c =
    Cluster.build ~batch ~seed_data ~business:Workload.Bank.update ~rt
      ~scripts ()
  in
  let t0 = Unix.gettimeofday () in
  let ok = Cluster.run_to_quiescence ~deadline:120_000. c in
  let wall = Unix.gettimeofday () -. t0 in
  Runtime_live.shutdown lt;
  let total = n_clients * n_requests in
  let delivered = List.length (Cluster.all_records c) in
  let rate = float_of_int delivered /. wall in
  batch_live_rows :=
    !batch_live_rows @ [ (batch, total, delivered, wall, rate) ];
  section "Batched pipeline (live backend, wall clock)"
    (Printf.sprintf
       "batch=%d, %d clients x %d requests on the threads backend: %d/%d \
        delivered in %.2f s wall = %.2f requests/sec (quiesced: %b)"
       batch n_clients n_requests delivered total wall rate ok)

let run_batch () =
  run_batch_sim ();
  run_batch_live ()

(* sim-only, caps 1/4, smaller workload: the CI smoke *)
let run_batch_smoke () = run_batch_sim ~points:[ 1; 4 ] ~clients:8 ~requests:2 ()

(* ------------------------------------------------------------------ *)
(* Cache artefact: A14 — the app-server method cache under a read-heavy
   mix, across server counts × cache on/off. The sweep asserts the full
   specification (including cache coherence) per row, so the artefact
   doubles as an end-to-end check of the invalidation protocol. *)

let run_cache ?points ?clients ?requests () =
  let rows =
    timed ~obs:"metrics" "cache" @@ fun () ->
    Harness.Experiments.read_sweep ?points ?clients ?requests
      ~domains:!domains ()
  in
  cache_rows := !cache_rows @ rows;
  section "A14 (method cache)" (Harness.Experiments.render_read rows)

(* server counts 1/2 and a smaller workload: the CI smoke. 8 requests per
   client = one full read/write cycle, so invalidation is exercised too *)
let run_cache_smoke () =
  run_cache ~points:[ 1; 2 ] ~clients:4 ~requests:8 ()

(* ------------------------------------------------------------------ *)
(* A15 artefacts: the log-structured storage tier. Three sweeps — the
   group-commit scheduler's force amortization, checkpoint-bounded
   recovery replay (a direct Rm micro-harness), and read throughput
   served from change-log replicas — each asserting its specification
   per row, so the artefacts double as end-to-end checks of the ship
   protocol and the staleness bound. *)

let run_group_commit ?points ?clients ?requests () =
  let rows =
    timed ~obs:"metrics" "group-commit" @@ fun () ->
    Harness.Experiments.group_commit_sweep ?points ?clients ?requests
      ~domains:!domains ()
  in
  gc_rows := !gc_rows @ rows;
  section "A15a (group commit)" (Harness.Experiments.render_gc rows)

(* caps 1/4, 16 clients: the CI smoke still shows the amortization *)
let run_group_commit_smoke () =
  run_group_commit ~points:[ 1; 4 ] ~clients:16 ~requests:2 ()

let run_recovery ?points () =
  let rows =
    timed "recovery" @@ fun () ->
    Harness.Experiments.recovery_sweep ?points ~domains:!domains ()
  in
  recovery_rows := !recovery_rows @ rows;
  section "A15b (checkpointed recovery)"
    (Harness.Experiments.render_recovery rows)

(* the two shortest histories only: the CI smoke *)
let run_recovery_smoke () = run_recovery ~points:[ 64; 256 ] ()

let run_replica ?points ?clients ?requests () =
  let rows =
    timed ~obs:"metrics" "replica" @@ fun () ->
    Harness.Experiments.replica_sweep ?points ?clients ?requests
      ~domains:!domains ()
  in
  replica_rows := !replica_rows @ rows;
  section "A15c (change-log read replicas)"
    (Harness.Experiments.render_replica rows)

(* replicas 0/1 and a smaller workload: the CI smoke *)
let run_replica_smoke () = run_replica ~points:[ 0; 1 ] ~clients:4 ~requests:8 ()

(* ------------------------------------------------------------------ *)
(* Parallel artefact: 1 domain vs N domains, byte-identity asserted *)

let run_parallel () =
  let n =
    if !domains > 1 then !domains
    else min 4 (max 2 (Dsim.Pool.default_domains ()))
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let compare_artefact name render_seq render_par =
    let seq, t_seq = time render_seq in
    let par, t_par = time render_par in
    if not (String.equal seq par) then begin
      Printf.eprintf
        "parallel: %s output differs between 1 and %d domains!\n" name n;
      exit 1
    end;
    timings :=
      !timings
      @ [
          (name ^ "-1dom", "sim", "off", t_seq);
          (Printf.sprintf "%s-%ddom" name n, "sim", "off", t_par);
        ];
    (name, t_seq, t_par)
  in
  let rows =
    [
      compare_artefact "figure7"
        (fun () ->
          Harness.Experiments.render_figure7
            (Harness.Experiments.figure7 ~domains:1 ()))
        (fun () ->
          Harness.Experiments.render_figure7
            (Harness.Experiments.figure7 ~domains:n ()));
      compare_artefact "figure8"
        (fun () ->
          Harness.Experiments.render_figure8
            (Harness.Experiments.figure8 ~domains:1 ()))
        (fun () ->
          Harness.Experiments.render_figure8
            (Harness.Experiments.figure8 ~domains:n ()));
    ]
  in
  Printf.printf
    "== parallel harness: 1 domain vs %d domains (outputs byte-identical) ==\n"
    n;
  Printf.printf "  (%d cores recommended by this machine)\n"
    (Dsim.Pool.default_domains ());
  if host_cores <= 1 then
    Printf.printf
      "  note: single-core host — speedup not expected; domains time-slice \
       one core\n";
  List.iter
    (fun (name, t_seq, t_par) ->
      Printf.printf "  %-10s  1-dom %6.2fs   %d-dom %6.2fs   speedup %.2fx\n"
        name t_seq n t_par (t_seq /. t_par))
    rows;
  print_newline ()

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

let all () =
  run_figure8 ();
  run_figure7 ();
  run_figure1 ();
  run_failover ();
  run_backoff ();
  run_loss ();
  run_dbs ();
  run_persistence ();
  run_consensus_failover ();
  run_throughput ();
  run_register_backends ();
  run_fd_quality ();
  run_failover_phases ();
  run_obs_overhead ();
  run_scale ();
  run_shard ();
  run_cross ();
  run_migrate ();
  run_batch ();
  run_cache ();
  run_group_commit ();
  run_recovery ();
  run_replica ();
  run_live ();
  run_micro ()

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
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  (match args with
  | [] -> all ()
  | args ->
      List.iter
        (function
          | "figure8" -> run_figure8 ()
          | "figure7" -> run_figure7 ()
          | "figure1" -> run_figure1 ()
          | "failover" -> run_failover ()
          | "backoff" -> run_backoff ()
          | "loss" -> run_loss ()
          | "dbs" -> run_dbs ()
          | "persistence" -> run_persistence ()
          | "consensus-failover" -> run_consensus_failover ()
          | "throughput" -> run_throughput ()
          | "registers" -> run_register_backends ()
          | "fd-quality" -> run_fd_quality ()
          | "failover-phases" -> run_failover_phases ()
          | "obs-overhead" -> run_obs_overhead ()
          | "scale" -> run_scale ()
          | "scale-smoke" -> run_scale_smoke ()
          | "shard" -> run_shard ()
          | "shard-smoke" -> run_shard_smoke ()
          | "cross" -> run_cross ()
          | "cross-smoke" -> run_cross_smoke ()
          | "migrate" -> run_migrate ()
          | "migrate-smoke" -> run_migrate_smoke ()
          | "batch" -> run_batch ()
          | "batch-smoke" -> run_batch_smoke ()
          | "cache" -> run_cache ()
          | "cache-smoke" -> run_cache_smoke ()
          | "group-commit" -> run_group_commit ()
          | "group-commit-smoke" -> run_group_commit_smoke ()
          | "recovery" -> run_recovery ()
          | "recovery-smoke" -> run_recovery_smoke ()
          | "replica" -> run_replica ()
          | "replica-smoke" -> run_replica_smoke ()
          | "parallel" -> run_parallel ()
          | "live" -> run_live ()
          | "micro" -> run_micro ()
          | other ->
              Printf.eprintf
                "unknown artefact %S (expected \
                 figure8|figure7|figure1|failover|backoff|loss|dbs|persistence|consensus-failover|throughput|registers|fd-quality|failover-phases|obs-overhead|scale|scale-smoke|shard|shard-smoke|cross|cross-smoke|migrate|migrate-smoke|batch|batch-smoke|cache|cache-smoke|group-commit|group-commit-smoke|recovery|recovery-smoke|replica|replica-smoke|parallel|live|micro)\n"
                other;
              exit 2)
        args);
  write_bench_json ()
