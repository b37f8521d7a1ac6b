(* The artefact table. Each entry runs one driver from {!Experiments},
   renders it with the driver's [render_*] companion, and names each data
   point's fields. *)

module E = Experiments

type row = (string * Stats.Json.t) list
type output = { text : string; rows : row list }

type t = {
  name : string;
  title : string;
  doc : string;
  obs : string;
  host_timed : bool;
  smoke : bool;
  run : seed:int -> domains:int -> output;
  check : row list -> string list;
}

let entry ?(obs = "off") ?(host_timed = false) ?(smoke = false)
    ?(check = fun _ -> []) name title doc run =
  { name; title; doc; obs; host_timed; smoke; run; check }

let out render to_rows data = { text = render data; rows = to_rows data }
let i n = Stats.Json.Int n
let f x = Stats.Json.Float x
let b x = Stats.Json.Bool x
let s x = Stats.Json.String x

(* ------------------------------------------------------------------ *)
(* Rows *)

let fig8_rows (fig : E.fig8) =
  List.map
    (fun (p : E.fig8_protocol) ->
      (("protocol", s p.protocol)
      :: List.map (fun (k, v) -> (k, f v)) p.components)
      @ [ ("other", f p.other); ("total", f p.total);
          ("overhead_pct", f p.overhead_pct); ("ci90_ratio", f p.ci90_ratio) ])
    fig.protocols

let fig7_row (r : E.fig7_row) =
  [ ("protocol", s r.proto); ("app_messages", i r.app_messages);
    ("all_messages", i r.all_messages); ("steps", i r.steps);
    ("forced_ios", i r.forced_ios) ]

let fig1_row (x : E.fig1_scenario) =
  [ ("scenario", s x.label); ("delivered", b x.delivered);
    ("tries", i x.tries);
    ("cleaner", s (Option.value ~default:"" x.cleaner_outcome));
    ("violations", i (List.length x.violations)) ]

let phase_rows (rep : E.failover_phase_report) =
  let row phase ms pct =
    [ ("phase", s phase); ("mean_ms", f ms); ("share_pct", f pct) ]
  in
  List.map (fun (p : E.phase_row) -> row p.phase p.mean_ms p.share_pct)
    rep.phases
  @ [ row "other" rep.other_ms (100. *. rep.other_ms /. rep.mean_latency_ms) ]

let scale_row (servers, clients, events, wall, rate) =
  [ ("servers", i servers); ("clients", i clients); ("events", i events);
    ("wall_s", f wall); ("events_per_sec", f rate) ]

let shard_row (r : E.shard_row) =
  [ ("shards", i r.shards); ("clients", i r.clients);
    ("requests", i r.requests); ("delivered", i r.delivered);
    ("events", i r.events); ("vtime_ms", f r.vtime_ms);
    ("tx_per_vs", f r.tx_per_vs) ]

let cross_row (r : E.cross_row) =
  [ ("shards", i r.cx_shards); ("cross_ratio", f r.cx_ratio);
    ("cross", i r.cx_cross); ("requests", i r.cx_requests);
    ("delivered", i r.cx_delivered);
    ("mean_participants", f r.cx_mean_participants);
    ("events", i r.cx_events); ("vtime_ms", f r.cx_vtime_ms);
    ("tx_per_vs", f r.cx_tx_per_vs);
    ("msgs_per_commit", f r.cx_msgs_per_commit) ]

let migrate_row (r : E.migrate_row) =
  [ ("clients", i r.mg_clients); ("requests", i r.mg_requests);
    ("delivered", i r.mg_delivered);
    ("before_tx_per_vs", f r.mg_before_tx_per_vs);
    ("during_tx_per_vs", f r.mg_during_tx_per_vs);
    ("after_tx_per_vs", f r.mg_after_tx_per_vs);
    ("during_ms", f r.mg_during_ms); ("drain_ms", f r.mg_drain_ms);
    ("keys_moved", i r.mg_keys_moved); ("bounced", i r.mg_bounced);
    ("map_refresh", i r.mg_map_refresh); ("events", i r.mg_events) ]

let batch_row (r : E.batch_row) =
  [ ("batch", i r.batch); ("tx_per_vs", f r.tx_per_vs);
    ("msgs_per_commit", f r.msgs_per_commit);
    ("mean_latency_ms", f r.mean_latency_ms); ("mean_fill", f r.mean_fill) ]

let read_row (r : E.read_row) =
  [ ("servers", i r.servers); ("cache", b r.cache); ("reads", i r.reads);
    ("tx_per_vs", f r.tx_per_vs); ("read_tx_per_vs", f r.read_tx_per_vs);
    ("msgs_per_read", f r.msgs_per_read); ("hit_rate", f r.hit_rate);
    ("mean_read_latency_ms", f r.mean_read_latency_ms) ]

let gc_row (r : E.gc_row) =
  [ ("batch", i r.gc_batch); ("group_commit", b r.gc_on);
    ("forces", i r.forces); ("forces_per_commit", f r.forces_per_commit);
    ("tx_per_vs", f r.gc_tx_per_vs);
    ("mean_latency_ms", f r.gc_mean_latency_ms) ]

let recovery_row (r : E.recovery_row) =
  [ ("commits", i r.commits); ("checkpointed", b r.checkpointed);
    ("log_len", i r.log_len); ("replay_steps", i r.steps);
    ("replay_ms", f r.replay_ms) ]

let replica_row (r : E.replica_row) =
  [ ("replicas", i r.rep_replicas); ("reads", i r.rep_reads);
    ("read_tx_per_vs", f r.rep_read_tx_per_vs);
    ("replica_served", i r.rep_served); ("fallbacks", i r.rep_fallbacks);
    ("hit_rate", f r.rep_hit_rate);
    ("mean_read_latency_ms", f r.rep_mean_read_latency_ms) ]

(* ------------------------------------------------------------------ *)
(* Obs overhead: the zero-cost claim, measured. The A10 point of 3 app
   servers and 8 clients, run with no registry attached, with metrics only,
   and fully traced. Tracing must never perturb the schedule, so the event
   counts must agree. *)

let obs_overhead ~seed =
  let one mode =
    let obs =
      match mode with
      | "disabled" -> None
      | "metrics" -> Some (Obs.Registry.create ~spans:false ())
      | _ -> Some (Obs.Registry.create ())
    in
    match
      E.scale_sweep ~seed ?obs ~points:[ (3, 8) ] ~requests_per_client:2 ()
    with
    | [ (_, clients, events, wall, rate) ] ->
        (* the committed counter must equal the requests delivered *)
        Option.iter
          (fun reg ->
            let counted = Obs.Registry.counter_total reg "client.committed" in
            if counted <> 2 * clients then
              failwith
                (Printf.sprintf
                   "obs-overhead (%s): client.committed=%d, %d delivered" mode
                   counted (2 * clients)))
          obs;
        (mode, events, wall, rate)
    | _ -> assert false
  in
  List.map one [ "disabled"; "metrics"; "traced" ]

let render_obs_overhead rows =
  let base = match rows with (_, _, _, rate) :: _ -> rate | [] -> nan in
  Stats.Table.render
    ~headers:[ "obs mode"; "sim events"; "wall (s)"; "events/s"; "vs off" ]
    ~rows:
      (List.map
         (fun (mode, events, wall, rate) ->
           [ mode; string_of_int events; Printf.sprintf "%.3f" wall;
             Printf.sprintf "%.0f" rate;
             Printf.sprintf "%.2fx" (rate /. base) ])
         rows)

let obs_row (mode, events, wall, rate) =
  [ ("mode", s mode); ("events", i events); ("wall_s", f wall);
    ("events_per_sec", f rate) ]

(* ------------------------------------------------------------------ *)
(* Checks *)

let num row k =
  match List.assoc_opt k row with
  | Some (Stats.Json.Int n) -> float_of_int n
  | Some (Stats.Json.Float x) -> x
  | _ -> nan

let flag row k = List.assoc_opt k row = Some (Stats.Json.Bool true)
let fail fmt = Printf.ksprintf (fun m -> [ m ]) fmt

(* each row with [k] set, paired with the row that has [k] unset and the
   same [key] *)
let twins ~key k rows =
  let twin r u = num u key = num r key && not (flag u k) in
  List.filter_map
    (fun r -> if flag r k then Some (r, List.find_opt (twin r) rows) else None)
    rows

(* off rows: forces/commit never rises with the cap; at cap 1 the
   coalescing scheduler forces less than per-call forcing *)
let check_group_commit rows =
  let fpc r = num r "forces_per_commit" in
  let rec rises = function
    | a :: (b :: _ as rest) when fpc b > fpc a ->
        fail "group commit off: forces/commit rises from cap %g to cap %g"
          (num a "batch") (num b "batch")
        @ rises rest
    | _ :: rest -> rises rest
    | [] -> []
  in
  let by_cap a b = compare (num a "batch") (num b "batch") in
  let off = List.filter (fun r -> not (flag r "group_commit")) rows in
  let cap1 (on, _) = num on "batch" = 1. in
  rises (List.stable_sort by_cap off)
  @
  match List.find_opt cap1 (twins ~key:"batch" "group_commit" rows) with
  | Some (on, Some off) when num on "forces" < num off "forces" -> []
  | _ -> fail "cap 1: group commit on does not force less than off"

(* every cache-on row hits, and reads faster than cache-off at its size *)
let check_cache rows =
  List.concat_map
    (fun (on, off) ->
      let n = num on "servers" in
      (if num on "hit_rate" > 0. then []
       else fail "%g servers: cache on, hit rate 0" n)
      @
      match off with
      | Some off when num on "read_tx_per_vs" > num off "read_tx_per_vs" -> []
      | _ -> fail "%g servers: cache on does not read faster than off" n)
    (twins ~key:"servers" "cache" rows)

let check_replica rows =
  List.concat_map
    (fun r ->
      if num r "replicas" >= 1. && not (num r "replica_served" > 0.) then
        fail "%g replicas: no read served from a replica" (num r "replicas")
      else [])
    rows

let check_recovery rows =
  List.concat_map
    (fun (ck, plain) ->
      match plain with
      | Some u when num ck "replay_steps" < num u "replay_steps" -> []
      | _ ->
          fail "%g commits: checkpoints do not shorten replay"
            (num ck "commits"))
    (twins ~key:"commits" "checkpointed" rows)

let check_obs_overhead rows =
  match List.sort_uniq compare (List.map (fun r -> num r "events") rows) with
  | [ _ ] -> []
  | _ -> fail "simulator event counts differ across obs modes"

(* ------------------------------------------------------------------ *)
(* The table *)

let all =
  [
    entry "figure8" "E1/E4 (paper Figure 8)"
      "Latency components table (paper Figure 8)."
      (fun ~seed ~domains ->
        out E.render_figure8 fig8_rows (E.figure8 ~seed ~domains ()));
    entry "figure7" "E2 (paper Figure 7)"
      "Communication steps in failure-free runs (paper Figure 7)."
      (fun ~seed ~domains ->
        out E.render_figure7 (List.map fig7_row)
          (E.figure7 ~seed ~domains ()));
    entry "figure1" "E3 (paper Figure 1)"
      "The four canonical executions (paper Figure 1)."
      (fun ~seed ~domains ->
        out E.render_figure1 (List.map fig1_row)
          (E.figure1 ~seed ~domains ()));
    entry "failover" "A1 (ablation)"
      "Ablation A1: fail-over latency vs detector timeout."
      (fun ~seed ~domains ->
        out E.render_failover
          (List.map (fun (t, l, n) ->
               [ ("fd_timeout_ms", f t); ("latency_ms", f l); ("tries", i n) ]))
          (E.failover_sweep ~seed ~domains ()));
    entry "backoff" "A2 (ablation)"
      "Ablation A2: client back-off period sensitivity."
      (fun ~seed ~domains ->
        out E.render_backoff
          (List.map (fun (p, nice, fo) ->
               [ ("backoff_ms", f p); ("nice_ms", f nice);
                 ("failover_ms", f fo) ]))
          (E.backoff_sweep ~seed ~domains ()));
    entry "loss" "A3 (ablation)" "Ablation A3: message-loss tolerance."
      (fun ~seed ~domains ->
        out E.render_loss
          (List.map (fun (r, l, n) ->
               [ ("loss_rate", f r); ("latency_ms", f l);
                 ("msgs_per_request", i n) ]))
          (E.loss_sweep ~seed ~domains ()));
    entry "dbs" "A4 (ablation)" "Ablation A4: latency vs number of databases."
      (fun ~seed ~domains ->
        out E.render_dbs
          (List.map (fun (n, bl, ar, tpc) ->
               [ ("databases", i n); ("baseline_ms", f bl); ("ar_ms", f ar);
                 ("tpc_ms", f tpc) ]))
          (E.db_sweep ~seed ~domains ()));
    entry "persistence" "A5 (ablation)"
      "Ablation A5: the latency cost of recoverable application servers."
      (fun ~seed ~domains ->
        out E.render_persistence
          (List.map (fun (c, ms) ->
               [ ("configuration", s c); ("latency_ms", f ms) ]))
          (E.persistence_ablation ~seed ~domains ()));
    entry "consensus-failover" "A6 (ablation)"
      "Ablation A6: register-write latency under a crashed coordinator vs \
       the round timeout."
      (fun ~seed ~domains ->
        out E.render_consensus_failover
          (List.map (fun (t, l) ->
               [ ("round_timeout_ms", f t); ("latency_ms", f l) ]))
          (E.consensus_failover_sweep ~seed ~domains ()));
    entry "throughput" "A7 (ablation)"
      "Ablation A7: aggregate throughput vs concurrent clients."
      (fun ~seed ~domains ->
        out E.render_throughput
          (List.map (fun (c, hot, cold) ->
               [ ("clients", i c); ("contended_tx_per_s", f hot);
                 ("disjoint_tx_per_s", f cold) ]))
          (E.throughput_sweep ~seed ~domains ()));
    entry "fd-quality" "A9 (ablation)"
      "Ablation A9: spurious cleanings and retries vs the suspicion timeout."
      (fun ~seed ~domains ->
        out E.render_fd_quality
          (List.map (fun (t, spurious, extra, l) ->
               [ ("timeout_ms", f t); ("spurious_cleanings", i spurious);
                 ("extra_tries", i extra); ("mean_latency_ms", f l) ]))
          (E.fd_quality_sweep ~seed ~domains ()));
    entry ~obs:"traced" "failover-phases" "A12 (ablation)"
      "Ablation A12: per-phase latency attribution of fail-over, from the \
       span layer."
      (fun ~seed ~domains ->
        out E.render_failover_phases phase_rows
          (E.failover_phases ~seed ~domains ()));
    entry ~obs:"sweep" ~host_timed:true ~check:check_obs_overhead
      "obs-overhead" "Obs overhead (events/sec, wall-clock, host-dependent)"
      "Simulator events per wall-clock second with obs off, metrics only, \
       and traced."
      (fun ~seed ~domains:_ ->
        out render_obs_overhead (List.map obs_row) (obs_overhead ~seed));
    entry ~host_timed:true "scale" "A10 (cluster-scale sweep)"
      "Ablation A10: simulator events per wall-clock second vs cluster size \
       (takes minutes)."
      (fun ~seed ~domains:_ ->
        out E.render_scale (List.map scale_row) (E.scale_sweep ~seed ()));
    entry ~host_timed:true ~smoke:true "scale-smoke"
      "A10 (cluster-scale sweep)"
      "Ablation A10 at its smallest point only."
      (fun ~seed ~domains:_ ->
        out E.render_scale (List.map scale_row)
          (E.scale_sweep ~seed ~points:[ List.hd E.scale_points ] ()));
    entry "shard" "A11 (shard scaling)"
      "Ablation A11: virtual-time throughput vs shard count."
      (fun ~seed ~domains ->
        out E.render_shard (List.map shard_row)
          (E.shard_sweep ~seed ~domains ()));
    entry "cross" "A16 (cross-shard commit)"
      "Ablation A16: cross-shard commit throughput and messages vs the \
       cross-shard fraction."
      (fun ~seed ~domains ->
        out E.render_cross (List.map cross_row)
          (E.cross_sweep ~seed ~domains ()));
    entry "migrate" "A17 (elastic reconfiguration)"
      "Ablation A17: throughput before, during and after an online shard \
       split."
      (fun ~seed ~domains ->
        out E.render_migrate (List.map migrate_row)
          (E.migrate_sweep ~seed ~domains ()));
    entry ~obs:"metrics" "batch" "A13 (batched commit pipeline)"
      "Ablation A13: batched-pipeline throughput and messages vs the window \
       cap, with phase costs from a traced run (A13b)."
      (fun ~seed ~domains ->
        let rows = E.batch_sweep ~seed ~domains () in
        {
          text =
            E.render_batch rows ^ "\n\n== A13b (amortized phase cost) ==\n"
            ^ E.render_batch_phases (E.batch_phases ~seed ~domains ());
          rows = List.map batch_row rows;
        });
    entry ~obs:"metrics" ~check:check_cache "cache" "A14 (method cache)"
      "Ablation A14: the method cache under a read-heavy mix, on vs off per \
       server count."
      (fun ~seed ~domains ->
        out E.render_read (List.map read_row) (E.read_sweep ~seed ~domains ()));
    entry ~obs:"metrics" ~check:check_group_commit "group-commit"
      "A15a (group commit)"
      "Ablation A15a: disk forces per commit vs the window cap, group commit \
       off vs on."
      (fun ~seed ~domains ->
        out E.render_gc (List.map gc_row)
          (E.group_commit_sweep ~seed ~domains ()));
    entry ~host_timed:true ~check:check_recovery "recovery"
      "A15b (checkpointed recovery)"
      "Ablation A15b: recovery replay work vs committed history, with and \
       without checkpoints."
      (fun ~seed ~domains ->
        out E.render_recovery (List.map recovery_row)
          (E.recovery_sweep ~seed ~domains ()));
    entry ~obs:"metrics" ~check:check_replica "replica"
      "A15c (change-log read replicas)"
      "Ablation A15c: read throughput served from change-log replicas vs the \
       replica count."
      (fun ~seed ~domains ->
        out E.render_replica (List.map replica_row)
          (E.replica_sweep ~seed ~domains ()));
  ]

let find name = List.find_opt (fun e -> e.name = name) all

let csv rows =
  let special c = c = ',' || c = '"' || c = '\n' in
  let cell = function
    | Stats.Json.String x when String.exists special x ->
        "\"" ^ String.concat "\"\"" (String.split_on_char '"' x) ^ "\""
    | Stats.Json.String x -> x
    | v -> Stats.Json.to_string ~indent:0 v
  in
  let line cells = String.concat "," cells in
  match rows with
  | [] -> ""
  | first :: _ ->
      String.concat "\n"
        (line (List.map fst first)
        :: List.map (fun r -> line (List.map (fun (_, v) -> cell v) r)) rows)
