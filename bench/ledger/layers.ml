(* Per-layer costs of a traced run, measured from outside the program: the
   benchmark's own wrappers (business exec timing, role-counting network
   model), post-run introspection of the databases, and the obs counters
   and spans the program already emits. Layer names are the repo's
   modules. *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
  n : int;  (** size of the population the value was computed from *)
}

let ratio a b = if b = 0. then 0. else a /. b

(* The six phase spans the application server opens around one try or one
   leased window. *)
let phases =
  [ "election"; "compute"; "prepare"; "consensus"; "terminate"; "clean" ]

(* Self time of every closed span: its duration minus the union of the
   intervals its closed children cover inside it. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun (s : Obs.Span.t) ->
      if s.parent <> 0 && Obs.Span.closed s then
        Hashtbl.replace children s.parent
          ((s.start, s.stop)
          :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun (s : Obs.Span.t) ->
      match Obs.Span.duration s with
      | None -> ()
      | Some d ->
          let kids =
            List.sort compare
              (List.filter_map
                 (fun (a, b) ->
                   let a = Float.max a s.start and b = Float.min b s.stop in
                   if b > a then Some (a, b) else None)
                 (Option.value ~default:[] (Hashtbl.find_opt children s.id)))
          in
          let covered, _ =
            List.fold_left
              (fun (acc, reach) (a, b) ->
                let a = Float.max a reach in
                if b > a then (acc +. (b -. a), b) else (acc, reach))
              (0., neg_infinity) kids
          in
          Hashtbl.replace by_name s.name
            (d -. covered
            +. Option.value ~default:0. (Hashtbl.find_opt by_name s.name)))
    spans;
  fun name -> Option.value ~default:0. (Hashtbl.find_opt by_name name)

let hist_mean ?(empty = 0.) h =
  match h with
  | Some h when Obs.Histogram.count h > 0 ->
      Obs.Histogram.sum h /. float_of_int (Obs.Histogram.count h)
  | _ -> empty

let hist_q h q =
  match h with
  | Some h -> Option.value ~default:0. (Obs.Histogram.quantile h q)
  | None -> 0.

let merge_hists = function
  | [] -> None
  | hs ->
      List.fold_left
        (fun acc h ->
          match (acc, h) with
          | None, h | h, None -> h
          | Some a, Some b -> Some (Obs.Histogram.merge a b))
        None hs

let pct xs p = if xs = [] then 0. else Stats.Summary.percentile xs p

(* [traced] are the traced runs of one reference measurement (one per
   failover trial, else one) and [timed] the matching untraced runs. Every
   "per commit" divides by delivered requests. *)
let compute ~(traced : Drive.t list) ~(timed : Drive.t list) =
  let sum f = List.fold_left (fun a r -> a +. f r) 0. traced in
  let sum_timed f = List.fold_left (fun a r -> a +. f r) 0. timed in
  let reg (r : Drive.t) = Option.get r.reg in
  let probe (r : Drive.t) = Option.get r.probe in
  let counter name =
    sum (fun r -> float_of_int (Obs.Registry.counter_total (reg r) name))
  in
  let hist name =
    merge_hists
      (List.map (fun r -> Obs.Registry.merged_histogram (reg r) name) traced)
  in
  let per_arrival f = Array.concat (List.map f traced) in
  let commits = sum (fun r -> float_of_int (Drive.delivered_count r)) in
  let m name value unit_ = { name; value; unit_; n = int_of_float commits } in
  let pc x = ratio x commits in
  let due = per_arrival (fun r -> r.due)
  and issued = per_arrival (fun r -> r.issued)
  and dlv = per_arrival (fun r -> r.delivered)
  and reads = per_arrival (fun r -> r.inp.reads)
  and crossing = per_arrival (fun r -> r.inp.crossing)
  and lag = per_arrival (fun r -> r.lag) in
  let delivered_where pred =
    let k = ref 0 in
    Array.iteri
      (fun i d -> if (not (Float.is_nan d)) && pred i then incr k)
      dlv;
    float_of_int !k
  in
  let n_reads = delivered_where (fun i -> reads.(i)) in
  let n_writes = commits -. n_reads in
  let n_cross = delivered_where (fun i -> crossing.(i)) in
  let late = Openloop.finite (Array.mapi (fun i t -> t -. due.(i)) issued) in
  let service = Openloop.finite (Array.mapi (fun i d -> d -. issued.(i)) dlv) in
  let self =
    let fns =
      List.map (fun r -> self_times (Obs.Registry.spans (reg r))) traced
    in
    fun name -> List.fold_left (fun a f -> a +. f name) 0. fns
  in
  let phase_ms = List.map (fun p -> (p, self p)) phases in
  let attributed = List.fold_left (fun a (_, v) -> a +. v) 0. phase_ms in
  let exec_ms = List.concat_map (fun r -> (probe r).exec_ms) traced in
  let over_dbs f =
    sum (fun (r : Drive.t) ->
        Array.fold_left
          (fun a (g : Cluster.group) ->
            List.fold_left (fun a (_, rm) -> a +. f rm) a g.dbs)
          0. r.cluster.groups)
  in
  let hits = counter "cache.hit" and misses = counter "cache.miss" in
  let lags =
    Openloop.finite
      (Array.map (fun l -> if l < 0 then Float.nan else float_of_int l) lag)
  in
  let sent role = sum (fun r -> float_of_int (probe r).sent.(role)) in
  let events = sum (fun r -> float_of_int (Dsim.Engine.events_of r.engine)) in
  let timed_cpu = sum_timed (fun r -> r.cpu_s) in
  let timed_events =
    sum_timed (fun r -> float_of_int (Dsim.Engine.events_of r.engine))
  in
  [
    m "workload.gen_late_p99_ms" (pct late 99.) "ms";
    m "workload.gen_late_max_ms" (pct late 100.) "ms";
    m "client.issue_to_deliver_p50_ms" (pct service 50.) "ms";
    m "client.retries_per_commit" (pc (counter "client.retries")) "count";
    m "client.backoff_epochs_per_commit"
      (pc (counter "client.backoff_epochs"))
      "count";
    m "client.bounced_per_commit" (pc (counter "client.bounced")) "count";
  ]
  @ List.map
      (fun (p, v) ->
        m (Printf.sprintf "appserver.%s_ms_per_commit" p) (pc v) "ms")
      phase_ms
  @ [
      m "appserver.unattributed_ms_per_commit"
        (pc
           (Array.fold_left ( +. ) 0.
              (Array.mapi
                 (fun i d -> if Float.is_nan d then 0. else d -. issued.(i))
                 dlv)
           -. attributed))
        "ms";
      (* the classic path assembles no windows: one request per try *)
      m "appserver.batch_fill_mean"
        (hist_mean ~empty:1. (hist "server.batch_size"))
        "count";
      m "appserver.lease_acquired" (counter "server.lease_acquired") "count";
      m "appserver.business_cpu_us_per_commit"
        (pc (sum (fun r -> (probe r).business_s)) *. 1e6)
        "us";
      m "appserver.gx_msgs_per_cross_commit"
        (ratio (sum (fun r -> float_of_int (probe r).cross_app)) n_cross)
        "count";
      m "appserver.gx_participants_mean"
        (hist_mean (hist "commit.participants"))
        "count";
      m "appserver.gx_takeovers" (counter "gx.takeover") "count";
      m "method_cache.hit_rate" (ratio hits (hits +. misses)) "ratio";
      m "method_cache.invalidations_per_write"
        (ratio (counter "cache.invalidate") n_writes)
        "count";
      m "consensus.decides_per_commit"
        (pc (counter "consensus.decides"))
        "count";
      m "consensus.rounds_per_decide"
        (hist_mean (hist "consensus.rounds_per_write"))
        "count";
      m "consensus.msgs_per_commit"
        (pc
           (sum (fun r -> float_of_int (probe r).intra_app)
           -. counter "net.sent.fd-heartbeat"))
        "count";
      m "dbms.exec_calls_per_commit"
        (pc (sum (fun r -> float_of_int (probe r).exec_calls)))
        "count";
      m "dbms.exec_ms_p50" (pct exec_ms 50.) "ms";
      m "dbms.exec_ms_p99" (pct exec_ms 99.) "ms";
      m "dbms.conflicts_per_commit"
        (pc (sum (fun r -> float_of_int (probe r).exec_conflicts)))
        "count";
      m "dbms.vote_ms_p50" (hist_q (hist "db.vote_ms") 0.5) "ms";
      m "dbms.decide_ms_p50" (hist_q (hist "db.decide_ms") 0.5) "ms";
      m "dbms.no_votes_per_commit"
        (pc
           (over_dbs (fun rm ->
                float_of_int
                  (List.length
                     (List.filter
                        (fun (_, v) -> v = Dbms.Rm.No)
                        (Dbms.Rm.votes_cast rm))))))
        "count";
      m "dbms.msgs_per_commit"
        (pc (sum (fun r -> float_of_int (probe r).db_touch)))
        "count";
      m "replica.served_frac"
        (ratio (counter "server.replica_served") n_reads)
        "ratio";
      m "replica.fallbacks_per_read"
        (ratio (counter "server.replica_fallback") n_reads)
        "count";
      m "replica.replays_per_read"
        (ratio (counter "server.replica_replayed") n_reads)
        "count";
      m "replica.lag_p99" (pct lags 99.) "lsn";
      m "dstore.forces_per_commit"
        (pc
           (over_dbs (fun rm ->
                float_of_int (Dstore.Disk.forced_writes (Dbms.Rm.disk rm)))))
        "count";
      m "dstore.log_bytes_per_commit"
        (pc (over_dbs (fun rm -> float_of_int (Dbms.Rm.log_bytes rm))))
        "bytes";
      m "dstore.log_records_end"
        (over_dbs (fun rm -> float_of_int (Dbms.Rm.log_length rm)))
        "count";
      m "dnet.msgs_per_commit" (pc (sent 0 +. sent 1 +. sent 2)) "count";
      m "dnet.client_msgs_per_commit" (pc (sent 0)) "count";
      m "dnet.appserver_msgs_per_commit" (pc (sent 1)) "count";
      m "dnet.db_msgs_per_commit" (pc (sent 2)) "count";
      m "dnet.dropped_per_commit"
        (pc (sum (fun r -> float_of_int (probe r).dropped)))
        "count";
      m "dnet.retransmits_per_commit" (pc (counter "rc.retransmit")) "count";
      m "dnet.heartbeats_per_commit"
        (pc (counter "net.sent.fd-heartbeat"))
        "count";
      m "dsim.events_per_commit" (pc events) "count";
      m "dsim.ns_per_event" (ratio timed_cpu timed_events *. 1e9) "ns";
      m "dsim.alloc_words_per_commit"
        (ratio (sum_timed (fun r -> r.alloc_words)) commits)
        "words";
      m "dsim.major_gcs"
        (sum_timed (fun r -> float_of_int r.major_gcs))
        "count";
    ]
