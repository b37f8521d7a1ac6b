(** Drivers that regenerate every table and figure of the paper's
    evaluation, plus the ablations called out in DESIGN.md.

    Each driver returns structured data and has a [render_*] companion that
    prints a table in the shape the paper uses. All runs are deterministic
    for a given seed.

    Every sweep is a list of self-contained {!trial}s mapped over a domain
    pool ({!Dsim.Pool}): each trial builds its own engine, RNG, trace and
    statistics inside its [run] function, so trials share no mutable state
    and the results are bit-identical whatever the [?domains] argument —
    parallelism only changes wall-clock time. *)

(** {1 Trials and the domain pool} *)

type 'a trial = { seed : int; run : seed:int -> 'a }
(** A self-contained unit of experimental work: [run ~seed] must build
    everything it touches (engine, processes, statistics) internally. *)

val run_trials : ?domains:int -> 'a trial list -> 'a list
(** Map [trial.run] over the list via {!Dsim.Pool.map}, preserving input
    order. [?domains] defaults to 1 (fully sequential). *)

(** {1 E1/E4 — Figure 8: latency components and the cost of reliability} *)

type fig8_protocol = {
  protocol : string;
  components : (string * float) list;
      (** mean ms per transaction for each Figure 8 row *)
  other : float;
  total : float;  (** mean client-visible latency *)
  overhead_pct : float;  (** vs the baseline protocol *)
  ci90_ratio : float;  (** paper methodology: must stay below 10% *)
}

type fig8 = { transactions : int; protocols : fig8_protocol list }

val figure8 : ?transactions:int -> ?seed:int -> ?domains:int -> unit -> fig8
(** Runs baseline, asynchronous replication (this paper), 2PC, and — as a
    validation the paper argued analytically — primary-backup, each over
    [transactions] identical bank-account updates (default 40), with an
    obs registry attached to every trial. *)

val fig8_column :
  protocol:string ->
  ar:bool ->
  transactions:int ->
  Obs.Registry.t ->
  latencies:float list ->
  fig8_protocol
(** One protocol's Figure 8 column read from its trial's registry: each
    row is its instrument's total divided by [transactions] — the XA
    stub's [xa.start_ms], [xa.exec_ms] (SQL) and [xa.end_ms] histograms,
    and the phase spans. With [ar] the spans are the AR's ("election" for
    log-start, "prepare", "consensus" for log-outcome, "terminate" for
    commit); otherwise they are named after the row. [other] is the mean
    of [latencies] less every row, [overhead_pct] is 0. *)

val fig8_ar_records :
  obs:Obs.Registry.t option ->
  transactions:int ->
  seed:int ->
  Etx.Client.record list
(** The client records of Figure 8's AR trial, with [obs] attached or not;
    fails unless the run quiesces and the cluster spec holds. *)

val render_figure8 : fig8 -> string

(** {1 E2 — Figure 7: communication in failure-free executions} *)

type fig7_row = {
  proto : string;
  app_messages : int;  (** application-level messages for one request *)
  all_messages : int;  (** including the wo-register substrate *)
  steps : int;  (** longest causal message chain *)
  forced_ios : int;  (** eager log writes at the application tier *)
}

val figure7 : ?seed:int -> ?domains:int -> unit -> fig7_row list

val render_figure7 : fig7_row list -> string

(** {1 E3 — Figure 1: the four canonical executions} *)

type fig1_scenario = {
  label : string;
  delivered : bool;
  tries : int;  (** final result identifier [j] *)
  cleaner_outcome : string option;
      (** what the cleaning thread terminated with, if it ran *)
  violations : string list;  (** must be empty *)
}

val figure1 : ?seed:int -> ?domains:int -> unit -> fig1_scenario list

val render_figure1 : fig1_scenario list -> string

(** {1 A1–A4 — ablations} *)

val failover_sweep :
  ?seed:int -> ?domains:int -> unit -> (float * float * int) list
(** Heartbeat-detector timeout (20 to 400 ms) vs client-visible latency
    (and tries) of a request whose primary crashes mid-compute. *)

val render_failover : (float * float * int) list -> string

val backoff_sweep :
  ?seed:int ->
  ?periods:float list ->
  ?domains:int ->
  unit ->
  (float * float * float) list
(** Client back-off period vs (nice-run latency, fail-over latency). *)

val render_backoff : (float * float * float) list -> string

val loss_sweep :
  ?seed:int ->
  ?rates:float list ->
  ?domains:int ->
  unit ->
  (float * float * int) list
(** Message-loss rate vs mean latency and protocol message count (the
    reliable-channel retransmission cost). *)

val render_loss : (float * float * int) list -> string

val db_sweep :
  ?seed:int ->
  ?counts:int list ->
  ?domains:int ->
  unit ->
  (int * float * float * float) list
(** Number of databases vs mean latency for baseline / AR / 2PC (prepare
    fan-out happens in parallel, so the curves should stay nearly flat —
    the three-tier scalability argument). *)

val render_dbs : (int * float * float * float) list -> string

val persistence_ablation :
  ?seed:int -> ?transactions:int -> ?domains:int -> unit -> (string * float) list
(** A5: why the paper keeps the middle tier diskless. Mean nice-run latency
    of (i) the diskless protocol, (ii) the crash-recovery variant with
    persistent registers (forced IO on every register write, enabling
    application-server recovery), and (iii) 2PC for reference: persistence
    pushes the e-Transaction protocol past 2PC's cost. *)

val render_persistence : (string * float) list -> string

val consensus_failover_sweep :
  ?seed:int ->
  ?round_timeouts:float list ->
  ?domains:int ->
  unit ->
  (float * float) list
(** A6: the paper's closing remark — response time under failures depends on
    the consensus being optimised for failure cases. Measures the latency of
    a wo-register write whose round-0 coordinator has crashed, as a function
    of the consensus round timeout (the failure detector is made useless so
    the timeout is the only escape). Returns (round timeout, decision
    latency). *)

val render_consensus_failover : (float * float) list -> string

val throughput_sweep :
  ?seed:int ->
  ?clients:int list ->
  ?requests_per_client:int ->
  ?domains:int ->
  unit ->
  (int * float * float) list
(** A7: aggregate throughput vs number of concurrent clients, with all
    clients hammering one hot account (lock contention) vs each client
    owning its account (disjoint). Returns
    (clients, contended tx/s, disjoint tx/s). *)

val render_throughput : (int * float * float) list -> string

val scale_points : (int * int) list
(** Default (app servers, clients) points for {!scale_sweep}:
    (3,1) (3,8) (5,32) (10,128) (25,512). *)

val scale_sweep :
  ?seed:int ->
  ?obs:Obs.Registry.t ->
  ?points:(int * int) list ->
  ?requests_per_client:int ->
  unit ->
  (int * int * int * float * float) list
(** A10: substrate scalability. For each (app servers, clients) point, run a
    full deployment with disjoint accounts until every client script
    finishes, and report (servers, clients, simulated events, wall-clock
    seconds, events/sec), with [obs] attached to every point's engine.
    Unlike the other experiments this measures the simulator itself
    (wall-clock, host-dependent), so points run sequentially on one
    domain. *)

val render_scale : (int * int * int * float * float) list -> string

type shard_row = {
  shards : int;
  clients : int;
  requests : int;  (** total issued across all clients *)
  delivered : int;
  events : int;  (** simulation events to quiescence *)
  vtime_ms : float;  (** virtual time at quiescence *)
  tx_per_vs : float;  (** delivered per {e virtual} second *)
}

val shard_accounts : map:Etx.Shard_map.t -> per_shard:int -> string list array
(** The first [per_shard] of [acct0], [acct1], … owned by each shard. *)

val shard_sweep : ?seed:int -> ?domains:int -> unit -> shard_row list
(** A11: shard scaling. For each shard count S of 1, 2 and 4, build an
    S-shard {!Cluster} serving two clients per shard (each client owning
    one account on its shard and issuing four updates), run to quiescence,
    assert {!Cluster.Spec.check_all} is clean, and report virtual-time
    throughput (delivered transactions per simulated second). Shards run
    in parallel in virtual time, so throughput scaling with S — at roughly
    flat quiescence time — is the point of the artefact. Deterministic per
    seed; trials map over the domain pool. *)

val render_shard : shard_row list -> string

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

val cross_sweep : ?seed:int -> ?domains:int -> unit -> cross_row list
(** A16: cross-shard commit cost. For each point of shards 2 and 4 × cross
    ratio 0, 0.1, 0.5 and 1, build a cluster with [~cross:true], feed it
    12 bank transfers from three clients, of which the given fraction have
    a foreign-shard destination
    ({!Workload.Generator.sharded_bodies} with [cross_ratio]), run to
    quiescence, assert {!Cluster.Spec.check_all} — including global
    atomicity — is clean, and report virtual-time throughput plus protocol
    messages per delivered commit alongside the mean participant count.
    Ratio 0 reproduces the classic intra-shard workload, so the first row
    of each shard count is the zero-overhead baseline. Deterministic per
    seed; trials map over the domain pool. *)

val render_cross : cross_row list -> string

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

val migrate_sweep : ?seed:int -> ?domains:int -> unit -> migrate_row list
(** A17: elastic reconfiguration. Warm a 2-shard cluster (one
    pre-provisioned spare group) with bank-update traffic, split group 0's
    slots toward the spare while the clients keep issuing, and report
    virtual-time throughput before / during / after the [split, flip]
    window, the sealed sources' drain time, and the copy and re-routing
    counters ([migrate.keys_moved], [migrate.bounced],
    [client.map_refresh]). Asserts the full cluster spec — migration
    integrity and exactly-once included — and that every issued request was
    delivered exactly once. Deterministic per seed. *)

val render_migrate : migrate_row list -> string

val fd_quality_sweep :
  ?seed:int ->
  ?requests:int ->
  ?timeouts:float list ->
  ?domains:int ->
  unit ->
  (float * int * int * float) list
(** A9: the paper's §5 claim that failure-suspicion mistakes never cost
    consistency, only performance. Under a jittery network, sweep the
    heartbeat detector's initial timeout and measure, over [requests]
    failure-free requests: spurious cleanings (the cleaning thread aborting
    a perfectly alive primary), extra client tries, and mean latency. The
    specification is asserted to hold in every configuration. Returns
    (timeout, spurious cleanings, total tries beyond one, mean latency). *)

val render_fd_quality : (float * int * int * float) list -> string

type phase_row = { phase : string; mean_ms : float; share_pct : float }

type failover_phase_report = {
  trials : int;
  mean_latency_ms : float;
  mean_tries : float;
  abandoned_spans : float;  (** mean spans left open by the crash *)
  phases : phase_row list;
  other_ms : float;
}

val failover_phase_names : string list
(** The attributed phases, in pipeline order:
    election, compute, prepare, consensus, terminate. *)

val failover_phases :
  ?seed:int -> ?domains:int -> unit -> failover_phase_report
(** A12: per-phase latency attribution of the fail-over path, measured from
    the observability span layer rather than the simulator trace. Re-runs
    the Figure 1(c) scenario (primary crashed mid-request) five times
    with a registry attached and splits the committed request's mean
    client-visible latency into closed-span time per phase; the crashed
    owner's never-closed spans are reported as abandoned work, and the
    unattributed residue (failure detection, client back-off, transport)
    as [other_ms]. *)

val render_failover_phases : failover_phase_report -> string

type batch_row = {
  batch : int;  (** window cap (1 = classic, unbatched path) *)
  tx_per_vs : float;  (** delivered requests per virtual second *)
  msgs_per_commit : float;  (** protocol messages per delivered request *)
  mean_latency_ms : float;
  mean_fill : float;  (** mean transactions per assembled window *)
}

val batch_sweep : ?seed:int -> ?domains:int -> unit -> batch_row list
(** A13: single-shard throughput and message amortization against the
    batch cap (1, 4, 16, 64). 128 concurrent clients (twice the deepest
    cap, so consecutive windows serve disjoint client sets and never
    contend on the previous window's still-held locks) on disjoint
    accounts each issue two updates, so the leaseholder drains a deep
    queue; every run must deliver everything and quiesce. *)

val render_batch : batch_row list -> string

val batch_phases :
  ?seed:int -> ?domains:int -> unit -> (int * phase_row list) list
(** A13b: amortized per-commit phase cost (closed-span ms over delivered
    requests) on the A13 workload, classic path (cap 1) versus a deep
    window (cap 16), using the same phase names as {!failover_phases} so
    the A12 and A13b tables line up. *)

val render_batch_phases : (int * phase_row list) list -> string

type read_row = {
  servers : int;  (** app servers in the (single) group *)
  cache : bool;  (** method cache + commit-piggybacked invalidation on? *)
  reads : int;  (** delivered read (audit) requests *)
  tx_per_vs : float;  (** all delivered requests per virtual second *)
  read_tx_per_vs : float;  (** delivered reads per virtual second *)
  msgs_per_read : float;  (** protocol messages on the wire per read *)
  hit_rate : float;  (** cache.hit / (cache.hit + cache.miss); 0 when off *)
  mean_read_latency_ms : float;
}

val read_sweep : ?seed:int -> ?domains:int -> unit -> read_row list
(** A14: the method cache under a read-dominant mix. For each app-server
    count of 1 to 4 × cache off/on, run a single-shard cluster of eight
    clients each issuing eight {!Workload.Generator.Read_heavy} bodies
    (audits with one update every eight requests over a few hot
    accounts), run to quiescence, and assert
    {!Cluster.Spec.check_all} — including per-shard cache coherence — is
    clean. With caching on, clients rotate their first-try server, so
    cached read throughput scales with the server count while the uncached
    curve stays flat and messages per read collapse (a hit is one
    request/response round trip). Deterministic per seed. *)

val render_read : read_row list -> string

(** {1 A15 — the log-structured storage tier}

    Three sweeps over the durable log of DESIGN.md §14: the group-commit
    scheduler, checkpoint-bounded recovery, and change-log read
    replicas. *)

type gc_row = {
  gc_batch : int;  (** window cap, as in A13 *)
  gc_on : bool;  (** group-commit coalescing scheduler on? *)
  forces : int;  (** {!Dstore.Disk.force} calls over the whole run *)
  forces_per_commit : float;
  gc_tx_per_vs : float;
  gc_mean_latency_ms : float;
}

val group_commit_sweep : ?seed:int -> ?domains:int -> unit -> gc_row list
(** A15a: disk forces per committed request against the batch cap (1, 4,
    16, 64) × coalescing off/on, at the default 12.5 ms force latency (the
    A13 workload: 128 concurrent clients on disjoint accounts, spec
    asserted per row). The cap amortizes one window's log writes into one
    force; the scheduler additionally merges forces from concurrent
    sessions, so both columns fall with the cap and the coalesced one
    stays at or below its per-call twin.

    It runs 16 application servers, not the cluster default 3, to raise
    the db-side commitment concurrency: each server's compute thread
    drives one transaction at a time, and a group-commit window can only
    merge forces that actually overlap. *)

val render_gc : gc_row list -> string

type recovery_row = {
  commits : int;  (** committed transactions before the measured crash *)
  checkpointed : bool;
  log_len : int;  (** log records retained at the crash point *)
  steps : int;  (** records replayed — {!Dbms.Rm.recovery_steps} *)
  replay_ms : float;
      (** host CPU cost of one recovery over that log (mean of 32 runs;
          machine-dependent, unlike [steps]) *)
}

val recovery_sweep : ?seed:int -> ?domains:int -> unit -> recovery_row list
(** A15b: a direct {!Dbms.Rm} micro-harness — commit histories of 64, 256
    and 1024 transactions with and without a checkpoint every 48 commits
    (deliberately not a divisor of the lengths, so a residual suffix
    survives the last snapshot), then measure recovery.
    Uncheckpointed replay grows linearly with the history; checkpointed
    replay is bounded by the suffix since the last snapshot. *)

val render_recovery : recovery_row list -> string

type replica_row = {
  rep_replicas : int;  (** read replicas per database *)
  rep_reads : int;  (** delivered read (audit) requests *)
  rep_read_tx_per_vs : float;
  rep_served : int;  (** reads answered from a replica snapshot *)
  rep_fallbacks : int;
      (** replica attempts that fell back to the primary pipeline *)
  rep_hit_rate : float;  (** method-cache hit rate (the cache stays on) *)
  rep_mean_read_latency_ms : float;
}

val replica_sweep : ?seed:int -> ?domains:int -> unit -> replica_row list
(** A15c: the A14 read-heavy mix with the method cache {e on}, across
    0, 1 and 2 replicas per database. Cache-miss reads are answered by
    bounded-staleness change-log replicas — no election, no transaction,
    no primary SQL — so read throughput keeps improving after the cache
    alone has saturated, and the full specification (including replica
    consistency) is asserted per row. *)

val render_replica : replica_row list -> string
