(** Drivers that regenerate every table and figure of the paper's
    evaluation, plus the ablations called out in DESIGN.md.

    Each driver returns its table ({!Stats.Table.t}): the caption and one
    row of cells per data point, each cell declaring its column's printed
    header and text and its CSV / JSON key and typed value at once, so the
    printed table, the CSV and the row checks of {!Artefact} read the same
    cells. All runs are deterministic for a given seed.

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

val figure8 :
  ?transactions:int -> ?seed:int -> ?domains:int -> unit -> Stats.Table.t
(** Runs baseline, asynchronous replication (this paper), 2PC, and — as a
    validation the paper argued analytically — primary-backup, each over
    [transactions] identical bank-account updates (default 40), with an
    obs registry attached to every trial. The table is transposed: one
    {!fig8_column} per protocol. *)

val fig8_column :
  protocol:string ->
  ar:bool ->
  transactions:int ->
  baseline:float ->
  Obs.Registry.t ->
  latencies:float list ->
  Stats.Table.cell list
(** One protocol's Figure 8 column read from its trial's registry: each
    row is its instrument's total divided by [transactions] — the XA
    stub's [xa.start_ms], [xa.exec_ms] (SQL) and [xa.end_ms] histograms,
    and the phase spans — keyed by the row's name. With [ar] the spans
    are the AR's ("election" for log-start, "prepare", "consensus" for
    log-outcome, "terminate" for commit); otherwise they are named after
    the row. [other] is the mean of [latencies] less every row, [total]
    that mean, [overhead_pct] its excess over the [baseline] protocol's
    mean latency in percent and [ci90_ratio] the paper's methodology
    check (must stay below 10%). *)

val fig8_table : transactions:int -> Stats.Table.cell list list -> Stats.Table.t
(** Figure 8's caption over the given columns. *)

val fig8_ar_records :
  obs:Obs.Registry.t option ->
  transactions:int ->
  seed:int ->
  Etx.Client.record list
(** The client records of Figure 8's AR trial, with [obs] attached or not;
    fails unless the run quiesces and the cluster spec holds. *)

(** {1 E2 — Figure 7: communication in failure-free executions} *)

val figure7 : ?seed:int -> ?domains:int -> unit -> Stats.Table.t
(** Per protocol, for one request: application-level messages
    ([app_messages]), messages including the wo-register substrate
    ([all_messages]), the longest causal message chain ([steps]) and eager
    log writes at the application tier ([forced_ios]). *)

(** {1 E3 — Figure 1: the four canonical executions} *)

val figure1 : ?seed:int -> ?domains:int -> unit -> Stats.Table.t
(** Per scenario: whether the request was [delivered], its final result
    identifier [j] ([tries]), what the cleaning thread terminated with if
    it ran ([cleaner], empty otherwise) and the count of specification
    [violations] (must be 0). *)

(** {1 A1–A4 — ablations} *)

val failover_sweep : ?seed:int -> ?domains:int -> unit -> Stats.Table.t
(** Heartbeat-detector timeout (20 to 400 ms) vs client-visible latency
    (and tries) of a request whose primary crashes mid-compute. *)

val backoff_sweep :
  ?seed:int ->
  ?periods:float list ->
  ?domains:int ->
  unit ->
  Stats.Table.t
(** Client back-off period vs nice-run and fail-over latency. *)

val loss_sweep :
  ?seed:int ->
  ?rates:float list ->
  ?domains:int ->
  unit ->
  Stats.Table.t
(** Message-loss rate vs mean latency and protocol message count (the
    reliable-channel retransmission cost). *)

val db_sweep :
  ?seed:int ->
  ?counts:int list ->
  ?domains:int ->
  unit ->
  Stats.Table.t
(** Number of databases vs mean latency for baseline / AR / 2PC (prepare
    fan-out happens in parallel, so the curves should stay nearly flat —
    the three-tier scalability argument). *)

val persistence_ablation :
  ?seed:int -> ?transactions:int -> ?domains:int -> unit -> Stats.Table.t
(** A5: why the paper keeps the middle tier diskless. Mean nice-run latency
    of (i) the diskless protocol, (ii) the crash-recovery variant with
    persistent registers (forced IO on every register write, enabling
    application-server recovery), and (iii) 2PC for reference: persistence
    pushes the e-Transaction protocol past 2PC's cost. *)

val consensus_failover_sweep :
  ?seed:int ->
  ?round_timeouts:float list ->
  ?domains:int ->
  unit ->
  Stats.Table.t
(** A6: the paper's closing remark — response time under failures depends on
    the consensus being optimised for failure cases. Measures the latency of
    a wo-register write whose round-0 coordinator has crashed, as a function
    of the consensus round timeout (the failure detector is made useless so
    the timeout is the only escape). *)

val throughput_sweep :
  ?seed:int ->
  ?clients:int list ->
  ?requests_per_client:int ->
  ?domains:int ->
  unit ->
  Stats.Table.t
(** A7: aggregate throughput vs number of concurrent clients, with all
    clients hammering one hot account (lock contention) vs each client
    owning its account (disjoint). *)

val scale_points : (int * int) list
(** Default (app servers, clients) points for {!scale_sweep}:
    (3,1) (3,8) (5,32) (10,128) (25,512). *)

val scale_sweep :
  ?seed:int -> ?points:(int * int) list -> unit -> Stats.Table.t
(** A10: substrate scalability. For each (app servers, clients) point, run a
    full deployment with disjoint accounts until every client script
    finishes, and report simulated events, wall-clock seconds and
    events/sec. Unlike the other experiments this measures the simulator
    itself (wall-clock, host-dependent), so points run sequentially on one
    domain. *)

val obs_overhead : seed:int -> Stats.Table.t
(** The A10 point of 3 app servers and 8 clients (two requests each) with
    no registry, with metrics only and fully traced: simulated events,
    wall-clock seconds and events/sec per mode. Fails unless each
    registry's [client.committed] counts every delivered request. *)

val shard_accounts : map:Etx.Shard_map.t -> per_shard:int -> string list array
(** The first [per_shard] of [acct0], [acct1], … owned by each shard. *)

val shard_sweep : ?seed:int -> ?domains:int -> unit -> Stats.Table.t
(** A11: shard scaling. For each shard count S of 1, 2 and 4, build an
    S-shard {!Cluster} serving two clients per shard (each client owning
    one account on its shard and issuing four updates), run to quiescence,
    assert {!Cluster.Spec.check_all} is clean, and report virtual-time
    throughput (delivered transactions per simulated second). Shards run
    in parallel in virtual time, so throughput scaling with S — at roughly
    flat quiescence time — is the point of the artefact. Deterministic per
    seed; trials map over the domain pool. *)

val cross_sweep : ?seed:int -> ?domains:int -> unit -> Stats.Table.t
(** A16: cross-shard commit cost. For each point of shards 2 and 4 × cross
    ratio 0, 0.1, 0.5 and 1, build a cluster with [~cross:true], feed it
    12 bank transfers from three clients, of which the given fraction have
    a foreign-shard destination
    ({!Workload.Generator.sharded_bodies} with [cross_ratio]), run to
    quiescence, assert {!Cluster.Spec.check_all} — including global
    atomicity — is clean, and report virtual-time throughput plus protocol
    messages per delivered commit alongside the mean participant count
    ([cross] counts the bodies whose two accounts live on different
    shards). Ratio 0 reproduces the classic intra-shard workload, so the first row
    of each shard count is the zero-overhead baseline. Deterministic per
    seed; trials map over the domain pool. *)

val migrate_sweep : ?seed:int -> ?domains:int -> unit -> Stats.Table.t
(** A17: elastic reconfiguration. Warm a 2-shard cluster (one
    pre-provisioned spare group) with bank-update traffic, split group 0's
    slots toward the spare while the clients keep issuing, and report
    virtual-time throughput before / during / after the [split, flip]
    window, the sealed sources' drain time, and the copy and re-routing
    counters ([migrate.keys_moved], [migrate.bounced],
    [client.map_refresh]). Asserts the full cluster spec — migration
    integrity and exactly-once included — and that every issued request was
    delivered exactly once. Deterministic per seed. *)

val fd_quality_sweep :
  ?seed:int ->
  ?requests:int ->
  ?timeouts:float list ->
  ?domains:int ->
  unit ->
  Stats.Table.t
(** A9: the paper's §5 claim that failure-suspicion mistakes never cost
    consistency, only performance. Under a jittery network, sweep the
    heartbeat detector's initial timeout and measure, over [requests]
    failure-free requests: spurious cleanings (the cleaning thread aborting
    a perfectly alive primary), extra client tries, and mean latency. The
    specification is asserted to hold in every configuration. *)

val failover_phase_names : string list
(** The attributed phases, in pipeline order:
    election, compute, prepare, consensus, terminate. *)

val failover_phases : ?seed:int -> ?domains:int -> unit -> Stats.Table.t
(** A12: per-phase latency attribution of the fail-over path, measured from
    the observability span layer rather than the simulator trace. Re-runs
    the Figure 1(c) scenario (primary crashed mid-request) five times
    with a registry attached and splits the committed request's mean
    client-visible latency into closed-span time per phase; the crashed
    owner's never-closed spans are counted in the caption as abandoned
    work, and the unattributed residue (failure detection, client
    back-off, transport) is the [other] row. *)

val batch_sweep : ?seed:int -> ?domains:int -> unit -> Stats.Table.t
(** A13: single-shard throughput and message amortization against the
    batch cap (1, 4, 16, 64). 128 concurrent clients (twice the deepest
    cap, so consecutive windows serve disjoint client sets and never
    contend on the previous window's still-held locks) on disjoint
    accounts each issue two updates, so the leaseholder drains a deep
    queue; every run must deliver everything and quiesce. [mean_fill] is
    the mean transactions per assembled window. *)

val batch_phases : ?seed:int -> ?domains:int -> unit -> Stats.Table.t
(** A13b: amortized per-commit phase cost (closed-span ms over delivered
    requests) on the A13 workload, classic path (cap 1) versus a deep
    window (cap 16), using the same phase names as {!failover_phases} so
    the A12 and A13b tables line up. A transposed table with no fields:
    it prints under A13 and adds no CSV row. *)

val read_sweep : ?seed:int -> ?domains:int -> unit -> Stats.Table.t
(** A14: the method cache under a read-dominant mix. For each app-server
    count of 1 to 4 × cache off/on, run a single-shard cluster of eight
    clients each issuing eight {!Workload.Generator.Read_heavy} bodies
    (audits with one update every eight requests over a few hot
    accounts), run to quiescence, and assert
    {!Cluster.Spec.check_all} — including per-shard cache coherence — is
    clean. With caching on, clients rotate their first-try server, so
    cached read throughput scales with the server count while the uncached
    curve stays flat and messages per read collapse (a hit is one
    request/response round trip). [hit_rate] is cache.hit / (cache.hit +
    cache.miss), 0 when off. Deterministic per seed. *)

(** {1 A15 — the log-structured storage tier}

    Three sweeps over the durable log of DESIGN.md §14: the group-commit
    scheduler, checkpoint-bounded recovery, and change-log read
    replicas. *)

val group_commit_sweep : ?seed:int -> ?domains:int -> unit -> Stats.Table.t
(** A15a: disk forces per committed request against the batch cap (1, 4,
    16, 64) × coalescing off/on, at the default 12.5 ms force latency (the
    A13 workload: 128 concurrent clients on disjoint accounts, spec
    asserted per row). The cap amortizes one window's log writes into one
    force; the scheduler additionally merges forces from concurrent
    sessions, so both columns fall with the cap and the coalesced one
    stays at or below its per-call twin ([forces] counts the
    {!Dstore.Disk.force} calls over the whole run).

    It runs 16 application servers, not the cluster default 3, to raise
    the db-side commitment concurrency: each server's compute thread
    drives one transaction at a time, and a group-commit window can only
    merge forces that actually overlap. *)

val recovery_sweep : ?seed:int -> ?domains:int -> unit -> Stats.Table.t
(** A15b: a direct {!Dbms.Rm} micro-harness — commit histories of 64, 256
    and 1024 transactions with and without a checkpoint every 48 commits
    (deliberately not a divisor of the lengths, so a residual suffix
    survives the last snapshot), then measure recovery.
    Uncheckpointed replay grows linearly with the history; checkpointed
    replay is bounded by the suffix since the last snapshot: [log_len]
    log records retained at the crash point, [replay_steps] records
    replayed ({!Dbms.Rm.recovery_steps}) and [replay_ms] the host CPU
    cost of one recovery (mean of 32 runs; machine-dependent, unlike the
    steps). *)

val replica_sweep : ?seed:int -> ?domains:int -> unit -> Stats.Table.t
(** A15c: the A14 read-heavy mix with the method cache {e on}, across
    0, 1 and 2 replicas per database. Cache-miss reads are answered by
    bounded-staleness change-log replicas — no election, no transaction,
    no primary SQL — so read throughput keeps improving after the cache
    alone has saturated, and the full specification (including replica
    consistency) is asserted per row: [replica_served] counts reads
    answered from a replica snapshot, [fallbacks] replica attempts that
    fell back to the primary pipeline. *)
