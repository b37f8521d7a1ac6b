(** Sharded cluster: the key space partitioned across independent replica
    groups.

    A cluster of S shards wires S complete e-Transaction deployments side by
    side on one runtime — each group has its own database servers, its own
    application-server set with a failure detector spanning only that group,
    and its own wo-register namespace (register names are prefixed [g<s>:],
    see {!Etx.Appserver}) — plus C clients that route every request by its
    {!Etx.Etx_types.routing_key} through a shared {!Etx.Shard_map}. With the
    default wiring groups never exchange protocol messages: consensus peers,
    2PC participants and cleaning scans are all group-local, so adding
    shards multiplies the cluster's independent agreement pipelines (partial
    replication in the sense of Sutra & Shapiro) instead of deepening one.

    The paper's deployment is a one-shard cluster: the client, the three
    application servers and the database server(s) of one replica group,
    with the paper's process names ([db1], [a1], [client]) and the
    three-tier network model. {!build} is the only builder: every run,
    sharded or not, is wired here.

    Built with [~cross:true], a request whose declared keyset spans several
    groups commits atomically across them (DESIGN.md §15): the home group's
    server coordinates a Paxos-Commit instance over the groups' wo-registers
    — one vote register per participant shard, written yes only after that
    shard's databases all prepared — and any group's cleaner can finish or
    abort the instance when the coordinator is suspected. Consensus itself
    stays group-local (each register lives in its owner group's namespace);
    only the thin gx message layer crosses group boundaries. Co-located
    requests still take the classic path, record-for-record. *)

open Runtime

type group = {
  index : int;
  dbs : (Types.proc_id * Dbms.Rm.t) list;
  app_servers : Types.proc_id list;  (** ordered; head = group primary *)
  caches : (Types.proc_id * Etx.Method_cache.t) list;
      (** one method cache per app server when built with [~cache:true];
          empty otherwise *)
  replicas : (Types.proc_id * Dbms.Replica.t * Types.proc_id) list;
      (** (replica pid, handle, primary db pid) for the group's read
          replicas when built with [~replicas:n > 0]; empty otherwise *)
}

type t = {
  rt : Etx_runtime.t;
  map : Etx.Shard_map.t;  (** the epoch-0 map the cluster booted with *)
  groups : group array;
      (** every replica group, spare (pre-provisioned) groups included *)
  clients : Etx.Client.handle list;
  business : Etx.Business.t;
  cross : bool;  (** built with cross-shard commit wiring *)
  reconfig : bool;  (** built with elastic reconfiguration wiring *)
  maps : Etx.Shard_map.t list ref;
      (** the cluster's map history, newest first (last = the epoch-0
          [map]); {!split} appends each established epoch *)
  ops : int ref;  (** operator actions (splits) still in flight *)
}

val build :
  ?net:Etx_runtime.netmodel ->
  ?map:Etx.Shard_map.t ->
  ?shards:int ->
  ?n_app_servers:int ->
  ?n_dbs:int ->
  ?fd_spec:Etx.Appserver.fd_spec ->
  ?seed_data:(string * Dbms.Value.t) list ->
  ?client_period:float ->
  ?clean_period:float ->
  ?recoverable:bool ->
  ?batch:int ->
  ?cache:bool ->
  ?group_commit:bool ->
  ?replicas:int ->
  ?cross:bool ->
  ?reconfig:bool ->
  ?provision:int ->
  rt:Etx_runtime.t ->
  business:Etx.Business.t ->
  scripts:(issue:(string -> Etx.Client.record) -> unit) list ->
  unit ->
  t
(** Builds on a fresh runtime. [shards] defaults to 1; pass [map] to control
    placement (its shard count then wins). [scripts] gives one script per
    client. [seed_data] is partitioned: each shard's databases store only
    the keys the map places there. Pid layout: databases first, shard-major
    ([0 .. shards*n_dbs-1], preserving the three-tier network model's
    "first pids are databases" convention), then each shard's application
    servers, then the clients. Every option below applies per group.

    Defaults: three-tier network model (installed via [rt.set_net]), 3
    application servers per group (tolerating one crash, as in the
    paper's measurements), 1 database per group (the paper's
    configuration), oracle failure detector, 400 ms client back-off. Costs
    are the paper's calibration and not options: {!Dbms.Rm.paper_timing}
    for every database and {!Dstore.Disk.create}'s 12.5 ms per forced
    write for every log.

    [recoverable:true] equips each application server with stable
    register storage on such a disk, enabling crash-recovery of
    application servers — see the [persist] field of
    {!Etx.Appserver.config} for semantics and cost. [batch] (default 1)
    above 1 selects the leased, batched commit pipeline on every
    application server; this function fills every server's
    {!Etx.Appserver.config} record itself.

    [cache:true] equips every application server with a method cache for
    read-only business calls and every database with commit-piggybacked
    invalidation, both group-local (DESIGN.md §13); clients additionally
    rotate their first-try server ([affinity = client index]) so cached
    read traffic spreads over each group's servers. With the default
    [false], spawn order, affinity and message streams are identical to
    earlier revisions.

    [group_commit:true] switches every database's redo log to the
    group-commit scheduler (concurrent forced writes coalesce into one
    disk force per window — see {!Dstore.Log}); the default keeps the
    per-call force discipline. [replicas] (default 0) spawns that many
    asynchronous change-log read replicas per database (DESIGN.md §14,
    names [db<i>-r<j>], prefixed [g<s>:] beyond group 0): each primary
    ships committed write-sets every 5 ms and every application server
    routes cache-miss read-only requests to a replica, falling back to
    the primary when the replica's provable staleness exceeds
    {!Etx.Appserver.replica_bound}. Replicas spawn after the
    clients, so [replicas:0] clusters keep their exact pid layout.

    [cross:true] supplies every application server the cross-shard commit
    wiring ({!Etx.Appserver.cross_cfg}): requests whose declared keysets
    span several groups then commit atomically via Paxos Commit. With the
    default [false] no gx fiber is forked anywhere and every message
    stream is identical to earlier revisions.

    [reconfig:true] wires elastic reconfiguration (DESIGN.md §16): every
    application server tracks the epoch-versioned shard map and bounces
    requests its group does not own under the current epoch, every
    database accepts the migration protocol ([Dbms.Server ~migratable]),
    every client re-routes through its own mutable map view refreshed on
    epoch-stamped bounces, and group 0's consensus decides the
    [cfg:e<n>] register sequence. [provision] (default 0, requires
    [reconfig]) spawns that many spare replica groups — complete but
    owning no keys — as {!split} destinations; database pids stay first
    ([0 .. (shards+provision)*n_dbs - 1]). With the default [false]
    nothing changes: no cfg fiber, no spare processes, message streams
    identical to the static cluster.

    Raises [Invalid_argument] before it spawns anything if [batch < 1],
    [replicas < 0], [provision < 0], [provision > 0] without [reconfig],
    or [scripts] is empty. *)

val run_to_quiescence : ?deadline:float -> t -> bool
(** Run until every client script finished, every database of every
    shard settled ({!Dbms.Rm.settled}), every replica of an up primary
    caught up to its primary's committed watermark and every operator
    split completed; returns whether that state was reached before the
    deadline (default 600 s on the backend's clock). *)

val shards : t -> int
(** Number of replica groups, spare (pre-provisioned) ones included. *)

val group : t -> int -> group
val shard_of_key : t -> string -> int
val primary : t -> shard:int -> Types.proc_id
val all_records : t -> Etx.Client.record list
(** Delivered records of every client (per-client order preserved). *)

(** {2 Elastic reconfiguration (requires [build ~reconfig:true])} *)

val current_map : t -> Etx.Shard_map.t
(** The newest map the operator has observed established. *)

val epoch : t -> int
(** [Etx.Shard_map.epoch (current_map t)]. *)

val await_epoch : ?deadline:float -> t -> int -> bool
(** Drive the runtime until the cluster's observed epoch reaches the
    given value (or the deadline passes — then [false]). *)

val split : t -> group:int -> target:int -> int
(** Initiate an online split of [group]'s key slots toward the spare
    group [target] (see {!Etx.Shard_map.split}) and return the epoch the
    migration will establish. Asynchronous: an ephemeral operator-console
    process sends [Mig_start] to a live config-group server — re-sent
    until the flip is observed, so a crashed driver's migration is
    re-driven — and polls [Cfg_query] until the new epoch answers, then
    records the established map in [t.maps]. Rendezvous with completion
    via {!await_epoch} or {!run_to_quiescence} (which waits for all
    pending operator actions). Raises [Invalid_argument] if the cluster
    was not built with [~reconfig:true], if [target] is not a provisioned
    group, or if the split is ill-formed. *)

(** Cluster-level specification checks: the paper's per-group properties on
    every shard, plus the isolation property sharding adds. *)
module Spec : sig
  val shard_views : t -> Etx.Spec.View.t list
  (** One {!Etx.Spec.View.t} per shard, labelled [shard<i>]: the shard's
      databases, and the delivered records whose transaction that shard
      participated in — the records whose routing key it owns, plus (on
      cross-shard clusters) every record whose committed plan spanned it.
      Each participant view then carries the full per-shard obligations
      (A.1, exactly-once, ...) for the record. *)

  val global_exactly_once : t -> string list
  (** No delivered request committed a transaction on any shard outside
      its participant set — the home shard of its routing key, plus (on
      cross-shard clusters) the shards its committed plan spanned. (The
      per-view {!Etx.Spec.View.exactly_once} already pins exactly one
      commit, matching the delivered try, on every participant-shard
      database.) *)

  val global_atomicity : t -> string list
  (** The obligation cross-shard commit adds: (a) every delivered
      multi-participant record is committed at every database of every
      shard its plan spanned, and (b) every database anywhere that
      committed a try of a given request committed the {e same} try — a
      global transaction decides once, cluster-wide. Trivially empty on
      clusters without cross-shard traffic. *)

  val migration_integrity : t -> string list
  (** The obligations elastic reconfiguration adds; [[]] on clusters
      built without [~reconfig:true]. (a) every delivered record was
      served by a group that owned its key under some epoch of the map
      history; (b) every delivered try committed in {e exactly one}
      replica group — zero is a lost record, two a cross-flip duplicate
      execution; (c) for every consecutive epoch pair and moving range,
      each source-committed write of a moving key sits at or below the
      import watermark every destination database acked (nothing was
      left behind by the copy phase). *)

  val check_all : t -> string list
  (** [check_all] of every shard view (including per-shard cache
      coherence when caching is on and per-shard replica consistency
      when replicas are on), then {!global_exactly_once},
      {!global_atomicity} and {!migration_integrity}. *)

  val obs_consistency : Obs.Registry.t -> t -> string list
  (** Cross-checks an observability registry attached to the cluster's
      runtime against ground truth: total and per-client
      [client.committed] counters must equal the clients' delivered
      record counts exactly, and each shard's [server.committed] must be
      at least the number of committed records homed there (cleaners may
      re-terminate, so server-side counts are a lower bound). Returns
      violation descriptions; [[]] = consistent. *)
end
