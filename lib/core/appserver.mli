(** The application-server protocol (paper Figures 4, 5 and 6).

    Each application server runs two protocol threads over a shared stack
    (reliable channels, failure detector, the wo-registers of
    {!Consensus.Woreg} over the Chandra–Toueg consensus agent, database
    readiness tracker):

    - the {e computation thread} (Fig. 5): every client request passes one
      intake — misroute and reconfiguration bounces, cache and replica
      reads, and the replay rules for terminated tries — on the classic
      and the batched path alike. On a fresh try [(r, j)] it
      competes for [regA\[j\]] — the write-once register electing which
      server computes try [j]. The winner runs the business logic inside
      transaction [(r, j)] across all databases, runs the atomic-commitment
      prepare phase (Fig. 4 [prepare()]), writes the resulting decision into
      [regD\[j\]] and terminates it (Fig. 4 [terminate()]: Decide to every
      database until acknowledged, then the result to the client);
    - the {e cleaning thread} (Fig. 6): for every suspected peer, it scans
      the registers of every known request and terminates each result the
      suspect had claimed, by writing [(nil, abort)] into [regD\[j\]] —
      obtaining either its own abort or, if the suspect got there first, the
      already-committed decision, which it then finishes (fail-over with
      commit, Fig. 1c).

    Application servers are stateless (all durable protocol state lives in
    the registers and the databases) and do not support recovery: per the
    paper's model a crashed server stays down, and a majority must stay up.

    With observability on, each try opens obs spans for its phases:
    "election" (the [regA] write), "compute", "prepare", "consensus" (the
    [regD] write) and "terminate". With the XA stub's round-trip histograms
    ({!Dbms.Stub}) they give the paper's Figure 8 rows.

    With [batch > 1] the server runs the {e leased, batched} fast path
    instead (DESIGN.md §12): a stable leaseholder elected once per lease
    epoch drains its request queue and pushes up to [batch] mutually
    non-conflicting transactions ({!Window.take}) through one election
    ([batchA]), one XA window, one group-commit
    prepare, one decision write ([batchD] — still the commit point) and one
    batched terminate round. Peers contest the lease only after the failure
    detector suspects the holder; the takeover seals the suspect's epoch,
    which aborts-or-finishes every outstanding batch (the Fig. 6 cleaning
    argument transposed to windows). *)

open Runtime

type fd_spec =
  | Fd_oracle  (** perfect detector from runtime ground truth *)
  | Fd_heartbeat of {
      period : float;
      initial_timeout : float;
      timeout_bump : float;
    }  (** the ◇P heartbeat detector of {!Dnet.Fdetect} *)

type cross_cfg = {
  shard_of_key : string -> int;
      (** the cluster's routing map: which replica group owns a key *)
  peers : int -> Types.proc_id list;
      (** application servers of a participant group, [[]] past the last
          group; a function because the full cluster membership is only
          known after every group spawned *)
}
(** Cross-shard commit wiring (DESIGN.md §15). When supplied, a request
    whose declared keyset spans several replica groups commits atomically
    across them via Paxos Commit over the wo-registers: the home server
    wins [regA\[j\]] with a [Gx_elect] record, ships each participant
    shard its branch of the plan ({!Business.cross_spec}), and commits iff
    every shard's vote register holds a yes vote — each cast only after
    that shard's databases all prepared. Any group's cleaner can finish or
    abort the instance when the coordinator is suspected, so a crashed
    coordinator never blocks the transaction. *)

type reconfig_cfg = {
  init_map : Shard_map.t;  (** the epoch-0 map the cluster booted with *)
  cfg_group : int;
      (** the group whose consensus decides the [cfg:e<n>] / [mig:e<n>]
          register sequences (group 0 by convention) and whose servers
          host migration drivers and the takeover monitor *)
  rc_groups : int;
      (** how many groups are provisioned (spares included): the
          heartbeat failure detector spans every provisioned group's
          servers when reconfiguration is on, because migration drivers
          must be able to give up on crashed servers of {e other}
          groups (seal and install acks) — a group-local detector never
          suspects them and the driver would wait forever *)
  rc_servers_of : int -> Types.proc_id list;
      (** group index → that group's application servers, spare
          (pre-provisioned) groups included *)
  rc_dbs_of : int -> (Types.proc_id * string) list;
      (** group index → that group's databases as (process, durable name);
          the name keys the destination's per-source import watermark *)
}
(** Elastic reconfiguration wiring (DESIGN.md §16). When supplied, the
    server forks a cfg fiber that tracks the epoch-versioned shard map
    (adopting newer maps from [Cfg_announce], answering [Cfg_query],
    sealing its group during migrations, and serving the driver's
    decision-transfer scans), and bounces requests its group does not own
    under the current map with an epoch-stamped [Result_nack_msg].
    Config-group servers additionally run {!Reconfig.Driver} migrations on
    [Mig_start] and a monitor that re-drives a decided migration intent
    whose owner is suspected. *)

type config = {
  rt : Etx_runtime.t;  (** the execution substrate hosting this server *)
  group : int;
      (** replica group (shard) this server belongs to; 0 for single-group
          deployments. Register names are prefixed with the group so two
          shards' wo-register arrays never collide, and requests stamped
          with another group are dropped rather than executed. *)
  index : int;  (** position in [servers]; 0 is the default primary *)
  servers : Types.proc_id list;
      (** this group's application servers, fixed order *)
  dbs : Types.proc_id list;
  business : Business.t;
  fd_spec : fd_spec;
  clean_period : float;
      (** cleaning-thread scan interval while a server is suspected (the
          lease takeover and reconfiguration monitor use it too) *)
  persist : Consensus.Agent.persistence option;
      (** when set, the server's registers live on this stable storage and
          the server supports {e crash-recovery} (the paper's §5 pointer to
          [22,23]): on recovery it rejoins consensus from its log, so the
          liveness assumption weakens from "a majority never crashes" to "a
          majority is eventually up together". The cost — forced IO on the
          register write path — is exactly what the paper's diskless middle
          tier avoids; one caveat: a server re-elected for a try it had
          prepared before crashing cannot reconstruct the original result
          string, so the delivered result may degrade to an error report
          even though the transaction's effect applies exactly once. *)
  batch : int;
      (** maximum results per leased batch, at least 1; 1 selects the
          classic per-result path, byte-identical to earlier revisions. *)
  cache : Method_cache.t option;
      (** method cache for read-only business calls (DESIGN.md §13). On a
          hit the server replies [Result_cached_msg] without touching the
          registers or the databases; misses run the normal pipeline and
          fill the cache on commit (generation-guarded). A "cache-inval"
          fiber consumes the databases' commit-piggybacked [Invalidate]
          broadcasts — the deployment must spawn its database servers
          with [~invalidate:true] whenever caches are supplied. [None]
          leaves the request path byte-identical to the uncached
          protocol. *)
  replicas : (unit -> (Types.proc_id * Types.proc_id list) list) option;
      (** per-database asynchronous read replicas (DESIGN.md §14): on a
          cache-miss read-only request the server runs the business logic
          against a replica ([Replica_exec]/[Replica_values]) and replies
          [Result_replica_msg], tagged with the LSN snapshot the reads saw
          and its provable staleness — no election, no transaction, no
          primary SQL. A stale/refusing replica, one silent for 1,000 ms,
          or any loss of a single provable snapshot falls back to the
          normal pipeline. A thunk because replicas are spawned after the
          application servers; [None] leaves the request path
          byte-identical to the replica-less protocol. *)
  cross : cross_cfg option;
      (** cross-shard commit wiring; [None] confines every request to this
          server's own group — no gx fiber is forked and the request path
          stays byte-identical to the single-shard protocol *)
  reconfig : reconfig_cfg option;
      (** elastic reconfiguration; [None] fixes the map forever — no cfg
          fiber is forked and the request path stays byte-identical to the
          static protocol *)
}

val replica_bound : int
(** Max provable staleness (LSN delta, 8) tolerated on a replica read: a
    replica whose lag exceeds it answers stale and the request falls back
    to the primary pipeline. *)

val spawn : config -> Types.proc_id
(** Spawns on the backend in [cfg.rt]. The deployment fills the record and
    checks it ([batch >= 1]) before it spawns anything. *)
