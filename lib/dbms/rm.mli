(** Transactional resource manager: the XA engine behind a database server.

    Implements the commitment surface the paper relies on — [vote] (XA
    prepare) and [decide] (XA commit/rollback) — over an in-memory key-value
    store with per-key write locks and a write-ahead log on a simulated
    {!Dstore.Disk}. Business logic runs through {!exec}, which executes a
    batch of operations inside a transaction workspace.

    Durability model (matches the paper's crash semantics):
    - committed state and prepared workspaces live in the WAL — they survive
      crashes;
    - active transactions are volatile — [recover] discards them;
    - prepared-but-undecided transactions are {e in-doubt} after recovery:
      their locks are re-acquired and they wait for a [decide].

    Timing model: each operation charges virtual time with
    [Etx_runtime.work] under a label named after its Figure 8 row ("start",
    "SQL", "end", "prepare", "commit"); with observability on, the engine
    records each charge into the histogram [work.<label>]. Figure 8 itself
    is read one tier up, from the round trips the XA stub times
    ({!Stub}) and the protocols' phase spans. Calls must run inside a
    fiber. *)

type outcome = Commit | Abort

type vote = Yes | No

type op =
  | Get of string
  | Put of string * Value.t
  | Add of string * int
      (** read-modify-write on an [Int] value; missing key starts from 0 *)
  | Ensure_min of string * int
      (** business-rule guard: current [Int] value must be ≥ bound; a failed
          guard is a {e user-level abort} — per the paper these are regular
          results that the database then refuses to commit *)
  | Fail
      (** unconditionally poison the transaction (application gives up, e.g.
          after repeated lock conflicts): it will vote [No] *)

type exec_reply =
  | Exec_ok of { values : Value.t option list; business_ok : bool }
      (** [values] has one entry per [Get]; [business_ok = false] records a
          failed guard: the transaction is poisoned and will vote [No] *)
  | Exec_conflict of string
      (** a write lock on the given key is held by another transaction; the
          caller should back off and retry *)
  | Exec_rejected  (** the transaction already left its active phase *)

type timing = {
  start_cpu : float;  (** xa_start overhead, charged per exec batch *)
  sql_cpu : float;  (** business-logic/SQL execution *)
  end_cpu : float;  (** xa_end overhead *)
  prepare_cpu : float;  (** prepare-time validation, on top of forced IO *)
  commit_cpu : float;  (** commit-time apply, on top of forced IO *)
  abort_cpu : float;
}

val paper_timing : timing
(** Calibrated so the Figure 8 component rows reproduce: start ≈ 3.4, SQL ≈
    187, end ≈ 3.4, prepare ≈ 19–21, commit ≈ 18.6 (all as seen from an
    application server over a 3–5 ms round-trip LAN). *)

val zero_timing : timing
(** All-zero CPU costs for functional tests (forced IO still charges the
    disk latency). *)

type t

val create :
  ?timing:timing ->
  ?seed_data:(string * Value.t) list ->
  ?read_locks:bool ->
  ?group_commit:bool ->
  disk:Dstore.Disk.t ->
  name:string ->
  unit ->
  t
(** The disk is this database's stable storage; [seed_data] is the initial
    committed state (re-applied on recovery before log replay).

    [group_commit:true] opts the redo log into the {!Dstore.Log}
    group-commit scheduler: concurrent forced writes coalesce into one
    {!Dstore.Disk.force} per window. Off by default — the per-call force
    discipline is byte-identical to the historical WAL behaviour.

    [read_locks:true] enables strict two-phase locking — the serializability
    protocol the paper assumes exists ("we assume the existence of some
    serializability protocol \[3\]"): [Get]/[Ensure_min] take shared locks
    (held to the decide, like write locks), writers exclude readers and vice
    versa, and a sole reader may upgrade to a writer. The default ([false])
    locks writes only, which suffices for every experiment in the paper.
    Shared locks are volatile: after a crash only the in-doubt transactions'
    {e write} locks are re-acquired (their read sets are not logged). *)

val xa_start : t -> xid:Xid.t -> unit
(** XA [xa_start]: open (or join) transaction [xid]; charges the "start"
    overhead. *)

val xa_end : t -> xid:Xid.t -> unit
(** XA [xa_end]: detach from [xid] before commitment processing; charges the
    "end" overhead. *)

val exec : t -> xid:Xid.t -> op list -> exec_reply
(** Run a batch inside transaction [xid]. The transaction must exist and be
    active ([xa_start] creates it): a batch for an unknown [xid] answers
    [Exec_rejected] — in particular after a crash wiped an in-flight
    transaction, so a recovered database can never rebuild a {e partial}
    workspace and vote [Yes] on it. Atomic with respect to locking: either
    all write locks are acquired or [Exec_conflict] is returned with no side
    effect. *)

val exec_dedup :
  t -> seq:int -> xid:Xid.t -> op list -> exec_reply option
(** {!exec} guarded against at-least-once redelivery: [seq] identifies one
    physical exec attempt within [xid] (the application server stamps each
    attempt with a fresh number). The first delivery of a [seq] executes;
    a duplicate that arrives after it finished replays the recorded reply
    without re-executing, and one that arrives {e while} the original is
    still running returns [None] (send no reply — the original's answers
    the caller). Without this, a batch redelivered across a database
    recovery applies its relative updates ([Add]) twice inside one
    workspace, silently corrupting the committed value. Transactions
    unknown to this incarnation answer [Some Exec_rejected]. *)

val vote_many : t -> xids:Xid.t list -> (Xid.t * vote) list
(** XA prepare of a window of transactions, answered in input order. [Yes]
    makes the workspace durable and keeps locks; [No] aborts locally.
    Every [Yes] workspace of the window shares a {e single} forced log
    write (per-transaction CPU still charges). Unknown transactions vote
    [No] — which is what a database that crashed and lost an active
    transaction answers. Idempotent; a transaction another session is
    preparing waits for that session and answers its vote. *)

val vote : t -> xid:Xid.t -> vote
(** [vote_many] on a window of one. *)

val decide_many : t -> items:(Xid.t * outcome) list -> (Xid.t * outcome) list
(** XA commit/rollback of a window of transactions, answered in input
    order, following the paper's contract: (a) an [Abort] input returns
    [Abort]; (b) a [Commit] input on a transaction that voted [Yes] commits
    and returns [Commit]. Defensively, [Commit] on a transaction that
    never prepared aborts it. Every terminal record of the window shares a
    {e single} forced log write; a commit keeps its locks until that write
    lands, an abort releases them before it, in the same step that appends
    its record, so any later transaction that takes the key logs its
    prepare after that record. Idempotent: a decided transaction returns
    its decided outcome, and one that another session is deciding
    waits for it and returns its outcome, so a transaction is logged,
    applied and counted committed at most once. [vote_many] claims a
    transaction the same way. *)

val decide : t -> xid:Xid.t -> outcome -> outcome
(** [decide_many] on a window of one. *)

val commit_one_phase : t -> xid:Xid.t -> outcome
(** Single-phase commit used by the unreliable baseline protocol: no
    prepare, directly apply and force-log. Aborts if the transaction is
    poisoned or unknown. *)

val recover : t -> unit
(** Crash recovery: cut the log's non-durable tail ({!Dstore.Log.crash_cut}),
    rebuild committed state from seed data + checkpoint-bounded LSN-ordered
    replay, re-acquire locks of in-doubt transactions, discard active ones.
    Replay starts at the latest durable snapshot record (if any), so a
    checkpointed log recovers in time proportional to the suffix, not the
    history. Free of charge (reading the log is not a forced write). *)

val checkpoint : t -> unit
(** Compact the redo log: append one snapshot of the committed state (plus
    the decided-transaction record, so idempotent re-decides still answer
    correctly after recovery) and the still-prepared workspaces, make the
    group durable with a {e single} forced write, then raise the retention
    floor to the snapshot's LSN. Crash-atomic: a crash before the force
    recovers from the untruncated history, a crash after it finds a complete
    checkpoint. Observable behaviour is unchanged — recovery just replays a
    bounded log. *)

val log_length : t -> int
(** Number of retained log records (checkpoint/compaction tests). O(1). *)

val log_bytes : t -> int
(** Estimated byte footprint of the retained log records. O(1). *)

val last_commit_lsn : t -> int
(** LSN of the newest committed-state mutation (commit record or snapshot).
    The change-log shipping watermark: a replica that has applied up to this
    LSN holds the current committed state. O(1). *)

val recovery_steps : t -> int
(** Number of log records replayed by the most recent {!recover} — the
    checkpoint-bounded replay length (experiments/tests). *)

(** {1 Change-log shipping (read replicas)} *)

type change_feed =
  | Up_to_date  (** the consumer already holds every committed change *)
  | Entries of (int * (string * Value.t) list) list
      (** committed write-sets above the consumer's LSN, ascending *)
  | Snapshot of { state : (string * Value.t) list; as_of : int }
      (** the consumer is below the retention floor (a checkpoint ran):
          incremental shipping is impossible, re-seed from this full
          committed snapshot at LSN [as_of] *)

val changes_since : ?max_entries:int -> t -> lsn:int -> change_feed
(** The committed changes a replica at [lsn] is missing. At most
    [max_entries] (default 64) entries per call — the shipper paginates.
    Walks the history only down to the first entry at or below [lsn]. *)

val commit_wake : t -> Runtime.Etx_runtime.Wake.t
(** Woken at each committed change noted for shipping: the shipper's
    wake-up. *)

val state_at :
  t -> lsn:int -> (string, Value.t) Hashtbl.t option
(** The committed store exactly as of [lsn]: snapshot state plus every
    committed write-set at LSNs ≤ [lsn]. [None] when [lsn] predates the
    retention floor (a later checkpoint discarded the history) or exceeds
    [last_commit_lsn]. The [replica_consistency] oracle. *)

(** {1 Online shard migration (elastic reconfiguration)}

    The storage half of DESIGN.md §16: a source database is {e sealed}
    against an ownership filter, its moving keys are copied to the
    destination through the same change-feed machinery that serves read
    replicas, and the destination records a durable per-source import
    watermark so a crashed-and-restarted transfer resumes idempotently. *)

val seal : t -> epoch:int -> owns:(string -> bool) -> unit
(** Install (and force-log) an ownership filter: from now on this database
    votes [No] on any transaction writing a key for which [owns] is false
    — closing the lost-update window where a commit lands on the source
    after its keys were copied away. Monotone in [epoch]: a re-seal with
    an older or equal epoch is a no-op. Survives crashes (logged and
    carried across checkpoints). *)

val sealed_epoch : t -> int
(** The installed seal's target epoch; [0] when unsealed. *)

val in_doubt_moving : t -> int
(** Prepared-but-undecided transactions that write at least one key the
    seal disowns. The migration driver's copy phase is complete only once
    this drains to zero {e and} the change feed answers [Up_to_date] —
    each such transaction will either commit (entering the feed below a
    later watermark) or abort. [0] when unsealed. *)

val import_watermark : t -> src:string -> int
(** Highest source LSN already imported from database [src]; [0] before
    any import. Durable (logged, restored by recovery). *)

val import :
  t ->
  src:string ->
  ?snapshot:(string * Value.t) list ->
  entries:(int * (string * Value.t) list) list ->
  upto:int ->
  unit ->
  int
(** Apply a transfer of moving-key write-sets from source database [src]:
    optional re-seed snapshot first, then [entries] (source-LSN order),
    covering source LSNs through [upto]. Idempotent under redelivery and
    driver restart: entries at or below the current watermark are
    dropped, an entry-only transfer at or below it is a no-op, a
    snapshot transfer strictly below it is a no-op (a snapshot {e at}
    the watermark re-applies — the bootstrap snapshot of an unlogged
    source arrives as [upto = 0], and values are absolute so
    re-application is harmless). Force-logs one record; the
    imported writes enter the committed change feed (replicas and
    {!state_at} see them). Returns the new watermark. *)

val commit_lsn_of : t -> Xid.t -> int option
(** The LSN of the transaction's commit record, when this incarnation
    committed it. The [migration_integrity] oracle compares it against
    the destination's import watermark. *)

(** {1 Introspection (tests, property checkers, experiments)} *)

type txn_phase = Active | Prepared | Committed | Aborted

val phase_of : t -> Xid.t -> txn_phase option
val read_committed : t -> string -> Value.t option
val committed_xids : t -> Xid.t list
(** In commit order. *)

val writes_of : t -> Xid.t -> string list
(** Keys in the transaction's workspace (sorted, deduplicated) — for a
    committed transaction, the authoritative write keyset of the commit.
    Committed workspaces are retained in memory and restored by
    [W_committed] WAL replay, so this answers for every commit this
    incarnation knows about; transactions only present in a pre-crash
    snapshot answer [[]] (recovery therefore triggers a flush-all
    invalidation rather than relying on this). *)

val in_doubt : t -> Xid.t list
(** Prepared transactions awaiting a decision. *)

val known_xids : t -> Xid.t list
(** Every transaction this server currently has a record of (sorted). *)

val locks_held : t -> (string * Xid.t) list

val votes_cast : t -> (Xid.t * vote) list
(** Every vote this server ever answered, oldest first — the V.2 property
    checker reads this. (In-memory test instrumentation, not recovered.) *)

val settled : t -> bool
(** No in-doubt transaction and every yes vote durably decided — the
    database half of a run's quiescence. *)

val name : t -> string
val disk : t -> Dstore.Disk.t

val group_commit : t -> bool
(** Whether this resource manager's redo log runs the group-commit
    scheduler ([create ~group_commit:true]). The database server reads
    this to pick its commitment concurrency shape: coalescing only pays
    when concurrent sessions force the log at the same time. *)
