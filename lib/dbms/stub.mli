(** Application-server-side stubs for talking to database servers.

    This is the one XA client: the application server and the comparison
    protocols (unreliable baseline, 2PC, primary-backup) reach the
    databases only through it. Every round is group-wide — a request to
    each database of [~dbs], then a wait for all replies — and the only
    single-database call is a business run's exec capability
    ({!exec_of}). The rounds are blocking RPCs over a reliable channel,
    resilient to database crashes. Instead of letting
    every waiting fiber race to consume the single [Ready] a recovering
    database broadcasts (the paper's "receive Vote or Ready" idiom), an
    application server runs one {!Readiness} listener that consumes [Ready]
    messages, bumps a per-database {e recovery epoch} and wakes every stub
    blocked on that database, which re-sends its request at once. This is
    observationally the paper's protocol — a recovery un-blocks every
    waiter — without the starvation race between concurrent waiters (e.g.
    a compute thread in [prepare] and a cleaning thread in [terminate]).
    A stub waits without a timeout: it runs only when its reply or a wake
    arrives. *)

open Runtime

module Readiness : sig
  type t

  val create : dbs:Types.proc_id list -> t
  (** Call inside the owning fiber. *)

  val start : t -> unit
  (** Fork the [Ready]-consuming listener. On each [Ready] it redelivers
      one {!Msg.Ready_wake} per fiber then waiting on that database. *)

  val epoch : t -> Types.proc_id -> int
  (** Bumped every time the database broadcasts [Ready]. *)
end

(** {1 Single-transaction XA rounds}

    Each round is the paper's multicast-then-wait-for-all idiom ([prepare()]
    and [terminate()] of Figure 4): send the request to every database of
    [dbs] at once, then collect one matching reply from each, re-sending to
    any database that recovers meanwhile. One sequential communication step
    regardless of the number of databases. *)

val xa_start :
  Dnet.Rchannel.t -> Readiness.t -> dbs:Types.proc_id list -> xid:Xid.t -> unit

val xa_end :
  Dnet.Rchannel.t -> Readiness.t -> dbs:Types.proc_id list -> xid:Xid.t -> unit

val exec_of :
  Dnet.Rchannel.t ->
  Readiness.t ->
  xid:Xid.t ->
  db:Types.proc_id ->
  Rm.op list ->
  Rm.exec_reply
(** [exec_of ch rd ~xid] is the exec capability of one business run on
    [xid]: a blocking exec RPC to one database that backs off 40 ms and
    retries on [Exec_conflict] (a lock held by another — possibly dead —
    transaction that the cleaning thread will eventually release). After
    20 tries the conflict is returned to the caller, which should poison
    the transaction rather than commit a partial workspace. Every physical
    attempt, across databases and conflict retries, draws the next number
    of a sequence private to this capability, so the server executes each
    exactly once even if it is redelivered across a recovery
    ({!Rm.exec_dedup}); make one capability per transaction. *)

val prepare :
  Dnet.Rchannel.t ->
  Readiness.t ->
  dbs:Types.proc_id list ->
  xid:Xid.t ->
  Rm.outcome
(** Send [Prepare] everywhere and collect the votes: [Commit] iff every
    database votes [Yes]. A recovered database forgets an unprepared
    transaction and votes [No], which is the paper's "Ready counts as
    failure" rule. *)

val decide :
  Dnet.Rchannel.t ->
  Readiness.t ->
  dbs:Types.proc_id list ->
  xid:Xid.t ->
  Rm.outcome ->
  unit
(** Send [Decide] everywhere and wait for every [AckDecide] — the paper's
    terminate() retry loop. The round is idempotent. *)

val commit_one_phase :
  Dnet.Rchannel.t ->
  Readiness.t ->
  dbs:Types.proc_id list ->
  xid:Xid.t ->
  Rm.outcome
(** Baseline protocol: single-phase commit everywhere; [Commit] iff every
    database committed. *)

(** {1 Batched XA rounds (group commit)}

    One message per database carries a whole window of transactions and one
    reply carries every answer, so a window of N transactions costs the same
    number of protocol messages as a single transaction. Replies are matched
    on the full xid list: a batch RPC can never consume another batch's (or
    a single-transaction round's) reply. All four re-send across recoveries
    like their singular counterparts. *)

val xa_start_batch :
  Dnet.Rchannel.t ->
  Readiness.t ->
  dbs:Types.proc_id list ->
  xids:Xid.t list ->
  unit

val xa_end_batch :
  Dnet.Rchannel.t ->
  Readiness.t ->
  dbs:Types.proc_id list ->
  xids:Xid.t list ->
  unit

val prepare_batch :
  Dnet.Rchannel.t ->
  Readiness.t ->
  dbs:Types.proc_id list ->
  xids:Xid.t list ->
  (Xid.t * Rm.vote) list list
(** Batched prepare: every database answers its whole vote vector (input
    order) after a single group-commit log force ({!Rm.vote_many}); one
    vector per database, in [dbs] order. *)

val decide_batch :
  Dnet.Rchannel.t ->
  Readiness.t ->
  dbs:Types.proc_id list ->
  items:(Xid.t * Rm.outcome) list ->
  unit
(** Batched terminate: one [Decide_batch] per database carrying all N
    outcomes, acknowledged once applied ({!Rm.decide_many}). *)
