(** Application-server-side stubs for talking to database servers.

    This is the one XA client: the application server and the comparison
    protocols (unreliable baseline, 2PC, primary-backup) reach the
    databases only through it. Every round is group-wide — a request to
    each database of [~dbs], then a wait for all replies — and carries a
    window of transactions, a single transaction being a window of one;
    the only single-database call is a business run's exec capability
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
  (** Call inside the owning fiber: it also fetches that process's obs
      sink, which times the XA rounds below. *)

  val start : t -> unit
  (** Fork the [Ready]-consuming listener. On each [Ready] it redelivers
      one {!Msg.Ready_wake} per fiber then waiting on that database. *)

  val epoch : t -> Types.proc_id -> int
  (** Bumped every time the database broadcasts [Ready]. *)
end

(** {1 XA rounds}

    Each round is the paper's multicast-then-wait-for-all idiom ([prepare()]
    and [terminate()] of Figure 4): send the request to every database of
    [dbs] at once, then collect one matching reply from each, re-sending to
    any database that recovers meanwhile. One sequential communication step
    regardless of the number of databases. One message per database carries
    the whole window of transactions and one reply carries every answer, so
    a window of N costs the same number of protocol messages as a single
    transaction. Replies are matched on the window's full xid list: a round
    can never consume another window's reply.

    With observability on, every XA start round, exec call (its conflict
    retries included) and XA end round records its duration into the
    histogram [xa.start_ms], [xa.exec_ms] or [xa.end_ms]: Figure 8's start,
    SQL and end rows, timed at the one site every protocol shares. *)

val xa_start :
  Dnet.Rchannel.t ->
  Readiness.t ->
  dbs:Types.proc_id list ->
  xids:Xid.t list ->
  unit

val xa_end :
  Dnet.Rchannel.t ->
  Readiness.t ->
  dbs:Types.proc_id list ->
  xids:Xid.t list ->
  unit

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
  xids:Xid.t list ->
  Rm.outcome list
(** Send [Prepare] everywhere and collect the votes: each database answers
    its whole vote vector after a single log force ({!Rm.vote_many}). One
    outcome per xid, in [xids] order: [Commit] iff every database votes
    [Yes]. A recovered database forgets an unprepared transaction and
    votes [No], which is the paper's "Ready counts as failure" rule. *)

val decide :
  Dnet.Rchannel.t ->
  Readiness.t ->
  dbs:Types.proc_id list ->
  items:(Xid.t * Rm.outcome) list ->
  unit
(** Send [Decide] everywhere and wait for every [AckDecide] — the paper's
    terminate() retry loop; each database applies the window after a
    single log force ({!Rm.decide_many}). The round is idempotent. *)

val commit_one_phase :
  Dnet.Rchannel.t ->
  Readiness.t ->
  dbs:Types.proc_id list ->
  xid:Xid.t ->
  Rm.outcome
(** Baseline protocol: single-phase commit everywhere; [Commit] iff every
    database committed. *)
