(** Application-server-side stubs for talking to database servers.

    These are the client halves of the XA surface: blocking RPCs over a
    reliable channel, resilient to database crashes. Instead of letting
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

val xa_start :
  Dnet.Rchannel.t -> Readiness.t -> db:Types.proc_id -> xid:Xid.t -> unit
(** Blocking XA start on one database (resent across its recoveries). *)

val xa_end :
  Dnet.Rchannel.t -> Readiness.t -> db:Types.proc_id -> xid:Xid.t -> unit

val exec :
  ?seq:int ->
  Dnet.Rchannel.t ->
  Readiness.t ->
  db:Types.proc_id ->
  xid:Xid.t ->
  Rm.op list ->
  Rm.exec_reply
(** One blocking exec RPC; no conflict retry (see {!exec_retry}). [seq]
    (default 0) identifies this physical attempt within [xid]; the server
    executes each (xid, seq) at most once and replays the recorded reply to
    redelivered duplicates ({!Rm.exec_dedup}), so callers issuing several
    execs per transaction must give each a distinct number. *)

val exec_retry :
  ?backoff:float ->
  ?max_tries:int ->
  ?fresh_seq:(unit -> int) ->
  Dnet.Rchannel.t ->
  Readiness.t ->
  db:Types.proc_id ->
  xid:Xid.t ->
  Rm.op list ->
  Rm.exec_reply
(** Like {!exec} but backs off and retries on [Exec_conflict] (a lock held
    by another — possibly dead — transaction that the cleaning thread will
    eventually release). After [max_tries] (default 20, backoff default
    40 ms) the conflict is returned to the caller, which should poison the
    transaction rather than commit a partial workspace. Each attempt draws
    its sequence number from [fresh_seq] (default: a counter private to
    this call); pass the transaction-scoped counter when a business run
    makes more than one exec call on the same [xid]. *)

val wait_vote :
  Dnet.Rchannel.t -> Readiness.t -> db:Types.proc_id -> xid:Xid.t -> Rm.vote
(** Send [Prepare] and wait for this database's vote, re-sending across
    recoveries (a recovered database forgets the transaction and votes
    [No], which is the paper's "Ready counts as failure" rule). *)

val wait_ack_decide :
  Dnet.Rchannel.t ->
  Readiness.t ->
  db:Types.proc_id ->
  xid:Xid.t ->
  Rm.outcome ->
  unit
(** Send [Decide] and wait for [AckDecide], re-sending across recoveries —
    the paper's terminate() retry loop, per database. *)

val commit_one_phase :
  Dnet.Rchannel.t -> Readiness.t -> db:Types.proc_id -> xid:Xid.t -> Rm.outcome
(** Baseline protocol: single-phase commit RPC. *)

val broadcast_collect :
  Dnet.Rchannel.t ->
  Readiness.t ->
  dbs:Types.proc_id list ->
  request:(Types.proc_id -> Types.payload) ->
  matches:(Types.payload -> 'a option) ->
  (Types.proc_id * 'a) list
(** The paper's multicast-then-wait-for-all idiom ([prepare()] and
    [terminate()] of Figure 4): send [request db] to every database at once,
    then collect one matching reply from each, re-sending to any database
    that recovers meanwhile. One sequential communication step regardless of
    the number of databases. *)

(** {1 Batched XA rounds (group commit)}

    One message per database carries a whole window of transactions and one
    reply carries every answer, so a window of N transactions costs the same
    number of protocol messages as a single transaction. Replies are matched
    on the full xid list: a batch RPC can never consume another batch's (or
    a single-transaction call's) reply. All four re-send across recoveries
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
  (Types.proc_id * (Xid.t * Rm.vote) list) list
(** Batched prepare: every database answers its whole vote vector (input
    order) after a single group-commit log force ({!Rm.vote_many}). *)

val decide_batch :
  Dnet.Rchannel.t ->
  Readiness.t ->
  dbs:Types.proc_id list ->
  items:(Xid.t * Rm.outcome) list ->
  unit
(** Batched terminate: one [Decide_batch] per database carrying all N
    outcomes, acknowledged once applied ({!Rm.decide_many}). *)
