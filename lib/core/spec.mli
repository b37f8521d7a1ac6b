(** Checkers for the e-Transaction specification (paper Section 3).

    Each check inspects one replica group after a run and returns
    human-readable violation descriptions (empty list = property holds).
    Termination properties are meaningful only after the run reached
    quiescence ([Cluster.run_to_quiescence]).

    The checks are written against a {!View.t} — the slice of a run they
    inspect (databases, delivered records, completion flag, trace notes).
    The cluster builds one view per replica group ([Cluster.Spec.shard_views]),
    giving each the records whose transaction that group took part in; the
    paper's deployment is a one-shard cluster, so it is a single view.
    Whole-run checks, which add the cross-group obligations, are
    [Cluster.Spec.check_all]. *)

val computed_note : rid:int -> j:int -> string -> string
(** The V.1 evidence a try leaves in the trace once its business run
    computed [result]: ["computed:<rid>:<j>:<result>"]. Every writer (the
    application server and the comparison protocols) builds it here, and
    {!View.validity_v1} parses it back. *)

module View : sig
  type t = {
    label : string;  (** prefixed to every violation message (e.g. shard) *)
    dbs : (Runtime.Types.proc_id * Dbms.Rm.t) list;
    records : Client.record list;
        (** delivered records this view is accountable for *)
    scripts_done : bool;  (** all issuing clients ran to completion *)
    notes : unit -> (Runtime.Types.proc_id * string) list;
        (** trace notes (for the V.1 computed-result check) *)
    caches : (Runtime.Types.proc_id * Method_cache.t) list;
        (** per-app-server method caches this view is accountable for
            (empty when caching is off). View builders include only
            servers that are up at check time: a crashed server's frozen
            cache can serve nothing, and the recovery path flushes it. *)
    business : Business.t option;
        (** the deployment's business logic — {!cache_coherence}
            re-executes cached entries through it; [None] skips the
            check *)
    replicas :
      (Runtime.Types.proc_id * Dbms.Replica.t * Runtime.Types.proc_id) list;
        (** (replica pid, handle, primary database pid) triples this view
            is accountable for (empty when replicas are off) *)
    replica_bound : int;
        (** the deployment's staleness bound — every replica-served record
            must prove lag ≤ this *)
  }

  val agreement_a1 : t -> string list
  (** A.1: no result delivered by a client unless committed by {e all}
      database servers. *)

  val agreement_a2 : t -> string list
  (** A.2: no database server commits two different results of one
      request. *)

  val agreement_a3 : t -> string list
  (** A.3: no two database servers decide differently on the same
      result. *)

  val validity_v1 : t -> string list
  (** V.1: every delivered result was computed by an application server
      for a request a client issued (checked against the servers'
      computation trace notes). *)

  val validity_v2 : t -> string list
  (** V.2: no database commits a result unless every database voted yes
      for it. *)

  val termination_t1 : t -> string list
  (** T.1: every client (which did not crash) delivered a result for
      every issued request — i.e. its script ran to completion. *)

  val termination_t2 : t -> string list
  (** T.2: every result a database voted for was eventually committed or
      aborted there (no in-doubt transaction remains). *)

  val exactly_once : t -> string list
  (** End-to-end exactly-once: per delivered request, exactly one
      transaction committed at every database, and it matches the
      delivered try. Cache-served records are exempt (see
      {!cache_coherence}). *)

  val cache_coherence : t -> string list
  (** Every entry still live in a method cache equals re-executing its
      method against the databases' current committed state (over a
      read-only window — a cached method that writes during re-execution
      is also flagged). Records served from the cache are exempt from
      A.1/exactly-once (no transaction of their own) but their results
      must still appear in some server's computed notes (V.1). *)

  val replica_consistency : t -> string list
  (** Replica consistency (DESIGN.md §14): (a) every replica's store
      equals the primary's committed state as of the replica's applied
      LSN (a committed log prefix — the asynchronous analogue of
      one-copy equivalence under bounded staleness); (b) every
      replica-served record proves lag ≤ the deployment's bound and its
      result equals re-executing the method against the primary's
      committed state as of the record's LSN. States a later checkpoint
      made unenumerable are skipped (unverifiable, not violations). *)

  val check_all : t -> string list
  (** All of the above. *)
end
