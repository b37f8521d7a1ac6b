(** A second write-once-register substrate: single-decree Paxos (Synod).

    The paper treats the consensus under its wo-registers as a pluggable
    "e.g. [4]" — this module plugs in the other canonical choice. Every
    process is acceptor, proposer and learner for any number of instances
    (string keys):

    - ballots are partitioned by proposer ([ballot mod n] owns it), and
      ballot 0 — owned by the default primary — may skip phase 1 (no lower
      ballot exists), so the primary's failure-free write costs one round
      trip to a majority, matching the paper's analytic claim exactly like
      the Chandra–Toueg agent's first-coordinator optimisation;
    - a non-primary writer runs both phases: {e two} round trips, with no
      failure-detector wait at all — which is this backend's point: where
      the rotating-coordinator agent pays a suspicion/round timeout when the
      coordinator crashed (ablation A6), Paxos proposers never wait on
      failure detection, only on quorums (ablation A8 contrasts the two);
    - decisions are learned via a broadcast and answered to late proposers.

    Liveness caveat (inherent to Paxos): duelling proposers can livelock;
    attempts back off with jitter. Safety needs no assumptions beyond a
    majority of acceptors being up to make progress. *)

open Runtime

type t

val create :
  ?attempt_timeout:float ->
  ?backoff:float ->
  peers:Types.proc_id list ->
  ch:Dnet.Rchannel.t ->
  unit ->
  t
(** Must be called inside the owning fiber. [peers] ordered identically
    everywhere; the head owns ballot 0. [attempt_timeout] (default 50 ms)
    bounds each phase's quorum wait, which the decision also ends;
    [backoff] (default 20 ms) spaces retries, with per-proposer jitter. *)

val start : t -> unit
(** Forks the acceptor/learner dispatcher. *)

val propose : t -> key:string -> Types.payload -> Types.payload
(** Blocks until the instance decides; returns the decided value. *)

val peek : t -> key:string -> Types.payload option

val decision_wake : t -> key:string -> Etx_runtime.Wake.t
(** Woken when instance [key] is learned here. Take it while the instance
    is undecided: a decided instance's wake never fires. *)

val decided_keys : t -> string list

val on_decide : t -> (string -> unit) -> unit
(** [on_decide t f]: [f key] runs each time an instance decides here, from
    the fiber that learned it, after the relays went out. Must not
    block. *)
