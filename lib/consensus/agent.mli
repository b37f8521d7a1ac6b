(** Chandra–Toueg style consensus among the application servers.

    One [Agent.t] lives in each application-server process and multiplexes
    any number of consensus {e instances}, identified by string keys (the
    write-once register arrays use keys like ["g0:regA:c7:r1003\[1\]"]). The
    algorithm is the rotating-coordinator protocol of Chandra & Toueg
    (◇S-class), which the paper cites as its register substrate:

    - round [r]'s coordinator is [peers.(r mod n)];
    - participants send their timestamped estimates to the coordinator,
      which picks the most recently adopted value, proposes it, and decides
      once a majority acknowledges; suspicion of the coordinator (via the
      supplied failure detector) nacks the round and rotates.

    Two paper-mandated properties of the implementation:

    - {e first-coordinator optimisation}: in round 0 the coordinator may
      propose its own value without gathering estimates (nothing can have
      been adopted before round 0), so when the default primary writes a
      register the write costs one round trip to a majority — the paper's
      Appendix 3 analytic claim;
    - decisions are {e reliably broadcast}: every process relays a
      decision on first receipt to all peers but the sender, so all correct
      servers eventually learn it (the register [read] liveness property
      relies on this). A crash-stop agent therefore answers no late ack of
      a decided instance; with persistence it does, because a decision
      restored from the log was never relayed. The channel stops
      retransmitting a relay while its destination is suspected, and the
      round messages of an instance decided here
      ({!Dnet.Rchannel.retire_when}); a peer that was wrongly suspected
      learns the decision when its own driver asks, because the dispatcher
      answers any message about a decided instance with the decision.

    A failure-free instance decides in round 0: a participant that acked
    a round's proposal stays in that round until the decision, a later
    round's message, suspicion of the coordinator or [round_timeout].
    Every wait of the driver blocks on exactly these: the decision and the
    detector's suspicion changes wake it ({!Dnet.Fdetect.changed}), and
    the round deadline is its one timeout; nothing re-checks on a period.

    Correctness assumptions (the paper's): a majority of the [peers] never
    crash, crashed peers do not rejoin (agent state is volatile), channels
    are reliable (we run over {!Dnet.Rchannel}), and the failure detector is
    eventually perfect. Safety (agreement, validity, write-once) holds even
    if the detector misbehaves; only liveness needs ◇P. *)

open Runtime

type t

type persistence
(** Stable storage for a {e crash-recovery} agent (the paper's §5 pointer to
    consensus in the crash-recovery model, [22,23]): participants force-log
    every value adoption before acknowledging it and every decision before
    announcing it, so a recovered server rejoins without contradicting its
    pre-crash promises (it restarts above the last acknowledged round). This
    trades the crash-stop model's "majority never crashes" for "a majority
    is eventually up together" — at the price of forced IO on the register
    write path, which is precisely the cost the paper's diskless middle
    tier avoids (quantified by the persistence ablation). *)

val make_persistence : disk:Dstore.Disk.t -> persistence
(** The disk (and the log within) must be created {e outside} the process so
    it survives crashes. *)

val create :
  ?round_timeout:float ->
  ?persist:persistence ->
  peers:Types.proc_id list ->
  fd:Dnet.Fdetect.t ->
  ch:Dnet.Rchannel.t ->
  unit ->
  t
(** Must be called inside the owning application-server fiber. [peers] must
    list all application servers in the same order everywhere (the rotation
    schedule); the default primary must come first. [round_timeout]
    (default 100 ms) bounds how long any round is waited on before rotating
    — the ◇S-via-timeouts device that also lets processes desynchronised by
    recoveries converge to a common round. When [persist] is
    given and its log is non-empty, the agent recovers its instances from
    the log (free of charge — reading is not a forced write). *)

val start : t -> unit
(** Forks the dispatcher fiber. Call once after [create]. *)

val propose : t -> key:string -> Types.payload -> Types.payload
(** Propose a value for instance [key]; blocks until the instance decides
    and returns the decided value (not necessarily the proposal). *)

val peek : t -> key:string -> Types.payload option
(** This process's current knowledge of the decision (non-blocking). *)

val decision_wake : t -> key:string -> Etx_runtime.Wake.t
(** Woken when instance [key] decides here. Take it while the instance is
    undecided ({!peek} is [None]): a decided instance's wake never fires. *)

val decided_keys : t -> string list
(** All locally known decided instances (tests, introspection). *)

type Types.payload +=
  | C_estimate of {
      key : string;
      round : int;
      est : Types.payload option;
      ts : int;
    }
  | C_propose of { key : string; round : int; value : Types.payload }
  | C_ack of { key : string; round : int; ok : bool }
  | C_decide of { key : string; value : Types.payload }
  | C_start of { key : string }
(** The agent's wire messages, for tests that count them in a trace. *)

val is_consensus_message : Types.payload -> bool
(** Classifier for trace analyses: consensus-protocol traffic (register
    writes) as opposed to application messages. *)

val retire_when : t -> (string -> bool) -> unit
(** [retire_when t rule] sets the owner's retirement rule for instance
    keys, replacing any earlier one (default: nothing is retired). An
    instance is removed once three things hold: [rule] retires its key, it
    is decided here, and every peer is known to hold the decision — the
    peer this agent learned it from, or one that acked a [C_decide] from
    here ({!Dnet.Rchannel.on_ack}). The agent checks at each of those
    events, at a driver's exit and at {!release}; nothing polls. A message
    about an absent instance whose key [rule] retires is dropped if the
    instance may have been collected here: it never re-creates such an
    instance or forks a driver for it. A classic register key
    ({!Reg_name.client_of} [>= 0]) ordered at or past every register of
    its client collected here ({!Reg_name.position}) was never held here,
    so no peer has collected it: a message about it creates and joins the
    instance, so that a register a live server still drives decides. Any
    other key the rule retires must be one decided here, so an absent one
    was collected. The rule must be monotone (a retired key stays retired)
    and must not block.

    A peer that never acks — crashed, or suspected so that the channel
    stopped resending the relay — keeps the instance here until it acks an
    answer to its own question. A decision restored from the log counts
    no peer but this one. *)

val on_decide : t -> (string -> unit) -> unit
(** [on_decide t f]: [f key] runs each time an instance decides here, from
    the fiber that learned it, after the relays went out and before
    {!retire_when}'s rule is asked about [key]. Must not block. *)

val release : t -> key:string -> unit
(** The owner's rule now retires [key]: remove its instance if the other
    two conditions of {!retire_when} hold too (else the event that
    completes them does). No-op for an absent key. *)

val instance_count : t -> int
(** Number of locally known instances (memory accounting). *)
