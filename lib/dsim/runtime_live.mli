(** The wall-clock backend: a {!Engine} driven on the wall clock, as an
    {!Runtime.Etx_runtime} capability (backend tag ["live"]).

    It is the simulator's kernel with a second clock. Fibers, class-indexed
    mailboxes, the timer queue, crash fencing and the trace are
    {!Engine}'s, and one thread runs them; only the run loop differs:

    - The clock is wall time in milliseconds since {!create}. Before it
      runs an event, the loop sleeps until the event falls due; a late
      event runs at the wall time it actually runs. [sleep], [work] and
      network delays therefore cost real milliseconds.
    - [run_until ~deadline] waits out the wall clock up to the deadline,
      also when nothing falls due before it.
    - [crash] and [recover] act at once, as on the simulator, and so do
      {!Engine.crash_at} and {!Engine.recover_at} fault scripts on
      {!engine}. The trace is kept, so [Spec]'s note replay, [Seqdiag] and
      the trace analyses work on live runs too.
    - A run repeats the simulator's schedule only while the host keeps up:
      an event that runs late moves every later timestamp, and so the
      order of later events. A live run validates correctness properties
      (exactly-once, agreement), not byte-identical traces. *)

type t

val create : ?seed:int -> ?obs:Obs.Registry.t -> unit -> t
(** [?obs] opts in observability exactly as on the simulator; timestamps
    are wall-clock ms since creation. The network model is the
    deployment's: builders install theirs with [set_net]. *)

val engine : t -> Engine.t
(** The engine underneath, for the simulator's fault scripts and trace
    tooling. Run it only through {!runtime}. *)

val runtime : t -> Runtime.Etx_runtime.t
(** The orchestration capability. A protocol exception raised in any fiber
    propagates out of [run_until]. *)

val now_ms : t -> float
(** Wall-clock ms since {!create}. *)
