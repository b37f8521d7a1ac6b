(** Deterministic discrete-event simulation engine.

    Processes are cooperative fibers owning a shared per-process mailbox
    with selective receive. A fiber performs an OCaml effect only where it
    suspends (receive, sleep, work); the other fiber-side operations are
    direct calls through the engine's [Etx_runtime.ctx], which the engine
    installs in the domain while it runs a process's fiber or message
    handler or one of its timers ([Etx_runtime.timer]). Virtual time advances
    only through the event queue, from which a finished wait's timeout and
    a cancelled timer leave at once; identical seeds give identical
    executions.
    {!Runtime_live} runs the same engine on the wall clock through
    {!next_due} and {!run_next}.

    Crash/recovery semantics follow the paper's model: a crash kills every
    fiber of the process, clears its mailbox and drops in-flight wakeups
    (incarnation fencing); volatile state — anything held in fiber-local
    bindings — is lost, while state kept outside the fibers (e.g. [Dstore]
    stable storage) survives. Recovery re-runs the process main with
    [~recovery:true].

    The fiber-side operations are {!Runtime.Etx_runtime}'s ([now], [send],
    [recv], ...); they must be called from inside a fiber or a message
    handler; outside, the suspending ones raise [Effect.Unhandled] and the
    others [Failure]. Message classes are registered there too
    ({!Runtime.Etx_runtime.register_class}). Orchestration operations
    ([spawn], [run], [crash_at], ...) must be called outside the event loop
    or from scheduled closures. *)

open Runtime
open Types

type t

type netmodel = Rng.t -> src:proc_id -> dst:proc_id -> float list
(** Delivery delays for one send; the empty list drops the message, two or
    more elements duplicate it. Self-sends bypass the model. *)

val default_net : netmodel
(** Constant 1.0 ms delivery, no loss. *)

val create :
  ?seed:int -> ?net:netmodel -> ?tracing:bool -> ?obs:Obs.Registry.t -> unit -> t
(** [~tracing:false] disables the trace sink entirely: no trace event is
    allocated or recorded anywhere in the hot path, and {!trace} returns an
    empty collector. Use it for trials that never read their trace (most
    harness sweeps); analyses such as {!Trace.communication_steps} or
    [Spec.check_all] (which replays [computed:] notes) need the default
    [~tracing:true].

    [?obs] opts in observability: fibers get a sink through
    [Etx_runtime.obs], the engine itself counts per-class network traffic
    ([net.sent.*] / [net.recv.*] / [net.dropped.*] / [net.dead_letter.*]),
    observes [work.<label>] durations and tees notes, crashes and
    recoveries into the registry's event store. Omitted (the default), no
    observability code runs beyond one branch per site. *)

val trace : t -> Trace.t

val obs_registry : t -> Obs.Registry.t option
(** The registry passed at {!create}, if any. *)

val rng : t -> Rng.t
val set_net : t -> netmodel -> unit

(** {1 Orchestration} *)

val spawn : t -> name:string -> main:(recovery:bool -> unit -> unit) -> proc_id
(** Creates a process and schedules its main fiber at the current time. *)

val name_of : t -> proc_id -> string
val is_up : t -> proc_id -> bool

val crash : t -> proc_id -> unit
(** Immediate crash (idempotent while down); the process's message
    handlers are dropped. Every other live process's
    watcher ([Etx_runtime.watch]) runs at once, as a fiber of its
    process. *)

val recover : t -> proc_id -> unit
(** Immediate recovery: re-runs main with [~recovery:true]. No-op if up.
    Notifies the watchers as {!crash} does. *)

val crash_at : t -> time -> proc_id -> unit
val recover_at : t -> time -> proc_id -> unit

val mailbox_length : t -> ?cls:Etx_runtime.cls -> proc_id -> int
(** Messages delivered to the process but not yet received — of one class
    with [?cls]. Test/diagnostic use. *)

val post : t -> src:proc_id -> dst:proc_id -> payload -> unit
(** Orchestration-side send, subject to the network model. *)

val schedule : t -> delay:time -> (unit -> unit) -> unit
(** Raw event at [now + delay]; not fenced by any incarnation. *)

val now_of : t -> time

val events_of : t -> int
(** Number of simulation events executed so far — the denominator-free
    "simulated events" measure the throughput benchmarks report per
    wall-clock second. *)

type outcome =
  | Quiescent  (** event queue drained *)
  | Deadline_reached
  | Stopped  (** [stop] was called *)

val run : ?deadline:time -> t -> outcome

val run_until : ?deadline:time -> t -> (unit -> bool) -> bool
(** Runs until the predicate holds (checked after every event), the deadline
    passes, or the queue drains; returns whether the predicate holds. *)

val stop : t -> unit

val next_due : t -> time
(** Due time of the earliest scheduled event; [infinity] when none is. *)

val run_next : t -> at:time -> unit
(** Runs the earliest scheduled event (there must be one) with the clock
    at [at], or at the current time if that is later: the step of a run
    loop that keeps its own clock. [at] must not be earlier than the
    event's due time. *)
