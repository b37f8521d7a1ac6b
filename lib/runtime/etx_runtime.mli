(** The execution substrate the e-Transaction protocol stack runs on.

    The paper specifies the protocol independently of any execution engine;
    this module is the contract that makes that separation real in code.
    Protocol fibers interact with their backend exclusively through the
    fiber-side operations below, so protocol modules carry no backend
    handle on the hot path. A fiber performs an OCaml effect only where it
    can suspend ({!sleep}, {!work}, the receives and the {!Wake} waits);
    every other operation ({!now}, {!send}, {!fork}, ...) is a direct call
    through the {!ctx} record that the hosting backend installs in the
    running domain while it runs one of its processes. A process may also
    register {!on_message} handlers, which the backend runs inside the
    delivery event instead of waking a fiber. Orchestration (spawning
    processes, fault injection, driving the run) goes through the {!t}
    capability record threaded through the protocol [config] records.

    Two backends exist, one engine ([Dsim.Engine]) on two clocks:
    - sim — deterministic discrete-event simulation (virtual time);
      adapter: [Dsim.Runtime_sim.of_engine].
    - live — the same engine sleeping until each event falls due on the
      wall clock; adapter: [Dsim.Runtime_live.runtime].

    Crash/recovery semantics follow the paper's model on both backends: a
    crash kills every fiber of the process, clears its mailbox and message
    handlers and drops in-flight wakeups (incarnation fencing); volatile
    state — anything held in fiber-local bindings — is lost, while state
    kept outside the fibers (e.g. [Dstore] stable storage) survives.
    Recovery re-runs the process main with [~recovery:true].

    Fiber-side operations ([now], [send], [recv], ...) must be called from
    inside a fiber or a message handler; outside, {!obs} returns [None],
    the suspending ones raise [Effect.Unhandled] and the others raise
    [Failure]. *)

open Types

exception Exit_fiber

type netmodel = Rng.t -> src:proc_id -> dst:proc_id -> float list
(** Delivery delays for one send; the empty list drops the message, two or
    more elements duplicate it. Self-sends bypass the model. *)

val default_net : netmodel
(** Constant 1.0 ms delivery, no loss. *)

(** {1 Message classes}

    A class is a small integer naming a disjoint family of payloads, used to
    demultiplex deliveries in O(1) instead of predicate-scanning mailboxes
    and waiter lists. The registry is global and backend-independent:
    protocol modules register their classes once at module-initialisation
    time (before any backend runs; the registry is read-only afterwards, so
    it is safe to share across [Dsim.Pool] domains).
    Classification order is registration order: the first predicate
    accepting a payload names its class; payloads no predicate accepts are
    "unclassed" and reachable only through the predicate receive path. *)

type cls = int

val register_class : ?name:string -> (Types.payload -> bool) -> cls
(** Register a payload family; returns its class id. Call only from
    module-level initialisation code. *)

val classify : Types.payload -> cls
(** First registered class accepting the payload, [-1] if none. *)

val class_name : cls -> string

val registered_classes : unit -> (cls * string) list
(** Registration order; for diagnostics and docs. *)

(** {1 Observability sink}

    The neutral surface through which fibers emit metrics, spans and trace
    events. The runtime layer only declares the record; [Obs.Registry]
    implements it and backends answer {!val-obs} with a sink bound to the
    calling process — or [None] when observability was not opted in, the
    common case. Protocol modules fetch the sink once at init via {!obs}
    and branch on the option per instrument site, so disabled observability
    costs one predictable branch and no allocation (DESIGN.md §10). *)

type obs_sink = {
  obs_count : string -> int -> unit;  (** add to a named counter *)
  obs_gauge : string -> float -> unit;
  obs_observe : string -> float -> unit;  (** record into a histogram *)
  obs_span_open : ?parent:int -> trace:int -> string -> int;
      (** open a span, returning its id; 0 means "no span" everywhere *)
  obs_span_close : int -> unit;
  obs_span_attr : int -> string -> string -> unit;
  obs_event : trace:int -> string -> string -> unit;
}

(** {1 Effects and context}

    Exposed so backends can install handlers; protocol code should use the
    fiber-side wrappers below instead. *)

type wake
(** A wake-up source; see {!Wake}. *)

type timer = ..
(** A one-shot timer of one process; see {!val-timer}. Each backend adds
    its own constructor. *)

(** The operations where a fiber suspends. *)
type _ Effect.t +=
  | E_sleep : time -> unit Effect.t
  | E_work : string * time -> unit Effect.t
  | E_recv : cls * (message -> bool) option * time -> message option Effect.t
      (** class, or [-1] for any; filter; timeout, [infinity] for none *)
  | E_await :
      wake * wake * cls * (message -> bool) option * time
      -> message option Effect.t
      (** [E_recv] that a wake of either source also ends, with [None]; the
          backend registers the blocked fiber with {!Wake.register} *)

(** The operations that never suspend, answered by the backend for the
    process it is running; one field per fiber-side operation of the same
    name. A backend builds one record per instance and keeps the running
    process itself. *)
type ctx = {
  cx_now : unit -> time;
  cx_self : unit -> proc_id;
  cx_send : proc_id -> payload -> unit;
  cx_redeliver : proc_id -> payload -> unit;
  cx_fork : string -> (unit -> unit) -> unit;
  cx_watch : (proc_id -> unit) -> unit;
  cx_on_message : cls -> (message -> unit) -> unit;
  cx_timer : (unit -> unit) -> timer;
  cx_arm : timer -> time -> unit;
  cx_cancel : timer -> unit;
  cx_fresh_uid : unit -> int;
  cx_note : string -> unit;
  cx_obs : unit -> obs_sink option;
}

val no_ctx : ctx
(** The context outside any fiber: {!obs} answers [None], every other
    operation raises [Failure]. *)

val install : ctx -> ctx
(** [install c] makes [c] the calling domain's context and returns the one
    it replaces, which the backend reinstalls once the fiber or handler it
    runs returns or suspends. *)

val take_message :
  message Cq.t -> cls -> (message -> bool) option -> message option
(** [take_message mailbox cls filter] removes and returns the message that
    [E_recv (cls, filter, _)] receives from [mailbox] without blocking, if
    there is one. *)

(** {1 Orchestration capability} *)

(** What a backend provides to host the cluster, threaded through the
    protocol [config] records. *)
type t = {
  backend : string;
      (** short tag ("sim", "live") recorded in artefacts and summaries *)
  spawn : name:string -> main:(recovery:bool -> unit -> unit) -> proc_id;
      (** register a process; its [main] starts once the backend runs.
          Process ids are assigned sequentially from 0 in spawn order *)
  is_up : proc_id -> bool;
  name_of : proc_id -> string;
  crash : proc_id -> unit;
      (** crash-stop: volatile state (mailbox, fibers) is discarded *)
  recover : proc_id -> unit;
      (** restart a crashed process; its [main] reruns with
          [~recovery:true] *)
  set_net : netmodel -> unit;
  run_until : ?deadline:time -> (unit -> bool) -> bool;
      (** drive the backend until the predicate holds or the deadline (in
          ms on the backend's own clock — virtual for sim, wall for live)
          passes; returns the predicate's final value *)
  notes : unit -> (proc_id * string) list;
      (** all [note] annotations recorded so far, oldest first *)
  obs : (string -> obs_sink) option;
      (** when observability was opted in at backend creation: builds the
          sink for a named node (orchestration-side instrumentation; fibers
          call {!val-obs} instead). [None] = observability off *)
}

(** {1 Fiber-side operations} *)

val now : unit -> time
(** Milliseconds on the hosting backend's clock (virtual or wall). *)

val self : unit -> proc_id

val sleep : time -> unit

val work : string -> time -> unit
(** [work label d] models [d] ms of local computation (SQL execution, a
    forced disk write): time advances; the sim backend also records a
    [Trace.Work] entry for latency accounting (paper Fig. 8). *)

val send : proc_id -> payload -> unit

val send_all : proc_id list -> payload -> unit

val redeliver : src:proc_id -> payload -> unit
(** Enqueue a payload into the calling process's own mailbox, attributed to
    [src], bypassing the network. Used by the reliable-channel layer to hand
    deduplicated payloads to the protocol above. *)

val recv :
  ?timeout:time -> ?cls:cls -> filter:(message -> bool) -> unit -> message option
(** Selective receive: first scans the mailbox, then blocks. [None] only on
    timeout. Messages rejected by every waiting fiber stay queued.

    With [?cls] the scan is confined to that class's bucket (the filter then
    only refines within the class — callers must ensure the filter accepts
    no payload outside the class, or those messages become unreachable). *)

val recv_cls : ?timeout:time -> cls -> message option
(** O(1) classed receive: pops the oldest message of the class, or blocks
    in the class's waiter bucket. The fast path for converted hot loops. *)

val recv_any : ?timeout:time -> unit -> message option

val fork : string -> (unit -> unit) -> unit
(** Start a sibling fiber in the calling process. It dies with the process
    and is not restarted on recovery (the main must re-fork its helpers). *)

val on_message : cls -> (message -> unit) -> unit
(** [on_message cls f]: from now until the calling process crashes or
    recovers, every message of class [cls] delivered to it runs [f m]
    inside the delivery event, with the calling process's context, instead
    of entering the mailbox or waking a waiting fiber. Messages of the
    class already queued are handed to [f] at once, oldest first. [f] must
    not suspend: a receive, sleep or wait in it raises [Invalid_argument].
    A second handler for the same class of one process raises
    [Invalid_argument]. *)

val timer : (unit -> unit) -> timer
(** [timer f] is a disarmed one-shot timer of the calling process. Once
    {!arm}ed it runs [f] when it falls due, inside that event and with the
    process's context installed, like an {!on_message} handler: [f] must
    not suspend, and a receive, sleep or wait in it raises
    [Invalid_argument]. A timer never runs after its process crashes, not
    even in a later incarnation. One timer serves any number of armings,
    so arming allocates nothing. *)

val arm : timer -> time -> unit
(** [arm tm d] makes [tm] fire [d] ms from now. Arming an armed timer
    moves it. An event queued at the same time earlier runs first, one
    queued later runs after, as with {!sleep}. *)

val cancel : timer -> unit
(** Disarms the timer: its event leaves the backend's queue. A no-op on a
    disarmed timer. *)

val no_timer : timer
(** A placeholder for a record field that gets its timer once the record
    exists; it must never be armed. *)

val fresh_uid : unit -> int
(** A fresh identifier unique within the hosting backend instance,
    monotonically increasing from 1000 (so values stay disjoint from client
    try counters). Used for request ids, channel endpoints and
    comparison-protocol transaction ids; keeping the counter per-instance
    (rather than process-global) makes trials self-contained, so parallel
    runs stay deterministic. *)

val note : string -> unit
(** Free-form annotation by the calling process; readable through the
    capability's [notes] (backed by the engine's trace on both clocks). *)

val obs : unit -> obs_sink option
(** The hosting backend's observability sink for the calling process, or
    [None] when observability is off or no fiber runs. Fetch once at
    fiber/module init — not per event. *)

val span :
  obs_sink option -> parent:int -> trace:int -> string -> (unit -> 'a) -> 'a
(** [span sink ~parent ~trace name f] runs [f] inside an obs span of [name]
    (just [f] when [sink] is [None]). Not exception-safe on purpose: a
    process that crashes mid-phase leaves its span open, the signal a
    fail-over post-mortem looks for. *)

val exit_fiber : unit -> 'a
(** Terminate the calling fiber silently. *)

val watch : (proc_id -> unit) -> unit
(** [watch f]: from now until the calling process crashes, every crash or
    recovery of another process runs [f pid] at that instant, as a new
    fiber of the calling process. The notice bypasses the network: no
    delay, no loss, no random draw. A later call replaces [f]. *)

(** {1 Process-local wake-ups}

    A fiber blocks until another fiber of the {e same} process changes the
    state it waits on. Every wait leaves a ticket with its source and is
    woken without a message: the wait just ends, as if it timed out. A
    fiber in {!Wake.recv} or {!Wake.sleep} waits on two sources at once
    (pass one twice for a single source). *)
module Wake : sig
  type t = wake

  val create : unit -> t

  val until : t -> (unit -> bool) -> unit
  (** [until w ready] returns once [ready ()] holds, blocking on [w] between
      checks; whoever changes what [ready] reads then calls {!wake}. *)

  val recv :
    t -> t -> timeout:time -> cls -> filter:(message -> bool) -> message option
  (** [recv w w' ~timeout cls ~filter] is [Etx_runtime.recv ~cls ~filter]
      that also returns [None] when [w] or [w'] is woken. *)

  val sleep : t -> t -> time -> unit
  (** [sleep w w' d] blocks until [w] or [w'] is woken or [d] ms pass. *)

  val wake : t -> unit
  (** Wake every fiber blocked on [w], in the order their waits began.
      Callable outside a fiber. *)

  val reset : t -> unit
  (** Forget the waiters of a [t] kept in state that outlives a crash. *)

  val register : t -> (bool -> bool) -> unit
  (** Backend side of {!recv}: [register w ticket] records a blocked
      fiber. [ticket false] says whether it still waits; [ticket true]
      also ends its wait. *)
end
