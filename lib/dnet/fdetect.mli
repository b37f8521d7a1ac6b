(** Failure detectors.

    The paper requires an {e eventually perfect} (◇P) failure detector among
    application servers: {e completeness} — a crashed server is eventually
    permanently suspected by every server — and {e accuracy} — there is a
    time after which no correct server is suspected. {!heartbeat} implements
    the classic adaptive-timeout construction: suspect a peer when its
    heartbeat is overdue, and on a false suspicion (a message from a
    suspected peer arrives) raise that peer's timeout, so suspicions are
    eventually accurate under bounded-but-unknown delays.

    {!oracle} consults the engine's ground truth and is perfect by
    construction; the primary-backup comparison protocol requires it (the
    paper points out a false suspicion there leads to inconsistency), and
    tests use it to isolate protocol logic from detector quality.

    Suspicion is also an event: every detector wakes {!changed} when it
    starts or stops suspecting a process, so a fiber waits on that instead
    of re-checking {!suspects} on a period. *)

open Runtime

type t

val heartbeat :
  ?period:float ->
  ?initial_timeout:float ->
  ?timeout_bump:float ->
  peers:Types.proc_id list ->
  unit ->
  t
(** Must be called from inside the owning fiber; monitors [peers]. Defaults:
    heartbeat every 10 ms, initial suspicion timeout 50 ms, bump +25 ms on
    each false suspicion. *)

val oracle : Etx_runtime.t -> t
(** Perfect detector reading the engine's process states. *)

val of_fun : peers:Types.proc_id list -> (Types.proc_id -> bool) -> t
(** Scripted detector for tests: [suspects] delegates to the function. Used
    e.g. to inject a false suspicion deterministically and demonstrate why
    primary-backup needs perfect failure detection. It re-evaluates the
    function on [peers] every 10 ms to wake {!changed}: the only detector
    that polls. *)

val start : t -> unit
(** Heartbeat: arms the broadcaster and the monitor, two runtime timers
    ({!Etx_runtime.timer}), and registers the heartbeat handler
    ({!Etx_runtime.on_message}), which notes each heartbeat and clears a
    false suspicion inside its delivery event. The broadcaster sends a
    heartbeat to every peer each period. The monitor wakes at the first
    half-period grid point past the earliest deadline of an unsuspected
    peer; a cleared suspicion re-plans it at once.
    Oracle: subscribes to the runtime's crash and recovery notices
    ({!Etx_runtime.watch}, one per process). Scripted: forks its poller. *)

val changed : t -> Etx_runtime.Wake.t
(** Woken when the detector starts or stops suspecting a process: the
    heartbeat detector at the monitor tick that suspects and on the
    heartbeat that clears, the oracle at the crash or recovery instant
    (after {!start}). *)

val suspects : t -> Types.proc_id -> bool
(** The paper's [suspect(a)] predicate, evaluated now. *)

val current_timeout : t -> Types.proc_id -> float option
(** The adaptive timeout for a peer (None for oracle detectors or unknown
    peers); exposed for tests of the adaptation rule. *)

val is_heartbeat : Types.payload -> bool
(** Detector traffic that message-count analyses should ignore. *)
