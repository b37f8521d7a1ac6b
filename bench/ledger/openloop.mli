(** Open-loop load generation and the rules that judge a run.

    Nothing here touches the simulator, so the unit tests exercise every
    rule directly: the Poisson schedule, the percentile convention, the
    capacity search and the per-run stop rules. *)

val schedule : seed:int -> rate:float -> n:int -> start:float -> float array
(** [n] Poisson arrival due times in virtual ms, ascending, starting one
    exponential gap after [start]; [rate] is in arrivals per virtual
    second. The same seed gives the same schedule. *)

val beyond : int -> float -> int
(** [beyond n p]: how many of [n] samples rank strictly above the
    [p]-th percentile as [Stats.Summary.percentile] picks it (nearest
    rank). A p99 is reported only when this is at least 10, i.e.
    [n >= 1000]. *)

val finite : float array -> float list
(** The finite elements (undelivered arrivals carry [nan]). *)

val fail_frac : float array -> float
(** Undelivered share: [nan] delivery times over the array length. *)

(** {1 Stop rules} *)

type verdict =
  | Running
  | Overdue  (** more than the allowed share of arrivals missed the limit *)
  | Budget  (** the deterministic event budget ran out *)

type guard

val guard :
  due:float array -> limit:float -> abort_frac:float -> budget:int -> guard
(** A run with these due times fails early once more than [abort_frac] of
    its arrivals are overdue past [limit] ms (undelivered at [due + limit],
    or delivered later than that), and stops when [budget] simulator events
    have run. *)

val check :
  guard -> now:float -> events:int -> delivered:(int -> float) -> verdict
(** Advance the guard to virtual time [now]; [delivered i] is arrival [i]'s
    delivery time or [nan]. Amortised O(1) per call. *)

val overdue : guard -> int

(** {1 Capacity search} *)

type probe = { rate : float; pass : bool }

val capacity : ?max_rungs:int -> r0:float -> (float -> bool) -> float * probe list
(** Geometric ladder [r0 * 1.1^k], ascending until the first failing rung,
    then three geometric bisection steps between the last passing and the
    first failing rate. When [r0] itself fails the
    ladder descends instead. Returns the highest passing rate seen on that
    path (0 if none) and every probe in order. A pass above the first
    failure is never looked for, so a non-monotone oracle yields the knee
    below its first failure. [max_rungs] (40) caps each ladder walk. *)
