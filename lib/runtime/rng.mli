(** Deterministic pseudo-random number generator (SplitMix64).

    The engine owns one generator seeded at creation; identical seeds give
    identical simulations. [split] derives an independent stream, used to
    decorrelate e.g. the network-loss stream from workload randomness. *)

type t

val create : seed:int -> t

val split : t -> t
(** [split t] is a new generator whose stream is independent of [t]'s
    subsequent output. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0].
    Implemented with bitmask rejection sampling, so the distribution is
    exactly uniform for every bound (no modulo bias). *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. Requires [bound > 0.]. *)

val bool : t -> float -> bool
(** [bool t p] is [true] with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed value with the given mean. *)

