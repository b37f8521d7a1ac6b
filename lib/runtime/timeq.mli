(** Timer queue: a binary min-heap keyed by (time, push order).

    The engine's event queue (on either clock) and the reliable channel's
    retransmission timers use it. Elements with equal
    times pop in the order they were pushed, which the simulator's
    determinism relies on. Times live unboxed in a float array and payloads
    in a plain array, so the queue keeps no record per element, and a
    popped payload is not kept reachable by the queue. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** An empty queue. [dummy] fills vacated payload slots; it is never
    returned. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit
(** [push q time v] queues [v] at [time]. O(log n). *)

val min_time : 'a t -> float
(** Time of the element {!pop} would return. Raises [Invalid_argument] on
    an empty queue, as do {!min_value} and {!pop}. *)

val min_value : 'a t -> 'a
(** Payload of the element {!pop} would return, left queued. *)

val pop : 'a t -> 'a
(** Removes the earliest element and returns its payload. O(log n). *)

val clear : 'a t -> unit
(** Empties the queue. A queue that grew past a small capacity gives its
    arrays back here, and also when {!pop} empties it. *)
