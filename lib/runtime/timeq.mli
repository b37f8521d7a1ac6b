(** Timer queue: a binary min-heap keyed by (time, push order).

    The engine's event queue (on either clock) and the reliable channel's
    retransmission timers use it. Elements with equal
    times pop in the order they were pushed, which the simulator's
    determinism relies on. Times live unboxed in a float array and payloads
    in a plain array, so the queue keeps no record per element, and a
    popped payload is not kept reachable by the queue.

    An element can also leave before it falls due ({!remove}). The queue
    then needs its slot, which it tells a [moved] callback given at
    {!create} each time the element moves. Removal keeps every other
    element's push number, so ties still pop in push order. *)

type 'a t

val create : ?moved:('a -> int -> unit) -> dummy:'a -> unit -> 'a t
(** An empty queue. [dummy] fills vacated payload slots; it is never
    returned. With [moved], the queue calls [moved v i] whenever payload
    [v] lands in slot [i] (a push, a pop or removal moving it) and
    [moved v (-1)] when [v] leaves the queue. *)

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

val remove : 'a t -> int -> unit
(** [remove q i] takes out the element in slot [i], the last slot
    [moved] reported for it. O(log n). Raises [Invalid_argument] if no
    element is in slot [i]. *)

val clear : 'a t -> unit
(** Empties the queue. A queue that grew past a small capacity gives its
    arrays back here, and also when {!pop} empties it. *)
