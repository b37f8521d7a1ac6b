(** Class-indexed FIFO backing the engine's mailboxes and waiter queues.

    Every element lives on two intrusive doubly-linked lists at once: a
    global list (overall arrival order, like {!Fifo}) and a per-class bucket
    (arrival order within one message class). That gives O(1) classed pop
    and O(1) cancellation through the {!node} handle returned by {!push},
    while the global list keeps the legacy predicate scan — oldest-first
    over all classes — exactly as the plain FIFO behaved. A push allocates
    only its node: links end in an immediate, not in an [option] box.

    Class [-1] is the "unclassed" bucket; any [cls >= -1] is accepted and
    buckets grow on demand. [clear] is O(number of buckets): it drops both
    list spines and bumps a generation counter so that stale node handles
    (e.g. a receive-timeout closure racing a crash) turn {!remove} into a
    no-op. *)

type 'a t

type 'a node
(** Handle to one queued element; invalidated by removal or {!clear}. *)

val create : unit -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> cls:int -> 'a -> 'a node
(** Append at the tail of both the global list and class bucket. O(1). *)

val pop : 'a t -> 'a option
(** Remove and return the globally oldest element. O(1). *)

val pop_cls : 'a t -> int -> 'a option
(** Remove and return the oldest element of one class. O(1). *)

val take_first : 'a t -> ('a -> bool) -> 'a option
(** Oldest element (global order) satisfying the predicate. O(position). *)

val take_first_in_cls : 'a t -> int -> ('a -> bool) -> 'a option
(** Oldest element of the class satisfying the predicate; scans only that
    bucket. *)

val take_first_in_either : 'a t -> int -> ('b -> 'a -> bool) -> 'b -> 'a option
(** [take_first_in_either t cls pred x] takes the oldest element satisfying
    [pred x] from the unclassed bucket and class [cls]'s bucket together,
    scanning only those two. Taking the predicate's argument separately
    lets a caller match against one value without building a closure. *)

val node_value : 'a node -> 'a

val remove : 'a t -> 'a node -> bool
(** Unlink the node. O(1). Returns [false] if it was already removed or the
    queue was cleared since it was pushed. *)

val mem : 'a t -> 'a node -> bool
(** Whether the node is still queued: not removed, not cleared. O(1). *)

val cls_length : 'a t -> int -> int
(** Bucket size, O(bucket). Test/diagnostic use. *)

val clear : 'a t -> unit

val iter : ('a -> unit) -> 'a t -> unit
(** Global (oldest-first) order. *)

val to_list : 'a t -> 'a list
