(** Class-indexed FIFO backing the engine's mailboxes.

    Every element lives on two intrusive doubly-linked lists at once: a
    global list (overall arrival order) and a per-class bucket
    (arrival order within one message class). That gives O(1) classed pop,
    while the global list keeps the legacy predicate scan — oldest-first
    over all classes — exactly as the plain FIFO behaved. A push allocates
    only its node: links end in an immediate, not in an [option] box.

    Class [-1] is the "unclassed" bucket; any [cls >= -1] is accepted and
    buckets grow on demand. [clear] is O(number of buckets): it drops both
    list spines. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> cls:int -> 'a -> unit
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

val cls_length : 'a t -> int -> int
(** Bucket size, O(bucket). Test/diagnostic use. *)

val clear : 'a t -> unit

val to_list : 'a t -> 'a list
(** Global (oldest-first) order. *)
