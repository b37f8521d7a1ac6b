(** The leaseholder's queue of tries waiting for a batch window, and the
    rule that assembles a window from it (DESIGN.md §12).

    A window is one slot of the leased pipeline: every try in it executes
    concurrently, holds its database locks until the window's decision is
    written, and commits or aborts with the window. Two tries of one window
    that touch the same key would therefore wait on each other's locks
    until the database gives up, so {!take} never places two conflicting
    tries in one window. A try conflicts with another when its declared
    writes ({!Business.keyset}) meet the other's reads or writes. A try
    that declares no keys conflicts with nothing, exactly as before windows
    were conflict-aware.

    The queue is a FIFO in arrival order with O(1) membership by
    [(rid, j)], so a retransmitted try is queued once. *)

type entry = {
  client : Runtime.Types.proc_id;  (** the client that issued the try *)
  request : Etx_types.request;
  j : int;  (** the try's result identifier *)
  keys : Business.keyset;  (** declared keyset of [request.body] *)
}

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

val mem : t -> rid:int -> j:int -> bool

val push : t -> entry -> unit
(** Append at the tail unless [(rid, j)] is already queued. O(1). *)

val push_front : t -> entry list -> unit
(** Put [entries] back at the head, in the given order, ahead of
    everything queued. Entries already queued are left where they are. *)

val clear : t -> unit

val transfer : t -> into:t -> unit
(** Move every entry, in order, to the tail of [into]; the source ends
    empty. *)

val conflicts : Business.keyset -> Business.keyset -> bool
(** [conflicts a b]: [a]'s writes meet [b]'s reads or writes, or the other
    way round. Symmetric; two reads never conflict. *)

val take : t -> cap:int -> skip:(entry -> bool) -> entry list
(** Assemble the next window, in arrival order. Scanning from the head,
    an entry with [skip e] is dropped from the queue; any other entry joins
    the window unless it conflicts with an entry already in the window or
    with one deferred earlier in this scan, in which case it is deferred.
    Deferred entries stay at the head of the queue in arrival order, so the
    tries touching one key enter windows in the order they arrived. The
    scan stops when the window holds [cap] entries, when [cap] entries have
    been deferred, or at the end of the queue. *)
