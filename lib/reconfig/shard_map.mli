(** Epoch-versioned deterministic key → replica-group placement.

    A shard map is pure data shared by every client, server and register:
    the same key always lands on the same group, on any process, in any
    run. Epoch 0 reproduces the unversioned map bit-for-bit — [slots]
    top-level shards placed by FNV-1a modulo [slots]. Every later epoch is
    a {e refinement} produced by {!split}: one group's key region is
    divided between it and a target group, and nothing else moves.

    The authoritative current map of a running cluster lives in the
    [cfg:e<n>] write-once register sequence (see {!Rmsg} and
    DESIGN.md §16); the value stored there is exactly a [t]. *)

type node =
  | Leaf of int  (** the whole region belongs to this group *)
  | Hsplit of node * node
      (** consume one bit of the key's hash quotient; 0 → left, 1 → right *)

type t = { epoch : int; assignment : node array }
(** [assignment] has one root node per top-level slot. Treat as
    read-only; build values with {!create} / {!split}. *)

val create : shards:int -> unit -> t
(** Epoch-0 map: slot [i] is [Leaf i]. Raises [Invalid_argument] if
    [shards < 1]. *)

val epoch : t -> int

val slots : t -> int
(** Number of top-level slots (the epoch-0 shard count). Constant across
    splits. *)

val shards : t -> int
(** Number of replica groups the map can address: 1 + the highest group
    index appearing in any leaf. Grows as splits target fresh groups. *)

val groups : t -> int list
(** The group indices that own at least one region, sorted. *)

val shard_of : t -> string -> int
(** Group owning a routing key; in [0, shards). At epoch 0 this is
    exactly the unversioned placement (FNV-1a mod slots). *)

val shards_of : t -> string list -> int list
(** Participant set of a key set: the groups owning the keys, sorted and
    deduplicated. A singleton means the keys are co-located and the
    request can ride the intra-shard path. *)

val split : t -> group:int -> target:int -> unit -> t
(** [split t ~group ~target ()] is epoch [t.epoch + 1] with every leaf of
    [group] divided between [group] and [target] by one further hash bit
    (keys whose bit is 1 move). [target] may
    be a fresh group ([shards t]) or an existing one; raises
    [Invalid_argument] if it equals [group], would leave an index gap, or
    if [group] owns nothing. *)

type move = { src : int; dst : int }

val diff : t -> t -> move list
(** [diff older newer] — the ownership transfers between two {e
    consecutive} epochs, sorted and deduplicated. Pure and total on maps
    related by refinement; raises [Invalid_argument] otherwise. The keys
    of a move are characterised by {!moved}. *)

val moved : t -> t -> string -> (int * int) option
(** [Some (src, dst)] iff the key's owner differs between the two maps. *)

(**/**)

val fnv1a : string -> int
(** The placement hash (exposed for tests and for documentation of the
    exact placement function; not part of the stable API). *)
