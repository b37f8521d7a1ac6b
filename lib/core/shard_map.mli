(** Deterministic key → shard placement for the sharded cluster.

    An alias of {!Reconfig.Shard_map} — the epoch-versioned map of
    DESIGN.md §16 — plus the body-routing helper core layers use. Epoch-0
    maps reproduce the historical unversioned placement bit-for-bit:
    FNV-1a modulo the shard count. Later epochs are refinements produced by
    {!Reconfig.Shard_map.split} during online migration. *)

include module type of struct
  include Reconfig.Shard_map
end

val shard_of_body : t -> string -> int
(** [shard_of] of the body's {!Etx_types.routing_key}. *)
