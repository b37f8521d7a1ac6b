(** Per-node metrics registry and span store.

    One registry covers one backend instance (all of its nodes). Metrics
    are keyed by [(group, node, name)] — the replica group is parsed from
    the node name ("g2:a1" -> group 2), so per-shard aggregation works
    without extra plumbing. Fibers reach the registry through the neutral
    {!Runtime.Etx_runtime.obs_sink} record built by {!sink}; protocol code
    never sees this module directly. *)

type key = { group : int; node : string; name : string }

type t

val create : ?spans:bool -> unit -> t
(** [spans:false] records metrics only: span/event calls become no-ops
    (the "metrics" mode of the obs-overhead benchmark). *)

val spans_enabled : t -> bool
val group_of_node : string -> int

(** {2 Mutation} (normally reached via {!sink}) *)

val incr : t -> node:string -> name:string -> int -> unit
val set_gauge : t -> node:string -> name:string -> float -> unit
val observe : t -> node:string -> name:string -> float -> unit

val span_open :
  t -> node:string -> at:float -> ?parent:int -> trace:int -> string -> int
(** Returns the new span id (0 when spans are disabled). *)

val span_close : t -> at:float -> int -> unit
(** Idempotent; closing span 0 or an already-closed span is a no-op. *)

val span_attr : t -> int -> string -> string -> unit
(** First write of a key wins (a crashed owner's attrs survive take-over). *)

val event :
  t -> node:string -> at:float -> trace:int -> name:string -> string -> unit

(** {2 Snapshots} (deterministically sorted by name, group, node) *)

val counters : t -> (key * int) list
val gauges : t -> (key * float) list
val histograms : t -> (key * Histogram.t) list
val spans : t -> Span.t list
val events : t -> Span.event list

val counter_total : ?group:int -> t -> string -> int
(** Sum of a counter over all nodes (optionally one group). *)

val counter_value : t -> node:string -> name:string -> int
val histogram : t -> node:string -> name:string -> Histogram.t option
val merged_histogram : t -> string -> Histogram.t option

(** {2 Fiber-side sink} *)

val sink :
  t -> node:string -> now:(unit -> float) -> Runtime.Etx_runtime.obs_sink
(** Bind the registry to one node and a backend clock; backends answer the
    [Etx_runtime.obs] with this. *)
