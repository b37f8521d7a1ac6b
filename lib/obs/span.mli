(** Causal request tracing: spans and point events.

    A span is one timed phase of one request on one node; all spans of a
    request share its rid as [trace] id and link through [parent] span ids
    (propagated across nodes in message payloads), forming one tree per
    request — including cleaner take-overs during fail-over. Spans are
    created through {!Registry}; this module holds the data model and the
    tree reconstruction. *)

type t = {
  id : int;
  trace : int;  (** request id; 0 groups backend-lifecycle spans *)
  parent : int;  (** parent span id, 0 = root *)
  name : string;
  node : string;
  start : float;
  mutable stop : float;  (** NaN while open (e.g. owner crashed mid-phase) *)
  mutable attrs : (string * string) list;
}

type event = {
  etrace : int;
  enode : string;
  ename : string;
  eat : float;
  detail : string;
}

val closed : t -> bool
val duration : t -> float option
(** [None] while the span is open. *)

val attr : t -> string -> string option

val total : t list -> string -> float
(** Summed durations of the closed spans named [name], in list order; open
    spans (a crashed owner's) add nothing. Figure 8 and the A12/A13b phase
    tables divide it by their transaction count. *)

type tree = { span : t; children : tree list }

val forest : t list -> trace:int -> tree list
(** The trace's spans as parent-linked trees; spans with no (or an unknown)
    parent become roots. Deterministic order: start time, then id. *)

val tree_size : tree -> int
val find : t list -> trace:int -> name:string -> t list
