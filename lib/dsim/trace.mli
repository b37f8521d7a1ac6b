(** Trace bus: the engine publishes structured events; analyses subscribe.

    Communication-step and message-count figures (paper Fig. 1 and Fig. 7)
    are computed from collected traces rather than instrumenting protocols. *)

open Runtime

type event =
  | Spawned of Types.proc_id * string
  | Sent of Types.message * Types.time  (** message and its delivery time *)
  | Dropped of Types.message  (** lost by the network model *)
  | Delivered of Types.message
  | Dead_letter of Types.message  (** destination was down *)
  | Crashed of Types.proc_id
  | Recovered of Types.proc_id
  | Work of Types.proc_id * string * float
      (** simulated local computation: process, category label, duration *)
  | Note of Types.proc_id * string  (** free-form protocol annotation *)

type entry = { at : Types.time; event : event }

type t
(** A collector accumulating entries in order. *)

val create : ?enabled:bool -> unit -> t
(** [~enabled:false] gives a no-op sink: [record] discards everything and
    [entries] stays empty. Trials that never read their trace use this to
    keep the simulator hot path allocation-free (the engine also skips
    building the event values — see {!Engine.create}). *)

val enabled : t -> bool

val record : t -> Types.time -> event -> unit
(** No-op when the collector is disabled. *)

val entries : t -> entry list
(** Entries in chronological (record) order. *)

val message_count : ?subject:(Types.message -> bool) -> t -> int
(** Number of [Sent] entries matching [subject] (default: all). *)

val communication_steps : ?subject:(Types.message -> bool) -> t -> int
(** Length of the longest causal chain of matching messages: a message [m2]
    extends a chain ending in [m1] when [m2.src = m1.dst] and [m2] was sent
    at or after [m1]'s delivery. This reproduces the "communication steps"
    counting of the paper's Figures 1 and 7. *)

type stats = {
  sent : int;
  delivered : int;
  dropped : int;  (** lost by the network model *)
  dead_lettered : int;  (** destination was down *)
  crashes : int;
  recoveries : int;
  notes : int;
}

val stats : t -> stats
(** Aggregate counts over the whole trace. *)

val pp_stats : Format.formatter -> stats -> unit

