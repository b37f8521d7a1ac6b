(** Render a trace as a textual message-sequence diagram — the tool that
    regenerates the paper's Figure 1/7 pictures from an actual run.

    One line per protocol event, chronologically:

    {v
    [  302.1] client  --Request(r1,j=2)-->  a2
    [  486.0] a2      --Prepare(r1.2)-->    db1
    [  505.2] a1      CRASH
    v}

    Reliable-channel frames are unwrapped, channel acks / heartbeats /
    local wake-ups are elided, and consensus traffic can be toggled. *)

open Dsim
open Runtime

val payload_label : Types.payload -> string option
(** Human label for a protocol payload ([None] = overhead, elide). *)

val render :
  ?include_consensus:bool ->
  ?max_lines:int ->
  names:(Types.proc_id -> string) ->
  Trace.t ->
  string
(** [names] maps pids to lifeline names (e.g. {!Dsim.Engine.name_of}).
    Defaults: consensus traffic elided, at most 200 lines (a trailing
    marker reports elision). *)

val of_engine : ?include_consensus:bool -> ?max_lines:int -> Engine.t -> string
(** Convenience wrapper using the engine's process names and trace. *)

val of_obs : ?max_lines:int -> Obs.Registry.t -> string
(** Timeline diagram built from an observability registry instead of a
    simulator trace: span opens ([+name]) and closes ([-name]) plus
    registered events (notes, CRASH/RECOVER), merged chronologically.
    Needs no {!Dsim.Trace}; both backends keep one anyway, so {!of_engine}
    works on a live engine too. *)
