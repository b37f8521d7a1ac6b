(** Write-once registers (the paper's wo-registers) over the
    Chandra–Toueg consensus {!Agent} ("along the lines of [4]").

    A wo-register behaves like a CD-ROM: it can be written once and read
    many times. [write v] returns either [v] (this writer won) or the value
    some other process already wrote; [read] returns the written value or
    [⊥] ([None]) — and if a value was written, repeated reads eventually
    return it (the agent broadcasts its decisions).

    Registers come in arrays: register [j] of array [name] (the protocol's
    [regA\[j\]], [regD\[j\]], a lease epoch, a batch slot, ...) is one
    consensus instance. Arrays with the same name on different processes
    denote the same shared registers, so the name must encode the scope.
    This module maps [(name, j)] to an instance key ({!Reg_name.key}). *)

open Runtime

type t = Agent.t
(** One process's view of every register: its consensus agent, which
    multiplexes one instance per register. *)

val write : t -> name:string -> j:int -> Types.payload -> Types.payload
(** [write t ~name ~j v] writes register [j] of [name]: blocks until the
    underlying consensus instance decides, and returns the (unique) written
    value. *)

val read : t -> name:string -> j:int -> Types.payload option
(** Non-blocking read: the written value, or [None] for [⊥]. *)

val read_key : t -> string -> Types.payload option
(** {!read} of the register with instance key [key] ({!Reg_name.key}, or
    the key {!on_decide} passes). *)

val wake : t -> name:string -> j:int -> Etx_runtime.Wake.t
(** Woken when register [j] of [name] is decided here: a fiber blocks on
    it ({!Etx_runtime.Wake.sleep}) until the register is written. Take it
    while {!read} answers [None]: the wake of a decided register never
    fires. *)

val decided_keys : t -> (string * int) list
(** Every register this process knows decided, as [(name, j)], sorted by
    instance key. *)

val retire_when : t -> (string -> bool) -> unit
(** The owner's retirement rule over instance keys ({!Reg_name.key});
    see {!Agent.retire_when}. *)

val on_decide : t -> (string -> unit) -> unit
(** [f key] runs as each register is decided here; see
    {!Agent.on_decide}. *)

val release : t -> name:string -> j:int -> unit
(** The owner's rule now retires register [j] of [name]: collect it as
    soon as it is decided and every peer holds it ({!Agent.release}). *)

val release_key : t -> string -> unit
(** {!release} of the register with instance key [key]. *)
