(** Canonical names of the protocol's registers, and the instance keys the
    consensus layer runs them under. One builder and one parser: the
    application server's writers, its cleaning thread, the register
    retirement rule and the consensus trace ids must agree byte for byte
    on the naming, so none spells the format on its own.

    The classic (unbatched) path names two arrays per request,
    ["g<group>:regA:c<client>:r<rid>"] and ["g<group>:regD:c<client>:r<rid>"];
    register [j] of array [name] is instance ["<name>\[<j>\]"] ({!key}).
    The client's process id in the name is what lets a server tell, from a
    key alone, whether the client has moved past the request. *)

val reg_a : group:int -> client:int -> rid:int -> string
(** The election array of request [rid] of [client]: [regA\[j\]] names
    the server that computes try [j]. *)

val reg_d : group:int -> client:int -> rid:int -> string
(** The decision array of request [rid] of [client]. *)

val lease : group:int -> string
(** Lease-epoch array: instance [e] elects the holder of epoch [e]. *)

val batch_a : group:int -> epoch:int -> seq:int -> string
(** Batch slot [seq] of lease epoch [epoch] (leased path). *)

val batch_d : group:int -> epoch:int -> seq:int -> string

val batch_a_key : group:int -> epoch:int -> seq:int -> string
(** [key ~name:(batch_a ~group ~epoch ~seq) ~j:0], built in one
    allocation. *)

val batch_d_key : group:int -> epoch:int -> seq:int -> string

val gx_vote : rid:int -> j:int -> k:int -> string
(** Paxos-Commit registers of the cross-shard path. The global transaction
    is identified by the try [(rid, j)] that planned it, and participant
    shard [k] owns two registers in its own group's namespace. The vote
    register holds the participant's vote: a yes may only be written after
    every database of shard [k] prepared the branch, so a commit never
    meets an unprepared database; a no is the abort vote any suspicious
    party may contest with. *)

val gx_exec : rid:int -> j:int -> k:int -> string
(** Which server of shard [k] executes the branch (the branch-local
    analogue of [regA]). *)

val key : name:string -> j:int -> string
(** The instance key of register [j] of [name]. *)

val split : string -> (string * int) option
(** Inverse of {!key}: [(name, j)], or [None] for a string that is not an
    instance key. *)

val parse_reg_a : string -> (int * int * int) option
(** [(group, client, rid)] of a {!reg_a} name; [None] for every other
    name, instance keys included. *)

val parse_reg_d : string -> (int * int * int) option
(** [(group, client, rid)] of a {!reg_d} name. *)

(** {1 Allocation-free readers}

    For a classic name or instance key ({!reg_a} or {!reg_d}, with or
    without ["\[j\]"]); [-1] for any other string. *)

val client_of : string -> int
val rid_of : string -> int

val try_of : string -> int
(** [j] of a classic instance key; [-1] for a name without it. *)

(** For a batch name or instance key ({!batch_a} or {!batch_d}); [-1] for
    any other string. *)

val epoch_of : string -> int
val seq_of : string -> int

val position : string -> int
(** The order of a classic instance key among its client's: by request,
    then try, [regA\[j\]] before [regD\[j\]]; [-1] for any other
    string. *)
