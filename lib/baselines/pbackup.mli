(** Primary-backup replication adapted to e-Transactions (paper Figure 7c,
    after reference [18]).

    The primary replaces the 2PC coordinator's two forced log writes with
    two round trips to a backup: a {e start} record (request + client)
    before computing, and an {e outcome} record (result + decision) before
    the decides go out. On (supposedly perfect) detection of the primary's
    crash the backup takes over: it re-drives recorded outcomes, aborts
    recorded-but-undecided transactions, and starts serving requests itself.

    The paper's caveat is the point of this module: the scheme {e requires a
    perfect failure detector} — with a merely eventually-perfect detector a
    false suspicion makes primary and backup decide concurrently, and two
    databases can receive opposite decisions first (an A.3 violation). The
    test suite demonstrates exactly that with a scripted detector, and the
    e-Transaction protocol's wo-registers are how the paper closes this
    hole. *)

open Runtime

type t = {
  rt : Etx_runtime.t;
  dbs : (Types.proc_id * Dbms.Rm.t) list;
  primary : Types.proc_id;
  backup : Types.proc_id;
  client : Etx.Client.handle;
}

val build :
  ?net:Etx_runtime.netmodel ->
  ?n_dbs:int ->
  ?seed_data:(string * Dbms.Value.t) list ->
  ?client_period:float ->
  ?backup_fd:(Etx_runtime.t -> Dnet.Fdetect.t) ->
  rt:Etx_runtime.t ->
  business:Etx.Business.t ->
  script:(issue:(string -> Etx.Client.record) -> unit) ->
  unit ->
  t
(** [backup_fd] builds the backup's detector watching the primary (default:
    the perfect oracle, as the scheme requires); the backup polls it every
    20 ms. *)
