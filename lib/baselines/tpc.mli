(** Presumed-nothing two-phase commit with a logging coordinator (paper
    Figure 7b).

    A single application server coordinates: it {e force-writes} a start
    record before sending prepares and an outcome record once the votes are
    in — the two eager disk IOs (~12.5 ms each in the paper's measurements)
    that make 2PC cost more than the asynchronous-replication protocol
    despite exchanging fewer messages. The log is the coordinator's stable
    storage: on recovery, logged-started-but-undecided transactions are
    aborted and logged outcomes are re-driven to the databases.

    2PC is {e blocking}: if the coordinator crashes between the votes and
    the decision, every database that voted yes holds its locks until the
    coordinator recovers — no third party can decide. (Contrast with the
    e-Transaction protocol, where any application server terminates the
    result.) [in_doubt_hold] in the tests demonstrates this. *)

open Runtime

type log_record =
  | L_start of Dbms.Xid.t
  | L_outcome of Dbms.Xid.t * Dbms.Rm.outcome

val spawn :
  Etx_runtime.t ->
  log:log_record Dstore.Log.t ->
  dbs:Types.proc_id list ->
  business:Etx.Business.t ->
  unit ->
  Types.proc_id
(** The [log] must live on a disk created outside the process so it survives
    coordinator crashes. *)

type t = {
  rt : Etx_runtime.t;
  dbs : (Types.proc_id * Dbms.Rm.t) list;
  coordinator : Types.proc_id;
  log : log_record Dstore.Log.t;
  coordinator_disk : Dstore.Disk.t;
  client : Etx.Client.handle;
}

val build :
  ?n_dbs:int ->
  ?seed_data:(string * Dbms.Value.t) list ->
  ?client_period:float ->
  rt:Etx_runtime.t ->
  business:Etx.Business.t ->
  script:(issue:(string -> Etx.Client.record) -> unit) ->
  unit ->
  t
