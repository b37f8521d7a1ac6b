(** The unreliable baseline protocol (paper Figure 7a).

    A single stateless application server: execute the business logic, then
    a {e single-phase} commit at each database — no prepare phase, no
    logging, no replication, and therefore no guarantee. A client retry
    after a timeout starts a fresh transaction, so a request whose result
    was lost (e.g. the server crashed between commit and reply) can execute
    {e twice} — the at-least-once hazard that motivates e-Transactions.

    The paper's Figure 8 uses this protocol as the 0%-overhead reference. *)

open Runtime

val spawn_dbs :
  Etx_runtime.t ->
  n_dbs:int ->
  seed_data:(string * Dbms.Value.t) list ->
  observers:(unit -> Types.proc_id list) ->
  (Types.proc_id * Dbms.Rm.t) list
(** Spawn the database tier (shared by the comparison-protocol builders). *)

(** {1 Shared by the comparison protocols} *)

val span :
  Etx_runtime.obs_sink option ->
  Etx.Etx_types.request ->
  string ->
  (unit -> 'a) ->
  'a
(** [span sink request row f] runs [f] inside an obs span named after the
    Figure 8 row [row], traced under the request's id. *)

val run_xa :
  Dnet.Rchannel.t ->
  Dbms.Stub.Readiness.t ->
  dbs:Types.proc_id list ->
  business:Etx.Business.t ->
  Etx.Etx_types.request ->
  j:int ->
  xid:Dbms.Xid.t ->
  string
(** One try's work up to its commit protocol: the XA start round, the
    business run, the V.1 computed note, the XA end round. Returns the
    business result. *)

val serve_requests :
  ?active:(unit -> bool) ->
  Dnet.Rchannel.t ->
  (client:Types.proc_id ->
  Etx.Etx_types.request ->
  j:int ->
  Etx.Etx_types.decision) ->
  unit
(** The request-serving loop: receive each client request while [active ()]
    (default: always), run the given function once per [(rid, j)] (a
    volatile memo answers duplicates) and reply with a one-item
    [Result_msg]. Never returns. *)

val spawn :
  Etx_runtime.t ->
  dbs:Types.proc_id list ->
  business:Etx.Business.t ->
  unit ->
  Types.proc_id

type t = {
  rt : Etx_runtime.t;
  dbs : (Types.proc_id * Dbms.Rm.t) list;
  server : Types.proc_id;
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
(** Builds on a fresh [rt], like [Cluster.build], with one server and the
    paper's Figure 2 client driving it. *)
