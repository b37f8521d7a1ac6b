open Runtime
module Rt = Etx_runtime
open Dnet
open Etx.Etx_types

type log_record =
  | L_start of Dbms.Xid.t
  | L_outcome of Dbms.Xid.t * Dbms.Rm.outcome

(* [xid] is freshly minted per execution from the runtime's uid counter
   (unique across coordinator incarnations, and disjoint from the client's
   try numbers): 2PC gives at-most-once per TRANSACTION, but a client retry
   after a timeout is a new transaction — which is exactly the end-user
   duplication gap the paper motivates with. *)
let serve ~sink ~log ~dbs ~business ch rd (request : request) ~j =
  let span row f = Baseline.span sink request row f in
  let xid = Dbms.Xid.make ~rid:request.rid ~j:(Rt.fresh_uid ()) in
  (* eager IO #1: the start record, before any prepare leaves *)
  span "log-start" (fun () ->
      Dstore.Log.append_list log [ L_start xid ];
      Dstore.Log.force ~label:"log-start" log);
  let result = Baseline.run_xa ch rd ~dbs ~business request ~j ~xid in
  let outcome =
    span "prepare" (fun () ->
        List.hd (Dbms.Stub.prepare ch rd ~dbs ~xids:[ xid ]))
  in
  (* eager IO #2: the outcome record, before any decide leaves *)
  span "log-outcome" (fun () ->
      Dstore.Log.append_list log [ L_outcome (xid, outcome) ];
      Dstore.Log.force ~label:"log-outcome" log);
  span "commit" (fun () ->
      Dbms.Stub.decide ch rd ~dbs ~items:[ (xid, outcome) ]);
  { result = Some result; outcome }

(* Presumed-nothing recovery: re-drive logged outcomes, abort logged starts
   without an outcome. *)
let recover_log ~log ~dbs ch rd =
  Dstore.Log.crash_cut log;
  let outcomes = Hashtbl.create 16 in
  let started = ref [] in
  List.iter
    (function
      | L_start xid -> started := xid :: !started
      | L_outcome (xid, o) -> Hashtbl.replace outcomes xid o)
    (Dstore.Log.records log);
  List.iter
    (fun xid ->
      match Hashtbl.find_opt outcomes xid with
      | Some o -> Dbms.Stub.decide ch rd ~dbs ~items:[ (xid, o) ]
      | None ->
          Dstore.Log.append_list log [ L_outcome (xid, Dbms.Rm.Abort) ];
          Dstore.Log.force ~label:"log-outcome" log;
          Dbms.Stub.decide ch rd ~dbs ~items:[ (xid, Dbms.Rm.Abort) ])
    (List.rev !started)

let spawn (rt : Rt.t) ~log ~dbs ~business () =
  rt.spawn ~name:"2pc-coord" ~main:(fun ~recovery () ->
      let ch = Rchannel.create () in
      Rchannel.start ch;
      let rd = Dbms.Stub.Readiness.create ~dbs in
      Dbms.Stub.Readiness.start rd;
      if recovery then recover_log ~log ~dbs ch rd;
      let sink = Rt.obs () in
      Baseline.serve_requests ch (fun ~client:_ ->
          serve ~sink ~log ~dbs ~business ch rd))

type t = {
  rt : Rt.t;
  dbs : (Types.proc_id * Dbms.Rm.t) list;
  coordinator : Types.proc_id;
  log : log_record Dstore.Log.t;
  coordinator_disk : Dstore.Disk.t;
  client : Etx.Client.handle;
}

let build ?(n_dbs = 1) ?(seed_data = []) ?(client_period = 400.) ~rt
    ~business ~script () =
  (rt : Rt.t).set_net (Netmodel.three_tier ~n_dbs ());
  let coord_pid = ref [] in
  let dbs =
    Baseline.spawn_dbs rt ~n_dbs ~seed_data ~observers:(fun () -> !coord_pid)
  in
  let coordinator_disk = Dstore.Disk.create ~label:"coord-log" () in
  let log = Dstore.Log.create ~disk:coordinator_disk () in
  let coordinator =
    spawn rt ~log ~dbs:(List.map fst dbs) ~business ()
  in
  coord_pid := [ coordinator ];
  let client =
    Etx.Client.spawn rt ~period:client_period ~servers:[ coordinator ]
      ~script ()
  in
  { rt; dbs; coordinator; log; coordinator_disk; client }
