open Runtime
module Rt = Etx_runtime
open Dnet
open Etx.Etx_types

(* Shared by the comparison protocols: spawn the database tier. *)
let spawn_dbs rt ~n_dbs ~seed_data ~observers =
  List.init n_dbs (fun i ->
      let name = Printf.sprintf "db%d" (i + 1) in
      let disk = Dstore.Disk.create ~label:"log" () in
      let rm = Dbms.Rm.create ~seed_data ~disk ~name () in
      let pid = Dbms.Server.spawn rt ~name ~rm ~observers () in
      (pid, rm))

let span sink (request : request) row f =
  Rt.span sink ~parent:0 ~trace:request.rid row f

let run_xa ch rd ~dbs ~business (request : request) ~j ~xid =
  let xids = [ xid ] in
  Dbms.Stub.xa_start ch rd ~dbs ~xids;
  let exec = Dbms.Stub.exec_of ch rd ~xid in
  let result =
    business.Etx.Business.run
      { Etx.Business.xid; dbs; exec; attempt = j }
      ~body:request.body
  in
  Rt.note (Etx.Spec.computed_note ~rid:request.rid ~j result);
  Dbms.Stub.xa_end ch rd ~dbs ~xids;
  result

let serve_requests ?(active = fun () -> true) ch serve =
  let served = Hashtbl.create 32 in
  let wants m =
    match m.Types.payload with Request_msg _ -> active () | _ -> false
  in
  let rec loop () =
    (match Rt.recv ~filter:wants () with
    | None -> ()
    | Some m -> (
        match m.payload with
        | Request_msg { request; j; _ } ->
            let decision =
              match Hashtbl.find_opt served (request.rid, j) with
              | Some d -> d (* volatile duplicate suppression *)
              | None ->
                  let d = serve ~client:m.src request ~j in
                  Hashtbl.replace served (request.rid, j) d;
                  d
            in
            Rchannel.send ch m.src
              (Result_msg { group = 0; items = [ (request.rid, j, decision) ] })
        | _ -> ()));
    loop ()
  in
  loop ()

(* Fresh transaction identifiers come from the runtime's uid counter: unique
   across server incarnations (a recovered server must never collide with a
   transaction it ran before the crash) and ≥ 1000, disjoint from the
   client's try numbers. A client try is business logic then single-phase
   commit everywhere, under a fresh [xid] per execution — an unreliable
   server has no exactly-once bookkeeping, so a client retry is a
   brand-new database transaction (the double-charge hazard). *)
let spawn (rt : Rt.t) ~dbs ~business () =
  rt.spawn ~name:"baseline" ~main:(fun ~recovery:_ () ->
      (* stateless: a recovery simply starts serving afresh — which is
         exactly why a retried request can execute twice *)
      let ch = Rchannel.create () in
      Rchannel.start ch;
      let rd = Dbms.Stub.Readiness.create ~dbs in
      Dbms.Stub.Readiness.start rd;
      let sink = Rt.obs () in
      serve_requests ch (fun ~client:_ (request : request) ~j ->
          let xid = Dbms.Xid.make ~rid:request.rid ~j:(Rt.fresh_uid ()) in
          let result = run_xa ch rd ~dbs ~business request ~j ~xid in
          let outcome =
            span sink request "commit" (fun () ->
                Dbms.Stub.commit_one_phase ch rd ~dbs ~xid)
          in
          { result = Some result; outcome }))

type t = {
  rt : Rt.t;
  dbs : (Types.proc_id * Dbms.Rm.t) list;
  server : Types.proc_id;
  client : Etx.Client.handle;
}

let build ?(n_dbs = 1) ?(seed_data = []) ?(client_period = 400.) ~rt
    ~business ~script () =
  (rt : Rt.t).set_net (Netmodel.three_tier ~n_dbs ());
  let server_pid = ref [] in
  let dbs =
    spawn_dbs rt ~n_dbs ~seed_data ~observers:(fun () -> !server_pid)
  in
  let server = spawn rt ~dbs:(List.map fst dbs) ~business () in
  server_pid := [ server ];
  let client =
    Etx.Client.spawn rt ~period:client_period ~servers:[ server ] ~script ()
  in
  { rt; dbs; server; client }
