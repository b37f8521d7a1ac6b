open Runtime
module Rt = Etx_runtime
open Dnet
open Etx.Etx_types

type Types.payload +=
  | Pb_start of { xid : Dbms.Xid.t; request : request; client : Types.proc_id }
  | Pb_start_ack of { xid : Dbms.Xid.t }
  | Pb_outcome of { xid : Dbms.Xid.t; decision : decision }
  | Pb_outcome_ack of { xid : Dbms.Xid.t }

(* Business + prepare under the try's own xid; shared by the primary and
   the promoted backup. *)
let execute ~sink ~dbs ~business ch rd (request : request) ~j ~xid =
  let result = Baseline.run_xa ch rd ~dbs ~business request ~j ~xid in
  let outcome =
    Baseline.span sink request "prepare" (fun () ->
        List.hd (Dbms.Stub.prepare ch rd ~dbs ~xids:[ xid ]))
  in
  { result = Some result; outcome }

let backup_rpc ch ~backup ~request_payload ~matches =
  Rchannel.send ch backup request_payload;
  let filter m = m.Types.src = backup && matches m.Types.payload in
  (* the backup never crashes in this scheme's assumptions; a plain wait *)
  ignore (Rt.recv ~filter ())

let spawn_primary (rt : Rt.t) ~backup ~dbs ~business () =
  rt.spawn ~name:"pb-primary" ~main:(fun ~recovery:_ () ->
      let ch = Rchannel.create () in
      Rchannel.start ch;
      let rd = Dbms.Stub.Readiness.create ~dbs in
      Dbms.Stub.Readiness.start rd;
      let sink = Rt.obs () in
      Baseline.serve_requests ch (fun ~client (request : request) ~j ->
          let span row f = Baseline.span sink request row f in
          let xid = Dbms.Xid.make ~rid:request.rid ~j in
          (* record the start at the backup (replaces log-start) *)
          span "log-start" (fun () ->
              backup_rpc ch ~backup
                ~request_payload:(Pb_start { xid; request; client })
                ~matches:(function
                  | Pb_start_ack { xid = x } -> Dbms.Xid.equal x xid
                  | _ -> false));
          let d = execute ~sink ~dbs ~business ch rd request ~j ~xid in
          (* record the outcome (replaces log-outcome) *)
          span "log-outcome" (fun () ->
              backup_rpc ch ~backup
                ~request_payload:(Pb_outcome { xid; decision = d })
                ~matches:(function
                  | Pb_outcome_ack { xid = x } -> Dbms.Xid.equal x xid
                  | _ -> false));
          span "commit" (fun () ->
              Dbms.Stub.decide ch rd ~dbs ~items:[ (xid, d.outcome) ]);
          d))

type record_entry = {
  request : request;
  client : Types.proc_id;
  mutable decision : decision option;
}

let spawn_backup (rt : Rt.t) ~fd ~primary ~dbs ~business () =
  rt.spawn ~name:"pb-backup" ~main:(fun ~recovery:_ () ->
      let ch = Rchannel.create () in
      Rchannel.start ch;
      let rd = Dbms.Stub.Readiness.create ~dbs in
      Dbms.Stub.Readiness.start rd;
      let sink = Rt.obs () in
      let fd = fd rt in
      Fdetect.start fd;
      let table : (Dbms.Xid.t, record_entry) Hashtbl.t = Hashtbl.create 32 in
      let promoted = ref false in
      (* recording fiber: accept the primary's start/outcome records *)
      Rt.fork "pb-records" (fun () ->
          let wants m =
            match m.Types.payload with
            | Pb_start _ | Pb_outcome _ -> true
            | _ -> false
          in
          let rec loop () =
            (match Rt.recv ~filter:wants () with
            | None -> ()
            | Some m -> (
                match m.payload with
                | Pb_start { xid; request; client } ->
                    if not (Hashtbl.mem table xid) then
                      Hashtbl.replace table xid
                        { request; client; decision = None };
                    Rchannel.send ch m.src (Pb_start_ack { xid })
                | Pb_outcome { xid; decision } ->
                    (match Hashtbl.find_opt table xid with
                    | Some entry -> entry.decision <- Some decision
                    | None -> ());
                    Rchannel.send ch m.src (Pb_outcome_ack { xid })
                | _ -> ()));
            loop ()
          in
          loop ());
      (* serving fiber: only active after promotion *)
      Rt.fork "pb-serve" (fun () ->
          Baseline.serve_requests ~active:(fun () -> !promoted) ch
            (fun ~client:_ (request : request) ~j ->
              let xid = Dbms.Xid.make ~rid:request.rid ~j in
              let d = execute ~sink ~dbs ~business ch rd request ~j ~xid in
              Dbms.Stub.decide ch rd ~dbs ~items:[ (xid, d.outcome) ];
              d));
      (* take-over monitor: promoted at the suspicion of the primary *)
      let suspicion = Fdetect.changed fd in
      let rec watch () =
        if Fdetect.suspects fd primary then begin
          promoted := true;
          Hashtbl.iter
            (fun xid entry ->
              let decision =
                match entry.decision with
                | Some d -> d (* finish what the primary decided *)
                | None -> abort_decision
              in
              Dbms.Stub.decide ch rd ~dbs ~items:[ (xid, decision.outcome) ];
              Rchannel.send ch entry.client
                (Result_msg
                   {
                     group = 0;
                     items = [ (entry.request.rid, xid.Dbms.Xid.j, decision) ];
                   }))
            table;
          Hashtbl.reset table
        end
        else begin
          Rt.Wake.sleep suspicion suspicion Float.infinity;
          watch ()
        end
      in
      watch ())

type t = {
  rt : Rt.t;
  dbs : (Types.proc_id * Dbms.Rm.t) list;
  primary : Types.proc_id;
  backup : Types.proc_id;
  client : Etx.Client.handle;
}

let build ?net ?(n_dbs = 1) ?(seed_data = []) ?(client_period = 400.)
    ?(backup_fd = Fdetect.oracle) ~rt ~business ~script () =
  let net =
    match net with Some n -> n | None -> Netmodel.three_tier ~n_dbs ()
  in
  (rt : Rt.t).set_net net;
  let server_pids = ref [] in
  let dbs =
    Baseline.spawn_dbs rt ~n_dbs ~seed_data ~observers:(fun () -> !server_pids)
  in
  let db_pids = List.map fst dbs in
  let n_db = List.length dbs in
  (* pids are sequential: primary = n_db, backup = n_db + 1 *)
  let primary =
    spawn_primary rt ~backup:(n_db + 1) ~dbs:db_pids ~business ()
  in
  let backup =
    spawn_backup rt ~fd:backup_fd ~primary ~dbs:db_pids ~business ()
  in
  assert (primary = n_db && backup = n_db + 1);
  server_pids := [ primary; backup ];
  let client =
    Etx.Client.spawn rt ~period:client_period ~servers:[ primary; backup ]
      ~script ()
  in
  { rt; dbs; primary; backup; client }
