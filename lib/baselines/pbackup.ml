open Runtime
module Rt = Etx_runtime
open Dnet
open Etx.Etx_types

type Types.payload +=
  | Pb_start of { xid : Dbms.Xid.t; request : request; client : Types.proc_id }
  | Pb_start_ack of { xid : Dbms.Xid.t }
  | Pb_outcome of { xid : Dbms.Xid.t; decision : decision }
  | Pb_outcome_ack of { xid : Dbms.Xid.t }

let span breakdown label f =
  match breakdown with
  | None -> f ()
  | Some bd -> Stats.Breakdown.span bd label f

let decide_all ch rd ~dbs ~xid outcome =
  let (_ : (Types.proc_id * unit) list) =
    Dbms.Stub.broadcast_collect ch rd ~dbs
      ~request:(fun _ -> Dbms.Msg.Decide { xid; outcome })
      ~matches:(function
        | Dbms.Msg.Ack_decide { xid = x } when Dbms.Xid.equal x xid -> Some ()
        | _ -> None)
  in
  ()

(* Run business + prepare; shared by the primary and the promoted backup. *)
let execute ?breakdown ~dbs ~business ch rd (request : request) ~j =
  let xid = Dbms.Xid.make ~rid:request.rid ~j in
  let collect label req matches =
    let (_ : (Types.proc_id * unit) list) =
      span breakdown label (fun () ->
          Dbms.Stub.broadcast_collect ch rd ~dbs ~request:req ~matches)
    in
    ()
  in
  collect "start"
    (fun _ -> Dbms.Msg.Xa_start { xid })
    (function
      | Dbms.Msg.Xa_started { xid = x } when Dbms.Xid.equal x xid -> Some ()
      | _ -> None);
  let seq = ref 0 in
  let fresh_seq () =
    let s = !seq in
    incr seq;
    s
  in
  let exec ~db ops =
    Dbms.Stub.exec_retry ~fresh_seq ch rd ~db ~xid ops
  in
  let result =
    span breakdown "SQL" (fun () ->
        business.Etx.Business.run
          { Etx.Business.xid; dbs; exec; attempt = j }
          ~body:request.body)
  in
  Rt.note (Printf.sprintf "computed:%d:%d:%s" request.rid j result);
  collect "end"
    (fun _ -> Dbms.Msg.Xa_end { xid })
    (function
      | Dbms.Msg.Xa_ended { xid = x } when Dbms.Xid.equal x xid -> Some ()
      | _ -> None);
  let votes =
    span breakdown "prepare" (fun () ->
        Dbms.Stub.broadcast_collect ch rd ~dbs
          ~request:(fun _ -> Dbms.Msg.Prepare { xid })
          ~matches:(function
            | Dbms.Msg.Vote_msg { xid = x; vote } when Dbms.Xid.equal x xid ->
                Some vote
            | _ -> None))
  in
  let outcome =
    if List.for_all (fun (_, v) -> v = Dbms.Rm.Yes) votes then Dbms.Rm.Commit
    else Dbms.Rm.Abort
  in
  (xid, { result = Some result; outcome })

let backup_rpc ch ~backup ~request_payload ~matches =
  Rchannel.send ch backup request_payload;
  let filter m = m.Types.src = backup && matches m.Types.payload in
  (* the backup never crashes in this scheme's assumptions; a plain wait *)
  ignore (Rt.recv ~filter ())

let spawn_primary (rt : Rt.t) ?breakdown ~backup ~dbs ~business () =
  rt.spawn ~name:"pb-primary" ~main:(fun ~recovery:_ () ->
      let ch = Rchannel.create () in
      Rchannel.start ch;
      let rd = Dbms.Stub.Readiness.create ~dbs in
      Dbms.Stub.Readiness.start rd;
      let served = Hashtbl.create 32 in
      let wants m =
        match m.Types.payload with Request_msg _ -> true | _ -> false
      in
      let rec loop () =
        (match Rt.recv ~filter:wants () with
        | None -> ()
        | Some m -> (
            match m.payload with
            | Request_msg { request; j; _ } ->
                let decision =
                  match Hashtbl.find_opt served (request.rid, j) with
                  | Some d -> d
                  | None ->
                      let xid = Dbms.Xid.make ~rid:request.rid ~j in
                      (* record the start at the backup (replaces log-start) *)
                      span breakdown "log-start" (fun () ->
                          backup_rpc ch ~backup
                            ~request_payload:
                              (Pb_start { xid; request; client = m.src })
                            ~matches:(function
                              | Pb_start_ack { xid = x } ->
                                  Dbms.Xid.equal x xid
                              | _ -> false));
                      let _, d =
                        execute ?breakdown ~dbs ~business ch rd request ~j
                      in
                      (* record the outcome (replaces log-outcome) *)
                      span breakdown "log-outcome" (fun () ->
                          backup_rpc ch ~backup
                            ~request_payload:(Pb_outcome { xid; decision = d })
                            ~matches:(function
                              | Pb_outcome_ack { xid = x } ->
                                  Dbms.Xid.equal x xid
                              | _ -> false));
                      span breakdown "commit" (fun () ->
                          decide_all ch rd ~dbs ~xid d.outcome);
                      Hashtbl.replace served (request.rid, j) d;
                      d
                in
                Rchannel.send ch m.src
                  (Result_msg { rid = request.rid; j; decision; group = 0 })
            | _ -> ()));
        loop ()
      in
      loop ())

type record_entry = {
  request : request;
  client : Types.proc_id;
  mutable decision : decision option;
}

let spawn_backup (rt : Rt.t) ?breakdown ~fd ~takeover_check
    ~primary ~dbs ~business () =
  rt.spawn ~name:"pb-backup" ~main:(fun ~recovery:_ () ->
      let ch = Rchannel.create () in
      Rchannel.start ch;
      let rd = Dbms.Stub.Readiness.create ~dbs in
      Dbms.Stub.Readiness.start rd;
      let fd = fd rt in
      Fdetect.start fd;
      let table : (Dbms.Xid.t, record_entry) Hashtbl.t = Hashtbl.create 32 in
      let promoted = ref false in
      let served = Hashtbl.create 32 in
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
          let wants m =
            match m.Types.payload with
            | Request_msg _ -> !promoted
            | _ -> false
          in
          let rec loop () =
            (match Rt.recv ~filter:wants () with
            | None -> ()
            | Some m -> (
                match m.payload with
                | Request_msg { request; j; _ } ->
                    let decision =
                      match Hashtbl.find_opt served (request.rid, j) with
                      | Some d -> d
                      | None ->
                          let xid, d =
                            execute ?breakdown ~dbs ~business ch rd
                              request ~j
                          in
                          decide_all ch rd ~dbs ~xid d.outcome;
                          Hashtbl.replace served (request.rid, j) d;
                          d
                    in
                    Rchannel.send ch m.src
                      (Result_msg { rid = request.rid; j; decision; group = 0 })
                | _ -> ()));
            loop ()
          in
          loop ());
      (* take-over monitor *)
      let rec watch () =
        Rt.sleep takeover_check;
        if Fdetect.suspects fd primary then begin
          promoted := true;
          Hashtbl.iter
            (fun xid entry ->
              let decision =
                match entry.decision with
                | Some d -> d (* finish what the primary decided *)
                | None -> abort_decision
              in
              decide_all ch rd ~dbs ~xid decision.outcome;
              Rchannel.send ch entry.client
                (Result_msg
                   { rid = entry.request.rid; j = xid.Dbms.Xid.j; decision; group = 0 }))
            table;
          Hashtbl.reset table
        end
        else watch ()
      in
      watch ())

type t = {
  rt : Rt.t;
  dbs : (Types.proc_id * Dbms.Rm.t) list;
  primary : Types.proc_id;
  backup : Types.proc_id;
  client : Etx.Client.handle;
}

let build ?net ?(n_dbs = 1) ?(timing = Dbms.Rm.paper_timing)
    ?(disk_force_latency = 12.5) ?(seed_data = []) ?(client_period = 400.)
    ?breakdown ?(backup_fd = Fdetect.oracle) ?(takeover_check = 20.) ~rt
    ~business ~script () =
  let net =
    match net with Some n -> n | None -> Netmodel.three_tier ~n_dbs ()
  in
  (rt : Rt.t).set_net net;
  let server_pids = ref [] in
  let dbs =
    Baseline.spawn_dbs rt ~n_dbs ~timing ~disk_force_latency ~seed_data
      ~observers:(fun () -> !server_pids)
  in
  let db_pids = List.map fst dbs in
  let n_db = List.length dbs in
  (* pids are sequential: primary = n_db, backup = n_db + 1 *)
  let primary =
    spawn_primary rt ?breakdown ~backup:(n_db + 1) ~dbs:db_pids ~business ()
  in
  let backup =
    spawn_backup rt ?breakdown ~fd:backup_fd ~takeover_check ~primary
      ~dbs:db_pids ~business ()
  in
  assert (primary = n_db && backup = n_db + 1);
  server_pids := [ primary; backup ];
  let client =
    Etx.Client.spawn rt ~period:client_period ~servers:[ primary; backup ]
      ~script ()
  in
  { rt; dbs; primary; backup; client }
