open Runtime
module Rt = Etx_runtime
open Dnet
open Etx.Etx_types

type log_record =
  | L_start of Dbms.Xid.t
  | L_outcome of Dbms.Xid.t * Dbms.Rm.outcome

(* Fresh transaction identifiers come from the runtime's uid counter: unique
   across server incarnations (a recovered server must never collide with a
   transaction it ran before the crash) and ≥ 1000, disjoint from the
   client's try numbers. *)

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

(* [xid] is freshly minted per execution: 2PC gives at-most-once per
   TRANSACTION, but a client retry after a timeout is a new transaction —
   which is exactly the end-user duplication gap the paper motivates with. *)
let serve ?breakdown ~log ~dbs ~business ch rd (request : request) ~j ~xid =
  (* eager IO #1: the start record, before any prepare leaves *)
  span breakdown "log-start" (fun () ->
      Dstore.Log.append_list log [ L_start xid ];
      Dstore.Log.force ~label:"log-start" log);
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
  (* eager IO #2: the outcome record, before any decide leaves *)
  span breakdown "log-outcome" (fun () ->
      Dstore.Log.append_list log [ L_outcome (xid, outcome) ];
      Dstore.Log.force ~label:"log-outcome" log);
  span breakdown "commit" (fun () ->
      decide_all ch rd ~dbs ~xid outcome);
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
      | Some o -> decide_all ch rd ~dbs ~xid o
      | None ->
          Dstore.Log.append_list log [ L_outcome (xid, Dbms.Rm.Abort) ];
          Dstore.Log.force ~label:"log-outcome" log;
          decide_all ch rd ~dbs ~xid Dbms.Rm.Abort)
    (List.rev !started)

let spawn (rt : Rt.t) ?(name = "2pc-coord") ?breakdown ~log ~dbs ~business () =
  rt.spawn ~name ~main:(fun ~recovery () ->
      let ch = Rchannel.create () in
      Rchannel.start ch;
      let rd = Dbms.Stub.Readiness.create ~dbs in
      Dbms.Stub.Readiness.start rd;
      if recovery then recover_log ~log ~dbs ch rd;
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
                      let xid =
                        Dbms.Xid.make ~rid:request.rid ~j:(Rt.fresh_uid ())
                      in
                      let d =
                        serve ?breakdown ~log ~dbs ~business ch rd
                          request ~j ~xid
                      in
                      Hashtbl.replace served (request.rid, j) d;
                      d
                in
                Rchannel.send ch m.src
                  (Result_msg { rid = request.rid; j; decision; group = 0 })
            | _ -> ()));
        loop ()
      in
      loop ())

type t = {
  rt : Rt.t;
  dbs : (Types.proc_id * Dbms.Rm.t) list;
  coordinator : Types.proc_id;
  log : log_record Dstore.Log.t;
  coordinator_disk : Dstore.Disk.t;
  client : Etx.Client.handle;
}

let build ?net ?(n_dbs = 1) ?(timing = Dbms.Rm.paper_timing)
    ?(disk_force_latency = 12.5) ?(seed_data = []) ?(client_period = 400.)
    ?breakdown ~rt ~business ~script () =
  let net =
    match net with Some n -> n | None -> Netmodel.three_tier ~n_dbs ()
  in
  (rt : Rt.t).set_net net;
  let coord_pid = ref [] in
  let dbs =
    Baseline.spawn_dbs rt ~n_dbs ~timing ~disk_force_latency ~seed_data
      ~observers:(fun () -> !coord_pid)
  in
  let coordinator_disk =
    Dstore.Disk.create ~force_latency:disk_force_latency ~label:"coord-log" ()
  in
  let log = Dstore.Log.create ~disk:coordinator_disk () in
  let coordinator =
    spawn rt ?breakdown ~log ~dbs:(List.map fst dbs) ~business ()
  in
  coord_pid := [ coordinator ];
  let client =
    Etx.Client.spawn rt ~period:client_period ~servers:[ coordinator ]
      ~script ()
  in
  { rt; dbs; coordinator; log; coordinator_disk; client }
