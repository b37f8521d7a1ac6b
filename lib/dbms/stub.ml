open Runtime
module Rt = Etx_runtime
open Dnet

module Readiness = struct
  type db = { mutable epoch : int; mutable waiting : int }
  type t = {
    dbs : (Types.proc_id, db) Hashtbl.t;
    sink : Rt.obs_sink option;  (** times the XA rounds and execs *)
  }

  let state t db =
    match Hashtbl.find t.dbs db with
    | s -> s
    | exception Not_found ->
        let s = { epoch = 0; waiting = 0 } in
        Hashtbl.add t.dbs db s;
        s

  let create ~dbs =
    { dbs = Hashtbl.create (List.length dbs); sink = Rt.obs () }

  (* One wake per fiber waiting on the database: each sent under an older
     epoch and takes one; a waiter that re-sends and waits again under the
     new epoch takes none. *)
  let listener t () =
    let rec loop () =
      match Rt.recv_cls Msg.cls_ready with
      | None -> ()
      | Some m ->
          let s = state t m.src in
          s.epoch <- s.epoch + 1;
          for _ = 1 to s.waiting do
            Rt.redeliver ~src:m.src (Msg.Ready_wake { epoch = s.epoch })
          done;
          loop ()
    in
    loop ()

  let start t = Rt.fork "readiness" (listener t)

  let epoch t db = (state t db).epoch
end

(* Core pattern: wait for [db]'s reply to [request], sent under recovery
   epoch [sent]; whenever the database announces a recovery past it,
   re-send at once. *)
let rec await ch rd ~db ~request ~matches sent =
  let s = Readiness.state rd db in
  if s.epoch > sent then begin
    let epoch = s.epoch in
    Rchannel.send ch db request;
    await ch rd ~db ~request ~matches epoch
  end
  else
    (* [matches] only ever accepts db reply payloads ([Msg.cls_reply]), so
       the scan can stay inside that bucket *)
    let filter m =
      m.Types.src = db
      &&
      match m.Types.payload with
      | Msg.Ready_wake { epoch } -> epoch > sent
      | p -> matches p <> None
    in
    s.waiting <- s.waiting + 1;
    let got = Rt.recv ~cls:Msg.cls_reply ~filter () in
    s.waiting <- s.waiting - 1;
    match got with
    | Some { Types.payload = Msg.Ready_wake _; _ } | None ->
        await ch rd ~db ~request ~matches sent
    | Some m -> Option.get (matches m.Types.payload)

(* The paper's multicast-then-wait-for-all round: one matching reply per
   database, in [dbs] order. *)
let broadcast_collect ch rd ~dbs ~request ~matches =
  let sent = List.map (Readiness.epoch rd) dbs in
  List.iter (fun db -> Rchannel.send ch db request) dbs;
  List.map2 (fun db sent -> await ch rd ~db ~request ~matches sent) dbs sent

(* Every XA round carries a window of transactions, and a reply is
   matched on the window's full xid list: a round can never consume
   another window's reply. *)
let same_xids = List.equal Xid.equal

(* Figure 8's start, SQL and end rows are the histograms [xa.start_ms],
   [xa.exec_ms] and [xa.end_ms]: every round trip is timed here, whoever
   drives it. *)
let timed rd name f =
  match rd.Readiness.sink with
  | None -> f ()
  | Some s ->
      let t0 = Rt.now () in
      let r = f () in
      s.Rt.obs_observe name (Rt.now () -. t0);
      r

let xa_start ch rd ~dbs ~xids =
  timed rd "xa.start_ms" @@ fun () ->
  ignore
    (broadcast_collect ch rd ~dbs
       ~request:(Msg.Xa_start { xids })
       ~matches:(function
         | Msg.Xa_started { xids = x } when same_xids x xids -> Some ()
         | _ -> None))

let xa_end ch rd ~dbs ~xids =
  timed rd "xa.end_ms" @@ fun () ->
  ignore
    (broadcast_collect ch rd ~dbs
       ~request:(Msg.Xa_end { xids })
       ~matches:(function
         | Msg.Xa_ended { xids = x } when same_xids x xids -> Some ()
         | _ -> None))

(* The reply is matched on (xid, seq), not xid alone: a late reply to an
   earlier attempt (e.g. a conflict the caller already moved past) must not
   satisfy a newer attempt's wait. *)
let exec ch rd ~db ~xid ~seq ops =
  let request = Msg.Exec_req { xid; seq; ops } in
  let sent = Readiness.epoch rd db in
  Rchannel.send ch db request;
  await ch rd ~db ~request sent ~matches:(function
    | Msg.Exec_reply { xid = x; seq = s; reply }
      when Xid.equal x xid && s = seq ->
        Some reply
    | _ -> None)

(* Lock-conflict retries of one exec: the back-off (virtual ms) and the
   number of tries before the conflict is handed to the caller. *)
let exec_backoff = 40.
let exec_max_tries = 20

(* Every physical attempt — including each conflict retry — draws a fresh
   [seq] so the server executes it exactly once even if the message is
   redelivered across a database recovery (Rm.exec_dedup). *)
let exec_of ch rd ~xid =
  let seq = ref 0 in
  fun ~db ops ->
    timed rd "xa.exec_ms" @@ fun () ->
    let rec go tries =
      let s = !seq in
      incr seq;
      match exec ch rd ~db ~xid ~seq:s ops with
      | Rm.Exec_conflict _ when tries < exec_max_tries ->
          Rt.sleep exec_backoff;
          go (tries + 1)
      | reply -> reply
    in
    go 1

(* [same_xids (List.map fst l) xids], without building the list *)
let rec keyed_by xids l =
  match (l, xids) with
  | [], [] -> true
  | (x, _) :: l, y :: xids -> Xid.equal x y && keyed_by xids l
  | _ -> false

let prepare ch rd ~dbs ~xids =
  broadcast_collect ch rd ~dbs
    ~request:(Msg.Prepare { xids })
    ~matches:(function
      | Msg.Vote { votes } when keyed_by xids votes -> Some votes
      | _ -> None)
  |> List.fold_left
       (fun outcomes votes ->
         List.map2
           (fun o (_, v) -> if v = Rm.Yes then o else Rm.Abort)
           outcomes votes)
       (List.map (fun _ -> Rm.Commit) xids)

let decide ch rd ~dbs ~items =
  let xids = List.map fst items in
  ignore
    (broadcast_collect ch rd ~dbs
       ~request:(Msg.Decide { items })
       ~matches:(function
         | Msg.Ack_decide { xids = x } when same_xids x xids -> Some ()
         | _ -> None))

let commit_one_phase ch rd ~dbs ~xid =
  let outcomes =
    broadcast_collect ch rd ~dbs
      ~request:(Msg.Commit1 { xid })
      ~matches:(function
        | Msg.Commit1_reply { xid = x; outcome } when Xid.equal x xid ->
            Some outcome
        | _ -> None)
  in
  if List.for_all (fun o -> o = Rm.Commit) outcomes then Rm.Commit
  else Rm.Abort
