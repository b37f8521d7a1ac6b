open Dsim
open Runtime

let outcome_label = function
  | Dbms.Rm.Commit -> "commit"
  | Dbms.Rm.Abort -> "abort"

let vote_label = function Dbms.Rm.Yes -> "yes" | Dbms.Rm.No -> "no"

let xid_label x = Dbms.Xid.to_string x

(* A window's items, space-separated: a window of one renders exactly as a
   single transaction always has. *)
let window label f items =
  Some (label ^ "(" ^ String.concat " " (List.map f items) ^ ")")

let payload_label payload =
  match payload with
  | Etx.Etx_types.Request_msg { request; j; _ } ->
      Some (Printf.sprintf "Request(r%d,j=%d)" request.rid j)
  | Etx.Etx_types.Result_msg { items; _ } ->
      window "Result"
        (fun (rid, j, (d : Etx.Etx_types.decision)) ->
          Printf.sprintf "r%d,j=%d,%s" rid j (outcome_label d.outcome))
        items
  | Dbms.Msg.Xa_start { xids } -> window "XaStart" xid_label xids
  | Dbms.Msg.Xa_started { xids } -> window "XaStarted" xid_label xids
  | Dbms.Msg.Xa_end { xids } -> window "XaEnd" xid_label xids
  | Dbms.Msg.Xa_ended { xids } -> window "XaEnded" xid_label xids
  | Dbms.Msg.Exec_req { xid; ops; _ } ->
      Some (Printf.sprintf "Exec(%s,%d ops)" (xid_label xid) (List.length ops))
  | Dbms.Msg.Exec_reply { xid; reply; _ } ->
      let r =
        match reply with
        | Dbms.Rm.Exec_ok { business_ok = true; _ } -> "ok"
        | Dbms.Rm.Exec_ok { business_ok = false; _ } -> "user-abort"
        | Dbms.Rm.Exec_conflict k -> "conflict:" ^ k
        | Dbms.Rm.Exec_rejected -> "rejected"
      in
      Some (Printf.sprintf "ExecReply(%s,%s)" (xid_label xid) r)
  | Dbms.Msg.Prepare { xids } -> window "Prepare" xid_label xids
  | Dbms.Msg.Vote { votes } ->
      window "Vote" (fun (x, v) -> xid_label x ^ "," ^ vote_label v) votes
  | Dbms.Msg.Decide { items } ->
      window "Decide"
        (fun (x, o) -> xid_label x ^ "," ^ outcome_label o)
        items
  | Dbms.Msg.Ack_decide { xids } -> window "AckDecide" xid_label xids
  | Dbms.Msg.Ready -> Some "Ready"
  | Dbms.Msg.Commit1 { xid } -> Some ("Commit1(" ^ xid_label xid ^ ")")
  | Dbms.Msg.Commit1_reply { xid; outcome } ->
      Some
        (Printf.sprintf "Commit1Reply(%s,%s)" (xid_label xid)
           (outcome_label outcome))
  | _ -> None

(* consensus messages get generic labels only when requested *)
let consensus_label payload =
  if Consensus.Agent.is_consensus_message payload then Some "consensus" else None

let render ?(include_consensus = false) ?(max_lines = 200) ~names trace =
  let buffer = Buffer.create 4096 in
  let lines = ref 0 in
  let elided = ref 0 in
  let emit at text =
    if !lines < max_lines then begin
      Buffer.add_string buffer (Printf.sprintf "[%9.1f] %s\n" at text);
      incr lines
    end
    else incr elided
  in
  let message_line (m : Types.message) =
    if m.src = m.dst then None
    else
      match Dnet.Rchannel.inner_payload m.payload with
      | Some _ ->
          (* a channel frame: its deduplicated redelivery (same src, inner
             payload) is the event worth drawing, so skip the frame *)
          None
      | None -> (
          match payload_label m.payload with
          | Some label -> Some (label, m)
          | None ->
              if include_consensus then
                match consensus_label m.payload with
                | Some label -> Some (label, m)
                | None -> None
              else None)
  in
  List.iter
    (fun (e : Trace.entry) ->
      match e.event with
      | Trace.Delivered m -> (
          match message_line m with
          | Some (label, m) ->
              emit e.at
                (Printf.sprintf "%-8s --%s-->  %s" (names m.src) label
                   (names m.dst))
          | None -> ())
      | Trace.Crashed p -> emit e.at (Printf.sprintf "%-8s CRASH" (names p))
      | Trace.Recovered p ->
          emit e.at (Printf.sprintf "%-8s RECOVER" (names p))
      | Trace.Note (p, s)
        when String.length s > 8 && String.sub s 0 8 = "cleaned:" ->
          emit e.at (Printf.sprintf "%-8s %s" (names p) s)
      | Trace.Note _ | Trace.Sent _ | Trace.Dropped _ | Trace.Dead_letter _
      | Trace.Spawned _ | Trace.Work _ ->
          ())
    (Trace.entries trace);
  if !elided > 0 then
    Buffer.add_string buffer (Printf.sprintf "... (%d more events)\n" !elided);
  Buffer.contents buffer

let of_engine ?include_consensus ?max_lines engine =
  render ?include_consensus ?max_lines
    ~names:(fun pid -> Engine.name_of engine pid)
    (Engine.trace engine)

(* Timeline rendering of an observability registry: span opens/closes plus
   events (notes, crash/recover), merged and time-ordered. Unlike
   {!of_engine} this needs no engine trace — the span layer's replacement
   for trace-based diagrams. *)
let of_obs ?(max_lines = 200) reg =
  let items = ref [] in
  List.iter
    (fun (e : Obs.Span.event) ->
      let text =
        match e.ename with
        | "crash" -> Printf.sprintf "%-8s CRASH" e.enode
        | "recover" -> Printf.sprintf "%-8s RECOVER" e.enode
        | name ->
            Printf.sprintf "%-8s %s%s" e.enode name
              (if e.detail = "" then "" else " " ^ e.detail)
      in
      items := (e.eat, text) :: !items)
    (Obs.Registry.events reg);
  List.iter
    (fun (s : Obs.Span.t) ->
      items :=
        (s.start, Printf.sprintf "%-8s +%s r%d" s.node s.name s.trace)
        :: !items;
      if Obs.Span.closed s then
        items :=
          (s.stop, Printf.sprintf "%-8s -%s r%d" s.node s.name s.trace)
          :: !items)
    (Obs.Registry.spans reg);
  let sorted =
    List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev !items)
  in
  let buffer = Buffer.create 4096 in
  let lines = ref 0 in
  let elided = ref 0 in
  List.iter
    (fun (at, text) ->
      if !lines < max_lines then begin
        Buffer.add_string buffer (Printf.sprintf "[%9.1f] %s\n" at text);
        incr lines
      end
      else incr elided)
    sorted;
  if !elided > 0 then
    Buffer.add_string buffer (Printf.sprintf "... (%d more events)\n" !elided);
  Buffer.contents buffer
