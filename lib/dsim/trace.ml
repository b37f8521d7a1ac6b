open Runtime

type event =
  | Spawned of Types.proc_id * string
  | Sent of Types.message * Types.time
  | Dropped of Types.message
  | Delivered of Types.message
  | Dead_letter of Types.message
  | Crashed of Types.proc_id
  | Recovered of Types.proc_id
  | Work of Types.proc_id * string * float
  | Note of Types.proc_id * string

type entry = { at : Types.time; event : event }

type t = {
  mutable rev_entries : entry list;
  mutable count : int;
  enabled : bool;
}

let create ?(enabled = true) () = { rev_entries = []; count = 0; enabled }

let enabled t = t.enabled

let record t at event =
  if t.enabled then begin
    t.rev_entries <- { at; event } :: t.rev_entries;
    t.count <- t.count + 1
  end

let entries t = List.rev t.rev_entries

let always _ = true

let message_count ?(subject = always) t =
  let matches e =
    match e.event with Sent (m, _) -> subject m | _ -> false
  in
  List.length (List.filter matches (entries t))

(* Longest causal chain of messages: dynamic programming over sends in
   chronological order. [depth.(dst)] tracks, per process, the longest chain
   of messages already *delivered* to it; a send from [src] at time [t]
   starts a chain of length [chain-of-src-at-t] + 1, credited to [dst] at the
   delivery time. *)
let communication_steps ?(subject = always) t =
  let sends =
    List.filter_map
      (fun e ->
        match e.event with
        | Sent (m, delivery) when subject m -> Some (e.at, delivery, m)
        | Sent _ | Spawned _ | Dropped _ | Delivered _ | Dead_letter _
        | Crashed _ | Recovered _ | Work _ | Note _ ->
            None)
      (entries t)
  in
  let pending = Hashtbl.create 16 (* dst -> (delivery_time, depth) list *) in
  let settled = Hashtbl.create 16 (* proc -> current max depth *) in
  let depth_at pid now =
    let base = Option.value ~default:0 (Hashtbl.find_opt settled pid) in
    let arrived =
      match Hashtbl.find_opt pending pid with
      | None -> []
      | Some l -> List.filter (fun (d, _) -> d <= now) l
    in
    List.fold_left (fun acc (_, n) -> max acc n) base arrived
  in
  let best = ref 0 in
  List.iter
    (fun (sent_at, delivery, m) ->
      let d = depth_at m.Types.src sent_at + 1 in
      best := max !best d;
      let l = Option.value ~default:[] (Hashtbl.find_opt pending m.Types.dst) in
      Hashtbl.replace pending m.Types.dst ((delivery, d) :: l))
    sends;
  !best

type stats = {
  sent : int;
  delivered : int;
  dropped : int;
  dead_lettered : int;
  crashes : int;
  recoveries : int;
  notes : int;
}

let stats t =
  List.fold_left
    (fun acc e ->
      match e.event with
      | Sent _ -> { acc with sent = acc.sent + 1 }
      | Delivered _ -> { acc with delivered = acc.delivered + 1 }
      | Dropped _ -> { acc with dropped = acc.dropped + 1 }
      | Dead_letter _ -> { acc with dead_lettered = acc.dead_lettered + 1 }
      | Crashed _ -> { acc with crashes = acc.crashes + 1 }
      | Recovered _ -> { acc with recoveries = acc.recoveries + 1 }
      | Note _ -> { acc with notes = acc.notes + 1 }
      | Spawned _ | Work _ -> acc)
    {
      sent = 0;
      delivered = 0;
      dropped = 0;
      dead_lettered = 0;
      crashes = 0;
      recoveries = 0;
      notes = 0;
    }
    (entries t)

let pp_stats ppf s =
  Format.fprintf ppf
    "sent=%d delivered=%d dropped=%d dead-lettered=%d crashes=%d \
     recoveries=%d notes=%d"
    s.sent s.delivered s.dropped s.dead_lettered s.crashes s.recoveries
    s.notes
