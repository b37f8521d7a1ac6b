(* Causal request tracing. A span is one timed phase of one request's
   life (the client's whole request, a server's try, the election inside
   it, a cleaner take-over, ...) on one node; spans carrying the same
   [trace] id (the request's rid) form one tree per request, stitched
   across nodes by the parent ids propagated in message payloads. A span
   whose owner crashed mid-phase simply never closes ([stop] stays NaN) —
   exactly the information a fail-over post-mortem needs. Point events
   ([event]) annotate a trace without a duration (consensus round marks,
   notes, crash/recover edges bridged from the simulator's trace). *)

type t = {
  id : int;
  trace : int;  (** request id; 0 groups backend-lifecycle spans *)
  parent : int;  (** parent span id, 0 = root *)
  name : string;
  node : string;
  start : float;
  mutable stop : float;  (** NaN while open *)
  mutable attrs : (string * string) list;
}

type event = {
  etrace : int;
  enode : string;
  ename : string;
  eat : float;
  detail : string;
}

let closed s = not (Float.is_nan s.stop)
let duration s = if closed s then Some (s.stop -. s.start) else None
let attr s k = List.assoc_opt k s.attrs

let total spans name =
  List.fold_left
    (fun acc s ->
      if s.name = name && closed s then acc +. (s.stop -. s.start) else acc)
    0. spans

type tree = { span : t; children : tree list }

(* Spans of one trace as a forest: children attach to their parent when it
   exists in the same trace; spans with no (or an unknown) parent become
   roots. Siblings and roots are ordered by start time, then id, so the
   layout is deterministic. *)
let forest spans ~trace =
  let mine = List.filter (fun s -> s.trace = trace) spans in
  let ids = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace ids s.id ()) mine;
  let order a b =
    match compare a.start b.start with 0 -> compare a.id b.id | c -> c
  in
  let children_of id =
    List.filter (fun s -> s.parent = id) mine |> List.sort order
  in
  let rec build s = { span = s; children = List.map build (children_of s.id) }
  in
  List.filter (fun s -> s.parent = 0 || not (Hashtbl.mem ids s.parent)) mine
  |> List.sort order |> List.map build

let rec tree_size t = 1 + List.fold_left (fun a c -> a + tree_size c) 0 t.children

let find spans ~trace ~name =
  List.filter (fun s -> s.trace = trace && s.name = name) spans
