type t = Ct of Agent.t | Paxos of Synod.t

let of_agent agent = Ct agent
let of_synod synod = Paxos synod

(* the instance key of register [j] of array [name]: "name[j]" *)
let key ~name ~j = Printf.sprintf "%s[%d]" name j

let split key =
  let n = String.length key in
  match String.rindex_opt key '[' with
  | Some i when n > i + 2 && key.[n - 1] = ']' ->
      Option.map
        (fun j -> (String.sub key 0 i, j))
        (int_of_string_opt (String.sub key (i + 1) (n - i - 2)))
  | Some _ | None -> None

let write t ~name ~j v =
  let key = key ~name ~j in
  match t with
  | Ct a -> Agent.propose a ~key v
  | Paxos s -> Synod.propose s ~key v

let read t ~name ~j =
  let key = key ~name ~j in
  match t with Ct a -> Agent.peek a ~key | Paxos s -> Synod.peek s ~key

let wake t ~name ~j =
  let key = key ~name ~j in
  match t with
  | Ct a -> Agent.decision_wake a ~key
  | Paxos s -> Synod.decision_wake s ~key

let decided_keys t =
  List.filter_map split
    (match t with
    | Ct a -> Agent.decided_keys a
    | Paxos s -> Synod.decided_keys s)

let collect t ~older_than =
  match t with Ct a -> Agent.collect a ~older_than | Paxos _ -> 0

let instances t = match t with Ct a -> Agent.instance_count a | Paxos _ -> 0
