type t = Ct of Agent.t | Paxos of Synod.t

let of_agent agent = Ct agent
let of_synod synod = Paxos synod

(* the instance key of register [j] of array [name]: "name[j]" *)
let key = Reg_name.key

let write t ~name ~j v =
  let key = key ~name ~j in
  match t with
  | Ct a -> Agent.propose a ~key v
  | Paxos s -> Synod.propose s ~key v

let read_key t key =
  match t with Ct a -> Agent.peek a ~key | Paxos s -> Synod.peek s ~key

let read t ~name ~j = read_key t (key ~name ~j)

let wake t ~name ~j =
  let key = key ~name ~j in
  match t with
  | Ct a -> Agent.decision_wake a ~key
  | Paxos s -> Synod.decision_wake s ~key

let decided_keys t =
  List.filter_map Reg_name.split
    (match t with
    | Ct a -> Agent.decided_keys a
    | Paxos s -> Synod.decided_keys s)

let retire_when t rule =
  match t with Ct a -> Agent.retire_when a rule | Paxos _ -> ()

let on_decide t f =
  match t with Ct a -> Agent.on_decide a f | Paxos s -> Synod.on_decide s f

let release_key t key =
  match t with Ct a -> Agent.release a ~key | Paxos _ -> ()

let release t ~name ~j = release_key t (key ~name ~j)
