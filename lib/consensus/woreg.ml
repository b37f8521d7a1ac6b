type t = Agent.t

(* the instance key of register [j] of array [name]: "name[j]" *)
let key = Reg_name.key

let write t ~name ~j v = Agent.propose t ~key:(key ~name ~j) v
let read_key t key = Agent.peek t ~key
let read t ~name ~j = read_key t (key ~name ~j)
let wake t ~name ~j = Agent.decision_wake t ~key:(key ~name ~j)
let decided_keys t = List.filter_map Reg_name.split (Agent.decided_keys t)
let retire_when = Agent.retire_when
let on_decide = Agent.on_decide
let release_key t key = Agent.release t ~key
let release t ~name ~j = release_key t (key ~name ~j)
