type t = { rid : int; j : int }

let make ~rid ~j = { rid; j }

let equal a b = a.rid = b.rid && a.j = b.j

let compare a b =
  match compare a.rid b.rid with 0 -> compare a.j b.j | c -> c

let pp ppf t = Format.fprintf ppf "r%d.%d" t.rid t.j

(* [pp]'s text without a formatter *)
let to_string t = "r" ^ string_of_int t.rid ^ "." ^ string_of_int t.j
