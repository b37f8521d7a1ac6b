(* Epoch-versioned key → group placement (DESIGN.md §16).

   The map is pure data: the same value is held by every client, server and
   register, and placement is a deterministic function of the key alone.
   Epoch 0 is exactly the PR 4 map — [slots] top-level shards placed by
   FNV-1a mod [slots] — and every later epoch is a *refinement*: a [split] replaces one group's leaves
   with a two-way subtree, so keys that do not move keep their placement
   bit-for-bit. That refinement discipline is what makes [diff] a pure
   structural walk and lets a no-reconfiguration run stay byte-identical
   to the unversioned map. *)

(* One slot's assignment. [Leaf g]: the whole slot region belongs to group
   [g]. [Hsplit (l, r)]: consume one bit of the key's hash quotient (the
   bits *above* the slot index, so sibling decisions are independent of
   the slot placement); 0 → [l], 1 → [r]. *)
type node = Leaf of int | Hsplit of node * node

type t = { epoch : int; assignment : node array }

(* FNV-1a over the key bytes, folded into OCaml's 63-bit native int (the
   64-bit offset basis with its top bit dropped; multiplication wraps mod
   2^63, which is just as mixing). [Hashtbl.hash] would work today, but its
   value is not pinned by the language; a hand-rolled hash keeps shard
   placement stable across compiler versions, which the deterministic
   replay story depends on. *)
let fnv1a key =
  let h = ref 0x4bf29ce484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    key;
  !h land max_int

let create ~shards () =
  if shards < 1 then invalid_arg "Shard_map.create: shards must be >= 1";
  { epoch = 0; assignment = Array.init shards (fun i -> Leaf i) }

let epoch t = t.epoch

let slots t = Array.length t.assignment

let slot_of t key = if slots t = 1 then 0 else fnv1a key mod slots t

let shard_of t key =
  match t.assignment.(slot_of t key) with
  | Leaf g -> g (* epoch-0 fast path: no hash quotient needed *)
  | node ->
      let rec walk q = function
        | Leaf g -> g
        | Hsplit (l, r) -> walk (q lsr 1) (if q land 1 = 0 then l else r)
      in
      walk (fnv1a key / slots t) node

let rec leaf_groups acc = function
  | Leaf g -> if List.mem g acc then acc else g :: acc
  | Hsplit (l, r) -> leaf_groups (leaf_groups acc l) r

let groups t =
  Array.fold_left leaf_groups [] t.assignment |> List.sort_uniq compare

let shards t = 1 + List.fold_left max 0 (groups t)

let shards_of t keys =
  List.map (shard_of t) keys |> List.sort_uniq compare

let split t ~group ~target () =
  if target = group then invalid_arg "Shard_map.split: target = source group";
  if target < 0 || target > shards t then
    invalid_arg "Shard_map.split: target group would leave a gap";
  if not (List.mem group (groups t)) then
    invalid_arg "Shard_map.split: source group owns nothing";
  let rec refine = function
    | Leaf g when g = group -> Hsplit (Leaf g, Leaf target)
    | Leaf g -> Leaf g
    | Hsplit (l, r) -> Hsplit (refine l, refine r)
  in
  { epoch = t.epoch + 1; assignment = Array.map refine t.assignment }

(* ---------------- Diff between consecutive epochs ---------------- *)

type move = { src : int; dst : int }

let rec node_moves acc older newer =
  if older = newer then acc
  else
    match (older, newer) with
    | Leaf g, n ->
        (* the newer node refines this leaf: every foreign leaf under it
           receives keys from [g] *)
        List.fold_left
          (fun acc g' -> if g' = g || List.mem { src = g; dst = g' } acc then acc
                         else { src = g; dst = g' } :: acc)
          acc (leaf_groups [] n)
    | Hsplit (a, b), Hsplit (c, d) -> node_moves (node_moves acc a c) b d
    | _ ->
        invalid_arg "Shard_map.diff: maps are not related by refinement"

let diff older newer =
  if newer.epoch <> older.epoch + 1 then
    invalid_arg "Shard_map.diff: epochs are not consecutive";
  if slots older <> slots newer then
    invalid_arg "Shard_map.diff: maps are not related by refinement";
  let acc = ref [] in
  Array.iteri
    (fun i o -> acc := node_moves !acc o newer.assignment.(i))
    older.assignment;
  List.sort_uniq compare !acc

let moved older newer key =
  let a = shard_of older key and b = shard_of newer key in
  if a = b then None else Some (a, b)
