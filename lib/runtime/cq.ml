(* Links are ['a node] values and [Nil] ends a list, so relinking stores an
   existing pointer or an immediate: no [Some] box per link. *)
type 'a node =
  | Nil
  | Node of {
      v : 'a;
      cls : int;
      mutable gprev : 'a node;
      mutable gnext : 'a node;
      mutable cprev : 'a node;
      mutable cnext : 'a node;
    }

type 'a dl = { mutable head : 'a node; mutable tail : 'a node }

let dl_create () = { head = Nil; tail = Nil }

type 'a t = {
  g : 'a dl;
  mutable buckets : 'a dl array;  (** index [cls + 1]; slot 0 is unclassed *)
  mutable len : int;
}

let create () = { g = dl_create (); buckets = [||]; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

let bucket_of t cls =
  let i = cls + 1 in
  if i < 0 then invalid_arg "Cq: class below -1";
  let cap = Array.length t.buckets in
  if i >= cap then begin
    let buckets' =
      Array.init (max 8 (max (i + 1) (cap * 2))) (fun j ->
          if j < cap then t.buckets.(j) else dl_create ())
    in
    t.buckets <- buckets'
  end;
  t.buckets.(i)

let set_gnext p x = match p with Nil -> () | Node p -> p.gnext <- x
let set_gprev s x = match s with Nil -> () | Node s -> s.gprev <- x
let set_cnext p x = match p with Nil -> () | Node p -> p.cnext <- x
let set_cprev s x = match s with Nil -> () | Node s -> s.cprev <- x

let push t ~cls v =
  let b = bucket_of t cls in
  let n =
    Node
      {
        v;
        cls;
        gprev = t.g.tail;
        gnext = Nil;
        cprev = b.tail;
        cnext = Nil;
      }
  in
  (match t.g.tail with Nil -> t.g.head <- n | p -> set_gnext p n);
  t.g.tail <- n;
  (match b.tail with Nil -> b.head <- n | p -> set_cnext p n);
  b.tail <- n;
  t.len <- t.len + 1

let unlink t = function
  | Nil -> ()
  | Node r ->
      (match r.gprev with Nil -> t.g.head <- r.gnext | p -> set_gnext p r.gnext);
      (match r.gnext with Nil -> t.g.tail <- r.gprev | s -> set_gprev s r.gprev);
      let b = t.buckets.(r.cls + 1) in
      (match r.cprev with Nil -> b.head <- r.cnext | p -> set_cnext p r.cnext);
      (match r.cnext with Nil -> b.tail <- r.cprev | s -> set_cprev s r.cprev);
      r.gprev <- Nil;
      r.gnext <- Nil;
      r.cprev <- Nil;
      r.cnext <- Nil;
      t.len <- t.len - 1

let take t = function
  | Nil -> None
  | Node r as n ->
      unlink t n;
      Some r.v

let pop t = take t t.g.head

let bucket_head t cls =
  let i = cls + 1 in
  if i < 0 || i >= Array.length t.buckets then Nil else t.buckets.(i).head

let pop_cls t cls = take t (bucket_head t cls)

let rec find_g pred = function
  | Nil -> Nil
  | Node r as n -> if pred r.v then n else find_g pred r.gnext

let rec find_c pred = function
  | Nil -> Nil
  | Node r as n -> if pred r.v then n else find_c pred r.cnext

let take_first t pred = take t (find_g pred t.g.head)
let take_first_in_cls t cls pred = take t (find_c pred (bucket_head t cls))

let cls_length t cls =
  let rec go acc = function Nil -> acc | Node r -> go (acc + 1) r.cnext in
  go 0 (bucket_head t cls)

let clear t =
  t.g.head <- Nil;
  t.g.tail <- Nil;
  Array.iter
    (fun b ->
      b.head <- Nil;
      b.tail <- Nil)
    t.buckets;
  t.len <- 0

let to_list t =
  let rec go acc = function
    | Nil -> List.rev acc
    | Node r -> go (r.v :: acc) r.gnext
  in
  go [] t.g.head
