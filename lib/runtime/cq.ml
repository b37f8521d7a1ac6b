(* Links are ['a node] values and [Nil] ends a list, so relinking stores an
   existing pointer or an immediate: no [Some] box per link. *)
type 'a node =
  | Nil
  | Node of {
      v : 'a;
      cls : int;
      seq : int;
      mutable gen : int;  (** the queue's generation at push; [-1] once unlinked *)
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
  mutable seqc : int;
  mutable gen : int;
}

let create () = { g = dl_create (); buckets = [||]; len = 0; seqc = 0; gen = 0 }

let length t = t.len
let is_empty t = t.len = 0

let node_value = function
  | Nil -> invalid_arg "Cq.node_value"
  | Node n -> n.v

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
  t.seqc <- t.seqc + 1;
  let n =
    Node
      {
        v;
        cls;
        seq = t.seqc;
        gen = t.gen;
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
  t.len <- t.len + 1;
  n

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
      r.gen <- -1;
      t.len <- t.len - 1

let remove t = function
  | Node r as n when r.gen = t.gen ->
      unlink t n;
      true
  | _ -> false

let mem t = function Node r -> r.gen = t.gen | Nil -> false

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

(* Scans pass the predicate and its argument separately, so a caller
   matching against one value needs no closure over it. *)
let rec find_g pred x = function
  | Nil -> Nil
  | Node r as n -> if pred x r.v then n else find_g pred x r.gnext

let rec find_c pred x = function
  | Nil -> Nil
  | Node r as n -> if pred x r.v then n else find_c pred x r.cnext

let apply f v = f v

let take_first t pred = take t (find_g apply pred t.g.head)

let take_first_in_cls t cls pred =
  take t (find_c apply pred (bucket_head t cls))

let take_first_in_either t cls pred x =
  let u = find_c pred x (bucket_head t (-1)) in
  let c = if cls >= 0 then find_c pred x (bucket_head t cls) else Nil in
  match (u, c) with
  | Node a, Node b -> take t (if a.seq <= b.seq then u else c)
  | Nil, n | n, Nil -> take t n

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
  t.len <- 0;
  t.gen <- t.gen + 1

let iter f t =
  let rec go = function
    | Nil -> ()
    | Node r ->
        f r.v;
        go r.gnext
  in
  go t.g.head

let to_list t =
  let acc = ref [] in
  iter (fun v -> acc := v :: !acc) t;
  List.rev !acc
