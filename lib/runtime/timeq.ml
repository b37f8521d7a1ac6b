(* A binary min-heap over (time, seq) keys, stored as three parallel
   arrays: the times unboxed in a float array, the push numbers in an int
   array and the payloads in a plain array. Pushing, popping and removing
   allocate nothing once the arrays have grown. A vacated payload slot is
   overwritten with [dummy], so a popped payload is garbage as soon as its
   caller drops it. *)

type 'a t = {
  dummy : 'a;
  moved : 'a -> int -> unit;
  tracked : bool;  (** [moved] was given: tell it every slot change *)
  mutable times : float array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

(* Capacity kept across [clear] and across emptying by [pop]; a queue that
   once grew past it gives its arrays back when it empties. *)
let keep = 16

let create ?moved ~dummy () =
  {
    dummy;
    moved = Option.value moved ~default:(fun _ _ -> ());
    tracked = moved <> None;
    times = [||];
    seqs = [||];
    vals = [||];
    size = 0;
    next_seq = 0;
  }

let length q = q.size
let is_empty q = q.size = 0

let release q =
  q.times <- [||];
  q.seqs <- [||];
  q.vals <- [||]

let grow q =
  let cap = Array.length q.times in
  let cap' = if cap = 0 then 4 else 2 * cap in
  let times = Array.make cap' 0. and seqs = Array.make cap' 0 in
  let vals = Array.make cap' q.dummy in
  Array.blit q.times 0 times 0 q.size;
  Array.blit q.seqs 0 seqs 0 q.size;
  Array.blit q.vals 0 vals 0 q.size;
  q.times <- times;
  q.seqs <- seqs;
  q.vals <- vals

(* [i] sorts before [j] *)
let before q i j =
  let ti = q.times.(i) and tj = q.times.(j) in
  ti < tj || (ti = tj && q.seqs.(i) < q.seqs.(j))

(* Moves the entry in slot [src] into the hole [hole], then up past the
   parents it sorts before or down past the children that sort before
   it: each step moves the other entry into the hole. The loops keep the
   entry's time in a local, as a float handed to a function would be
   boxed. *)
let fill q hole src =
  let time = q.times.(src) and seq = q.seqs.(src) and v = q.vals.(src) in
  let i = ref hole and moving = ref true in
  let up =
    hole > 0
    &&
    let p = (hole - 1) / 2 in
    let tp = q.times.(p) in
    time < tp || (time = tp && seq < q.seqs.(p))
  in
  if up then
    while !moving do
      let p = (!i - 1) / 2 in
      let tp = q.times.(p) in
      if !i > 0 && (time < tp || (time = tp && seq < q.seqs.(p))) then begin
        q.times.(!i) <- tp;
        q.seqs.(!i) <- q.seqs.(p);
        q.vals.(!i) <- q.vals.(p);
        if q.tracked then q.moved q.vals.(!i) !i;
        i := p
      end
      else moving := false
    done
  else
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= q.size then moving := false
      else begin
        let c = if l + 1 < q.size && before q (l + 1) l then l + 1 else l in
        let tc = q.times.(c) in
        if tc < time || (tc = time && q.seqs.(c) < seq) then begin
          q.times.(!i) <- tc;
          q.seqs.(!i) <- q.seqs.(c);
          q.vals.(!i) <- q.vals.(c);
          if q.tracked then q.moved q.vals.(!i) !i;
          i := c
        end
        else moving := false
      end
    done;
  q.times.(!i) <- time;
  q.seqs.(!i) <- seq;
  q.vals.(!i) <- v;
  if q.tracked then q.moved v !i

let push q time v =
  if q.size = Array.length q.times then grow q;
  q.next_seq <- q.next_seq + 1;
  let i = q.size in
  q.times.(i) <- time;
  q.seqs.(i) <- q.next_seq;
  q.vals.(i) <- v;
  q.size <- i + 1;
  fill q i i

let check q = if q.size = 0 then invalid_arg "Timeq: empty"
let min_time q = check q; q.times.(0)
let min_value q = check q; q.vals.(0)

(* Fill the hole at [i] with the last entry. Every key keeps its push
   number, so the order of the others does not change. *)
let take q i =
  let v = q.vals.(i) in
  let last = q.size - 1 in
  q.size <- last;
  if i < last then fill q i last;
  q.vals.(last) <- q.dummy;
  if q.tracked then q.moved v (-1);
  if last = 0 && Array.length q.times > keep then release q;
  v

let pop q =
  check q;
  take q 0

let remove q i =
  if i < 0 || i >= q.size then invalid_arg "Timeq.remove: no such slot";
  ignore (take q i)

let clear q =
  if q.tracked then
    for i = 0 to q.size - 1 do
      q.moved q.vals.(i) (-1)
    done;
  if Array.length q.times > keep then release q
  else Array.fill q.vals 0 q.size q.dummy;
  q.size <- 0
