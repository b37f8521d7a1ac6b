(* A binary min-heap over (time, seq) keys, stored as three parallel
   arrays: the times unboxed in a float array, the push numbers in an int
   array and the payloads in a plain array. Pushing and popping allocate
   nothing once the arrays have grown. A vacated payload slot is overwritten
   with [dummy], so a popped payload is garbage as soon as its caller drops
   it. *)

type 'a t = {
  dummy : 'a;
  mutable times : float array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

(* Capacity kept across [clear] and across emptying by [pop]; a queue that
   once grew past it gives its arrays back when it empties. *)
let keep = 16

let create ~dummy () =
  { dummy; times = [||]; seqs = [||]; vals = [||]; size = 0; next_seq = 0 }

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

let move q ~src ~dst =
  q.times.(dst) <- q.times.(src);
  q.seqs.(dst) <- q.seqs.(src);
  q.vals.(dst) <- q.vals.(src)

(* Put (time, seq, v) at the hole [i], moving parents down past it. *)
let rec sift_up q i time seq v =
  let parent = (i - 1) / 2 in
  if
    i > 0
    && (time < q.times.(parent)
       || (time = q.times.(parent) && seq < q.seqs.(parent)))
  then begin
    move q ~src:parent ~dst:i;
    sift_up q parent time seq v
  end
  else begin
    q.times.(i) <- time;
    q.seqs.(i) <- seq;
    q.vals.(i) <- v
  end

(* Move the last element into the hole at the root and sift it down. *)
let rec sift_down q i =
  let l = (2 * i) + 1 in
  if l < q.size then begin
    let c = if l + 1 < q.size && before q (l + 1) l then l + 1 else l in
    if before q c i then begin
      let t = q.times.(i) and s = q.seqs.(i) and v = q.vals.(i) in
      move q ~src:c ~dst:i;
      q.times.(c) <- t;
      q.seqs.(c) <- s;
      q.vals.(c) <- v;
      sift_down q c
    end
  end

let push q time v =
  if q.size = Array.length q.times then grow q;
  q.next_seq <- q.next_seq + 1;
  q.size <- q.size + 1;
  sift_up q (q.size - 1) time q.next_seq v

let check q = if q.size = 0 then invalid_arg "Timeq: empty"
let min_time q = check q; q.times.(0)
let min_value q = check q; q.vals.(0)

let pop q =
  check q;
  let v = q.vals.(0) in
  let last = q.size - 1 in
  q.size <- last;
  move q ~src:last ~dst:0;
  q.vals.(last) <- q.dummy;
  if last > 0 then sift_down q 0
  else if Array.length q.times > keep then release q;
  v

let clear q =
  if Array.length q.times > keep then release q
  else Array.fill q.vals 0 q.size q.dummy;
  q.size <- 0
