(* The 64-bit state lives unboxed in an 8-byte buffer: reading and
   writing it with [get_int64_ne]/[set_int64_ne] keeps every draw free of
   [int64] boxes, which a mutable [int64] field would allocate for each
   new state. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] int64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix s

let split t = of_state (int64 t)

let int t bound =
  assert (bound > 0);
  (* Bitmask rejection sampling: mask each draw down to the smallest
     power-of-two cover of [bound] and retry on overshoot. Unbiased for
     every bound, unlike the previous [v mod bound]. Draws keep 62 bits so
     values fit OCaml's native positive int range. *)
  let rec cover m = if m >= bound - 1 then m else cover ((m lsl 1) lor 1) in
  let mask = cover 1 in
  let rec draw () =
    let v = Int64.to_int (Int64.shift_right_logical (int64 t) 2) land mask in
    if v < bound then v else draw ()
  in
  draw ()

let[@inline] float t bound =
  assert (bound > 0.);
  let v = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  (* 53 significant bits, as in the stdlib implementation *)
  v /. 9007199254740992.0 *. bound

let[@inline] bool t p = float t 1.0 < p

let exponential t ~mean =
  let u = float t 1.0 in
  let u = if u <= 0. then epsilon_float else u in
  -.mean *. log u
