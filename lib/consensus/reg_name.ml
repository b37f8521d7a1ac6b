(* Register names and instance keys, built by hand: a [Printf.sprintf]
   of a register name allocates an order of magnitude more than the
   string it returns, and the classic path builds several per commit.
   Numbers are written with [put_int] into a [Bytes] sized by [int_len],
   so each name costs one allocation. *)

let rec int_len n =
  if n < 0 then String.length (string_of_int n)
  else if n < 10 then 1
  else 1 + int_len (n / 10)

(* writes the digits of [n >= 0] ending at [i] *)
let rec put_digits b i n =
  Bytes.unsafe_set b i (Char.unsafe_chr (48 + (n mod 10)));
  if n >= 10 then put_digits b (i - 1) (n / 10)

(* writes [n] ending just before [stop]; returns [stop] *)
let put_int b ~stop n =
  if n < 0 then begin
    let len = int_len n in
    Bytes.blit_string (string_of_int n) 0 b (stop - len) len
  end
  else put_digits b (stop - 1) n;
  stop

let put_string b ~at s =
  Bytes.unsafe_blit_string s 0 b at (String.length s);
  at + String.length s

(* [p1 ^ a ^ p2 ^ b ^ p3 ^ c ^ tail] with [a], [b], [c] in decimal *)
let ints3 p1 a p2 b p3 c tail =
  let la = int_len a and lb = int_len b and lc = int_len c in
  let b' =
    Bytes.create
      (String.length p1 + la + String.length p2 + lb + String.length p3 + lc
     + String.length tail)
  in
  let i = put_string b' ~at:0 p1 in
  let i = put_int b' ~stop:(i + la) a in
  let i = put_string b' ~at:i p2 in
  let i = put_int b' ~stop:(i + lb) b in
  let i = put_string b' ~at:i p3 in
  let i = put_int b' ~stop:(i + lc) c in
  ignore (put_string b' ~at:i tail);
  Bytes.unsafe_to_string b'

let reg_a ~group ~client ~rid = ints3 "g" group ":regA:c" client ":r" rid ""
let reg_d ~group ~client ~rid = ints3 "g" group ":regD:c" client ":r" rid ""
let lease ~group = "g" ^ string_of_int group ^ ":lease"

let batch_a ~group ~epoch ~seq =
  ints3 "g" group ":batchA:e" epoch ":k" seq ""

let batch_d ~group ~epoch ~seq =
  ints3 "g" group ":batchD:e" epoch ":k" seq ""

let batch_a_key ~group ~epoch ~seq =
  ints3 "g" group ":batchA:e" epoch ":k" seq "[0]"

let batch_d_key ~group ~epoch ~seq =
  ints3 "g" group ":batchD:e" epoch ":k" seq "[0]"

let gx_vote ~rid ~j ~k = ints3 "gx:r" rid "." j ":p" k ""
let gx_exec ~rid ~j ~k = ints3 "gx:r" rid "." j ":p" k ":a"

let key ~name ~j =
  let lj = int_len j and ln = String.length name in
  let b = Bytes.create (ln + lj + 2) in
  let i = put_string b ~at:0 name in
  Bytes.unsafe_set b i '[';
  let i = put_int b ~stop:(i + 1 + lj) j in
  Bytes.unsafe_set b i ']';
  Bytes.unsafe_to_string b

(* --- the one parser --- *)

let is_digit c = c >= '0' && c <= '9'

(* index of the first non-digit at or after [i] *)
let rec digits_end s i =
  if i < String.length s && is_digit (String.unsafe_get s i) then
    digits_end s (i + 1)
  else i

(* the decimal number in [s] from [i] up to [stop] *)
let rec number s i stop acc =
  if i >= stop then acc
  else number s (i + 1) stop ((acc * 10) + Char.code (String.unsafe_get s i) - 48)

(* [s] has the literal [lit] at [i], from its [k]th character on *)
let rec has_from s i lit k =
  k = String.length lit
  || (i + k < String.length s && s.[i + k] = lit.[k] && has_from s i lit (k + 1))

let has s i lit = has_from s i lit 0

(* A classic name is "g<group>:reg<A|D>:c<client>:r<rid>"; its instance
   keys append "[<j>]". [classic s] answers the index of the client's
   first digit when [s] starts with such a name, else -1. Every reader
   below starts from it, so none allocates. *)
let classic s =
  let g = digits_end s 1 in
  if
    String.length s > 0
    && s.[0] = 'g'
    && g > 1
    && has s g ":reg"
    && g + 4 < String.length s
    && (s.[g + 4] = 'A' || s.[g + 4] = 'D')
    && has s (g + 5) ":c"
  then
    let c = g + 7 in
    let ce = digits_end s c in
    if ce > c && has s ce ":r" && digits_end s (ce + 2) > ce + 2 then c else -1
  else -1

let family s c = s.[c - 3]
let client_of_at s c = number s c (digits_end s c) 0

let rid_end s c = digits_end s (digits_end s c + 2)

let rid_of_at s c =
  let r = digits_end s c + 2 in
  number s r (digits_end s r) 0

let client_of s =
  let c = classic s in
  if c < 0 then -1 else client_of_at s c

let rid_of s =
  let c = classic s in
  if c < 0 then -1 else rid_of_at s c

let try_of s =
  let c = classic s in
  if c < 0 then -1
  else
    let e = rid_end s c in
    let je = digits_end s (e + 1) in
    if
      e < String.length s
      && s.[e] = '['
      && je > e + 1
      && je = String.length s - 1
      && s.[je] = ']'
    then number s (e + 1) je 0
    else -1

(* A batch name is "g<group>:batch<A|D>:e<epoch>:k<seq>". [batch s]
   answers the index of the epoch's first digit when [s] starts with
   such a name, else -1. *)
let batch s =
  let g = digits_end s 1 in
  if
    String.length s > 0
    && s.[0] = 'g'
    && g > 1
    && has s g ":batch"
    && g + 6 < String.length s
    && (s.[g + 6] = 'A' || s.[g + 6] = 'D')
    && has s (g + 7) ":e"
  then
    let e = g + 9 in
    let ee = digits_end s e in
    if ee > e && has s ee ":k" && digits_end s (ee + 2) > ee + 2 then e
    else -1
  else -1

let epoch_of s =
  let e = batch s in
  if e < 0 then -1 else number s e (digits_end s e) 0

let seq_of s =
  let e = batch s in
  if e < 0 then -1
  else
    let k = digits_end s e + 2 in
    number s k (digits_end s k) 0

let position s =
  let c = classic s in
  let j = try_of s in
  if c < 0 || j < 0 then -1
  else (rid_of_at s c lsl 20) lor (j lsl 1) lor if family s c = 'D' then 1 else 0

let parse fam name =
  let c = classic name in
  if c >= 0 && family name c = fam && rid_end name c = String.length name then
    Some (number name 1 (digits_end name 1) 0, client_of_at name c, rid_of_at name c)
  else None

let parse_reg_a name = parse 'A' name
let parse_reg_d name = parse 'D' name

let split key =
  let n = String.length key in
  match String.rindex_opt key '[' with
  | Some i when n > i + 2 && key.[n - 1] = ']' && digits_end key (i + 1) = n - 1
    ->
      Some (String.sub key 0 i, number key (i + 1) (n - 1) 0)
  | Some _ | None -> None
