let schedule ~seed ~rate ~n ~start =
  if rate <= 0. then invalid_arg "Openloop.schedule: rate must be positive";
  let rng = Runtime.Rng.create ~seed in
  let mean = 1000. /. rate in
  let t = ref start in
  Array.init n (fun _ ->
      t := !t +. Runtime.Rng.exponential rng ~mean;
      !t)

(* The rank of the [p]-th percentile is the one [Stats.Summary.percentile]
   picks; asking it about the ranks themselves keeps one convention. *)
let beyond n p =
  if n = 0 then 0
  else
    n - 1
    - int_of_float (Stats.Summary.percentile (List.init n float_of_int) p)

let finite xs = List.filter Float.is_finite (Array.to_list xs)

let fail_frac delivered =
  let n = Array.length delivered in
  if n = 0 then 0.
  else
    let missing =
      Array.fold_left
        (fun k d -> if Float.is_nan d then k + 1 else k)
        0 delivered
    in
    float_of_int missing /. float_of_int n

type verdict = Running | Overdue | Budget

type guard = {
  due : float array;
  limit : float;
  max_overdue : int;
  budget : int;
  mutable next : int;  (** arrivals before [next] have been judged *)
  mutable overdue : int;
}

let guard ~due ~limit ~abort_frac ~budget =
  {
    due;
    limit;
    max_overdue = int_of_float (abort_frac *. float_of_int (Array.length due));
    budget;
    next = 0;
    overdue = 0;
  }

(* Arrivals are judged once, in due order, as soon as their deadline has
   passed: late if still undelivered or delivered after the deadline. *)
let check g ~now ~events ~delivered =
  let n = Array.length g.due in
  while g.next < n && g.due.(g.next) +. g.limit < now do
    let d = delivered g.next in
    if Float.is_nan d || d -. g.due.(g.next) > g.limit then
      g.overdue <- g.overdue + 1;
    g.next <- g.next + 1
  done;
  if g.overdue > g.max_overdue then Overdue
  else if events >= g.budget then Budget
  else Running

let overdue g = g.overdue

type probe = { rate : float; pass : bool }

let ratio = 1.1
let bisections = 3

let capacity ?(max_rungs = 40) ~r0 oracle =
  let probes = ref [] in
  let probe rate =
    let pass = oracle rate in
    probes := { rate; pass } :: !probes;
    pass
  in
  (* [lo] passed (or is 0), [hi] failed (or is infinite) *)
  let lo, hi =
    if probe r0 then
      let rec up k r =
        let r' = r *. ratio in
        if k >= max_rungs then (r, infinity)
        else if probe r' then up (k + 1) r'
        else (r, r')
      in
      up 0 r0
    else
      let rec down k r =
        let r' = r /. ratio in
        if k >= max_rungs then (0., r)
        else if probe r' then (r', r)
        else down (k + 1) r'
      in
      down 0 r0
  in
  let rec bisect k lo hi =
    if k = 0 || lo <= 0. || hi = infinity then lo
    else
      let mid = sqrt (lo *. hi) in
      if probe mid then bisect (k - 1) mid hi else bisect (k - 1) lo mid
  in
  let cap = bisect bisections lo hi in
  (cap, List.rev !probes)
