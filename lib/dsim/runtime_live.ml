type t = { engine : Engine.t; t0 : float  (** the wall clock's zero *) }

let create ?seed ?obs () =
  { engine = Engine.create ?seed ?obs (); t0 = Unix.gettimeofday () }

let engine lt = lt.engine
let now_ms lt = (Unix.gettimeofday () -. lt.t0) *. 1000.

(* Sleeps until [at] on the wall clock; returns the wall time then. *)
let rec wait lt at =
  let now = now_ms lt in
  if now >= at then now
  else begin
    Unix.sleepf ((at -. now) /. 1000.);
    wait lt at
  end

(* The simulator's run loop on the wall clock: an event runs once it falls
   due, at the wall time it actually runs, and a deadline is waited out. *)
let run_until lt ?deadline pred =
  let limit = Option.value deadline ~default:Float.infinity in
  let rec loop () =
    if pred () then true
    else
      let at = Engine.next_due lt.engine in
      if at <= limit then begin
        Engine.run_next lt.engine ~at:(wait lt at);
        loop ()
      end
      else begin
        if limit < Float.infinity then ignore (wait lt limit);
        pred ()
      end
  in
  loop ()

let runtime lt =
  {
    (Runtime_sim.of_engine lt.engine) with
    Runtime.Etx_runtime.backend = "live";
    run_until = (fun ?deadline pred -> run_until lt ?deadline pred);
  }
