open Types

(* The execution substrate the protocol stack is written against. A fiber
   performs an effect only where it can suspend ([sleep], [work], the
   receives); every other operation is a direct call through the context
   that the hosting backend installs in the running domain while one of its
   processes runs. Protocol modules therefore need no backend handle on the
   hot path. Orchestration-side operations (spawning processes, injecting
   faults, driving the run) go through the [t] capability record, built by
   a backend adapter over the one backend, [Dsim.Engine]:
   [Dsim.Runtime_sim.of_engine] on the virtual clock and
   [Dsim.Runtime_live.runtime] on the wall clock. *)

exception Exit_fiber

type netmodel = Rng.t -> src:proc_id -> dst:proc_id -> float list

let default_net _rng ~src:_ ~dst:_ = [ 1.0 ]

(* Message classes ---------------------------------------------------- *)

type cls = int

(* The registry is global and backend-independent: protocol modules register
   their classes at module-initialisation time (single-domain, before any
   backend runs), and afterwards it is only read — so sharing it across Pool
   domains is safe. Classification order is registration
   order: the first predicate that accepts a payload names its class. *)
let class_table : (string * (payload -> bool)) array ref = ref [||]

let register_class ?name pred =
  let id = Array.length !class_table in
  let name =
    match name with Some n -> n | None -> "cls" ^ string_of_int id
  in
  class_table := Array.append !class_table [| (name, pred) |];
  id

let class_name c =
  if c < 0 || c >= Array.length !class_table then "unclassed"
  else fst !class_table.(c)

let classify pl =
  let tbl = !class_table in
  let n = Array.length tbl in
  let rec go i = if i >= n then -1 else if snd tbl.(i) pl then i else go (i + 1) in
  go 0

let registered_classes () =
  Array.to_list (Array.mapi (fun i (n, _) -> (i, n)) !class_table)

(* Observability sink ------------------------------------------------- *)

(* A neutral record of closures through which fibers emit metrics, spans
   and events. The runtime layer only declares the shape; Obs.Registry
   implements it and backends answer [obs ()] with one bound to the
   calling process (or [None] when observability is off — the common
   case). Protocol modules fetch the sink ONCE at init via [obs ()] and
   branch on the option at each instrument site, so the disabled cost is a
   single predictable branch per event and zero allocation. *)
type obs_sink = {
  obs_count : string -> int -> unit;  (** add to a named counter *)
  obs_gauge : string -> float -> unit;
  obs_observe : string -> float -> unit;  (** record into a histogram *)
  obs_span_open : ?parent:int -> trace:int -> string -> int;
      (** open a span, returning its id; 0 means "no span" everywhere *)
  obs_span_close : int -> unit;
  obs_span_attr : int -> string -> string -> unit;
  obs_event : trace:int -> string -> string -> unit;
}

(* A wake-up source (see [Wake] below): every fiber blocked on it in
   [E_await] leaves a ticket. A ticket called with [false] says whether its
   fiber still waits; called with [true] it also ends the wait. Tickets of
   waits that ended otherwise are pruned once the list doubles. *)
type wake = {
  mutable tickets : (bool -> bool) list;
  mutable ntickets : int;
  mutable prune_at : int;
}

(* A backend's timer ([timer] below). Each backend adds its own
   constructor; [No_timer] is a placeholder that is never armed. *)
type timer = ..
type timer += No_timer

(* The effects a fiber performs where it suspends. The handler (installed
   per fiber by the hosting backend) closes over the backend state, so the
   declarations carry no backend reference. *)
type _ Effect.t +=
  | E_sleep : time -> unit Effect.t
  | E_work : string * time -> unit Effect.t
  | E_recv : cls * (message -> bool) option * time -> message option Effect.t
      (** class, or [-1] for any; filter; timeout, [infinity] for none *)
  | E_await :
      wake * wake * cls * (message -> bool) option * time
      -> message option Effect.t
      (** [E_recv] that a wake of either source also ends, with [None] *)

(* The operations that never suspend, as one record per backend instance.
   The backend installs its record in the domain while it runs a fiber or
   a message handler of one of its processes, and answers each call for
   that process. *)
type ctx = {
  cx_now : unit -> time;
  cx_self : unit -> proc_id;
  cx_send : proc_id -> payload -> unit;
  cx_redeliver : proc_id -> payload -> unit;
  cx_fork : string -> (unit -> unit) -> unit;
  cx_watch : (proc_id -> unit) -> unit;
  cx_on_message : cls -> (message -> unit) -> unit;
  cx_timer : (unit -> unit) -> timer;
  cx_arm : timer -> time -> unit;
  cx_cancel : timer -> unit;
  cx_fresh_uid : unit -> int;
  cx_note : string -> unit;
  cx_obs : unit -> obs_sink option;
}

let outside name = failwith ("Etx_runtime." ^ name ^ ": called outside a fiber")

(* Installed while no backend runs a fiber: every call raises, except
   [obs], which answers that observability is off. *)
let no_ctx =
  {
    cx_now = (fun () -> outside "now");
    cx_self = (fun () -> outside "self");
    cx_send = (fun _ _ -> outside "send");
    cx_redeliver = (fun _ _ -> outside "redeliver");
    cx_fork = (fun _ _ -> outside "fork");
    cx_watch = (fun _ -> outside "watch");
    cx_on_message = (fun _ _ -> outside "on_message");
    cx_timer = (fun _ -> outside "timer");
    cx_arm = (fun _ _ -> outside "arm");
    cx_cancel = (fun _ -> outside "cancel");
    cx_fresh_uid = (fun () -> outside "fresh_uid");
    cx_note = (fun _ -> outside "note");
    cx_obs = (fun () -> None);
  }

(* Domain-local, so engines on different [Dsim.Pool] domains never see
   each other's context. *)
let ctx_key = Domain.DLS.new_key (fun () -> no_ctx)

let[@inline] current () = Domain.DLS.get ctx_key

let install c =
  let prev = current () in
  Domain.DLS.set ctx_key c;
  prev

(* Orchestration capability ------------------------------------------- *)

(* What a backend must provide to host the cluster, as a record threaded
   through the protocol [config] records. *)
type t = {
  backend : string;
  spawn : name:string -> main:(recovery:bool -> unit -> unit) -> proc_id;
  is_up : proc_id -> bool;
  name_of : proc_id -> string;
  crash : proc_id -> unit;
  recover : proc_id -> unit;
  set_net : netmodel -> unit;
  run_until : ?deadline:time -> (unit -> bool) -> bool;
  notes : unit -> (proc_id * string) list;
  obs : (string -> obs_sink) option;
}

(* The message [E_recv (cls, filter, _)] takes from a mailbox, if any. *)
let take_message mailbox cls filter =
  match filter with
  | None -> if cls >= 0 then Cq.pop_cls mailbox cls else Cq.pop mailbox
  | Some f ->
      if cls >= 0 then Cq.take_first_in_cls mailbox cls f
      else Cq.take_first mailbox f

(* Fiber-side operations ---------------------------------------------- *)

let now () = (current ()).cx_now ()
let self () = (current ()).cx_self ()
let sleep d = Effect.perform (E_sleep d)
let work label d = Effect.perform (E_work (label, d))
let send dst payload = (current ()).cx_send dst payload
let send_all dsts payload = List.iter (fun dst -> send dst payload) dsts
let redeliver ~src payload = (current ()).cx_redeliver src payload

(* [E_recv] carries bare values, so a receive allocates no [Some] for its
   class or for a missing timeout. *)
let forever = function None -> Float.infinity | Some d -> d

let recv ?timeout ?(cls = -1) ~filter () =
  Effect.perform (E_recv (cls, Some filter, forever timeout))

let recv_cls ?timeout c = Effect.perform (E_recv (c, None, forever timeout))
let recv_any ?timeout () = Effect.perform (E_recv (-1, None, forever timeout))
let fork name f = (current ()).cx_fork name f
let on_message cls f = (current ()).cx_on_message cls f
let no_timer = No_timer
let timer f = (current ()).cx_timer f
let arm tm delay = (current ()).cx_arm tm delay
let cancel tm = (current ()).cx_cancel tm
let fresh_uid () = (current ()).cx_fresh_uid ()
let note s = (current ()).cx_note s

(* The hosting backend's sink for the calling process, or [None] when
   observability is off or no fiber runs. Call once at module init, not
   per event. *)
let obs () = (current ()).cx_obs ()

let span sink ~parent ~trace name f =
  match sink with
  | None -> f ()
  | Some s ->
      let id = s.obs_span_open ~parent ~trace name in
      let r = f () in
      s.obs_span_close id;
      r

let watch f = (current ()).cx_watch f

let exit_fiber () = raise Exit_fiber

(* Process-local wake-ups ---------------------------------------------- *)

module Wake = struct
  type t = wake

  (* no payload is of this class: a fiber blocked in it waits for a wake or
     its timeout only *)
  let idle = register_class ~name:"idle" (fun _ -> false)

  let create () = { tickets = []; ntickets = 0; prune_at = 8 }

  let register w ticket =
    if w.ntickets >= w.prune_at then begin
      w.tickets <- List.filter (fun tk -> tk false) w.tickets;
      w.ntickets <- List.length w.tickets;
      w.prune_at <- max 8 (2 * w.ntickets)
    end;
    w.tickets <- ticket :: w.tickets;
    w.ntickets <- w.ntickets + 1

  (* Blocked waits end in the order they began; one that blocks again
     meanwhile waits for the next wake. *)
  let wake w =
    match w.tickets with
    | [] -> ()
    | tickets ->
        w.tickets <- [];
        w.ntickets <- 0;
        List.iter (fun tk -> ignore (tk true)) (List.rev tickets)

  let reset w =
    w.tickets <- [];
    w.ntickets <- 0

  let recv w w' ~timeout cls ~filter =
    Effect.perform (E_await (w, w', cls, Some filter, timeout))

  let sleep w w' timeout =
    ignore (Effect.perform (E_await (w, w', idle, None, timeout)))

  let until w ready =
    while not (ready ()) do
      sleep w w Float.infinity
    done
end
