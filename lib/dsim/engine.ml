open Runtime
open Types
module ER = Runtime.Etx_runtime

(* The engine is the one backend of the Etx_runtime substrate, on
   the virtual clock ([run], [run_until]: the simulator) or on the wall
   clock ({!Runtime_live}'s loop over [next_due] and [run_next]). The
   effect declarations, message-class registry and fiber-side operations
   live in Runtime.Etx_runtime; fibers call them there. The adapters
   packaging an engine as a runtime capability are {!Runtime_sim} and
   {!Runtime_live}. *)

exception Exit_fiber = ER.Exit_fiber

type netmodel = ER.netmodel

let default_net = ER.default_net

type proc = {
  pid : proc_id;
  pname : string;
  mutable up : bool;
  mutable incarnation : int;
  mailbox : message Cq.t;  (** oldest first, bucketed by class *)
  mutable waiting : bucket array;
      (** blocked receives by class + 1, registration order; slot 0 holds
          those of any class *)
  mutable wseq : int;  (** registration counter, to compare two buckets *)
  main : recovery:bool -> unit -> unit;
  psink : ER.obs_sink option;  (** per-process obs sink, built at spawn *)
  mutable handler : (unit, unit) Effect.Deep.handler;
      (** built when the process's first fiber runs and shared by all *)
  mutable watcher : (proc_id -> unit) option;
      (** [Etx_runtime.watch]: runs at each other process's crash or
          recovery, until this process crashes *)
  mutable on_msg : (ER.cls * (message -> unit)) list;
      (** [Etx_runtime.on_message] handlers, until a crash or recovery *)
}

and bucket = { mutable head : event; mutable tail : event }

(* What the event queue holds. The common events carry their arguments
   instead of a closure over them. A blocked receive is one [Wait] record:
   the waiter, its node in its class's waiter list and, while queued, its
   own timeout; whatever ends the wait takes the timeout out of the queue.
   [Timer] is an [Etx_runtime.timer]; [wslot] and [tslot] are the entry's
   queue slot, -1 while it is not queued. *)
and event =
  | Nothing
  | Call of (unit -> unit)
  | Deliver of message
  | Resume of {
      rp : proc;
      rinc : int;
      rk : (unit, unit) Effect.Deep.continuation;
    }  (** the end of a sleep or a work *)
  | Start of { sp : proc; sinc : int; sf : unit -> unit }  (** a fork *)
  | Wait of {
      wp : proc;
      wcls : int;
      wseq : int;
      wfilter : (message -> bool) option;
          (** [None]: any message of the class *)
      wk : (message option, unit) Effect.Deep.continuation;
      mutable wslot : int;
      mutable wprev : event;
      mutable wnext : event;
      mutable blocked : bool;  (** linked in [wp.waiting] *)
    }
  | Timer of {
      tp : proc;
      tinc : int;
      tfire : unit -> unit;
      mutable tslot : int;
    }

type ER.timer += Engine_timer of event

type t = {
  mutable vnow : time;  (** boxed once per event, so reading it is free *)
  queue : event Timeq.t;
  mutable procs : proc array;
  mutable nprocs : int;
  grng : Rng.t;
  net_rng : Rng.t;
  mutable net : netmodel;
  tracer : Trace.t;
  trace_on : bool;  (** guards event construction, not just recording *)
  mutable next_msg_id : int;
  mutable next_uid : int;
  mutable nevents : int;  (** events executed by {!advance}, for throughput *)
  mutable stopping : bool;
  obs : Obs.Registry.t option;
      (** opt-in observability; [None] keeps every instrument site on the
          single-branch disabled path *)
  mutable recv_eff : message option Effect.t;
  mutable unit_eff : unit Effect.t;
      (** the effect being handled, read back by the handler's answer *)
  mutable ctx : ER.ctx;  (** installed while a fiber or handler runs *)
  mutable running : proc;  (** whose fiber or handler runs now *)
  mutable in_handler : bool;  (** a message handler, which must not suspend *)
}

(* Placeholders: a process's handler until its first fiber runs, and the
   engine's effect slots between effects. *)
let unset_handler : (unit, unit) Effect.Deep.handler =
  { retc = ignore; exnc = raise; effc = (fun _ -> None) }

let no_recv = ER.E_recv (-1, None, Float.infinity)
let no_unit = ER.E_sleep 0.

(* [running] while nothing runs; never read then, as [ctx] is not
   installed. *)
let no_proc =
  {
    pid = -1;
    pname = "";
    up = false;
    incarnation = 0;
    mailbox = Cq.create ();
    waiting = [||];
    wseq = 0;
    main = (fun ~recovery:_ () -> ());
    psink = None;
    handler = unset_handler;
    watcher = None;
    on_msg = [];
  }

(* Keeps each cancellable entry's queue slot. *)
let moved ev slot =
  match ev with
  | Wait w -> w.wslot <- slot
  | Timer tm -> tm.tslot <- slot
  | Nothing | Call _ | Deliver _ | Resume _ | Start _ -> ()

let make ?(seed = 0xC0FFEE) ?(net = default_net) ?(tracing = true) ?obs () =
  let grng = Rng.create ~seed in
  {
    vnow = 0.;
    queue = Timeq.create ~moved ~dummy:Nothing ();
    procs = [||];
    nprocs = 0;
    grng;
    net_rng = Rng.split grng;
    net;
    tracer = Trace.create ~enabled:tracing ();
    trace_on = tracing;
    next_msg_id = 0;
    nevents = 0;
    (* uids start above any client try counter j so identifiers drawn here
       (transaction ids in the comparison protocols) stay disjoint from j *)
    next_uid = 1000;
    stopping = false;
    obs;
    recv_eff = no_recv;
    unit_eff = no_unit;
    ctx = ER.no_ctx;
    running = no_proc;
    in_handler = false;
  }

let trace t = t.tracer
let obs_registry t = t.obs

(* Registry sink bound to a node name, on the virtual clock. *)
let obs_sink_for t node =
  Option.map
    (fun reg -> Obs.Registry.sink reg ~node ~now:(fun () -> t.vnow))
    t.obs

let obs_incr t node name =
  match t.obs with
  | None -> ()
  | Some reg -> Obs.Registry.incr reg ~node ~name 1

let obs_event t node name detail =
  match t.obs with
  | None -> ()
  | Some reg -> Obs.Registry.event reg ~node ~at:t.vnow ~trace:0 ~name detail
let rng t = t.grng
let set_net t net = t.net <- net
let now_of t = t.vnow
let events_of t = t.nevents

let schedule_ev t ~delay ev =
  assert (delay >= 0.);
  Timeq.push t.queue (t.vnow +. delay) ev

let schedule t ~delay run = schedule_ev t ~delay (Call run)

let proc_of t pid =
  if pid < 0 || pid >= t.nprocs then
    invalid_arg (Printf.sprintf "Engine: unknown process %d" pid);
  t.procs.(pid)

let name_of t pid = (proc_of t pid).pname
let is_up t pid = (proc_of t pid).up

(* Waiter lists ---------------------------------------------------------- *)

let bucket_of p cls =
  let i = cls + 1 in
  let cap = Array.length p.waiting in
  if i >= cap then
    p.waiting <-
      Array.init (max 8 (max (i + 1) (cap * 2))) (fun j ->
          if j < cap then p.waiting.(j)
          else { head = Nothing; tail = Nothing });
  p.waiting.(i)

let link p w =
  match w with
  | Wait r ->
      let b = bucket_of p r.wcls in
      r.wprev <- b.tail;
      (match b.tail with Wait last -> last.wnext <- w | _ -> b.head <- w);
      b.tail <- w
  | _ -> ()

let unlink p = function
  | Wait r ->
      let b = p.waiting.(r.wcls + 1) in
      (match r.wprev with
      | Wait q -> q.wnext <- r.wnext
      | _ -> b.head <- r.wnext);
      (match r.wnext with
      | Wait q -> q.wprev <- r.wprev
      | _ -> b.tail <- r.wprev);
      r.wprev <- Nothing;
      r.wnext <- Nothing;
      r.blocked <- false
  | _ -> ()

let is_blocked = function Wait r -> r.blocked | _ -> false

(* Ends a wait that its timeout did not end: the timeout leaves the
   queue. *)
let end_wait t p w =
  unlink p w;
  match w with
  | Wait r when r.wslot >= 0 -> Timeq.remove t.queue r.wslot
  | _ -> ()

(* A crash or recovery ends every wait of [p] with no answer. *)
let drop_waiters t p =
  let rec drop = function
    | Wait r ->
        let next = r.wnext in
        if r.wslot >= 0 then Timeq.remove t.queue r.wslot;
        r.wprev <- Nothing;
        r.wnext <- Nothing;
        r.blocked <- false;
        drop next
    | _ -> ()
  in
  Array.iter
    (fun b ->
      drop b.head;
      b.head <- Nothing;
      b.tail <- Nothing)
    p.waiting

(* A waiting fiber takes a message when it waits on the message's class or
   on any class, and its filter, if any, accepts it. *)
let accepts m = function None -> true | Some f -> f m

let rec first_accepting m = function
  | Wait r as w -> if accepts m r.wfilter then w else first_accepting m r.wnext
  | _ -> Nothing

let head p cls =
  let i = cls + 1 in
  if i < Array.length p.waiting then p.waiting.(i).head else Nothing

(* Of the waiters that take [m] (class [c]), the one that registered
   first. *)
let claimant p c m =
  let u = first_accepting m (head p (-1)) in
  let w = if c >= 0 then first_accepting m (head p c) else Nothing in
  match u with
  | Nothing -> w
  | Wait a -> ( match w with Wait b when b.wseq < a.wseq -> w | _ -> u)
  | _ -> u

(* Running fibers ----------------------------------------------------- *)

let self_delay = [ 0.001 ]

let handler_suspended () =
  invalid_arg "Etx_runtime.on_message: a message handler must not suspend"

let timer_suspended () =
  invalid_arg "Etx_runtime.timer: a timer callback must not suspend"

let no_handler (_ : message) = ()

let rec handler_for c = function
  | [] -> no_handler
  | (c', f) :: rest -> if c' = c then f else handler_for c rest

let leave t prev_ctx prev_p prev_h =
  t.running <- prev_p;
  t.in_handler <- prev_h;
  ignore (ER.install prev_ctx)

(* Runs [run x y] as [p]'s code ([handling]: its message handler): [t]'s
   context is installed with [p] running until [run] returns, suspends or
   raises, and then what ran before is back. A fiber resumed from inside
   another's call (a redelivery, a wake-up, a crash notice) thus hands the
   context back when it suspends. *)
let within t p ~handling run x y =
  let prev_ctx = ER.install t.ctx in
  let prev_p = t.running and prev_h = t.in_handler in
  t.running <- p;
  t.in_handler <- handling;
  match run x y with
  | () -> leave t prev_ctx prev_p prev_h
  | exception e ->
      leave t prev_ctx prev_p prev_h;
      raise e

let run_main f h = Effect.Deep.match_with f () h

(* Outside every fiber a handler's suspension is unhandled; inside one,
   [effc] refuses it. *)
let apply_handler f m =
  match f m with () -> () | exception Effect.Unhandled _ -> handler_suspended ()

let apply_timer f () =
  match f () with () -> () | exception Effect.Unhandled _ -> timer_suspended ()

(* The handler and its answers are built once per process. An answer that
   needs the effect's arguments reads them from the engine's effect slot:
   [effc] stores the effect there and the runtime calls the answer at once,
   before any fiber can perform another effect, so handling an effect
   allocates no closure over its arguments. Every effect suspends the
   fiber, so a message handler may perform none. *)
let rec handler : t -> proc -> (unit, unit) Effect.Deep.handler =
 fun t p ->
  let open Effect.Deep in
  let recv_ans =
    Some
      (fun (k : (message option, _) continuation) ->
        match t.recv_eff with
        | ER.E_recv (cls, filter, timeout) ->
            t.recv_eff <- no_recv;
            receive t p k cls filter timeout
        | ER.E_await (w, w', cls, filter, timeout) ->
            t.recv_eff <- no_recv;
            await t p k w w' cls filter timeout
        | _ -> assert false)
  in
  let unit_ans =
    Some
      (fun (k : (unit, _) continuation) ->
        let eff = t.unit_eff in
        t.unit_eff <- no_unit;
        perform_unit t p k eff)
  in
  let stash eff =
    if t.in_handler then handler_suspended ();
    t.unit_eff <- eff;
    unit_ans
  in
  let stash_recv eff =
    if t.in_handler then handler_suspended ();
    t.recv_eff <- eff;
    recv_ans
  in
  {
    retc = (fun () -> ());
    exnc =
      (fun e ->
        match e with
        | Exit_fiber -> ()
        | e ->
            (* A protocol bug: abort the whole simulation loudly. *)
            raise e);
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) continuation -> unit) option ->
        match eff with
        | ER.E_recv _ -> stash_recv eff
        | ER.E_await _ -> stash_recv eff
        | ER.E_sleep _ -> stash eff
        | ER.E_work _ -> stash eff
        | _ -> None);
  }

and perform_unit :
    t -> proc -> (unit, unit) Effect.Deep.continuation -> unit Effect.t -> unit
    =
 fun t p k -> function
  | ER.E_sleep d -> wake_after t p k d
  | ER.E_work (label, d) ->
      if t.trace_on then
        Trace.record t.tracer t.vnow (Trace.Work (p.pid, label, d));
      (match p.psink with
      | None -> ()
      | Some s -> s.ER.obs_observe ("work." ^ label) d);
      wake_after t p k d
  | _ -> assert false

and wake_after : t -> proc -> (unit, unit) Effect.Deep.continuation -> time -> unit =
 fun t p k d ->
  schedule_ev t ~delay:d (Resume { rp = p; rinc = p.incarnation; rk = k })

(* Resumes a fiber of [p] with [p]'s context installed. *)
and resume : 'a. t -> proc -> ('a, unit) Effect.Deep.continuation -> 'a -> unit =
 fun t p k v -> within t p ~handling:false Effect.Deep.continue k v

(* The caller is [p]'s fiber, so its context is the installed one. *)
and receive :
    t ->
    proc ->
    (message option, unit) Effect.Deep.continuation ->
    ER.cls ->
    (message -> bool) option ->
    time ->
    unit =
 fun t p k cls filter timeout ->
  let taken = ER.take_message p.mailbox cls filter in
  match taken with
  | Some _ -> Effect.Deep.continue k taken
  | None -> ignore (block t p k cls filter timeout)

(* Queue a waiter whose receive found nothing, with its timeout. *)
and block t p k cls filter timeout =
  p.wseq <- p.wseq + 1;
  let w =
    Wait
      {
        wp = p;
        wcls = cls;
        wseq = p.wseq;
        wfilter = filter;
        wk = k;
        wslot = -1;
        wprev = Nothing;
        wnext = Nothing;
        blocked = true;
      }
  in
  link p w;
  if timeout < Float.infinity then schedule_ev t ~delay:timeout w;
  w

(* A receive that a wake of [w] or [w'] also ends: the ticket left with
   each ends the wait the way its timeout would. *)
and await t p k w w' cls filter timeout =
  let taken = ER.take_message p.mailbox cls filter in
  match taken with
  | Some _ -> Effect.Deep.continue k taken
  | None ->
      let wt = block t p k cls filter timeout in
      let ticket fire =
        is_blocked wt
        && begin
             if fire then begin
               end_wait t p wt;
               resume t p k None
             end;
             true
           end
      in
      ER.Wake.register w ticket;
      if w' != w then ER.Wake.register w' ticket

and run_fiber t p f =
  if p.handler == unset_handler then p.handler <- handler t p;
  within t p ~handling:false run_main f p.handler

(* Runs [p]'s message handler [f] on [m], with [p]'s context installed. *)
and handle t p f m = within t p ~handling:true apply_handler f m

and fresh_msg_id t =
  t.next_msg_id <- t.next_msg_id + 1;
  t.next_msg_id

and enqueue_message t p m =
  if t.trace_on then Trace.record t.tracer t.vnow (Trace.Delivered m);
  (* A message of class [c] goes to [p]'s handler of the class if it has
     one. Otherwise it can be claimed by a class-[c] waiter or by a legacy
     predicate (unclassed) waiter; of the acceptors, the one that
     registered first wins — exactly the old single-list scan order. *)
  let c = ER.classify m.payload in
  let f = handler_for c p.on_msg in
  if f != no_handler then handle t p f m
  else
    match claimant p c m with
    | Wait r as w ->
        end_wait t p w;
        resume t p r.wk (Some m)
    | _ -> Cq.push p.mailbox ~cls:c m

(* Per-class traffic counters are keyed by the classifier's class name so
   the sim and live dumps line up metric-for-metric. *)
and count_net t pid what m =
  obs_incr t t.procs.(pid).pname
    (what ^ ER.class_name (ER.classify m.payload))

and transmit t ~src ~dst payload =
  let m = { src; dst; payload; msg_id = fresh_msg_id t; sent_at = t.vnow } in
  match if src = dst then self_delay else t.net t.net_rng ~src ~dst with
  | [] ->
      if t.trace_on then Trace.record t.tracer t.vnow (Trace.Dropped m);
      if t.obs <> None then count_net t src "net.dropped." m
  | delays -> send_copies t m (Deliver m) delays

(* One event per copy, all sharing the transmit's one [Deliver]. *)
and send_copies t m deliver_m = function
  | [] -> ()
  | d :: rest ->
      if t.trace_on then
        Trace.record t.tracer t.vnow (Trace.Sent (m, t.vnow +. d));
      if t.obs <> None then count_net t m.src "net.sent." m;
      schedule_ev t ~delay:d deliver_m;
      send_copies t m deliver_m rest

and deliver t m =
  let p = t.procs.(m.dst) in
  if p.up then begin
    if t.obs <> None then count_net t m.dst "net.recv." m;
    enqueue_message t p m
  end
  else begin
    if t.trace_on then Trace.record t.tracer t.vnow (Trace.Dead_letter m);
    if t.obs <> None then count_net t m.dst "net.dead_letter." m
  end

let dispatch t = function
  | Deliver m -> deliver t m
  | Resume r ->
      if r.rp.up && r.rp.incarnation = r.rinc then resume t r.rp r.rk ()
  | Wait r as w ->
      if r.blocked then begin
        unlink r.wp w;
        resume t r.wp r.wk None
      end
  | Timer r ->
      if r.tp.up && r.tp.incarnation = r.tinc then
        within t r.tp ~handling:true apply_timer r.tfire ()
  | Start r ->
      if r.sp.up && r.sp.incarnation = r.sinc then run_fiber t r.sp r.sf
  | Call f -> f ()
  | Nothing -> ()

let timer_event = function
  | Engine_timer ev -> ev
  | _ -> invalid_arg "Etx_runtime: not a timer of this engine"

let cancel t tm =
  match timer_event tm with
  | Timer r when r.tslot >= 0 -> Timeq.remove t.queue r.tslot
  | _ -> ()

let arm t tm delay =
  cancel t tm;
  schedule_ev t ~delay (timer_event tm)

(* Registers [p]'s handler of class [cls] and hands it what the mailbox
   already holds of the class. *)
let on_message t p cls f =
  if List.mem_assoc cls p.on_msg then
    invalid_arg
      (Printf.sprintf "Etx_runtime.on_message: %s already handles class %s"
         p.pname (ER.class_name cls));
  p.on_msg <- (cls, f) :: p.on_msg;
  let rec drain () =
    match Cq.pop_cls p.mailbox cls with
    | None -> ()
    | Some m ->
        handle t p f m;
        drain ()
  in
  drain ()

(* The engine's answers to the fiber-side operations that never suspend,
   for whichever process [running] names. *)
let context t =
  {
    ER.cx_now = (fun () -> t.vnow);
    cx_self = (fun () -> t.running.pid);
    cx_send = (fun dst payload -> transmit t ~src:t.running.pid ~dst payload);
    cx_redeliver =
      (fun src payload ->
        let p = t.running in
        enqueue_message t p
          { src; dst = p.pid; payload; msg_id = fresh_msg_id t; sent_at = t.vnow });
    cx_fork =
      (fun fname f ->
        let p = t.running in
        schedule_ev t ~delay:0.
          (Start { sp = p; sinc = p.incarnation; sf = f });
        if t.trace_on then
          Trace.record t.tracer t.vnow (Trace.Note (p.pid, "fork " ^ fname)));
    cx_watch = (fun f -> t.running.watcher <- Some f);
    cx_on_message = (fun cls f -> on_message t t.running cls f);
    cx_timer =
      (fun f ->
        let p = t.running in
        Engine_timer
          (Timer { tp = p; tinc = p.incarnation; tfire = f; tslot = -1 }));
    cx_arm = (fun tm delay -> arm t tm delay);
    cx_cancel = (fun tm -> cancel t tm);
    cx_fresh_uid =
      (fun () ->
        t.next_uid <- t.next_uid + 1;
        t.next_uid);
    cx_note =
      (fun s ->
        let p = t.running in
        if t.trace_on then Trace.record t.tracer t.vnow (Trace.Note (p.pid, s));
        match p.psink with
        | None -> ()
        | Some s' -> s'.ER.obs_event ~trace:0 "note" s);
    cx_obs = (fun () -> t.running.psink);
  }

let create ?seed ?net ?tracing ?obs () =
  let t = make ?seed ?net ?tracing ?obs () in
  t.ctx <- context t;
  t

(* Orchestration ------------------------------------------------------ *)

let spawn t ~name ~main =
  let pid = t.nprocs in
  let p =
    {
      pid;
      pname = name;
      up = true;
      incarnation = 0;
      mailbox = Cq.create ();
      waiting = [||];
      wseq = 0;
      main;
      psink = obs_sink_for t name;
      handler = unset_handler;
      watcher = None;
      on_msg = [];
    }
  in
  let capacity = Array.length t.procs in
  if t.nprocs = capacity then begin
    let procs' = Array.make (max 8 (capacity * 2)) p in
    Array.blit t.procs 0 procs' 0 t.nprocs;
    t.procs <- procs'
  end;
  t.procs.(t.nprocs) <- p;
  t.nprocs <- t.nprocs + 1;
  if t.trace_on then Trace.record t.tracer t.vnow (Trace.Spawned (pid, name));
  schedule t ~delay:0. (fun () ->
      if p.up && p.incarnation = 0 then run_fiber t p (main ~recovery:false));
  pid

(* The crash or recovery notice: every other live process's watcher runs
   now, as a fiber of that process. *)
let notify t p =
  for i = 0 to t.nprocs - 1 do
    let q = t.procs.(i) in
    match q.watcher with
    | Some f when q.up && q != p -> run_fiber t q (fun () -> f p.pid)
    | Some _ | None -> ()
  done

let crash t pid =
  let p = proc_of t pid in
  if p.up then begin
    p.up <- false;
    p.incarnation <- p.incarnation + 1;
    p.watcher <- None;
    p.on_msg <- [];
    Cq.clear p.mailbox;
    drop_waiters t p;
    if t.trace_on then Trace.record t.tracer t.vnow (Trace.Crashed pid);
    obs_event t p.pname "crash" "";
    notify t p
  end

let recover t pid =
  let p = proc_of t pid in
  if not p.up then begin
    p.up <- true;
    p.incarnation <- p.incarnation + 1;
    p.on_msg <- [];
    Cq.clear p.mailbox;
    drop_waiters t p;
    if t.trace_on then Trace.record t.tracer t.vnow (Trace.Recovered pid);
    obs_event t p.pname "recover" "";
    notify t p;
    let inc = p.incarnation in
    schedule t ~delay:0. (fun () ->
        if p.up && p.incarnation = inc then
          run_fiber t p (p.main ~recovery:true))
  end

let crash_at t at pid =
  let delay = Float.max 0. (at -. t.vnow) in
  schedule t ~delay (fun () -> crash t pid)

let recover_at t at pid =
  let delay = Float.max 0. (at -. t.vnow) in
  schedule t ~delay (fun () -> recover t pid)

let mailbox_length t ?cls pid =
  let p = proc_of t pid in
  match cls with
  | None -> Cq.length p.mailbox
  | Some c -> Cq.cls_length p.mailbox c

let post t ~src ~dst payload = transmit t ~src ~dst payload

type outcome = Quiescent | Deadline_reached | Stopped

let stop t = t.stopping <- true

(* Runs the earliest event if it is due by [limit]; otherwise says why
   none ran. *)
let advance t limit =
  if Timeq.is_empty t.queue then Some Quiescent
  else
    let at = Timeq.min_time t.queue in
    if at > limit then begin
      t.vnow <- limit;
      Some Deadline_reached
    end
    else begin
      let ev = Timeq.pop t.queue in
      assert (at >= t.vnow);
      t.vnow <- at;
      t.nevents <- t.nevents + 1;
      dispatch t ev;
      None
    end

let run ?deadline t =
  t.stopping <- false;
  let limit = Option.value deadline ~default:Float.infinity in
  let rec loop () =
    if t.stopping then Stopped
    else match advance t limit with None -> loop () | Some why -> why
  in
  loop ()

let next_due t =
  if Timeq.is_empty t.queue then Float.infinity else Timeq.min_time t.queue

let run_next t ~at =
  let ev = Timeq.pop t.queue in
  t.vnow <- Float.max t.vnow at;
  t.nevents <- t.nevents + 1;
  dispatch t ev

let run_until ?deadline t pred =
  t.stopping <- false;
  let limit = Option.value deadline ~default:Float.infinity in
  let rec loop () =
    if pred () then true
    else if t.stopping then false
    else match advance t limit with None -> loop () | Some _ -> pred ()
  in
  loop ()
