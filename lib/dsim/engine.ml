open Runtime
open Types
module ER = Runtime.Etx_runtime

(* The engine is one backend of the Etx_runtime substrate: the effect
   declarations, message-class registry and fiber-side wrappers live in
   Runtime.Etx_runtime and are re-exported here so existing [Dsim.Engine]
   call sites keep working. The adapter packaging an engine as a runtime
   capability is {!Runtime_sim.of_engine}. *)

exception Exit_fiber = ER.Exit_fiber

type netmodel = ER.netmodel

let default_net = ER.default_net

type event = { at : time; seq : int; run : unit -> unit }

(* Message classes: global, backend-independent registry (see
   Etx_runtime). *)

type cls = ER.cls

let register_class = ER.register_class
let class_name = ER.class_name
let classify = ER.classify
let registered_classes = ER.registered_classes

type waiter = {
  wfilter : (message -> bool) option;  (** [None]: any message of the class *)
  wk : (message option, unit) Effect.Deep.continuation;
}

type proc = {
  pid : proc_id;
  pname : string;
  mutable up : bool;
  mutable incarnation : int;
  mailbox : message Cq.t;  (** oldest first, bucketed by class *)
  waiters : waiter Cq.t;  (** registration order, bucketed by class *)
  main : recovery:bool -> unit -> unit;
  psink : ER.obs_sink option;  (** per-process obs sink, built at spawn *)
}

type t = {
  mutable vnow : time;
  queue : event Heap.t;
  mutable seq : int;
  mutable procs : proc array;
  mutable nprocs : int;
  grng : Rng.t;
  net_rng : Rng.t;
  mutable net : netmodel;
  tracer : Trace.t;
  trace_on : bool;  (** guards event construction, not just recording *)
  mutable next_msg_id : int;
  mutable next_uid : int;
  mutable nevents : int;  (** events executed by {!step}, for throughput *)
  mutable current : proc option;
  mutable stopping : bool;
  obs : Obs.Registry.t option;
      (** opt-in observability; [None] keeps every instrument site on the
          single-branch disabled path *)
}

let create ?(seed = 0xC0FFEE) ?(net = default_net) ?(tracing = true) ?obs () =
  let grng = Rng.create ~seed in
  {
    vnow = 0.;
    queue =
      Heap.create
        ~leq:(fun a b -> a.at < b.at || (a.at = b.at && a.seq <= b.seq))
        ();
    seq = 0;
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
    current = None;
    stopping = false;
    obs;
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

let schedule t ~delay run =
  assert (delay >= 0.);
  t.seq <- t.seq + 1;
  Heap.push t.queue { at = t.vnow +. delay; seq = t.seq; run }

let proc_of t pid =
  if pid < 0 || pid >= t.nprocs then
    invalid_arg (Printf.sprintf "Engine: unknown process %d" pid);
  t.procs.(pid)

let name_of t pid = (proc_of t pid).pname
let is_up t pid = (proc_of t pid).up

(* Running fibers ----------------------------------------------------- *)

let rec handler : t -> proc -> (unit, unit) Effect.Deep.handler =
 fun t p ->
  let open Effect.Deep in
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
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | ER.E_now -> Some (fun (k : (a, unit) continuation) -> continue k t.vnow)
        | ER.E_self -> Some (fun k -> continue k p.pid)
        | ER.E_random_float bound ->
            Some (fun k -> continue k (Rng.float t.grng bound))
        | ER.E_random_int bound ->
            Some (fun k -> continue k (Rng.int t.grng bound))
        | ER.E_fresh_uid ->
            Some
              (fun k ->
                t.next_uid <- t.next_uid + 1;
                continue k t.next_uid)
        | ER.E_obs -> Some (fun k -> continue k p.psink)
        | ER.E_note s ->
            Some
              (fun k ->
                if t.trace_on then
                  Trace.record t.tracer t.vnow (Trace.Note (p.pid, s));
                (match p.psink with
                | None -> ()
                | Some s' -> s'.ER.obs_event ~trace:0 "note" s);
                continue k ())
        | ER.E_sleep d ->
            Some
              (fun k ->
                let inc = p.incarnation in
                schedule t ~delay:d (fun () ->
                    if p.up && p.incarnation = inc then resume t p k ()))
        | ER.E_work (label, d) ->
            Some
              (fun k ->
                if t.trace_on then
                  Trace.record t.tracer t.vnow (Trace.Work (p.pid, label, d));
                (match p.psink with
                | None -> ()
                | Some s -> s.ER.obs_observe ("work." ^ label) d);
                let inc = p.incarnation in
                schedule t ~delay:d (fun () ->
                    if p.up && p.incarnation = inc then resume t p k ()))
        | ER.E_send (dst, payload) ->
            Some
              (fun k ->
                transmit t ~src:p.pid ~dst payload;
                continue k ())
        | ER.E_redeliver (src, payload) ->
            Some
              (fun k ->
                let m =
                  {
                    src;
                    dst = p.pid;
                    payload;
                    msg_id = fresh_msg_id t;
                    sent_at = t.vnow;
                  }
                in
                enqueue_message t p m;
                continue k ())
        | ER.E_recv (cls, filter, timeout) ->
            Some
              (fun k ->
                let taken =
                  match (cls, filter) with
                  | Some c, None -> Cq.pop_cls p.mailbox c
                  | Some c, Some f -> Cq.take_first_in_cls p.mailbox c f
                  | None, Some f -> Cq.take_first p.mailbox f
                  | None, None -> Cq.pop p.mailbox
                in
                match taken with
                | Some m -> continue k (Some m)
                | None -> (
                    let wcls = match cls with Some c -> c | None -> -1 in
                    let node =
                      Cq.push p.waiters ~cls:wcls { wfilter = filter; wk = k }
                    in
                    match timeout with
                    | None -> ()
                    | Some d ->
                        let inc = p.incarnation in
                        schedule t ~delay:d (fun () ->
                            if p.up && p.incarnation = inc then
                              if Cq.remove p.waiters node then
                                resume t p (Cq.node_value node).wk None)))
        | ER.E_fork (fname, f) ->
            Some
              (fun k ->
                let inc = p.incarnation in
                schedule t ~delay:0. (fun () ->
                    if p.up && p.incarnation = inc then run_fiber t p f);
                if t.trace_on then
                  Trace.record t.tracer t.vnow
                    (Trace.Note (p.pid, "fork " ^ fname));
                continue k ())
        | _ -> None);
  }

and resume : 'a. t -> proc -> ('a, unit) Effect.Deep.continuation -> 'a -> unit
    =
 fun t p k v ->
  let saved = t.current in
  t.current <- Some p;
  Effect.Deep.continue k v;
  t.current <- saved

and run_fiber t p f =
  let saved = t.current in
  t.current <- Some p;
  Effect.Deep.match_with f () (handler t p);
  t.current <- saved

and fresh_msg_id t =
  t.next_msg_id <- t.next_msg_id + 1;
  t.next_msg_id

and enqueue_message t p m =
  if t.trace_on then Trace.record t.tracer t.vnow (Trace.Delivered m);
  (* A message of class [c] can be claimed by a class-[c] waiter or by a
     legacy predicate (unclassed) waiter; of the acceptors, the one that
     registered first wins — exactly the old single-list scan order. *)
  let c = classify m.payload in
  let accepts (w : waiter) =
    match w.wfilter with None -> true | Some f -> f m
  in
  let cand_u = Cq.first_matching_in_cls p.waiters (-1) accepts in
  let cand_c =
    if c >= 0 then Cq.first_matching_in_cls p.waiters c accepts else None
  in
  let best =
    match (cand_u, cand_c) with
    | None, x | x, None -> x
    | Some a, Some b ->
        if Cq.node_seq a <= Cq.node_seq b then Some a else Some b
  in
  match best with
  | None -> ignore (Cq.push p.mailbox ~cls:c m)
  | Some n ->
      ignore (Cq.remove p.waiters n);
      resume t p (Cq.node_value n).wk (Some m)

and transmit t ~src ~dst payload =
  let m = { src; dst; payload; msg_id = fresh_msg_id t; sent_at = t.vnow } in
  let delays =
    if src = dst then [ 0.001 ] else t.net t.net_rng ~src ~dst
  in
  (* Per-class traffic counters, keyed by the classifier's class name so
     the sim and live dumps line up metric-for-metric. *)
  let clsname () = class_name (classify payload) in
  match delays with
  | [] ->
      if t.trace_on then Trace.record t.tracer t.vnow (Trace.Dropped m);
      if t.obs <> None then
        obs_incr t t.procs.(src).pname ("net.dropped." ^ clsname ())
  | delays ->
      List.iter
        (fun d ->
          if t.trace_on then
            Trace.record t.tracer t.vnow (Trace.Sent (m, t.vnow +. d));
          if t.obs <> None then
            obs_incr t t.procs.(src).pname ("net.sent." ^ clsname ());
          schedule t ~delay:d (fun () ->
              match t.procs.(dst).up with
              | true ->
                  if t.obs <> None then
                    obs_incr t t.procs.(dst).pname ("net.recv." ^ clsname ());
                  enqueue_message t t.procs.(dst) m
              | false ->
                  if t.trace_on then
                    Trace.record t.tracer t.vnow (Trace.Dead_letter m);
                  if t.obs <> None then
                    obs_incr t t.procs.(dst).pname
                      ("net.dead_letter." ^ clsname ())))
        delays

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
      waiters = Cq.create ();
      main;
      psink = obs_sink_for t name;
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

let crash t pid =
  let p = proc_of t pid in
  if p.up then begin
    p.up <- false;
    p.incarnation <- p.incarnation + 1;
    Cq.clear p.mailbox;
    Cq.clear p.waiters;
    if t.trace_on then Trace.record t.tracer t.vnow (Trace.Crashed pid);
    obs_event t p.pname "crash" ""
  end

let recover t pid =
  let p = proc_of t pid in
  if not p.up then begin
    p.up <- true;
    p.incarnation <- p.incarnation + 1;
    Cq.clear p.mailbox;
    Cq.clear p.waiters;
    if t.trace_on then Trace.record t.tracer t.vnow (Trace.Recovered pid);
    obs_event t p.pname "recover" "";
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

let step t =
  match Heap.pop t.queue with
  | None -> None
  | Some ev ->
      assert (ev.at >= t.vnow);
      t.vnow <- ev.at;
      t.nevents <- t.nevents + 1;
      ev.run ();
      Some ev.at

let run ?deadline t =
  t.stopping <- false;
  let over at = match deadline with None -> false | Some d -> at > d in
  let rec loop () =
    if t.stopping then Stopped
    else
      match Heap.peek t.queue with
      | None -> Quiescent
      | Some ev when over ev.at ->
          (match deadline with Some d -> t.vnow <- d | None -> ());
          Deadline_reached
      | Some _ ->
          ignore (step t);
          loop ()
  in
  loop ()

let run_until ?deadline t pred =
  t.stopping <- false;
  let over at = match deadline with None -> false | Some d -> at > d in
  let rec loop () =
    if pred () then true
    else if t.stopping then false
    else
      match Heap.peek t.queue with
      | None -> pred ()
      | Some ev when over ev.at ->
          (match deadline with Some d -> t.vnow <- d | None -> ());
          pred ()
      | Some _ ->
          ignore (step t);
          loop ()
  in
  loop ()

(* Fiber-side wrappers: shared with every backend, re-exported for existing
   call sites. *)

let now = ER.now
let self = ER.self
let sleep = ER.sleep
let work = ER.work
let send = ER.send
let send_all = ER.send_all
let redeliver = ER.redeliver
let recv = ER.recv
let recv_cls = ER.recv_cls
let recv_any = ER.recv_any
let fork = ER.fork
let random_float = ER.random_float
let random_int = ER.random_int
let fresh_uid = ER.fresh_uid
let note = ER.note
let exit_fiber = ER.exit_fiber
