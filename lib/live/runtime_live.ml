open Runtime
open Types
module ER = Etx_runtime

(* The wall-clock backend: every protocol fiber is an OS thread (OCaml
   systhreads — one domain, so the runtime lock serialises OCaml execution
   and thread switches happen at blocking points), the virtual clock is
   [Unix.gettimeofday] relative to the run's start, and the network is an
   in-process transport that reuses the same [netmodel] delay/drop
   distributions as the simulator, realised with real timers.

   Concurrency discipline. Each process owns two mutexes:

   - [rlock] serialises the process's fibers: a fiber holds it from start to
     exit, releasing it only while blocked in [sleep]/[work]/[recv]. Within
     one process this restores the simulator's cooperative interleaving —
     protocol state is only touched by one fiber at a time.
   - [mlock] + [cond] protect the mailbox and the up/incarnation flags;
     deliveries, timer wake-ups and crash/recover signal [cond].

   Lock order is rlock -> mlock -> (t.lock | t.tlock); the leaf locks are
   never held while taking a proc lock.

   Crash semantics: [crash] flips [up], bumps the incarnation and clears the
   mailbox under [mlock] — it does not stop threads. Every effect checks
   aliveness and a dead fiber is discontinued with [Exit_fiber] at its next
   effect boundary (blocked fibers are woken and die immediately). A crashed
   process can thus execute a few more pure instructions than its simulated
   twin; it can no longer observe the runtime or send through it.

   What is lost relative to the simulator: determinism. Message arrival
   interleavings, the winner among same-class receivers, and timer firing
   order all depend on real scheduling, so live runs are for smoke/soak
   validation — correctness properties, not reproducible traces. *)

type blocked = Got_msg of message | Got_unit | Timed_out | Dead

type lproc = {
  pid : proc_id;
  pname : string;
  mutable up : bool;
  mutable inc : int;  (** incarnation; bumped by crash and recover *)
  mlock : Mutex.t;
  cond : Condition.t;
  mailbox : message Cq.t;
  rlock : Mutex.t;
  pmain : recovery:bool -> unit -> unit;
  psink : ER.obs_sink option;  (** per-process obs sink, built at spawn *)
}

type t = {
  lock : Mutex.t;  (** procs array, uids, msg ids, notes, net, rngs *)
  mutable procs : lproc array;
  mutable nprocs : int;
  mutable net : ER.netmodel;
  grng : Rng.t;
  net_rng : Rng.t;
  mutable next_uid : int;
  mutable next_msg_id : int;
  mutable notes_rev : (proc_id * string) list;
  mutable t0 : float;
  mutable started : bool;
  started_lock : Mutex.t;
  started_cond : Condition.t;
  timers : (unit -> unit) Timeq.t;  (** due on the wall clock, seconds *)
  tlock : Mutex.t;
  mutable stopped : bool;
  mutable failure : exn option;
  obs : Obs.Registry.t option;
      (** opt-in observability; [None] keeps every instrument site on the
          single-branch disabled path *)
}

let tick = 0.002 (* s; granularity of the timer thread and of [run_until] *)

let create ?(seed = 0xC0FFEE) ?(net = ER.default_net) ?obs () =
  let grng = Rng.create ~seed in
  {
    lock = Mutex.create ();
    procs = [||];
    nprocs = 0;
    net;
    grng;
    net_rng = Rng.split grng;
    (* same floor as the simulator: uids stay disjoint from try counters *)
    next_uid = 1000;
    next_msg_id = 0;
    notes_rev = [];
    t0 = 0.;
    started = false;
    started_lock = Mutex.create ();
    started_cond = Condition.create ();
    timers = Timeq.create ~dummy:ignore ();
    tlock = Mutex.create ();
    stopped = false;
    failure = None;
    obs;
  }

let now_ms t = if t.started then (Unix.gettimeofday () -. t.t0) *. 1000. else 0.

let obs_registry t = t.obs

(* Registry sink bound to a node name, on this run's wall clock. *)
let obs_sink_for t node =
  Option.map
    (fun reg -> Obs.Registry.sink reg ~node ~now:(fun () -> now_ms t))
    t.obs

let obs_incr t node name =
  match t.obs with
  | None -> ()
  | Some reg -> Obs.Registry.incr reg ~node ~name 1

let obs_event t node name detail =
  match t.obs with
  | None -> ()
  | Some reg ->
      Obs.Registry.event reg ~node ~at:(now_ms t) ~trace:0 ~name detail

let proc_of t pid =
  Mutex.lock t.lock;
  let n = t.nprocs in
  let p = if pid >= 0 && pid < n then Some t.procs.(pid) else None in
  Mutex.unlock t.lock;
  match p with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Runtime_live: unknown process %d" pid)

let name_of t pid = (proc_of t pid).pname
let is_up t pid = (proc_of t pid).up

let record_failure t e =
  Mutex.lock t.lock;
  (match t.failure with None -> t.failure <- Some e | Some _ -> ());
  Mutex.unlock t.lock

(* Timers --------------------------------------------------------------- *)

let push_timer t ~due action =
  Mutex.lock t.tlock;
  Timeq.push t.timers due action;
  Mutex.unlock t.tlock

let push_timer_ms t ~after_ms action =
  push_timer t ~due:(Unix.gettimeofday () +. (Float.max 0. after_ms /. 1000.)) action

let rec timer_loop t =
  let now = Unix.gettimeofday () in
  Mutex.lock t.tlock;
  let stop = t.stopped in
  let rec drain acc =
    if (not (Timeq.is_empty t.timers)) && Timeq.min_time t.timers <= now then
      drain (Timeq.pop t.timers :: acc)
    else acc
  in
  let actions = drain [] in
  Mutex.unlock t.tlock;
  (* fire outside tlock: actions take proc mlocks *)
  List.iter (fun a -> a ()) (List.rev actions);
  if not stop then begin
    Thread.delay tick;
    timer_loop t
  end

(* Start barrier: spawned fibers wait here so that, as in the simulator,
   nothing executes before the run is driven. *)

let wait_started t =
  Mutex.lock t.started_lock;
  while not t.started do
    Condition.wait t.started_cond t.started_lock
  done;
  Mutex.unlock t.started_lock

let start t =
  Mutex.lock t.started_lock;
  if not t.started then begin
    t.t0 <- Unix.gettimeofday ();
    t.started <- true;
    Condition.broadcast t.started_cond;
    ignore (Thread.create timer_loop t)
  end;
  Mutex.unlock t.started_lock

(* Transport ------------------------------------------------------------ *)

let deliver t dst m =
  match proc_of t dst with
  | exception Invalid_argument _ -> ()
  | p ->
      Mutex.lock p.mlock;
      let was_up = p.up in
      if p.up then begin
        ignore (Cq.push p.mailbox ~cls:(ER.classify m.payload) m);
        Condition.broadcast p.cond
      end;
      (* down: silently dropped, as in the simulator's dead-letter path *)
      Mutex.unlock p.mlock;
      if t.obs <> None then begin
        let cn = ER.class_name (ER.classify m.payload) in
        obs_incr t p.pname
          ((if was_up then "net.recv." else "net.dead_letter.") ^ cn)
      end

let transmit t ~src ~dst payload =
  Mutex.lock t.lock;
  t.next_msg_id <- t.next_msg_id + 1;
  let msg_id = t.next_msg_id in
  let delays =
    if src = dst then [ 0.001 ] else t.net t.net_rng ~src ~dst
  in
  Mutex.unlock t.lock;
  let m = { src; dst; payload; msg_id; sent_at = now_ms t } in
  if t.obs <> None then begin
    let cn = ER.class_name (ER.classify payload) in
    let sname = (proc_of t src).pname in
    match delays with
    | [] -> obs_incr t sname ("net.dropped." ^ cn)
    | ds -> List.iter (fun _ -> obs_incr t sname ("net.sent." ^ cn)) ds
  end;
  (* [] means the network dropped every copy *)
  List.iter (fun d -> push_timer_ms t ~after_ms:d (fun () -> deliver t dst m)) delays

(* Fibers --------------------------------------------------------------- *)

let alive t p inc = (not t.stopped) && p.up && p.inc = inc

(* Block the calling fiber until [ready] yields, the deadline passes, or the
   process dies. Releases [rlock] for the duration so sibling fibers run. *)
let block t p inc ?deadline ~ready () =
  Mutex.unlock p.rlock;
  Mutex.lock p.mlock;
  let rec wait () =
    if not (alive t p inc) then Dead
    else
      match ready () with
      | Some r -> r
      | None -> (
          match deadline with
          | Some dw when Unix.gettimeofday () >= dw -> Timed_out
          | _ ->
              Condition.wait p.cond p.mlock;
              wait ())
  in
  let r = wait () in
  Mutex.unlock p.mlock;
  Mutex.lock p.rlock;
  if alive t p inc then r else Dead

let wake p () =
  Mutex.lock p.mlock;
  Condition.broadcast p.cond;
  Mutex.unlock p.mlock

let rec handler t p inc : (unit, unit) Effect.Deep.handler =
  let open Effect.Deep in
  let pause k d =
    (* sleep and work are the same thing on a wall clock *)
    let fired = ref false in
    push_timer_ms t ~after_ms:d (fun () ->
        Mutex.lock p.mlock;
        fired := true;
        Condition.broadcast p.cond;
        Mutex.unlock p.mlock);
    let ready () = if !fired then Some Got_unit else None in
    match block t p inc ~ready () with
    | Dead -> discontinue k ER.Exit_fiber
    | _ -> continue k ()
  in
  {
    retc = (fun () -> ());
    exnc =
      (fun e ->
        match e with
        | ER.Exit_fiber -> ()
        | e ->
            (* a protocol bug: park it for [run_until] to re-raise *)
            record_failure t e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        let guarded (f : (a, unit) continuation -> unit) =
          Some
            (fun (k : (a, unit) continuation) ->
              if alive t p inc then f k else discontinue k ER.Exit_fiber)
        in
        match eff with
        | ER.E_now -> guarded (fun k -> continue k (now_ms t))
        | ER.E_self -> guarded (fun k -> continue k p.pid)
        | ER.E_random_float bound ->
            guarded (fun k ->
                Mutex.lock t.lock;
                let v = Rng.float t.grng bound in
                Mutex.unlock t.lock;
                continue k v)
        | ER.E_random_int bound ->
            guarded (fun k ->
                Mutex.lock t.lock;
                let v = Rng.int t.grng bound in
                Mutex.unlock t.lock;
                continue k v)
        | ER.E_fresh_uid ->
            guarded (fun k ->
                Mutex.lock t.lock;
                t.next_uid <- t.next_uid + 1;
                let v = t.next_uid in
                Mutex.unlock t.lock;
                continue k v)
        | ER.E_obs -> guarded (fun k -> continue k p.psink)
        | ER.E_note s ->
            guarded (fun k ->
                Mutex.lock t.lock;
                t.notes_rev <- (p.pid, s) :: t.notes_rev;
                Mutex.unlock t.lock;
                (match p.psink with
                | None -> ()
                | Some s' -> s'.ER.obs_event ~trace:0 "note" s);
                continue k ())
        | ER.E_sleep d -> guarded (fun k -> pause k d)
        | ER.E_work (label, d) ->
            guarded (fun k ->
                (match p.psink with
                | None -> ()
                | Some s -> s.ER.obs_observe ("work." ^ label) d);
                pause k d)
        | ER.E_send (dst, payload) ->
            guarded (fun k ->
                transmit t ~src:p.pid ~dst payload;
                continue k ())
        | ER.E_redeliver (src, payload) ->
            guarded (fun k ->
                Mutex.lock t.lock;
                t.next_msg_id <- t.next_msg_id + 1;
                let msg_id = t.next_msg_id in
                Mutex.unlock t.lock;
                let m =
                  { src; dst = p.pid; payload; msg_id; sent_at = now_ms t }
                in
                Mutex.lock p.mlock;
                ignore (Cq.push p.mailbox ~cls:(ER.classify payload) m);
                Condition.broadcast p.cond;
                Mutex.unlock p.mlock;
                continue k ())
        | ER.E_recv (cls, filter, timeout) ->
            guarded (fun k ->
                Mutex.lock p.mlock;
                let first = ER.take_message p.mailbox cls filter in
                Mutex.unlock p.mlock;
                match first with
                | Some m -> continue k (Some m)
                | None -> (
                    let deadline =
                      if timeout = Float.infinity then None
                      else Some (Unix.gettimeofday () +. (timeout /. 1000.))
                    in
                    (match deadline with
                    | Some dw -> push_timer t ~due:dw (wake p)
                    | None -> ());
                    let ready () =
                      Option.map
                        (fun m -> Got_msg m)
                        (ER.take_message p.mailbox cls filter)
                    in
                    match block t p inc ?deadline ~ready () with
                    | Got_msg m -> continue k (Some m)
                    | Timed_out -> continue k None
                    | Dead | Got_unit -> discontinue k ER.Exit_fiber))
        | ER.E_fork (_fname, f) ->
            guarded (fun k ->
                ignore (Thread.create (fun () -> run_fiber t p inc f) ());
                continue k ())
        | _ -> None);
  }

and run_fiber t p inc f =
  Mutex.lock p.rlock;
  if alive t p inc then Effect.Deep.match_with f () (handler t p inc);
  Mutex.unlock p.rlock

(* Orchestration -------------------------------------------------------- *)

let spawn t ~name ~main =
  let p =
    Mutex.lock t.lock;
    let pid = t.nprocs in
    let p =
      {
        pid;
        pname = name;
        up = true;
        inc = 0;
        mlock = Mutex.create ();
        cond = Condition.create ();
        mailbox = Cq.create ();
        rlock = Mutex.create ();
        pmain = main;
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
    Mutex.unlock t.lock;
    p
  in
  ignore
    (Thread.create
       (fun () ->
         wait_started t;
         run_fiber t p 0 (main ~recovery:false))
       ());
  p.pid

let crash t pid =
  let p = proc_of t pid in
  Mutex.lock p.mlock;
  let crashed = p.up in
  if p.up then begin
    p.up <- false;
    p.inc <- p.inc + 1;
    Cq.clear p.mailbox;
    Condition.broadcast p.cond
  end;
  Mutex.unlock p.mlock;
  if crashed then obs_event t p.pname "crash" ""

let recover t pid =
  let p = proc_of t pid in
  Mutex.lock p.mlock;
  if not p.up then begin
    p.up <- true;
    p.inc <- p.inc + 1;
    Cq.clear p.mailbox;
    let inc = p.inc in
    Mutex.unlock p.mlock;
    obs_event t p.pname "recover" "";
    ignore
      (Thread.create
         (fun () ->
           wait_started t;
           run_fiber t p inc (p.pmain ~recovery:true))
         ())
  end
  else Mutex.unlock p.mlock

let set_net t net =
  Mutex.lock t.lock;
  t.net <- net;
  Mutex.unlock t.lock

let notes t =
  Mutex.lock t.lock;
  let ns = t.notes_rev in
  Mutex.unlock t.lock;
  List.rev ns

let run_until ?deadline t pred =
  start t;
  let deadline_wall = Option.map (fun d -> t.t0 +. (d /. 1000.)) deadline in
  let rec loop () =
    (match t.failure with Some e -> raise e | None -> ());
    if pred () then true
    else
      match deadline_wall with
      | Some dw when Unix.gettimeofday () > dw -> pred ()
      | _ ->
          Thread.delay tick;
          loop ()
  in
  loop ()

let shutdown t =
  t.stopped <- true;
  (* release the barrier so never-started fibers can exit too *)
  Mutex.lock t.started_lock;
  if not t.started then begin
    t.t0 <- Unix.gettimeofday ();
    t.started <- true
  end;
  Condition.broadcast t.started_cond;
  Mutex.unlock t.started_lock;
  Mutex.lock t.lock;
  let ps = Array.sub t.procs 0 t.nprocs in
  Mutex.unlock t.lock;
  Array.iter (fun p -> wake p ()) ps

let runtime t =
  {
    ER.backend = "live";
    spawn = (fun ~name ~main -> spawn t ~name ~main);
    is_up = (fun pid -> is_up t pid);
    name_of = (fun pid -> name_of t pid);
    crash = (fun pid -> crash t pid);
    recover = (fun pid -> recover t pid);
    set_net = (fun net -> set_net t net);
    run_until = (fun ?deadline pred -> run_until ?deadline t pred);
    notes = (fun () -> notes t);
    obs = Option.map (fun reg node -> Obs.Registry.sink reg ~node ~now:(fun () -> now_ms t)) t.obs;
  }
