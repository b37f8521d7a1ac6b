(* One open-loop run of a workload on a fresh simulated cluster.

   Load comes from a pool of client processes pulling arrivals from a queue
   the benchmark owns: each client sleeps until its arrival is due, then
   issues it and waits for the committed result. Latency runs from the due
   time, so waiting behind a busy pool counts. The program only ever sees
   the generated request bodies; every instrument below sits outside it. *)

module Rt = Runtime.Etx_runtime

let pool = 256

(* Arrivals start after the cluster has booted and, on the leased path,
   elected its first leaseholder, so the first requests do not time the
   boot. *)
let warmup_ms = 1_000.

(* Virtual time a run may keep draining after its last due time before it
   counts what is still undelivered as failed. *)
let drain_ms = 300_000.

(* Deterministic event budget of a run, per arrival. *)
let events_per_arrival = 20_000

(* Seeds of one run's independent random streams, all derived from the
   run seed. *)
let derive seed tag = Hashtbl.hash (seed, tag)

(* What the benchmark's wrappers saw, when they are on. *)
type probe = {
  mutable exec_calls : int;
  mutable exec_conflicts : int;
  mutable exec_ms : float list;
      (** virtual ms per [ctx.exec], lock wait included *)
  mutable business_s : float;  (** wall seconds spent inside business code *)
  sent : int array;  (** sends by sender role: client, app server, database *)
  mutable dropped : int;
  mutable intra_app : int;  (** app server to app server of the same group *)
  mutable cross_app : int;  (** app server to app server of another group *)
  mutable db_touch : int;  (** sends from or to a database or replica *)
}

let new_probe () =
  {
    exec_calls = 0;
    exec_conflicts = 0;
    exec_ms = [];
    business_s = 0.;
    sent = Array.make 3 0;
    dropped = 0;
    intra_app = 0;
    cross_app = 0;
    db_touch = 0;
  }

(* Times every [ctx.exec] in virtual ms, and the business code between
   those calls in wall time. The clock reads are effects answered
   synchronously, so the simulated schedule is unchanged. *)
let wrap_business p (b : Etx.Business.t) =
  let run (ctx : Etx.Business.context) ~body =
    let mark = ref (Unix.gettimeofday ()) in
    let exec ~db ops =
      p.business_s <- p.business_s +. (Unix.gettimeofday () -. !mark);
      let v0 = Rt.now () in
      let reply = ctx.exec ~db ops in
      p.exec_ms <- (Rt.now () -. v0) :: p.exec_ms;
      p.exec_calls <- p.exec_calls + 1;
      (match reply with
      | Dbms.Rm.Exec_conflict _ -> p.exec_conflicts <- p.exec_conflicts + 1
      | Dbms.Rm.Exec_ok _ | Dbms.Rm.Exec_rejected -> ());
      mark := Unix.gettimeofday ();
      reply
    in
    let result = b.run { ctx with exec } ~body in
    p.business_s <- p.business_s +. (Unix.gettimeofday () -. !mark);
    result
  in
  { b with run }

type role = Client | App of int | Db

(* Counts every transmission by the roles of its ends; the delays are the
   base model's own draws, so the schedule is unchanged. Roles are filled
   in once the cluster exists (nothing is sent before it runs). *)
let counting_net p (roles : role array ref) base : Rt.netmodel =
 fun rng ~src ~dst ->
  let delays = base rng ~src ~dst in
  (match delays with
  | [] -> p.dropped <- p.dropped + 1
  | _ :: _ -> (
      let rs = !roles.(src) and rd = !roles.(dst) in
      let k = match rs with Client -> 0 | App _ -> 1 | Db -> 2 in
      p.sent.(k) <- p.sent.(k) + 1;
      match (rs, rd) with
      | App a, App b when a = b -> p.intra_app <- p.intra_app + 1
      | App _, App _ -> p.cross_app <- p.cross_app + 1
      | Db, _ | _, Db -> p.db_touch <- p.db_touch + 1
      | _ -> ()));
  delays

(* Every process of the cluster: databases, app servers, clients and
   replicas. *)
let roles_of (c : Cluster.t) =
  let tagged =
    List.map (fun h -> (Etx.Client.pid h, Client)) c.clients
    @ List.concat_map
        (fun (g : Cluster.group) ->
          List.map (fun (pid, _) -> (pid, Db)) g.dbs
          @ List.map (fun pid -> (pid, App g.index)) g.app_servers
          @ List.map (fun (pid, _, _) -> (pid, Db)) g.replicas)
        (Array.to_list c.groups)
  in
  let roles = Array.make (List.length tagged) Client in
  List.iter (fun (pid, r) -> roles.(pid) <- r) tagged;
  roles

(* A workload's generated inputs for one seed. Arrivals are kept at unit
   rate and scaled per run, so every rung of a capacity search replays the
   same arrival pattern and the same bodies, only faster or slower. *)
type inputs = {
  map : Etx.Shard_map.t;
  unit_due : float array;
      (** arrival offsets in ms at 1 tx per virtual second *)
  bodies : string array;
  reads : bool array;  (** read-only request *)
  crossing : bool array;  (** keyset spans several shards *)
}

let inputs (w : Workloads.t) ~seed ~n =
  let map = Etx.Shard_map.create ~shards:w.shards () in
  let bodies =
    Array.of_list
      (List.map snd
         (Workload.Generator.sharded_bodies ~map ~cross_ratio:w.cross_ratio
            ~seed:(derive seed "bodies") ~n w.kind))
  in
  let business = Workload.Generator.business_of w.kind in
  {
    map;
    unit_due =
      Openloop.schedule ~seed:(derive seed "schedule") ~rate:1. ~n ~start:0.;
    bodies;
    reads = Array.map business.Etx.Business.read_only bodies;
    crossing =
      Array.map
        (fun body ->
          let ks = business.Etx.Business.keys body in
          List.length
            (Etx.Shard_map.shards_of map (ks.Etx.Business.reads @ ks.writes))
          > 1)
        bodies;
  }

type t = {
  w : Workloads.t;
  inp : inputs;
  due : float array;
  issued : float array;  (** [nan] until issued *)
  delivered : float array;  (** [nan] while undelivered *)
  lag : int array;  (** replica staleness of a replica-served read, else -1 *)
  crash_at : float;  (** leaseholder crash time, [nan] when none *)
  engine : Dsim.Engine.t;
  cluster : Cluster.t;
  reg : Obs.Registry.t option;
  probe : probe option;
  n_delivered : int ref;
  mutable verdict : Openloop.verdict;
  mutable settled : bool;  (** reached quiescence (only sought by [settle]) *)
  mutable cpu_s : float;
  mutable alloc_words : float;
  mutable major_gcs : int;
}

(* Builds the cluster and its client pool; nothing runs yet. [traced]
   attaches an obs registry and the wrappers; [tracing] turns on the
   simulator trace the specification oracle reads; [crash] injects the
   workload's failover schedule. *)
let prepare ?servers ?(tracing = false) ?(traced = false) ?(crash = false)
    (w : Workloads.t) inp ~seed ~rate =
  let n = Array.length inp.bodies in
  let due = Array.map (fun u -> warmup_ms +. (u /. rate)) inp.unit_due in
  let issued = Array.make n Float.nan in
  let delivered = Array.make n Float.nan in
  let lag = Array.make n (-1) in
  let next = ref 0 and n_delivered = ref 0 in
  let script ~issue =
    let rec loop () =
      if !next < n then begin
        let i = !next in
        incr next;
        let wait = due.(i) -. Rt.now () in
        if wait > 0. then Rt.sleep wait;
        issued.(i) <- Rt.now ();
        let (r : Etx.Client.record) = issue inp.bodies.(i) in
        delivered.(i) <- r.delivered_at;
        incr n_delivered;
        (match r.replica with Some (_, l) -> lag.(i) <- l | None -> ());
        loop ()
      end
    in
    loop ()
  in
  let probe = if traced then Some (new_probe ()) else None in
  let reg = if traced then Some (Obs.Registry.create ()) else None in
  let roles = ref [||] in
  let net =
    let base = Dnet.Netmodel.three_tier ~n_dbs:w.shards () in
    let base =
      if w.loss > 0. then Dnet.Netmodel.lossy ~loss:w.loss base else base
    in
    match probe with Some p -> counting_net p roles base | None -> base
  in
  let business = Workload.Generator.business_of w.kind in
  let business =
    match probe with Some p -> wrap_business p business | None -> business
  in
  let engine, cluster =
    Harness.Simrun.cluster ~seed:(derive seed "sim") ~tracing ?obs:reg ~net
      ~map:inp.map
      ~n_app_servers:(Option.value servers ~default:w.servers)
      ~fd_spec:w.fd_spec ~batch:w.batch ~cache:w.cache
      ~group_commit:w.group_commit ~replicas:w.replicas
      ~cross:(w.cross_ratio > 0.)
      ~seed_data:(Workload.Generator.seed_data_of w.kind)
      ~business
      ~scripts:(List.init pool (fun _ -> script))
      ()
  in
  if traced then roles := roles_of cluster;
  let crash_at =
    match (crash, w.failover) with
    | true, Some f ->
        let at = due.(n / 2) in
        Dsim.Engine.crash_at engine at (Cluster.primary cluster ~shard:0);
        let db, _ = List.hd (Cluster.group cluster 0).dbs in
        Dsim.Engine.crash_at engine (at +. f.db_crash_after) db;
        Dsim.Engine.recover_at engine (at +. f.db_crash_after +. f.db_down) db;
        at
    | _ -> Float.nan
  in
  {
    w;
    inp;
    due;
    issued;
    delivered;
    lag;
    crash_at;
    engine;
    cluster;
    reg;
    probe;
    n_delivered;
    verdict = Openloop.Running;
    settled = false;
    cpu_s = 0.;
    alloc_words = 0.;
    major_gcs = 0;
  }

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Drives the run until every arrival is delivered, the guard stops it, or
   the drain deadline passes. Only a capacity probe ([early_abort]) stops
   once more than 1% of its arrivals are overdue; every other run delivers
   what it can, so its latencies are complete. With [settle] it then drives
   the cluster to quiescence so the specification oracle can judge it. *)
let execute ?(early_abort = false) ?(settle = false) r =
  let n = Array.length r.due in
  let guard =
    Openloop.guard ~due:r.due ~limit:r.w.limit_ms
      ~abort_frac:(if early_abort then 0.01 else 1.)
      ~budget:(events_per_arrival * n)
  in
  let finished () =
    !(r.n_delivered) = n
    ||
    (r.verdict <-
       Openloop.check guard ~now:(Dsim.Engine.now_of r.engine)
         ~events:(Dsim.Engine.events_of r.engine)
         ~delivered:(fun i -> r.delivered.(i));
     r.verdict <> Openloop.Running)
  in
  let gc0 = (Gc.quick_stat ()).Gc.major_collections in
  let a0 = alloc_words () in
  let cpu0 = Sys.time () in
  ignore
    (Dsim.Engine.run_until ~deadline:(r.due.(n - 1) +. drain_ms) r.engine
       finished);
  r.cpu_s <- Sys.time () -. cpu0;
  r.alloc_words <- alloc_words () -. a0;
  r.major_gcs <- (Gc.quick_stat ()).Gc.major_collections - gc0;
  r.settled <-
    settle
    && r.verdict = Openloop.Running
    && Cluster.run_to_quiescence
         ~deadline:(Dsim.Engine.now_of r.engine +. drain_ms)
         r.cluster;
  r

let run ?servers ?tracing ?traced ?crash ?early_abort ?settle w inp ~seed
    ~rate =
  execute ?early_abort ?settle
    (prepare ?servers ?tracing ?traced ?crash w inp ~seed ~rate)

let delivered_count r = !(r.n_delivered)
