open Runtime
module Rt = Etx_runtime
open Dnet

let exec_handler rm ch () =
  let rec loop () =
    match Rt.recv_cls Msg.cls_exec with
    | None -> ()
    | Some m ->
        (match m.payload with
        | Msg.Xa_start { xids } ->
            List.iter (fun xid -> Rm.xa_start rm ~xid) xids;
            Rchannel.send ch m.src (Msg.Xa_started { xids })
        | Msg.Xa_end { xids } ->
            List.iter (fun xid -> Rm.xa_end rm ~xid) xids;
            Rchannel.send ch m.src (Msg.Xa_ended { xids })
        | Msg.Exec_req { xid; seq; ops } ->
            (* each batch runs in its own session fiber: the long simulated
               SQL of one transaction must not serialize other clients'
               transactions behind it (locks, not the server loop, are the
               concurrency control). [exec_dedup] guards against redelivery
               (the channel only dedups within one incarnation); a [None]
               means a duplicate of a still-running batch — send nothing,
               the original's reply answers the caller. *)
            Rt.fork "db-session" (fun () ->
                match Rm.exec_dedup rm ~seq ~xid ops with
                | None -> ()
                | Some reply ->
                    Rchannel.send ch m.src (Msg.Exec_reply { xid; seq; reply }))
        | Msg.Commit1 { xid } ->
            let outcome = Rm.commit_one_phase rm ~xid in
            Rchannel.send ch m.src (Msg.Commit1_reply { xid; outcome })
        | _ -> ());
        loop ()
  in
  loop ()

(* db.vote_ms / db.decide_ms time the resource manager's local step only
   (vote or decide plus its forced log write) — transport latency is
   accounted by the caller's phase spans. *)
let timed sink name f =
  match sink with
  | None -> f ()
  | Some s ->
      let t0 = Rt.now () in
      let r = f () in
      s.Rt.obs_observe name (Rt.now () -. t0);
      r

(* Commitment concurrency shape. With the classic per-call force
   discipline the prepare and decide handlers run their work inline: at
   most one vote and one decide force are ever in flight per database,
   which is byte-identical to the historical servers. A group-commit
   database instead handles each commitment message in its own session
   fiber — group commit only pays when sessions force the log
   concurrently, and a single sequential handler alternating with the
   decide path never overlaps two forces (the scheduler would coalesce
   nothing). This is the architecture the optimisation was invented
   for: many sessions reach their commit point independently and one
   disk write makes the whole window durable. *)
let session rm label f =
  if Rm.group_commit rm then Rt.fork label f else f ()

let prepare_handler rm ch sink () =
  let rec loop () =
    match Rt.recv_cls Msg.cls_prepare with
    | None -> ()
    | Some m ->
        (match m.payload with
        | Msg.Prepare { xids } ->
            session rm "db-prepare-session" (fun () ->
                let votes =
                  timed sink "db.vote_ms" (fun () -> Rm.vote_many rm ~xids)
                in
                Rchannel.send ch m.src (Msg.Vote { votes }))
        | _ -> ());
        loop ()
  in
  loop ()

let decide_handler rm ch sink ~invalidate ~observers () =
  (* Invalidation piggybacks on the decide path: when a decide commits, the
     transaction's actual write keyset (its retained workspace) is
     broadcast to every application server BEFORE the ack. Ordering
     matters: the decider's Stub.decide round keeps re-driving Decide until
     the ack arrives, so a crash between commit and broadcast is re-driven
     and the invalidation is re-sent — the ack is the protocol's evidence
     that invalidation went out. Re-delivered decides re-broadcast
     harmlessly (dropping an absent entry is a no-op). A commit whose
     workspace is empty broadcasts nothing: [keys = []] is reserved as the
     flush-all sentinel. *)
  let invalidate_commits applied =
    if invalidate then begin
      let keys =
        List.concat_map
          (fun (xid, o) -> if o = Rm.Commit then Rm.writes_of rm xid else [])
          applied
        |> List.sort_uniq String.compare
      in
      if keys <> [] then
        Rchannel.broadcast ch (observers ()) (Msg.Invalidate { keys })
    end
  in
  let rec loop () =
    match Rt.recv_cls Msg.cls_decide with
    | None -> ()
    | Some m ->
        (match m.payload with
        | Msg.Decide { items } ->
            session rm "db-decide-session" (fun () ->
                let applied =
                  timed sink "db.decide_ms" (fun () ->
                      Rm.decide_many rm ~items)
                in
                invalidate_commits applied;
                Rchannel.send ch m.src
                  (Msg.Ack_decide { xids = List.map fst items }))
        | _ -> ());
        loop ()
  in
  loop ()

(* Change-log shipping: stream the committed suffix to each read replica,
   paginated, in LSN order. Push-based and fire-and-forget — the primary
   never waits for a replica (asynchronous replication: replicas cost no
   commit-path latency). The per-replica watermark below is volatile by
   design: a recovered primary reships from scratch and the replicas drop
   the duplicates (their apply is idempotent on LSNs). Shipping runs on a
   [period] grid from the thread's start while anything is unshipped; a
   tick that finds nothing to ship sleeps until the next commit, then
   ships at the first grid point after it. *)
let ship_thread rm ch ~period ~replicas () =
  let sent = Hashtbl.create 8 in
  let ship_to shipped pid =
    let from = try Hashtbl.find sent pid with Not_found -> 0 in
    match Rm.changes_since rm ~lsn:from with
    | Rm.Up_to_date -> shipped
    | Rm.Entries entries ->
        let upto = Rm.last_commit_lsn rm in
        let top = List.fold_left (fun acc (l, _) -> max acc l) from entries in
        Hashtbl.replace sent pid top;
        Rchannel.send ch pid (Msg.Ship { entries; upto });
        true
    | Rm.Snapshot { state; as_of } ->
        Hashtbl.replace sent pid as_of;
        Rchannel.send ch pid
          (Msg.Ship_snapshot { state; as_of; upto = Rm.last_commit_lsn rm });
        true
  in
  let ship () = List.fold_left ship_to false (replicas ()) in
  let committed = Rm.commit_wake rm in
  (* at grid point [tick] *)
  let rec on_grid tick = if ship () then next_tick tick else idle tick
  and next_tick tick =
    Rt.sleep period;
    on_grid (tick +. period)
  and idle tick =
    Rt.Wake.sleep committed committed Float.infinity;
    let now = Rt.now () in
    let rec after g = if g > now then g else after (g +. period) in
    let g = after tick in
    Rt.sleep (g -. now);
    on_grid g
  in
  next_tick (Rt.now ())

(* Online shard migration endpoint (DESIGN.md §16), forked only on
   migratable databases so non-elastic deployments keep their exact fiber
   census. Seal installs the durable ownership filter; pull serves the
   committed change feed above the driver's per-source watermark together
   with everything the driver's completion check reads — watermark,
   in-doubt-moving count and seal epoch arrive in one reply, so the check
   is atomic with respect to this database's state; push applies a
   transfer at the destination ([Rm.import] makes redelivery and driver
   takeover idempotent). All three are safe to re-drive. *)
let mig_handler rm ch () =
  let rec loop () =
    match Rt.recv_cls Msg.cls_mig with
    | None -> ()
    | Some m ->
        (match m.payload with
        | Msg.Mig_seal_req { epoch; owns } ->
            Rm.seal rm ~epoch ~owns;
            Rchannel.send ch m.src (Msg.Mig_seal_ack { epoch })
        | Msg.Mig_pull_req { from_lsn } ->
            Rchannel.send ch m.src
              (Msg.Mig_pull_resp
                 {
                   from_lsn;
                   feed = Rm.changes_since rm ~lsn:from_lsn;
                   watermark = Rm.last_commit_lsn rm;
                   in_doubt_moving = Rm.in_doubt_moving rm;
                   sealed = Rm.sealed_epoch rm;
                 })
        | Msg.Mig_push_req { src; snapshot; entries; upto } ->
            let upto = Rm.import rm ~src ?snapshot ~entries ~upto () in
            Rchannel.send ch m.src (Msg.Mig_push_ack { src; upto })
        | _ -> ());
        loop ()
  in
  loop ()

let spawn (rt : Rt.t) ?(invalidate = false) ?(migratable = false) ?ship ~name
    ~rm ~observers () =
  rt.spawn ~name ~main:(fun ~recovery () ->
      let ch = Rchannel.create () in
      Rchannel.start ch;
      let sink = Rt.obs () in
      if recovery then begin
        Rm.recover rm;
        (* snapshot replay loses committed workspaces, so this incarnation
           cannot enumerate the write keysets of pre-crash commits:
           broadcast the flush-all sentinel and let every cache start
           cold *)
        if invalidate then
          Rchannel.broadcast ch (observers ()) (Msg.Invalidate { keys = [] });
        Rchannel.broadcast ch (observers ()) Msg.Ready
      end;
      (match ship with
      | None -> ()
      | Some (period, replicas) ->
          Rt.fork "db-ship" (ship_thread rm ch ~period ~replicas));
      if migratable then Rt.fork "db-mig" (mig_handler rm ch);
      Rt.fork "db-exec" (exec_handler rm ch);
      Rt.fork "db-prepare" (prepare_handler rm ch sink);
      decide_handler rm ch sink ~invalidate ~observers ())
