(* The migration driver: seal → copy → flip → drain (DESIGN.md §16).

   Runs as a fiber inside a config-group application server — the one that
   received [Mig_start], or any config-group server whose monitor suspects
   the original owner. Crash tolerance is by {e re-drivability}, not
   exclusive ownership: every step is idempotent (seals are monotone,
   pulls are reads, pushes are watermark-guarded imports, installs are
   max-j seeds) and the two registers make the end points write-once — the
   decided [mig:e<n>] intent fixes what the work {e is}, and the decided
   [cfg:e<n>] flip fixes that it {e happened}. Two drivers racing over the
   same intent redo each other's steps harmlessly.

   Why no committed record is lost or duplicated (the two hazards):

   - {b Lost update}: a transaction could commit a moving key at the
     source after the copy read it. Closed by the durable database-level
     seal: once sealed, a source database votes No on any transaction
     writing a disowned key, and the copy of one source database is
     complete only when a single pull reply simultaneously shows the feed
     [Up_to_date], zero prepared-but-undecided transactions on moving keys
     and the epoch-e seal installed — so every commit that ever touched a
     moving key is below the watermark the destination acked.

   - {b Duplicate commit}: a try could commit at the source, its result
     message be lost, and the client retry the {e same} j at the
     destination after the flip — re-executing a committed transaction.
     Closed by decision transfer: before the flip, the driver collects
     every terminated (rid, j, result, outcome) the source group knows —
     from live servers' request states {e and} from their decided regD
     registers, which also cover tries whose serving server crashed (CT
     consensus decides at every correct process) — and installs them into
     the destination servers' request states, so a cross-flip
     retransmission replays the recorded result instead of re-executing. *)

open Runtime
module Rt = Etx_runtime
open Dnet

(* Everything the driver needs from its hosting application server,
   capability-style: the reconfiguration layer cannot depend on the core
   server, and the same record serves the first driver and any takeover. *)
type caps = {
  self : Types.proc_id;
  ch : Rchannel.t;
  propose : key:string -> Types.payload -> Types.payload;
      (** config-group consensus: blocks until the register is decided *)
  peek : key:string -> Types.payload option;
  suspected : Types.proc_id -> bool;
  suspicion : Rt.Wake.t;  (** woken when [suspected] changes *)
  servers_of : int -> Types.proc_id list;
  dbs_of : int -> (Types.proc_id * string) list;
      (** a group's databases as (process, durable name) — the name is the
          destination's per-source import-watermark namespace *)
  sink : Rt.obs_sink option;
}

(* How long the driver waits for replies before it re-sends a request, and
   between pulls of a source database that is still draining. *)
let resend = 10.

let count caps name n =
  if n > 0 then
    match caps.sink with None -> () | Some s -> s.Rt.obs_count name n

let observe caps name v =
  match caps.sink with None -> () | Some s -> s.Rt.obs_observe name v

(* Broadcast [request] to [peers] and await a matching reply from each,
   re-sending every [resend] ms (handlers are idempotent; a recovered
   database lost the request with its volatile state). Suspected peers
   are given up on by default, at the detector's wake — crashed
   application servers stay down in this model. [forever:true] instead
   keeps re-sending through the suspicion: databases {e do} recover (with
   their durable state), and the safety of the seal and copy phases needs
   every database's ack, not every currently-up database's. [matches]
   inspects a reply and names the peer it settles (side effects welcome —
   the decision collector accumulates through it). *)
let collect_acks ?(forever = false) caps ~cls ~peers ~request ~matches =
  let pending = ref (List.sort_uniq compare peers) in
  let settle m =
    match matches m with
    | Some p -> pending := List.filter (fun q -> q <> p) !pending
    | None -> ()
  in
  let give_up () =
    if not forever then
      pending := List.filter (fun p -> not (caps.suspected p)) !pending
  in
  let rec epoch () =
    give_up ();
    if !pending <> [] then begin
      List.iter (fun p -> Rchannel.send caps.ch p request) !pending;
      let deadline = Rt.now () +. resend in
      let rec drain () =
        if !pending <> [] && Rt.now () < deadline then begin
          (match
             Rt.Wake.recv caps.suspicion caps.suspicion
               ~timeout:(deadline -. Rt.now ()) cls
               ~filter:(fun m -> matches m <> None)
           with
          | Some m -> settle m
          | None -> give_up ());
          drain ()
        end
      in
      drain ();
      epoch ()
    end
  in
  epoch ()

let announce caps ~target =
  let everyone =
    List.init (Shard_map.shards target) Fun.id
    |> List.concat_map caps.servers_of
    |> List.sort_uniq compare
  in
  Rchannel.broadcast caps.ch everyone (Rmsg.Cfg_announce { map = target })

(* Copy one source database's moving keys to every destination group it
   feeds, through the pull/push protocol, until a single pull reply proves
   the source drained: feed up to date, no in-doubt moving transaction,
   epoch-e seal installed. Resumable from any crash point — the
   destination's durable per-source watermark restarts the loop where the
   last acked push left it. *)
let copy_db caps ~from ~target ~e ~g ~db ~db_name ~dsts =
  let t0 = Rt.now () in
  let moving_to d kvs =
    List.filter
      (fun (k, _) ->
        Shard_map.shard_of from k = g && Shard_map.shard_of target k = d)
      kvs
  in
  let push_all ~snapshot ~entries ~upto =
    List.iter
      (fun d ->
        let snapshot =
          match Option.map (moving_to d) snapshot with
          | Some [] -> None
          | s -> s
        in
        let entries =
          List.filter_map
            (fun (l, ws) ->
              match moving_to d ws with [] -> None | ws -> Some (l, ws))
            entries
        in
        if snapshot <> None || entries <> [] then begin
          let moved =
            List.length (Option.value ~default:[] snapshot)
            + List.fold_left (fun n (_, ws) -> n + List.length ws) 0 entries
          in
          let dest_dbs = List.map fst (caps.dbs_of d) in
          collect_acks ~forever:true caps ~cls:Dbms.Msg.cls_mig_reply
            ~peers:dest_dbs
            ~request:
              (Dbms.Msg.Mig_push_req { src = db_name; snapshot; entries; upto })
            ~matches:(fun m ->
              match m.Types.payload with
              | Dbms.Msg.Mig_push_ack { src; upto = u }
                when src = db_name && u >= upto ->
                  Some m.Types.src
              | _ -> None);
          count caps "migrate.keys_moved" moved
        end)
      dsts
  in
  let pull wm =
    let resp = ref None in
    collect_acks ~forever:true caps ~cls:Dbms.Msg.cls_mig_reply
      ~peers:[ db ]
      ~request:(Dbms.Msg.Mig_pull_req { from_lsn = wm })
      ~matches:(fun m ->
        match m.Types.payload with
        | Dbms.Msg.Mig_pull_resp { from_lsn; feed; in_doubt_moving; sealed; _ }
          when from_lsn = wm ->
            resp := Some (feed, in_doubt_moving, sealed);
            Some m.Types.src
        | _ -> None);
    !resp
  in
  let rec loop wm =
    match pull wm with
    | None -> assert false (* [forever] pulls always answer *)
    | Some (Dbms.Rm.Up_to_date, 0, sealed) when sealed >= e ->
        observe caps "migrate.drain_ms" (Rt.now () -. t0)
    | Some (Dbms.Rm.Up_to_date, _, _) ->
        (* sealed but still draining in-doubt moving transactions (each
           will commit into the feed or abort), or the seal ack is still
           in flight: pull again *)
        Rt.sleep resend;
        loop wm
    | Some (Dbms.Rm.Entries entries, _, _) ->
        let upto = List.fold_left (fun a (l, _) -> max a l) wm entries in
        push_all ~snapshot:None ~entries ~upto;
        loop upto
    | Some (Dbms.Rm.Snapshot { state; as_of }, _, _) ->
        push_all ~snapshot:(Some state) ~entries:[] ~upto:as_of;
        loop as_of
  in
  (* Start below LSN 0 so the first pull always answers with the full
     committed-state snapshot: seed data is committed state that predates
     the redo log, so a feed walked from LSN 0 would silently skip it and
     the copy of a quiet shard would move nothing. Re-drives re-pull the
     snapshot too — the destination's watermark guard drops a stale one. *)
  loop (-1)

(* Decision transfer for one source group: union the terminated tries
   every live source server knows of, then install them at every
   destination group before the flip. *)
let transfer_decisions caps ~e ~g ~dsts =
  let items = ref [] in
  collect_acks caps ~cls:Rmsg.cls_cfg_reply ~peers:(caps.servers_of g)
    ~request:(Rmsg.Mig_decisions_req { epoch = e })
    ~matches:(fun m ->
      match m.Types.payload with
      | Rmsg.Mig_decisions { epoch; items = more } when epoch = e ->
          items := more @ !items;
          Some m.Types.src
      | _ -> None);
  let items = List.sort_uniq compare !items in
  List.iter
    (fun d ->
      collect_acks caps ~cls:Rmsg.cls_cfg_reply ~peers:(caps.servers_of d)
        ~request:(Rmsg.Mig_install { epoch = e; items })
        ~matches:(fun m ->
          match m.Types.payload with
          | Rmsg.Mig_installed { epoch } when epoch = e -> Some m.Types.src
          | _ -> None))
    dsts

let run caps ~from ~target =
  let e = Shard_map.epoch target in
  match caps.peek ~key:(Rmsg.cfg_key ~epoch:e) with
  | Some _ ->
      (* already flipped (we are a late takeover): just re-announce *)
      announce caps ~target
  | None ->
      (* 1. decide the intent; the decided value wins — a takeover driver
         recomputes exactly the first driver's work from it *)
      let target =
        match
          caps.propose
            ~key:(Rmsg.mig_key ~epoch:e)
            (Rmsg.Mig_intent { owner = caps.self; target })
        with
        | Rmsg.Mig_intent { target; _ } -> target
        | _ -> target
      in
      let moves = Shard_map.diff from target in
      let srcs =
        List.sort_uniq compare (List.map (fun m -> m.Shard_map.src) moves)
      in
      let dsts_of g =
        List.filter_map
          (fun m -> if m.Shard_map.src = g then Some m.Shard_map.dst else None)
          moves
        |> List.sort_uniq compare
      in
      (* 2. seal the source groups, servers first (stop admitting new
         tries on moving keys), then databases (durably refuse commits of
         disowned keys — the actual safety barrier) *)
      List.iter
        (fun g ->
          collect_acks caps ~cls:Rmsg.cls_cfg_reply ~peers:(caps.servers_of g)
            ~request:(Rmsg.Mig_seal { target })
            ~matches:(fun m ->
              match m.Types.payload with
              | Rmsg.Mig_sealed { epoch; from = g' } when epoch = e && g' = g
                ->
                  Some m.Types.src
              | _ -> None);
          let owns k = Shard_map.shard_of target k = g in
          List.iter
            (fun (db, _) ->
              collect_acks ~forever:true caps ~cls:Dbms.Msg.cls_mig_reply
                ~peers:[ db ]
                ~request:(Dbms.Msg.Mig_seal_req { epoch = e; owns })
                ~matches:(fun m ->
                  match m.Types.payload with
                  | Dbms.Msg.Mig_seal_ack { epoch } when epoch = e ->
                      Some m.Types.src
                  | _ -> None))
            (caps.dbs_of g))
        srcs;
      (* 3. copy every source database's moving keys until drained *)
      List.iter
        (fun g ->
          List.iter
            (fun (db, db_name) ->
              copy_db caps ~from ~target ~e ~g ~db ~db_name ~dsts:(dsts_of g))
            (caps.dbs_of g))
        srcs;
      (* 4. transfer terminated-try decisions (duplicate-commit guard) *)
      List.iter (fun g -> transfer_decisions caps ~e ~g ~dsts:(dsts_of g)) srcs;
      (* 5. flip: the write-once register makes epoch e authoritative *)
      ignore (caps.propose ~key:(Rmsg.cfg_key ~epoch:e) (Rmsg.Cfg_value target));
      (* 6. drain: tell every server; clients follow through bounces *)
      announce caps ~target
