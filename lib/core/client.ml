open Runtime
module Rt = Etx_runtime
open Dnet

type record = {
  rid : int;
  key : string;
  body : string;
  result : Etx_types.result_value;
  tries : int;
  issued_at : float;
  delivered_at : float;
  cached : bool;
      (** served from an app server's method cache: no transaction was
          committed for this request, so the spec checks cache coherence
          instead of A.1/exactly-once *)
  replica : (int * int) option;
      (** [Some (lsn, lag)]: served by an asynchronous read replica from
          the primary's committed state as of [lsn], with provable
          staleness [lag]; no transaction was committed for this request,
          so the spec checks replica consistency instead of
          A.1/exactly-once *)
  group : int;
      (** the replica group that served the committed result — stamped by
          the server into every result payload. Under reconfiguration the
          key's home group changes across epochs, so the spec reads the
          serving group from the record rather than recomputing it from a
          single map *)
}

(* Elastic routing state (DESIGN.md §16): this client's current view of
   the epoch-versioned shard map, refreshed when a server bounce carries a
   newer epoch than [map]. Mutable per client — each client learns of a
   reconfiguration at its own pace. *)
type reconfig = {
  mutable map : Shard_map.t;
  group_servers : int -> Types.proc_id list;
  cfg_servers : Types.proc_id list;
      (** the config group's application servers, queried for newer maps *)
}

type flight = { mutable rid : int; mutable j : int }

type handle = {
  pid : Types.proc_id;
  records : record list ref;  (** newest first *)
  finished : bool ref;
}

(* Request ids come from the runtime's per-instance uid counter so
   concurrent clients in one runtime never collide, and independent trials
   (possibly running in parallel domains) never share state. *)
let fresh_rid () = Rt.fresh_uid ()

(* the decision a result list carries for (rid, j), if it lists that try *)
let rec decision_in rid j = function
  | [] -> None
  | (r, j', d) :: items ->
      if r = rid && j' = j then Some d else decision_in rid j items

let wants_result rid j m =
  match m.Types.payload with
  | Etx_types.Result_cached_msg { rid = r; j = j'; _ }
  | Etx_types.Result_replica_msg { rid = r; j = j'; _ }
  | Etx_types.Result_nack_msg { rid = r; j = j'; _ }
  | Etx_types.Silent_hint { rid = r; j = j' } ->
      r = rid && j' = j
  | Etx_types.Result_msg { items; _ } -> decision_in rid j items <> None
  | _ -> false

(* this client's decision for (rid, j), from any framing; the [bool] marks
   a cache-served reply, the option a replica-served one (both always a
   committed-with-result shape), and the [int] the serving group *)
let decision_for rid j m =
  match m.Types.payload with
  | Etx_types.Result_cached_msg { result; group; _ } ->
      ( { Etx_types.result = Some result; outcome = Dbms.Rm.Commit },
        true,
        None,
        group )
  | Etx_types.Result_replica_msg { result; lsn; lag; group; _ } ->
      ( { Etx_types.result = Some result; outcome = Dbms.Rm.Commit },
        false,
        Some (lsn, lag),
        group )
  | Etx_types.Result_msg { items; group } -> (
      match decision_in rid j items with
      | Some d -> (d, false, None, group)
      | None -> assert false)
  | _ -> assert false

let spawn (rt : Rt.t) ?(name = "client") ?(period = 400.) ?(affinity = 0)
    ?router ?reconfig ~servers ~script () =
  let records = ref [] in
  let finished = ref false in
  (match servers with
  | _ :: _ -> ()
  | [] -> invalid_arg "Client.spawn: no application servers");
  (* [route key] names the replica group serving [key]: default is the
     single group made of [servers]; a sharded cluster passes [router] to
     spread keys over its groups. With [reconfig] the lookup instead goes
     through this client's (mutable) epoch-versioned map view, so it is
     re-resolved on {e every} attempt — a mid-request map refresh
     re-routes the next send. *)
  let current_route =
    match (reconfig, router) with
    | Some rc, _ ->
        fun key ->
          let g = Shard_map.shard_of rc.map key in
          (g, rc.group_servers g)
    | None, Some r -> r
    | None, None -> fun _key -> (0, servers)
  in
  let pid =
    rt.spawn ~name ~main:(fun ~recovery () ->
        if recovery then Rt.note "client-recovery:staying-silent"
        else begin
          (* (rid, j, server) of the first-try wait in progress. The
             channel's silence report for exactly that request ends the
             wait with a hint; any other report is dropped here. *)
          let first_try = ref (-1, 0, -1) in
          let on_silent dst = function
            | Etx_types.Request_msg { request = { rid; _ }; j; _ }
              when (rid, j, dst) = !first_try ->
                Rt.redeliver ~src:dst (Etx_types.Silent_hint { rid; j })
            | _ -> ()
          in
          let ch = Rchannel.create ~on_silent () in
          (* the try in flight, rid -1 between requests: the channel
             stops resending every other request (Fig. 2 resends a request
             only until its result arrives) *)
          let flight = { rid = -1; j = 0 } in
          Rchannel.retire_when ch (fun _ -> function
            | Etx_types.Request_msg { request = { rid; _ }; j; _ } ->
                rid <> flight.rid || j <> flight.j
            | _ -> false);
          Rchannel.start ch;
          (* fetched once per fiber; None = observability off (common case) *)
          let sink = Rt.obs () in
          (* Map refresh (DESIGN.md §16): a bounce carried an epoch newer
             than ours. Ask the config group for the current map and adopt
             anything newer; bounded by one back-off period — if no newer
             map arrived (the flip is still in flight) the caller's retry
             loop bounces again and re-queries. *)
          let refresh rc =
            let have = Shard_map.epoch rc.map in
            (match sink with
            | None -> ()
            | Some s -> s.Rt.obs_count "client.map_refresh" 1);
            Rchannel.broadcast ch rc.cfg_servers
              (Reconfig.Rmsg.Cfg_query { have });
            let deadline = Rt.now () +. period in
            let rec collect () =
              if Shard_map.epoch rc.map <= have && Rt.now () < deadline then begin
                (match
                   Rt.recv_cls
                     ~timeout:(deadline -. Rt.now ())
                     Reconfig.Rmsg.cls_cfg_reply
                 with
                | Some
                    { Types.payload = Reconfig.Rmsg.Cfg_current { map }; _ } ->
                    if Shard_map.epoch map > Shard_map.epoch rc.map then
                      rc.map <- map
                | Some _ | None -> ());
                collect ()
              end
            in
            collect ()
          in
          let issue body =
            let rid = fresh_rid () in
            let key = Etx_types.routing_key body in
            (* [affinity] rotates the first-try target so independent
               clients spread over the group's servers (cache locality /
               load); 0 — the default — is the paper's behaviour of always
               addressing the head server first. Retries still broadcast. *)
            let primary_of servers =
              match servers with
              | [] -> invalid_arg "Client: router returned no servers"
              | servers ->
                  List.nth servers (affinity mod List.length servers)
            in
            let request = { Etx_types.rid; key; body } in
            let issued_at = Rt.now () in
            let span =
              match sink with
              | None -> 0
              | Some s ->
                  s.Rt.obs_count "client.requests" 1;
                  s.Rt.obs_span_open ~trace:rid "request"
            in
            (* A bounce carrying a map epoch newer than ours means our
               route itself is stale (the cluster reconfigured): refetch
               the map and re-route the same try. [true] iff handled. *)
            let stale_map epoch =
              match reconfig with
              | Some rc when epoch > Shard_map.epoch rc.map ->
                  refresh rc;
                  true
              | Some _ | None -> false
            in
            (* one try = one result identifier j (Fig. 2 main loop).

               [g0] pins the try to the group it was first sent to: a
               try's registers live in that group's namespace, so after
               a map refresh moves the key the same j must {e not} be
               carried to the new group — the old group's cleaner could
               still abort its regD[j] (and deliver that abort to us)
               while the new group independently decides the same j,
               and the request would execute twice under different
               register arrays. Re-routing therefore starts a fresh try
               at the new group. That is safe: the route only changes
               when the key moved, and the database-level seal dooms
               any try still in flight at the old group to abort — and
               if an old try already {e committed}, the decision
               transfer installed it at the destination, whose servers
               replay a terminated commit for every later try. *)
            let rec try_j j g0 =
              flight.rid <- rid;
              flight.j <- j;
              let group, servers = current_route key in
              if group <> g0 then try_j (j + 1) group
              else begin
                let primary = primary_of servers in
                first_try := (rid, j, primary);
                Rchannel.send ch primary
                  (Etx_types.Request_msg { request; j; group; span });
                let reply =
                  Rt.recv ~timeout:period ~cls:Etx_types.cls_result
                    ~filter:(wants_result rid j) ()
                in
                first_try := (-1, 0, -1);
                match reply with
                | Some
                    { Types.payload = Etx_types.Result_nack_msg { epoch; _ }; _ }
                  ->
                    (* explicit misroute bounce: the primary serves another
                       group (or a newer map), so re-route now rather than
                       waiting out the resend timer *)
                    (match sink with
                    | None -> ()
                    | Some s -> s.Rt.obs_count "client.bounced" 1);
                    if stale_map epoch then try_j j g0 else broadcast_phase j g0
                | None | Some { Types.payload = Etx_types.Silent_hint _; _ } ->
                    broadcast_phase j g0
                | Some m -> conclude j m
              end
            and broadcast_phase j g0 =
              (match sink with
              | None -> ()
              | Some s -> s.Rt.obs_count "client.backoff_epochs" 1);
              let group, servers = current_route key in
              if group <> g0 then try_j (j + 1) group
              else begin
                Rchannel.broadcast ch servers
                  (Etx_types.Request_msg { request; j; group; span });
                await_broadcast j g0
              end
            and await_broadcast j g0 =
              match
                Rt.recv ~timeout:period ~cls:Etx_types.cls_result
                  ~filter:(wants_result rid j) ()
              with
              | Some { Types.payload = Etx_types.Result_nack_msg { epoch; _ }; _ }
                ->
                  (* a bounce during the broadcast phase usually carries no
                     news — the fan-out already reached every server — so
                     consume it and keep waiting (no immediate rebroadcast:
                     N-1 misrouted targets would otherwise trigger N-1
                     resend storms). The exception is a newer epoch: the
                     whole fan-out went to a stale group, so refetch the
                     map and re-fan out to the new one *)
                  if stale_map epoch then broadcast_phase j g0
                  else await_broadcast j g0
              | Some { Types.payload = Etx_types.Silent_hint _; _ } ->
                  await_broadcast j g0 (* raced the first-try reply *)
              | Some m -> conclude j m
              | None -> broadcast_phase j g0
            and conclude j m =
              let decision, cached, replica, group = decision_for rid j m in
              match (decision.outcome, decision.result) with
              | Dbms.Rm.Commit, Some result ->
                  flight.rid <- -1;
                  let record =
                    {
                      rid;
                      key;
                      body;
                      result;
                      tries = j;
                      issued_at;
                      delivered_at = Rt.now ();
                      cached;
                      replica;
                      group;
                    }
                  in
                  records := record :: !records;
                  (match sink with
                  | None -> ()
                  | Some s ->
                      (* incremented exactly where the record is
                         added, so counter == |records| on any
                         backend — the Spec cross-check relies on it *)
                      s.Rt.obs_count "client.committed" 1;
                      if cached then s.Rt.obs_count "client.cache_served" 1;
                      if replica <> None then
                        s.Rt.obs_count "client.replica_served" 1;
                      s.Rt.obs_observe "client.latency_ms"
                        (record.delivered_at -. record.issued_at);
                      s.Rt.obs_span_attr span "tries" (string_of_int j);
                      s.Rt.obs_span_close span);
                  record
              | Dbms.Rm.Commit, None ->
                  (* a committed decision always carries a result (V.1);
                     reaching this is a protocol bug worth crashing on *)
                  failwith "e-Transaction: committed decision without result"
              | Dbms.Rm.Abort, _ ->
                  (match sink with
                  | None -> ()
                  | Some s -> s.Rt.obs_count "client.retries" 1);
                  try_j (j + 1) (fst (current_route key))
            in
            try_j 1 (fst (current_route key))
          in
          script ~issue;
          finished := true
        end)
  in
  { pid; records; finished }

let pid t = t.pid

let records t = List.rev !(t.records)

let script_done t = !(t.finished)
