open Runtime
module Rt = Etx_runtime

type group = {
  index : int;
  dbs : (Types.proc_id * Dbms.Rm.t) list;
  app_servers : Types.proc_id list;
  caches : (Types.proc_id * Etx.Method_cache.t) list;
  replicas : (Types.proc_id * Dbms.Replica.t * Types.proc_id) list;
}

type t = {
  rt : Rt.t;
  map : Etx.Shard_map.t;
  groups : group array;
  clients : Etx.Client.handle list;
  business : Etx.Business.t;
  cross : bool;
  reconfig : bool;
  maps : Etx.Shard_map.t list ref;
      (* the cluster's map history, newest first; last = the epoch-0 [map].
         Appended by [split] when a migration's flip is observed. *)
  ops : int ref;  (* operator actions (splits) still in flight *)
}

let shards t = Array.length t.groups

let group t s = t.groups.(s)

let shard_of_key t key = Etx.Shard_map.shard_of t.map key

let primary t ~shard = List.hd t.groups.(shard).app_servers

let all_records t =
  List.concat_map (fun c -> Etx.Client.records c) t.clients

(* How often a primary database ships committed write-sets to its read
   replicas (virtual ms). *)
let ship_period = 5.

let build ?net ?map ?(shards = 1) ?(n_app_servers = 3) ?(n_dbs = 1)
    ?(fd_spec = Etx.Appserver.Fd_oracle) ?(seed_data = [])
    ?(client_period = 400.) ?(clean_period = 20.) ?(recoverable = false)
    ?(batch = 1) ?(cache = false) ?(group_commit = false) ?(replicas = 0)
    ?(cross = false) ?(reconfig = false) ?(provision = 0) ~rt ~business
    ~scripts () =
  if batch < 1 then invalid_arg "Cluster.build: batch must be >= 1";
  if replicas < 0 then invalid_arg "Cluster.build: replicas must be >= 0";
  if provision < 0 then invalid_arg "Cluster.build: provision must be >= 0";
  if provision > 0 && not reconfig then
    invalid_arg "Cluster.build: provision needs ~reconfig:true";
  let map =
    match map with
    | Some m -> m
    | None -> Etx.Shard_map.create ~shards ()
  in
  let shards = Etx.Shard_map.shards map in
  if scripts = [] then invalid_arg "Cluster.build: no client scripts";
  (* spare (pre-provisioned) groups spawn complete — databases, servers,
     register namespace — but own no slice of the epoch-0 map; a later
     [split] migrates keys into them under live traffic *)
  let ngroups = shards + provision in
  let net =
    match net with
    | Some n -> n
    | None -> Dnet.Netmodel.three_tier ~n_dbs:(ngroups * n_dbs) ()
  in
  (rt : Rt.t).set_net net;
  (* Group-0 processes keep the paper's names (db1, a1, client): a
     one-shard cluster is the paper's deployment. *)
  let gname g base = if g = 0 then base else Printf.sprintf "g%d:%s" g base in
  (* Each shard stores only the keys it owns; a one-shard cluster gets
     everything. *)
  let seed_for s =
    List.filter (fun (k, _) -> Etx.Shard_map.shard_of map k = s) seed_data
  in
  (* Databases first, shard-major: pids 0 .. shards*n_dbs - 1. The network
     model's "first pids are databases" convention and the paper's pid
     layout both survive sharding this way. With caching on the databases
     broadcast commit write keysets (Invalidate) to their group's app
     servers. *)
  let app_pids = Array.make ngroups [] in
  (* per-db replica pid cell, filled after the replicas spawn (last) *)
  let group_cells =
    Array.init ngroups (fun s ->
        let seed_data = seed_for s in
        List.init n_dbs (fun i ->
            let name = gname s (Printf.sprintf "db%d" (i + 1)) in
            let disk = Dstore.Disk.create ~label:"log" () in
            let rm = Dbms.Rm.create ~seed_data ~group_commit ~disk ~name () in
            let cell = ref [] in
            let ship =
              if replicas > 0 then Some (ship_period, fun () -> !cell)
              else None
            in
            let pid =
              Dbms.Server.spawn rt ~invalidate:cache ~migratable:reconfig
                ?ship ~name ~rm
                ~observers:(fun () -> app_pids.(s))
                ()
            in
            (pid, rm, cell)))
  in
  let group_dbs =
    Array.map (List.map (fun (pid, rm, _) -> (pid, rm))) group_cells
  in
  (* Application servers per shard: each group has its own server set,
     failure detector (group-local, widened to every provisioned group
     when reconfiguration is on — migration drivers must be able to give
     up on crashed servers of other groups), consensus agents and
     register namespace. *)
  let db_base = ngroups * n_dbs in
  (* one shared wiring record: every server (spare groups included) tracks
     the epoch-versioned map, and the config group hosts the drivers *)
  let reconfig_cfg =
    if reconfig then
      Some
        {
          Etx.Appserver.init_map = map;
          cfg_group = 0;
          rc_groups = ngroups;
          rc_servers_of = (fun g -> app_pids.(g));
          rc_dbs_of =
            (fun g ->
              List.map
                (fun (pid, rm) -> (pid, Dbms.Rm.name rm))
                group_dbs.(g));
        }
    else None
  in
  let groups =
    Array.init ngroups (fun s ->
        let dbs = group_dbs.(s) in
        let db_pids = List.map fst dbs in
        let base = db_base + (s * n_app_servers) in
        let servers = List.init n_app_servers (fun i -> base + i) in
        let caches = ref [] in
        let spawned =
          List.init n_app_servers (fun index ->
              let persist =
                if recoverable then
                  Some
                    (Consensus.Agent.make_persistence
                       ~disk:(Dstore.Disk.create ~label:"reg-log" ()))
                else None
              in
              let mcache =
                if cache then Some (Etx.Method_cache.create ()) else None
              in
              let reps =
                if replicas > 0 then
                  Some
                    (fun () ->
                      List.map
                        (fun (db_pid, _, cell) -> (db_pid, !cell))
                        group_cells.(s))
                else None
              in
              (* the gx wiring reads [app_pids] lazily, so it sees every
                 group once the whole cluster has spawned *)
              let cross_cfg =
                if cross then
                  Some
                    {
                      Etx.Appserver.shard_of_key =
                        (fun key -> Etx.Shard_map.shard_of map key);
                      peers =
                        (fun k ->
                          if k < Array.length app_pids then app_pids.(k)
                          else []);
                    }
                else None
              in
              let pid =
                Etx.Appserver.spawn
                  {
                    rt;
                    group = s;
                    index;
                    servers;
                    dbs = db_pids;
                    business;
                    fd_spec;
                    clean_period;
                    persist;
                    batch;
                    cache = mcache;
                    replicas = reps;
                    cross = cross_cfg;
                    reconfig = reconfig_cfg;
                  }
              in
              (match mcache with
              | Some c -> caches := !caches @ [ (pid, c) ]
              | None -> ());
              pid)
        in
        assert (spawned = servers);
        app_pids.(s) <- servers;
        { index = s; dbs; app_servers = servers; caches = !caches;
          replicas = [] })
  in
  (* Clients last, all behind the same shard router. *)
  let router key =
    let s = Etx.Shard_map.shard_of map key in
    (s, groups.(s).app_servers)
  in
  let clients =
    List.mapi
      (fun i script ->
        let name = if i = 0 then "client" else Printf.sprintf "client%d" (i + 1) in
        (* with caching on, clients rotate their first-try server so read
           traffic (hits are served locally by whichever server is asked)
           spreads over the group instead of serializing at the head;
           cache-off runs keep the paper's head-first behaviour so they
           stay record-for-record with earlier revisions *)
        let affinity = if cache then i else 0 in
        (* each client gets its own mutable map view: clients learn of a
           reconfiguration independently, at their own pace *)
        let rc =
          if reconfig then
            Some
              {
                Etx.Client.map;
                group_servers = (fun g -> app_pids.(g));
                cfg_servers = app_pids.(0);
              }
          else None
        in
        Etx.Client.spawn rt ~name ~period:client_period ~affinity ~router
          ?reconfig:rc ~servers:groups.(0).app_servers ~script ())
      scripts
  in
  (* read replicas spawn LAST, shard-major: a [replicas:0] cluster
     allocates exactly the pids it did before replicas existed *)
  let groups =
    Array.mapi
      (fun s g ->
        let seed_data = seed_for s in
        let reps =
          List.concat
            (List.mapi
               (fun i (db_pid, _, cell) ->
                 List.init replicas (fun r ->
                     let name =
                       gname s (Printf.sprintf "db%d-r%d" (i + 1) (r + 1))
                     in
                     let replica =
                       Dbms.Replica.create ~seed_data ~name ()
                     in
                     let rpid =
                       Dbms.Replica.spawn rt
                         ~sql_cpu:Dbms.Rm.paper_timing.sql_cpu ~name
                         ~replica ()
                     in
                     cell := !cell @ [ rpid ];
                     (rpid, replica, db_pid)))
               group_cells.(s))
        in
        { g with replicas = reps })
      groups
  in
  {
    rt;
    map;
    groups;
    clients;
    business;
    cross;
    reconfig;
    maps = ref [ map ];
    ops = ref 0;
  }

(* Replica quiescence: every replica of an up primary has applied through
   the primary's committed watermark (the shipper re-pushes every period,
   so a settled run converges). A crashed primary's replicas are exempt —
   they hold a consistent prefix and will catch up on its recovery. *)
let group_replicas_settled rt g =
  List.for_all
    (fun (_, replica, db_pid) ->
      (not ((rt : Rt.t).is_up db_pid))
      ||
      let rm = List.assoc db_pid g.dbs in
      Dbms.Replica.applied_lsn replica = Dbms.Rm.last_commit_lsn rm)
    g.replicas

let run_to_quiescence ?(deadline = 600_000.) t =
  let settled () =
    !(t.ops) = 0
    && List.for_all Etx.Client.script_done t.clients
    && Array.for_all
         (fun g ->
           List.for_all (fun (_, rm) -> Dbms.Rm.settled rm) g.dbs
           && group_replicas_settled t.rt g)
         t.groups
  in
  t.rt.run_until ~deadline settled

(* ------------------------------------------------------------------ *)
(* Elastic reconfiguration (DESIGN.md §16): the operator surface. *)

let current_map t = List.hd !(t.maps)

let epoch t = Etx.Shard_map.epoch (current_map t)

let await_epoch ?(deadline = 600_000.) t e =
  t.rt.run_until ~deadline (fun () -> epoch t >= e)

(* Initiate an online split of [group]'s slots toward [target] and return
   the epoch the migration will establish. Runs asynchronously: an
   ephemeral operator-console process nudges a live config-group server
   with [Mig_start] (re-sent until the flip is observed, so a crashed
   driver's migration is re-driven by whichever server is up next) and
   polls [Cfg_query] until the cluster answers with the new epoch's map,
   which it then records in the cluster's map history. [await_epoch] (or
   [run_to_quiescence], which waits for all pending operator actions)
   rendezvouses with completion. *)
let split t ~group ~target =
  if not t.reconfig then
    invalid_arg "Cluster.split: build the cluster with ~reconfig:true";
  if target < 0 || target >= Array.length t.groups then
    invalid_arg "Cluster.split: target group not provisioned";
  let from = current_map t in
  let tgt = Etx.Shard_map.split from ~group ~target () in
  let e = Etx.Shard_map.epoch tgt in
  let cfg_servers = t.groups.(0).app_servers in
  t.ops := !(t.ops) + 1;
  let _pid =
    t.rt.spawn
      ~name:(Printf.sprintf "opctl-e%d" e)
      ~main:(fun ~recovery () ->
        if not recovery then begin
          let ch = Dnet.Rchannel.create () in
          Dnet.Rchannel.start ch;
          let rec drive () =
            (match List.find_opt t.rt.is_up cfg_servers with
            | Some s ->
                Dnet.Rchannel.send ch s
                  (Reconfig.Rmsg.Mig_start { target = tgt })
            | None -> ());
            Dnet.Rchannel.broadcast ch cfg_servers
              (Reconfig.Rmsg.Cfg_query { have = e - 1 });
            let deadline = Rt.now () +. 200. in
            let rec wait found =
              if found <> None || Rt.now () >= deadline then found
              else
                match
                  Rt.recv_cls
                    ~timeout:(deadline -. Rt.now ())
                    Reconfig.Rmsg.cls_cfg_reply
                with
                | Some
                    { Types.payload = Reconfig.Rmsg.Cfg_current { map }; _ }
                  when Etx.Shard_map.epoch map >= e ->
                    wait (Some map)
                | Some _ | None -> wait found
            in
            match wait None with
            | Some m ->
                t.maps := m :: !(t.maps);
                t.ops := !(t.ops) - 1
            | None -> drive ()
          in
          drive ()
        end)
  in
  e

(* ------------------------------------------------------------------ *)

module Spec = struct
  (* The groups whose databases committed the record's delivered try.
     Without reconfiguration this is the serving group; under it the two
     can differ — a result committed at the source before the flip is
     replayed by the destination via the driver's decision transfer, so
     the commit legitimately lives at the old owner. *)
  let committed_shards t (r : Etx.Client.record) =
    Array.to_list t.groups
    |> List.filter_map (fun g ->
           if
             List.exists
               (fun (_, rm) ->
                 List.exists
                   (fun xid ->
                     xid.Dbms.Xid.rid = r.rid && xid.Dbms.Xid.j = r.tries)
                   (Dbms.Rm.committed_xids rm))
               g.dbs
           then Some g.index
           else None)

  (* The replica groups a delivered record's transaction actually spanned.
     The serving group alone (stamped into the record by the server, so it
     stays correct when epochs move keys) unless the cluster runs
     cross-shard commit AND the business method's declared keyset spans
     several groups — the exact condition under which the engine forks
     into the Paxos-Commit path — in which case the participants are the
     shards of the {e committed} attempt's plan (later attempts may
     degrade to fewer branches, and only the branches of the winning plan
     ran anywhere). Under reconfiguration the participant is the group
     that {e committed} the try (falling back to the serving group when no
     commit is found — the per-view A.1 check then reports the miss). *)
  let participant_shards t (r : Etx.Client.record) =
    if t.reconfig && (not r.cached) && r.replica = None then
      match committed_shards t r with [] -> [ r.group ] | gs -> gs
    else
    let home = r.group in
    match t.business.Etx.Business.cross with
    | Some cross when t.cross && not r.cached && r.replica = None -> (
        let ks = t.business.Etx.Business.keys r.body in
        match
          Etx.Shard_map.shards_of t.map
            (ks.Etx.Business.reads @ ks.Etx.Business.writes)
        with
        | _ :: _ :: _ ->
            Etx.Shard_map.shards_of t.map
              (List.map fst
                 (cross.Etx.Business.plan ~attempt:r.tries ~body:r.body))
        | _ -> [ home ])
    | _ -> [ home ]

  let shard_views t =
    let scripts_done = List.for_all Etx.Client.script_done t.clients in
    let records = all_records t in
    Array.to_list
      (Array.map
         (fun g ->
           {
             Etx.Spec.View.label = Printf.sprintf "shard%d" g.index;
             dbs = g.dbs;
             (* a record belongs to every shard its transaction spanned:
                the per-shard A.1/exactly-once obligations then hold at
                each participant (all its databases committed the one
                delivered try), not just the home group *)
             records =
               List.filter
                 (fun (r : Etx.Client.record) ->
                   List.mem g.index (participant_shards t r))
                 records;
             scripts_done;
             notes = t.rt.notes;
             (* a crashed server's frozen cache is unreachable and
                flushed on recovery — skip it *)
             caches =
               List.filter (fun (pid, _) -> t.rt.is_up pid) g.caches;
             business = Some t.business;
             replicas = g.replicas;
             replica_bound = Etx.Appserver.replica_bound;
           })
         t.groups)

  let global_exactly_once t =
    List.concat_map
      (fun (r : Etx.Client.record) ->
        let participants = participant_shards t r in
        Array.to_list t.groups
        |> List.concat_map (fun g ->
               if List.mem g.index participants then []
               else
                 List.filter_map
                   (fun (_, rm) ->
                     let strays =
                       List.filter
                         (fun xid -> xid.Dbms.Xid.rid = r.rid)
                         (Dbms.Rm.committed_xids rm)
                     in
                     if strays = [] then None
                     else
                       Some
                         (Printf.sprintf
                            "global exactly-once: request %d (key %S, \
                             participants %s) also committed at %s on shard %d"
                            r.rid r.key
                            (String.concat ","
                               (List.map string_of_int participants))
                            (Dbms.Rm.name rm) g.index))
                   g.dbs))
      (all_records t)

  (* The obligation cross-shard commit adds (DESIGN.md §15): a global
     transaction decides once, cluster-wide.

     (a) every delivered multi-participant record is committed at every
     database of every shard its plan spanned — no "debited here, never
     credited there";
     (b) outcome agreement across shards: every database anywhere that
     committed a try of request [rid] committed the {e same} try. A
     participant that committed try 1 while the others aborted it and
     committed try 2 shows up here even though each shard is locally
     consistent. *)
  let global_atomicity t =
    let violations = ref [] in
    let add fmt =
      Printf.ksprintf (fun s -> violations := s :: !violations) fmt
    in
    List.iter
      (fun (r : Etx.Client.record) ->
        match participant_shards t r with
        | [] | [ _ ] -> ()
        | shards ->
            List.iter
              (fun s ->
                List.iter
                  (fun (_, rm) ->
                    let committed =
                      List.exists
                        (fun xid ->
                          xid.Dbms.Xid.rid = r.rid && xid.Dbms.Xid.j = r.tries)
                        (Dbms.Rm.committed_xids rm)
                    in
                    if not committed then
                      add
                        "global atomicity: request %d try %d delivered but \
                         not committed at %s (participant shard %d)"
                        r.rid r.tries (Dbms.Rm.name rm) s)
                  t.groups.(s).dbs)
              shards)
      (all_records t);
    let by_rid = Hashtbl.create 64 in
    Array.iter
      (fun g ->
        List.iter
          (fun (_, rm) ->
            List.iter
              (fun xid ->
                let cur =
                  Option.value ~default:[]
                    (Hashtbl.find_opt by_rid xid.Dbms.Xid.rid)
                in
                Hashtbl.replace by_rid xid.Dbms.Xid.rid
                  ((xid.Dbms.Xid.j, Dbms.Rm.name rm) :: cur))
              (Dbms.Rm.committed_xids rm))
          g.dbs)
      t.groups;
    Hashtbl.iter
      (fun rid entries ->
        match List.sort_uniq compare (List.map fst entries) with
        | [] | [ _ ] -> ()
        | js ->
            add
              "global atomicity: request %d committed as different tries {%s} \
               across databases (%s)"
              rid
              (String.concat "," (List.map string_of_int js))
              (String.concat ","
                 (List.sort_uniq compare (List.map snd entries))))
      by_rid;
    List.rev !violations

  (* The obligations elastic reconfiguration adds (DESIGN.md §16):

     (a) {e served by an owner}: the group that delivered each committed
     record owned its routing key under some epoch of the cluster's map
     history — a request never executes at a group the key was never
     placed in;

     (b) {e one committing group}: each delivered try committed its
     transaction in exactly one replica group. Zero groups means the
     delivered result corresponds to no commit anywhere (a lost record);
     two means a try re-executed across a flip (the duplicate the
     driver's decision transfer exists to prevent);

     (c) {e nothing left behind}: for every consecutive epoch pair and
     every moving range, each source-committed write of a moving key sits
     at or below the import watermark every destination database acked —
     the copy phase drained the source before the flip. *)
  let migration_integrity t =
    if not t.reconfig then []
    else begin
      let violations = ref [] in
      let add fmt =
        Printf.ksprintf (fun s -> violations := s :: !violations) fmt
      in
      let maps = !(t.maps) in
      List.iter
        (fun (r : Etx.Client.record) ->
          if (not r.cached) && r.replica = None then begin
            if
              not
                (List.exists
                   (fun m -> Etx.Shard_map.shard_of m r.key = r.group)
                   maps)
            then
              add
                "migration: request %d (key %S) served by shard %d, which \
                 owned the key under no epoch <= %d"
                r.rid r.key r.group (epoch t);
            match committed_shards t r with
            | [ _ ] -> ()
            | [] ->
                add
                  "migration: request %d try %d delivered but committed at \
                   no group"
                  r.rid r.tries
            | gs ->
                add
                  "migration: request %d try %d committed at groups {%s} — \
                   a cross-flip duplicate execution"
                  r.rid r.tries
                  (String.concat "," (List.map string_of_int gs))
          end)
        (all_records t);
      let rec pairs = function
        | newer :: (older :: _ as rest) -> (older, newer) :: pairs rest
        | _ -> []
      in
      List.iter
        (fun (older, newer) ->
          List.iter
            (fun { Etx.Shard_map.src; dst } ->
              List.iter
                (fun (_, s_rm) ->
                  let s_name = Dbms.Rm.name s_rm in
                  List.iter
                    (fun xid ->
                      let moving =
                        List.exists
                          (fun k ->
                            Etx.Shard_map.shard_of older k = src
                            && Etx.Shard_map.shard_of newer k = dst)
                          (Dbms.Rm.writes_of s_rm xid)
                      in
                      match (moving, Dbms.Rm.commit_lsn_of s_rm xid) with
                      | true, Some lsn ->
                          List.iter
                            (fun (_, d_rm) ->
                              let wm =
                                Dbms.Rm.import_watermark d_rm ~src:s_name
                              in
                              if wm < lsn then
                                add
                                  "migration: %s committed request %d try \
                                   %d at LSN %d on a key moving to shard \
                                   %d, but %s imported it only through LSN \
                                   %d"
                                  s_name xid.Dbms.Xid.rid xid.Dbms.Xid.j lsn
                                  dst (Dbms.Rm.name d_rm) wm)
                            t.groups.(dst).dbs
                      | _ -> ())
                    (Dbms.Rm.committed_xids s_rm))
                t.groups.(src).dbs)
            (Etx.Shard_map.diff older newer))
        (pairs maps);
      List.rev !violations
    end

  let check_all t =
    List.concat_map Etx.Spec.View.check_all (shard_views t)
    @ global_exactly_once t @ global_atomicity t @ migration_integrity t

  (* The observability layer double-counts nothing by construction:
     [client.committed] is incremented exactly where a client appends a
     delivered record, so any drift between the registry and the client's
     own records is a bug in the obs plumbing, not in the protocol. *)
  let obs_consistency reg t =
    let violations = ref [] in
    let add fmt =
      Printf.ksprintf (fun s -> violations := s :: !violations) fmt
    in
    let records = all_records t in
    let total = Obs.Registry.counter_total reg "client.committed" in
    if total <> List.length records then
      add "obs: client.committed=%d but clients delivered %d records" total
        (List.length records);
    List.iteri
      (fun i c ->
        let node =
          if i = 0 then "client" else Printf.sprintf "client%d" (i + 1)
        in
        let n = Obs.Registry.counter_value reg ~node ~name:"client.committed" in
        let expect = List.length (Etx.Client.records c) in
        if n <> expect then
          add "obs: %s client.committed=%d but it delivered %d records" node n
            expect)
      t.clients;
    Array.iter
      (fun g ->
        (* cache- and replica-served records never committed a transaction,
           so they do not contribute to any server.committed counter *)
        let homed =
          List.length
            (List.filter
               (fun (r : Etx.Client.record) ->
                 (not r.cached)
                 && r.replica = None
                 &&
                 (* [server.committed] counts at the group that ran the
                    terminate — under reconfiguration the committing
                    group, not necessarily the one that delivered the
                    (possibly replayed) result *)
                 if t.reconfig then List.mem g.index (committed_shards t r)
                 else Etx.Shard_map.shard_of t.map r.key = g.index)
               records)
        in
        let n = Obs.Registry.counter_total ~group:g.index reg "server.committed" in
        (* cleaners may re-terminate, so the server-side count is a lower
           bound only: every delivered commit had at least one terminating
           commit in its home group *)
        if n < homed then
          add
            "obs: shard%d server.committed=%d < %d committed records homed \
             there"
            g.index n homed)
      t.groups;
    List.rev !violations
end
