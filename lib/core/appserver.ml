open Runtime
module Rt = Etx_runtime
open Dnet
open Etx_types
module Woreg = Consensus.Woreg

type fd_spec =
  | Fd_oracle
  | Fd_heartbeat of {
      period : float;
      initial_timeout : float;
      timeout_bump : float;
    }

(* Cross-shard commit wiring (DESIGN.md §15). [shard_of_key] is the
   cluster's routing map; [peers] names the application servers of a
   participant group, [[]] past the last group (a function because the
   full cluster membership is only known after every group spawned). *)
type cross_cfg = {
  shard_of_key : string -> int;
  peers : int -> Types.proc_id list;
}

(* Elastic reconfiguration wiring (DESIGN.md §16). [cfg_group] is the
   group whose consensus decides the cfg:/mig: register sequences (group 0
   by convention); [rc_servers_of]/[rc_dbs_of] cover the whole provisioned
   cluster, spare groups included — functions because the full membership
   is only known after every group spawned. *)
type reconfig_cfg = {
  init_map : Shard_map.t;
  cfg_group : int;
  rc_groups : int;
  rc_servers_of : int -> Types.proc_id list;
  rc_dbs_of : int -> (Types.proc_id * string) list;
}

type config = {
  rt : Rt.t;  (** the execution substrate hosting this server *)
  group : int;
  index : int;
  servers : Types.proc_id list;
  dbs : Types.proc_id list;
  business : Business.t;
  fd_spec : fd_spec;
  clean_period : float;
  persist : Consensus.Agent.persistence option;
  batch : int;
      (** max results per leased batch; 1 = the classic per-result path *)
  cache : Method_cache.t option;
      (** method cache for read-only calls; [None] = caching off (the
          request path is then byte-identical to the uncached protocol) *)
  replicas : (unit -> (Types.proc_id * Types.proc_id list) list) option;
      (** per-database read replicas for cache-miss read-only calls;
          [None] = replica routing off (the request path is then
          byte-identical to the replica-less protocol). A thunk because
          replicas are spawned after the application servers. *)
  cross : cross_cfg option;
      (** cross-shard commit wiring; [None] = cross-shard requests cannot
          arise (the request path is then byte-identical to the
          single-shard protocol) *)
  reconfig : reconfig_cfg option;
      (** elastic reconfiguration; [None] = the map is fixed forever (no
          cfg fiber is forked and the request path stays byte-identical to
          the static protocol) *)
}

(* Max provable staleness (LSN delta) tolerated on a replica read: a
   replica whose lag exceeds it answers stale and the request falls back
   to the primary pipeline. *)
let replica_bound = 8

(* Live reconfiguration state of one server: its current map view, and —
   while it belongs to a migration's source group — the target map it is
   sealed against. [driving] dedups driver fibers per target epoch (a
   re-sent [Mig_start] or a monitor tick must not fork a second driver for
   the same migration). *)
type rc_state = {
  mutable rc_map : Shard_map.t;
  mutable sealing : Shard_map.t option;
  driving : (int, unit) Hashtbl.t;
}

(* Per-request protocol state on one server. Everything here is volatile
   (servers are stateless): it only caches what the registers and client
   messages already determine. On the classic path a server holds it only
   for a client's newest request ([floor]). *)
type rid_state = {
  mutable client : Types.proc_id option;
  mutable last : (int * decision) option;  (** last terminated try here *)
  mutable seen : int;
      (** highest try number a client request carried here (0 = none):
          the cleaning scan's floor when the group's own regA array has
          holes — a re-routed request starts above 1 at its new group *)
  mutable cleaned : int list;  (** the paper's [clist], per request *)
  mutable rspan : int;
      (** the client's root span id, from the request message (0 = none);
          per-try and cleaner spans parent under it *)
}

(* Per-request outcome of this server's replica attempt. [Replica_answered]
   replays the same answer to client retransmissions (at-most-once reply
   without another replica read); [Replica_declined] latches the request to
   the primary pipeline, where the registers dedupe retries cheaply.
   Without this memo every retransmission of a queued read costs a fresh
   replica SQL round plus a patience wait, and under load the duplicates
   arrive faster than they drain. *)
type replica_memo =
  | Replica_answered of string * int * int  (** result, lsn, lag *)
  | Replica_declined

(* A client issues one request at a time and its rids only grow (they
   come from the engine-wide [fresh_uid]), so a request of the client, or
   a decided register or batch slot naming one of its requests, shows
   that it holds the result of every earlier request. [newest] is the
   highest rid of the client seen here; every lower rid is {e retired}:
   its regA/regD registers are collected once every server holds their
   decisions, its state is dropped and a late copy of it is dropped at
   intake. [tries] is the highest try of [newest] seen here: the
   registers to release when it retires. *)
type floor = { mutable newest : int; mutable tries : int }

(* What this server knows of the batch slots of one lease epoch
   (DESIGN.md §12). [floor] is the highest delivered floor a decided
   election of the epoch carried: every slot below it is decided,
   acknowledged by every database and answered. [known] is the first
   slot whose election and decision are not both decided here, and
   [ahead] the slots above it that are; a known slot's requests have
   raised their clients' floors. Below both ({!settled}) a slot is finished
   everywhere and known here: a takeover seals the epoch from there, and
   the slot's two registers retire. [sealed] is the slot whose election
   register holds Seal, once decided here (-1 before): the epoch ended
   there. [fetching]: a fiber is learning the slots below [floor] that
   are not known here ({!fetch_missed}). *)
type slots = {
  mutable floor : int;
  mutable known : int;
  mutable ahead : int list;
  mutable sealed : int;
  mutable fetching : bool;
}

(* The newest request of a client that a decided batch slot showed here,
   with its try and outcome: evidence for a takeover, which makes it this
   server's termination record; until then the server answers nothing
   from it. *)
type learned = {
  mutable l_rid : int;
  mutable l_j : int;
  mutable l_outcome : decision;
}

(* What this server learned of the leased path: [epochs] by lease epoch,
   [outcomes] by client. Made when the first batch register decides here,
   so a server that never sees one holds none of it. *)
type leased = {
  epochs : (int, slots) Hashtbl.t;
  outcomes : (Types.proc_id, learned) Hashtbl.t;
}

type ctx = {
  cfg : config;
  self : Types.proc_id;
  ch : Rchannel.t;
  fd : Fdetect.t;
  regs : Woreg.t;
      (** every register of this server's group (names namespaced by
          group, see {!Etx_types.Reg_name}) *)
  rd : Dbms.Stub.Readiness.t;
  rids : (int, rid_state) Hashtbl.t;  (** by rid; live requests only *)
  floors : (Types.proc_id, floor) Hashtbl.t;  (** by client *)
  mutable leased : leased option;  (** None until a batch register decides *)
  replica_memo : (int, replica_memo) Hashtbl.t;  (** by rid; replicas only *)
  running : (int * int * int, unit) Hashtbl.t;
      (** tries and branches in flight here, keyed (rid, j, k): fresh tries
          and tries of a window ([k] = -1), and cross-shard branch
          executions ([k] = participant shard). Purely a
          duplicate-suppression memo — the registers stay the safety
          argument *)
  rc : rc_state option;  (** reconfiguration state; None = map fixed *)
  sink : Rt.obs_sink option;  (** fetched once at spawn; None = obs off *)
  silent : (Types.proc_id, float) Hashtbl.t;
      (** latest time the channel reported each destination silent *)
  silent_wake : Rt.Wake.t;  (** woken at each such report *)
  mutable gx_awaited : (Types.payload -> bool) list;
      (** reply matchers of the gx RPCs waiting here; the gx fiber drops
          every other gx reply *)
}

let gauge_rids ctx =
  match ctx.sink with
  | None -> ()
  | Some s ->
      s.Rt.obs_gauge "server.rid_states" (float_of_int (Hashtbl.length ctx.rids))

(* Callers create state only for a live rid ({!admit}). *)
let rid_state ctx rid =
  match Hashtbl.find_opt ctx.rids rid with
  | Some st -> st
  | None ->
      let st =
        { client = None; last = None; seen = 0; cleaned = []; rspan = 0 }
      in
      Hashtbl.replace ctx.rids rid st;
      gauge_rids ctx;
      st

(* What is held here for retired request [rid] of [client] goes: its
   state, replica memo and in-flight marks, and through the agent
   registers [1..tries] of both of its arrays — which only the classic
   path and cross-shard tries write. *)
let forget_request ctx ~client ~rid ~tries =
  Hashtbl.remove ctx.rids rid;
  Hashtbl.remove ctx.replica_memo rid;
  if ctx.cfg.batch = 1 || ctx.cfg.cross <> None then begin
    let group = ctx.cfg.group in
    let reg_a = Reg_name.reg_a ~group ~client ~rid
    and reg_d = Reg_name.reg_d ~group ~client ~rid in
    for j = 1 to tries do
      if Hashtbl.length ctx.running > 0 then
        Hashtbl.remove ctx.running (rid, j, -1);
      Woreg.release ctx.regs ~name:reg_a ~j;
      Woreg.release ctx.regs ~name:reg_d ~j
    done
  end;
  gauge_rids ctx

(* Records that [client] issued try [j] of [rid]; [false] iff [rid] is
   retired here. A newer rid retires the previous newest. *)
let admit ctx ~client ~rid ~j =
  match Hashtbl.find ctx.floors client with
  | f when rid < f.newest -> false
  | f when rid = f.newest ->
      if j > f.tries then f.tries <- j;
      true
  | f ->
      let old = f.newest and tries = f.tries in
      f.newest <- rid;
      f.tries <- j;
      forget_request ctx ~client ~rid:old ~tries;
      true
  | exception Not_found ->
      Hashtbl.add ctx.floors client { newest = rid; tries = j };
      true

let retired ctx ~client ~rid =
  match Hashtbl.find ctx.floors client with
  | f -> rid < f.newest
  | exception Not_found -> false

(* The termination record of try [j]: [st.last] never regresses to an
   older try (a late cleaner or a batch re-delivery must not shadow a
   newer decision). *)
let set_last st ~j (d : decision) =
  match st.last with
  | Some (j', _) when j' >= j -> ()
  | Some _ | None -> st.last <- Some (j, d)

(* The slots of [epoch] below which everything is finished and known
   here; 0 for an epoch nothing is known of. *)
let settled ctx epoch =
  match ctx.leased with
  | None -> 0
  | Some l -> (
      match Hashtbl.find l.epochs epoch with
      | s -> Int.min s.floor s.known
      | exception Not_found -> 0)

(* Every slot of [epoch] is known here, up to the one its Seal ended it
   at: a takeover has nothing of the epoch to learn or close. *)
let known_to_seal ctx epoch =
  match ctx.leased with
  | None -> false
  | Some l -> (
      match Hashtbl.find l.epochs epoch with
      | s -> s.sealed >= 0 && s.known >= s.sealed
      | exception Not_found -> false)

let leased ctx =
  match ctx.leased with
  | Some l -> l
  | None ->
      let l = { epochs = Hashtbl.create 4; outcomes = Hashtbl.create 16 } in
      ctx.leased <- Some l;
      l

let slots l epoch =
  match Hashtbl.find l.epochs epoch with
  | s -> s
  | exception Not_found ->
      let s =
        { floor = 0; known = 0; ahead = []; sealed = -1; fetching = false }
      in
      Hashtbl.add l.epochs epoch s;
      s

(* Slots that finish out of order: once [seq] finishes too, the first
   slot not finished, counting up from [next], and the finished slots past
   it. *)
let finish_slot ~next ~ahead seq =
  let rec go next ahead =
    if List.mem next ahead then
      go (next + 1) (List.filter (fun k -> k <> next) ahead)
    else (next, ahead)
  in
  go next (seq :: ahead)

(* [s] was raised from [before] settled slots: the slots it settled
   retire their two registers. *)
let settle ctx ~epoch s ~before =
  let group = ctx.cfg.group in
  for seq = before to Int.min s.floor s.known - 1 do
    Woreg.release_key ctx.regs (Reg_name.batch_a_key ~group ~epoch ~seq);
    Woreg.release_key ctx.regs (Reg_name.batch_d_key ~group ~epoch ~seq)
  done

(* Slot [seq] of [epoch] is decided here: each of its requests admits
   its rid (which retires the client's previous request) and, if it is
   still the client's newest, leaves its outcome in [l.outcomes], so
   the server that takes the next lease knows the outcome of every
   client's newest request without a takeover of its slot. *)
let learn_slot ctx l s ~epoch ~seq ~items decision =
  let record (client, rid, j) d =
    if admit ctx ~client ~rid ~j then
      match Hashtbl.find l.outcomes client with
      | o ->
          if rid > o.l_rid || j > o.l_j then begin
            o.l_rid <- rid;
            o.l_j <- j;
            o.l_outcome <- d
          end
      | exception Not_found ->
          Hashtbl.add l.outcomes client { l_rid = rid; l_j = j; l_outcome = d }
  in
  (match decision with
  | Reg_batch_decide ds -> List.iter2 record items ds
  | _ -> List.iter (fun item -> record item abort_decision) items);
  if seq >= s.known && not (List.mem seq s.ahead) then begin
    let before = Int.min s.floor s.known in
    let known, ahead = finish_slot ~next:s.known ~ahead:s.ahead seq in
    s.known <- known;
    s.ahead <- ahead;
    settle ctx ~epoch s ~before
  end

(* Every slot below the floor is decided everywhere, so one not known
   here was missed: its decision relays were lost to a server wrongly
   suspected, which the channel does not resend to. A fiber learns each
   such slot by writing its two registers, which only returns the values
   already decided; the hook then learns the slot. *)
let fetch_missed ctx ~epoch s =
  s.fetching <- true;
  Rt.fork "batch-fetch" (fun () ->
      let group = ctx.cfg.group in
      let rec fetch () =
        let seq = s.known in
        if seq < s.floor then begin
          ignore
            (Woreg.write ctx.regs
               ~name:(Reg_name.batch_a ~group ~epoch ~seq)
               ~j:0 Reg_batch_seal);
          ignore
            (Woreg.write ctx.regs
               ~name:(Reg_name.batch_d ~group ~epoch ~seq)
               ~j:0 Reg_batch_abort_all);
          if s.known > seq then fetch ()
        end
      in
      fetch ();
      s.fetching <- false)

(* Slot [seq]'s election, as decided here, raises its epoch's floor;
   with its decision also decided here, the slot is learned. *)
let learn_election ctx l s ~epoch ~seq election decision =
  match election with
  | Some (Reg_batch_elect { floor; items; _ }) -> (
      if floor > s.floor then begin
        let before = Int.min s.floor s.known in
        s.floor <- floor;
        settle ctx ~epoch s ~before;
        if s.known < floor && not s.fetching then fetch_missed ctx ~epoch s
      end;
      match decision with
      | Some decision -> learn_slot ctx l s ~epoch ~seq ~items decision
      | None -> ())
  | Some _ | None -> ()

(* A batch register decided here: a Seal marks where its epoch ended, and
   otherwise the slot's other register is read and the slot learned as
   far as both are decided here. Only local reads: no message, unless the
   floor passed a slot not known here. *)
let learn_batch ctx key =
  let epoch = Reg_name.epoch_of key and seq = Reg_name.seq_of key in
  let group = ctx.cfg.group in
  let l = leased ctx in
  let s = slots l epoch in
  match Woreg.read_key ctx.regs key with
  | Some Reg_batch_seal -> s.sealed <- seq
  | Some (Reg_batch_elect _) as election ->
      learn_election ctx l s ~epoch ~seq election
        (Woreg.read_key ctx.regs (Reg_name.batch_d_key ~group ~epoch ~seq))
  | Some _ as decision ->
      learn_election ctx l s ~epoch ~seq
        (Woreg.read_key ctx.regs (Reg_name.batch_a_key ~group ~epoch ~seq))
        decision
  | None -> ()

(* The agent's view of the floors: a decided classic register admits its
   request, and a decided batch register is learned. A classic register
   key is retired with its request, a batch register key below the
   settled slots of its epoch. *)
let learn_register ctx key =
  let client = Reg_name.client_of key in
  if client >= 0 then
    ignore
      (admit ctx ~client ~rid:(Reg_name.rid_of key) ~j:(Reg_name.try_of key))
  else if Reg_name.epoch_of key >= 0 then learn_batch ctx key

let retired_register ctx key =
  let client = Reg_name.client_of key in
  if client >= 0 then retired ctx ~client ~rid:(Reg_name.rid_of key)
  else
    let epoch = Reg_name.epoch_of key in
    epoch >= 0 && Reg_name.seq_of key < settled ctx epoch

(* Bump obs counter [name] by [n] (nothing when obs is off or [n] = 0). *)
let count ?(n = 1) ctx name =
  if n > 0 then
    match ctx.sink with None -> () | Some s -> s.Rt.obs_count name n

let map_epoch ctx =
  match ctx.rc with None -> 0 | Some rc -> Shard_map.epoch rc.rc_map

(* Every bounce carries the server's map epoch: [0] on non-reconfigurable
   deployments (clients there never compare epochs), the live epoch
   otherwise — a client holding an older map refetches it and re-routes. *)
let send_nack ctx ~rid ~j ~client =
  Rchannel.send ctx.ch client
    (Result_nack_msg { rid; j; group = ctx.cfg.group; epoch = map_epoch ctx })

(* Reconfiguration intake guard, checked after the group stamp matched:
   bounce a request whose key this group does not own under the current
   map (the client is behind — its stamp only matched because it computed
   the same group from a stale map), or whose key the in-progress
   migration is taking away (sealed: admitting a fresh try would race the
   copy). Replays of already-terminated tries still answer — that is the
   exactly-once path for results committed here before the key moved. *)
let rc_bounced ctx ~(request : request) ~j ~client =
  match ctx.rc with
  | None -> false
  | Some rc ->
      let replayable =
        match Hashtbl.find_opt ctx.rids request.rid with
        | Some { last = Some (j', d); _ } ->
            (* an exact or older try replays its recorded decision; a
               terminated {e commit} replays for every later try too
               (commit is final — see the intake rule) *)
            j' >= j || d.outcome = Dbms.Rm.Commit
        | _ -> false
      in
      let foreign =
        Shard_map.shard_of rc.rc_map request.key <> ctx.cfg.group
      in
      let sealed_away =
        match rc.sealing with
        | Some target ->
            Shard_map.shard_of target request.key <> ctx.cfg.group
        | None -> false
      in
      if (foreign || sealed_away) && not replayable then begin
        count ctx "migrate.bounced";
        Rt.note
          (Printf.sprintf "bounced:g%d:e%d" ctx.cfg.group (map_epoch ctx));
        send_nack ctx ~rid:request.rid ~j ~client;
        true
      end
      else false

(* Obs phase span around [f]; left open if the process crashes mid-phase
   ({!Rt.span}). *)
let ospan ctx ?(parent = 0) ~trace name f =
  Rt.span ctx.sink ~parent ~trace name f

(* Open the obs span of one try-scoped step (a try, its terminate round, a
   cleaner take-over): attribute "j" first, then [attrs] in order. *)
let open_span ctx ~parent ~rid ~j ?(attrs = []) name =
  match ctx.sink with
  | None -> 0
  | Some s ->
      let id = s.Rt.obs_span_open ~parent ~trace:rid name in
      s.Rt.obs_span_attr id "j" (string_of_int j);
      List.iter (fun (k, v) -> s.Rt.obs_span_attr id k v) attrs;
      id

let close_span ctx ?attr id =
  match ctx.sink with
  | None -> ()
  | Some s ->
      Option.iter (fun (k, v) -> s.Rt.obs_span_attr id k v) attr;
      s.Rt.obs_span_close id

(* The V.1 obligation's evidence: the result a try computed. *)
let note_computed ~rid ~j result = Rt.note (Spec.computed_note ~rid ~j result)

(* ---------------- Method cache (DESIGN.md §13) ---------------- *)


(* Serve a read-only request straight from the method cache; [true] iff a
   reply went out. A hit bypasses the whole pipeline — no election, no
   transaction, no [rid_state] (the request never existed as far as the
   registers are concerned); the client marks the delivered record as
   cached and the spec holds it to the cache-coherence obligation instead
   of A.1/exactly-once. *)
let serve_cached ctx ~(request : request) ~j ~client =
  match ctx.cfg.cache with
  | None -> false
  | Some cache ->
      ctx.cfg.business.Business.read_only request.body
      && begin
           let t0 = Rt.now () in
           match
             Method_cache.find cache ~label:ctx.cfg.business.Business.label
               ~body:request.body
           with
           | Some result ->
               Rchannel.send ctx.ch client
                 (Result_cached_msg
                    { rid = request.rid; j; result; group = ctx.cfg.group });
               (match ctx.sink with
               | None -> ()
               | Some s ->
                   s.Rt.obs_count "cache.hit" 1;
                   s.Rt.obs_observe "cache.hit_latency_ms" (Rt.now () -. t0));
               true
           | None ->
               count ctx "cache.miss";
               false
         end

(* ---------------- Replica reads (DESIGN.md §14) ---------------- *)

exception Replica_fallback

(* How long a replica read may block before it falls back to the primary
   pipeline (virtual ms). *)
let replica_patience = 1_000.

(* Serve a cache-miss read-only request on an asynchronous read replica;
   [true] iff a reply went out. The business logic runs against replica
   state: the exec closure sends [Replica_exec] instead of the primary's
   exec round, so the primary pays neither coordination nor SQL for the
   request. Anything that prevents an honest bounded-staleness answer —
   no replica for the database, a non-read op slipping through, replies
   from different LSN snapshots, a stale or refusing replica, a timeout —
   raises [Replica_fallback] and the request takes the normal pipeline.
   Replica results are NEVER written to the method cache: the cache holds
   committed-fresh values, a replica answers provably-stale ones, and
   laundering the latter into the former would break cache coherence. *)
let serve_replica ctx ~(request : request) ~j ~client =
  match ctx.cfg.replicas with
  | None -> false
  | Some _ when Hashtbl.mem ctx.replica_memo request.rid -> (
      match Hashtbl.find ctx.replica_memo request.rid with
      | Replica_declined -> false
      | Replica_answered (result, lsn, lag) ->
          (* replay the answer restamped with the incoming try — the
             client only accepts its current j *)
          Rchannel.send ctx.ch client
            (Result_replica_msg
               { rid = request.rid; j; result; lsn; lag; group = ctx.cfg.group });
          count ctx "server.replica_replayed";
          true)
  | Some replicas_of ->
      ctx.cfg.business.Business.read_only request.body
      && begin
           let rid = request.rid in
           let t0 = Rt.now () in
           let seq = ref 0 in
           let snapshot = ref None in
           (* (lsn, lag) all replies must agree on *)
           let chosen_db = ref None in
           let exec ~db ops =
             (match !chosen_db with
             | None -> chosen_db := Some db
             | Some d when d = db -> ()
             | Some _ ->
                 (* one record carries one (lsn, lag): a business method
                    spanning databases has no single provable snapshot *)
                 raise Replica_fallback);
             let replica =
               match List.assoc_opt db (replicas_of ()) with
               | None | Some [] -> raise Replica_fallback
               | Some rs -> List.nth rs (rid mod List.length rs)
             in
             let s = !seq in
             incr seq;
             Rchannel.send ctx.ch replica
               (Dbms.Msg.Replica_exec
                  { rid; seq = s; ops; bound = replica_bound });
             let filter m =
               m.Types.src = replica
               &&
               match m.Types.payload with
               | Dbms.Msg.Replica_values { rid = r; seq = s'; _ }
               | Dbms.Msg.Replica_stale { rid = r; seq = s'; _ }
               | Dbms.Msg.Replica_refused { rid = r; seq = s' } ->
                   r = rid && s' = s
               | _ -> false
             in
             (* a finite patience: a crashed replica must stall the
                request only briefly before it falls back, never blackhole
                it (replies are filtered by seq, so a late answer to an
                abandoned attempt is ignored) *)
             let m =
               match
                 Rt.recv ~timeout:replica_patience
                   ~cls:Dbms.Msg.cls_replica_reply ~filter ()
               with
               | None -> raise Replica_fallback
               | Some m -> m
             in
             (match m.Types.payload with
             | Dbms.Msg.Replica_values { values; lsn; lag; _ } ->
                 (match !snapshot with
                 | None -> snapshot := Some (lsn, lag)
                 | Some (l, _) when l = lsn -> ()
                 | Some _ -> raise Replica_fallback);
                 Dbms.Rm.Exec_ok { values; business_ok = true }
             | Dbms.Msg.Replica_stale _ | Dbms.Msg.Replica_refused _ | _ ->
                 raise Replica_fallback)
           in
           match
             let xid = Dbms.Xid.make ~rid ~j in
             let context =
               { Business.xid; dbs = ctx.cfg.dbs; exec; attempt = j }
             in
             let result =
               ctx.cfg.business.Business.run context ~body:request.body
             in
             (* a transient error report is not a function of committed
                state (same rule as the cache fill): recompute it on the
                primary rather than stamping it with an LSN *)
             if not (ctx.cfg.business.Business.cacheable result) then
               raise Replica_fallback;
             (result, !snapshot)
           with
           | result, Some (lsn, lag) ->
               Hashtbl.replace ctx.replica_memo rid
                 (Replica_answered (result, lsn, lag));
               Rchannel.send ctx.ch client
                 (Result_replica_msg
                    { rid; j; result; lsn; lag; group = ctx.cfg.group });
               (match ctx.sink with
               | None -> ()
               | Some s ->
                   s.Rt.obs_count "server.replica_served" 1;
                   s.Rt.obs_observe "server.replica_latency_ms"
                     (Rt.now () -. t0));
               true
           | _result, None ->
               (* the business logic never read anything: serve it through
                  the normal pipeline rather than inventing a snapshot *)
               Hashtbl.replace ctx.replica_memo rid Replica_declined;
               false
           | exception Replica_fallback ->
               (* latch the request to the primary: a replica that was
                  stale, refusing or too slow once would eat another SQL
                  round and patience window on every retransmission *)
               Hashtbl.replace ctx.replica_memo rid Replica_declined;
               count ctx "server.replica_fallback";
               false
         end

(* After a try (or batch member) decides: fill the cache with a committed
   read-only result — guarded by the generation snapshot [gen] taken
   before the business logic read the database, so a fill can never
   outrace an invalidation for a write its snapshot predates — and, for
   write methods, eagerly drop local entries named by the declared write
   keyset. The database's authoritative [Invalidate] broadcast (derived
   from the actual workspace) follows on every commit; the eager drop
   merely closes the window in which this server could serve its own
   pre-commit value. *)
let cache_after_decide ctx ~body ~gen (final : decision) =
  match ctx.cfg.cache with
  | None -> ()
  | Some cache ->
      if final.outcome = Dbms.Rm.Commit then begin
        let b = ctx.cfg.business in
        if b.Business.read_only body then
          match final.result with
          | Some result when b.Business.cacheable result ->
              let reads = (b.Business.keys body).Business.reads in
              ignore
                (Method_cache.store cache ~generation:gen
                   ~label:b.Business.label ~body ~reads ~result)
          | Some _ | None ->
              (* a transient error report can commit (e.g. a fail-over
                 re-execution the database rejected) but is not a function
                 of committed state — deliver it, never cache it *)
              ()
        else
          let writes = (b.Business.keys body).Business.writes in
          if writes <> [] then
            count ctx "cache.invalidate"
              ~n:(Method_cache.invalidate cache ~writes)
      end

let cache_generation ctx =
  match ctx.cfg.cache with
  | None -> 0
  | Some cache -> Method_cache.generation cache

(* Consume the databases' commit-piggybacked [Invalidate] broadcasts.
   Forked only when the cache is on — without it the class goes unread
   (and cache-less deployments never receive these messages at all). *)
let invalidate_thread ctx cache () =
  let rec loop () =
    (match Rt.recv_cls Dbms.Msg.cls_invalidate with
    | None -> ()
    | Some m -> (
        match m.payload with
        | Dbms.Msg.Invalidate { keys = [] } ->
            (* flush-all sentinel: a recovered database can no longer
               enumerate the write keysets of the commits it replayed *)
            count ctx "cache.invalidate" ~n:(Method_cache.flush cache)
        | Dbms.Msg.Invalidate { keys } ->
            count ctx "cache.invalidate"
              ~n:(Method_cache.invalidate cache ~writes:keys)
        | _ -> ()));
    loop ()
  in
  loop ()

(* ---------------- Fig. 4: terminate() ---------------- *)

let send_result ctx st ~rid ~j decision =
  match st.client with
  | None -> () (* client unknown here (it crashed before broadcasting) *)
  | Some c ->
      Rchannel.send ctx.ch c
        (Result_msg { group = ctx.cfg.group; items = [ (rid, j, decision) ] })

(* The termination record of try [j], whichever path terminated it. *)
let record_termination ctx st ~j (d : decision) =
  set_last st ~j d;
  match ctx.sink with
  | None -> ()
  | Some s ->
      s.Rt.obs_count "server.terminated" 1;
      if d.outcome = Dbms.Rm.Commit then s.Rt.obs_count "server.committed" 1

let deliver ctx st ~rid ~j decision =
  send_result ctx st ~rid ~j decision;
  record_termination ctx st ~j decision

(* Fig. 4's terminate(): decide the try at every database of the group,
   resending until each acknowledges. *)
let terminate ctx st ?(parent = 0) ~rid ~j (decision : decision) =
  let tspan = open_span ctx ~parent ~rid ~j "terminate" in
  Dbms.Stub.decide ctx.ch ctx.rd ~dbs:ctx.cfg.dbs
    ~items:[ (Dbms.Xid.make ~rid ~j, decision.outcome) ];
  deliver ctx st ~rid ~j decision;
  close_span ctx tspan

(* ---------------- Fig. 5: the computation thread ---------------- *)

(* The XA start and end rounds of a window at this group's databases. *)
let xa_start ctx ~xids =
  Dbms.Stub.xa_start ctx.ch ctx.rd ~dbs:ctx.cfg.dbs ~xids

let xa_end ctx ~xids = Dbms.Stub.xa_end ctx.ch ctx.rd ~dbs:ctx.cfg.dbs ~xids

let run_business ctx ~xid ~attempt ~body =
  let context =
    {
      Business.xid;
      dbs = ctx.cfg.dbs;
      exec = Dbms.Stub.exec_of ctx.ch ctx.rd ~xid;
      attempt;
    }
  in
  ctx.cfg.business.Business.run context ~body

(* Fig. 5 l. 5–6: open the "try" span of (rid, j) — parented under the
   client's propagated root span; phases hang off it — and contest regA[j]
   with [claim] (the "election" span). Returns the span and the winning
   claim. *)
let elect_try ctx st ~client ~rid ~j ?attrs claim =
  let tspan = open_span ctx ~parent:st.rspan ~rid ~j ?attrs "try" in
  let winner =
    ospan ctx ~parent:tspan ~trace:rid "election" (fun () ->
        Woreg.write ctx.regs
          ~name:(Reg_name.reg_a ~group:ctx.cfg.group ~client ~rid)
          ~j claim)
  in
  (tspan, winner)

(* Fig. 5 l. 10 and Fig. 6 l. 7: write regD[j]. The returned decision — the
   proposal, or whatever another server wrote first — is the one to
   terminate, exactly as the paper's assignment semantics. *)
let decide_try ctx ~client ~rid ~j proposal =
  match
    Woreg.write ctx.regs
      ~name:(Reg_name.reg_d ~group:ctx.cfg.group ~client ~rid)
      ~j (Reg_d_value proposal)
  with
  | Reg_d_value d -> d
  | _ -> proposal

let compute_try ctx st ~client ~(request : request) ~j =
  let rid = request.rid in
  let xid = Dbms.Xid.make ~rid ~j in
  let xids = [ xid ] in
  let tspan, winner =
    elect_try ctx st ~client ~rid ~j (Reg_a_value ctx.self)
  in
  match winner with
  | Reg_a_value w when w = ctx.self ->
      (* snapshot before the business logic reads anything: a fill is only
         accepted if no invalidation intervened (see cache_after_decide) *)
      let gen = cache_generation ctx in
      let result =
        ospan ctx ~parent:tspan ~trace:rid "compute" (fun () ->
            xa_start ctx ~xids;
            let result =
              run_business ctx ~xid ~attempt:j ~body:request.body
            in
            note_computed ~rid ~j result;
            xa_end ctx ~xids;
            result)
      in
      let outcome =
        ospan ctx ~parent:tspan ~trace:rid "prepare" (fun () ->
            List.hd (Dbms.Stub.prepare ctx.ch ctx.rd ~dbs:ctx.cfg.dbs ~xids))
      in
      let final =
        ospan ctx ~parent:tspan ~trace:rid "consensus" (fun () ->
            decide_try ctx ~client ~rid ~j { result = Some result; outcome })
      in
      terminate ctx st ~parent:tspan ~rid ~j final;
      cache_after_decide ctx ~body:request.body ~gen final;
      close_span ctx tspan
  | Reg_a_value _ ->
      (* another server won the election: it (or the cleaning thread of a
         correct server) will terminate this try; the client's
         retransmission drives progress *)
      close_span ctx ~attr:("lost_election", "true") tspan
  | _ -> ()

(* ---------------- DESIGN.md §15: cross-shard commit ---------------- *)

(* Participant shards of a request, when the deployment and the business
   method both opt into cross-shard commit AND the declared keyset actually
   spans several replica groups. [None] sends the request down the classic
   path before any cross-shard code runs — co-located requests stay
   record-for-record identical to the single-shard protocol. *)
let cross_shards ctx ~body =
  match (ctx.cfg.cross, ctx.cfg.business.Business.cross) with
  | Some cc, Some _ -> (
      let ks = ctx.cfg.business.Business.keys body in
      match
        List.sort_uniq compare
          (List.map cc.shard_of_key (ks.Business.reads @ ks.Business.writes))
      with
      | _ :: _ :: _ as shards -> Some shards
      | _ -> None)
  | _ -> None

(* Merge the plan's [(anchor, ops)] entries into one branch per shard
   (first-appearance order), keeping the entries so the branch's reply can
   be split back per anchor. *)
let branches_of_plan cc entries =
  let tbl = Hashtbl.create 4 in
  let order = ref [] in
  List.iter
    (fun ((anchor, _) as entry) ->
      let k = cc.shard_of_key anchor in
      match Hashtbl.find_opt tbl k with
      | None ->
          order := k :: !order;
          Hashtbl.replace tbl k [ entry ]
      | Some es -> Hashtbl.replace tbl k (entry :: es))
    entries;
  List.rev_map (fun k -> (k, List.rev (Hashtbl.find tbl k))) !order

let rec split_at n xs =
  if n = 0 then ([], xs)
  else
    match xs with
    | [] -> ([], [])
    | x :: rest ->
        let a, b = split_at (n - 1) rest in
        (x :: a, b)

(* A branch's [values] are its [Get] results in merged-op order; hand each
   plan entry its slice so [finish] sees replies keyed by anchor. *)
let entry_replies ~ok entries values =
  let gets ops =
    List.length
      (List.filter (function Dbms.Rm.Get _ -> true | _ -> false) ops)
  in
  let _, acc =
    List.fold_left
      (fun (values, acc) (anchor, ops) ->
        let mine, rest = split_at (gets ops) values in
        (rest, (anchor, { Business.ok; values = mine }) :: acc))
      (values, []) entries
  in
  List.rev acc

(* Execute one branch of global transaction (rid, j) at this shard, exactly
   as the classic pipeline executes a try: XA start round, transactional
   exec at the first database, XA end, then prepare across every database
   of the group. Returns the vote this shard should cast — [true] only if
   every database prepared, so a [Gx_vote_value {ok = true}] register can
   never meet an unprepared database. Never touches the vote register
   itself: callers own the decisive write (and must handle losing it). *)
let run_branch ctx ~rid ~j ~ops =
  let xid = Dbms.Xid.make ~rid ~j in
  let xids = [ xid ] in
  xa_start ctx ~xids;
  let reply =
    Dbms.Stub.exec_of ctx.ch ctx.rd ~xid ~db:(List.hd ctx.cfg.dbs) ops
  in
  let ok, values =
    match reply with
    | Dbms.Rm.Exec_ok { values; business_ok } -> (business_ok, values)
    | Dbms.Rm.Exec_conflict _ | Dbms.Rm.Exec_rejected -> (false, [])
  in
  xa_end ctx ~xids;
  (* a failed branch skips prepare: its vote is No either way, and the
     global Decide(Abort) round releases whatever the exec locked *)
  let ok =
    ok
    && Dbms.Stub.prepare ctx.ch ctx.rd ~dbs:ctx.cfg.dbs ~xids
       = [ Dbms.Rm.Commit ]
  in
  (ok, values)

(* Send [make ()] to one server of shard [k] and wait for a reply that
   [reply] accepts; [reply]'s value. Each target gets the request once:
   the wait moves to the next server (round-robin; the handler side is
   idempotent) only when the target is suspected or the channel reports
   it silent since the send, and sleeps while every server of the shard is
   suspected. [None] when the shard has no servers. While it waits, its
   matcher sits in [ctx.gx_awaited]; a reply that comes after (a moved-on
   target answering too) is dropped by the gx fiber. *)
let gx_rpc ctx (cc : cross_cfg) ~k ~make ~reply =
  let peers = Array.of_list (cc.peers k) in
  let n = Array.length peers in
  let suspicion = Fdetect.changed ctx.fd in
  let matches p = reply p <> None in
  let filter m = matches m.Types.payload in
  let gone target ~since =
    Fdetect.suspects ctx.fd target
    ||
    match Hashtbl.find_opt ctx.silent target with
    | Some at -> at >= since
    | None -> false
  in
  let rec send i skipped =
    let target = peers.(i mod n) in
    if skipped = n then begin
      Rt.Wake.sleep suspicion suspicion Float.infinity;
      send i 0
    end
    else if Fdetect.suspects ctx.fd target then send (i + 1) (skipped + 1)
    else begin
      let since = Rt.now () in
      Rchannel.send ctx.ch target (make ());
      wait i target ~since
    end
  and wait i target ~since =
    match
      Rt.Wake.recv suspicion ctx.silent_wake ~timeout:Float.infinity
        cls_gx_reply ~filter
    with
    | Some m -> reply m.Types.payload
    | None -> if gone target ~since then send (i + 1) 0 else wait i target ~since
  in
  if n = 0 then None
  else begin
    ctx.gx_awaited <- matches :: ctx.gx_awaited;
    let r = send 0 0 in
    ctx.gx_awaited <- List.filter (fun f -> f != matches) ctx.gx_awaited;
    r
  end

(* Branch [k]'s decided vote, fetched from its own group. *)
let gx_vote_rpc ctx cc ~rid ~j ~k ~make =
  gx_rpc ctx cc ~k ~make ~reply:(function
    | Gx_voted { rid = r; j = j'; k = k'; ok; values }
      when r = rid && j' = j && k' = k ->
        Some (ok, values)
    | _ -> None)
  |> Option.value ~default:(false, [])

(* Decide the global outcome at shard [k]'s databases. *)
let gx_complete_rpc ctx cc ~rid ~j ~k ~outcome =
  gx_rpc ctx cc ~k
    ~make:(fun () -> Gx_complete { rid; j; k; outcome })
    ~reply:(function
      | Gx_completed { rid = r; j = j'; k = k' }
        when r = rid && j' = j && k' = k ->
          Some ()
      | _ -> None)
  |> ignore

let vote_of = function
  | Gx_vote_value { ok; values } -> (ok, values)
  | _ -> (false, [])

let reply_vote ctx ~src ~rid ~j ~k = function
  | Some (Gx_vote_value { ok; values }) ->
      Rchannel.send ctx.ch src (Gx_voted { rid; j; k; ok; values })
  | Some _ | None -> ()

(* Contest branch [k]'s vote register with an abort vote: an undecided
   branch aborts the global transaction, a decided one keeps its value. *)
let contest_vote ctx ~rid ~j ~k =
  Woreg.write ctx.regs
    ~name:(Reg_name.gx_vote ~rid ~j ~k)
    ~j:0
    (Gx_vote_value { ok = false; values = [] })

type branch_election =
  | Voted of Types.payload
  | Lost_to of Types.proc_id
  | Unelected

(* Branch [k]'s executor election (the gx_exec register) and, on a win,
   the branch run and its vote write. *)
let elect_branch ctx ~rid ~j ~k ~ops =
  match
    Woreg.write ctx.regs
      ~name:(Reg_name.gx_exec ~rid ~j ~k)
      ~j:0 (Reg_a_value ctx.self)
  with
  | Reg_a_value w when w = ctx.self ->
      let ok, values = run_branch ctx ~rid ~j ~ops in
      Voted
        (Woreg.write ctx.regs
           ~name:(Reg_name.gx_vote ~rid ~j ~k)
           ~j:0
           (Gx_vote_value { ok; values }))
  | Reg_a_value w -> Lost_to w
  | _ -> Unelected

(* After losing the branch election to [owner]: block until the vote
   register decides, or contest it with an abort vote once [owner] is
   suspected; the decided vote. *)
let await_vote ctx ~rid ~j ~k ~owner =
  let name = Reg_name.gx_vote ~rid ~j ~k in
  let rec wait () =
    match Woreg.read ctx.regs ~name ~j:0 with
    | Some v -> v
    | None when Fdetect.suspects ctx.fd owner -> contest_vote ctx ~rid ~j ~k
    | None ->
        Rt.Wake.sleep
          (Woreg.wake ctx.regs ~name ~j:0)
          (Fdetect.changed ctx.fd) Float.infinity;
        wait ()
  in
  wait ()

(* The coordinator's own branch: elect the executor like any participant
   would, run it on a win, and read the vote register out. Losing the
   election means a takeover already claimed the branch — wait the register
   out, contesting only if the claimant dies. *)
let local_branch_vote ctx ~rid ~j ~k ~ops =
  match Woreg.read ctx.regs ~name:(Reg_name.gx_vote ~rid ~j ~k) ~j:0 with
  | Some v -> vote_of v
  | None -> (
      match elect_branch ctx ~rid ~j ~k ~ops with
      | Voted v -> vote_of v
      | Lost_to w -> vote_of (await_vote ctx ~rid ~j ~k ~owner:w)
      | Unelected -> (false, []))

(* [f x] for every [x], each in its own fiber [name]; returns the results
   in order once all are in (the last child wakes the caller). *)
let fork_all name f xs =
  let results = Array.make (List.length xs) None in
  let left = ref (List.length xs) and all_in = Rt.Wake.create () in
  List.iteri
    (fun i x ->
      Rt.fork name (fun () ->
          results.(i) <- Some (f x);
          decr left;
          if !left = 0 then Rt.Wake.wake all_in))
    xs;
  Rt.Wake.until all_in (fun () -> !left = 0);
  Array.to_list results |> List.map Option.get

(* Drive a Paxos-Commit instance to its outcome and completion: collect
   every participant's vote register concurrently ([vote_for] says how —
   the coordinator executes branches, the takeover cleaner contests), fold
   the global outcome (commit iff EVERY branch voted yes), complete every
   participant shard, and deliver. Shared by the coordinator pipeline and
   the cleaner precisely because both must derive the identical decision
   from the same write-once registers. *)
let drive_cross ctx st ~rid ~j ~body ~parent ~vote_for =
  let cc = Option.get ctx.cfg.cross in
  let cross = Option.get ctx.cfg.business.Business.cross in
  let entries = cross.Business.plan ~attempt:j ~body in
  let branches = branches_of_plan cc entries in
  let n = List.length branches in
  let votes =
    fork_all "gx-vote"
      (fun (k, bentries) -> vote_for ~k ~ops:(List.concat_map snd bentries))
      branches
  in
  let outcome =
    if List.for_all (fun (ok, _) -> ok) votes then Dbms.Rm.Commit
    else Dbms.Rm.Abort
  in
  (match ctx.sink with
  | None -> ()
  | Some s ->
      List.iter
        (fun (ok, _) ->
          s.Rt.obs_count (if ok then "gx.vote.yes" else "gx.vote.no") 1)
        votes;
      s.Rt.obs_count
        (match outcome with
        | Dbms.Rm.Commit -> "gx.commit"
        | Dbms.Rm.Abort -> "gx.abort")
        1;
      if outcome = Dbms.Rm.Commit then
        s.Rt.obs_observe "commit.participants" (float_of_int n));
  let result =
    match outcome with
    | Dbms.Rm.Abort -> None
    | Dbms.Rm.Commit ->
        let replies =
          List.concat
            (List.map2
               (fun (_, bentries) (ok, values) ->
                 entry_replies ~ok bentries values)
               branches votes)
        in
        let r = cross.Business.finish ~attempt:j ~body ~replies in
        (* [finish] is pure, so every driver emits the identical note *)
        note_computed ~rid ~j r;
        Some r
  in
  let final = { result; outcome } in
  ignore
    (fork_all "gx-finish"
       (fun (k, _) -> gx_complete_rpc ctx cc ~rid ~j ~k ~outcome)
       (List.filter (fun (k, _) -> k <> ctx.cfg.group) branches));
  (* a group that was no participant delivers without a local Decide round:
     its databases never saw the transaction, and deciding it there would
     record a spurious outcome for the xid *)
  if List.mem_assoc ctx.cfg.group branches then
    terminate ctx st ~parent ~rid ~j final
  else deliver ctx st ~rid ~j final;
  final

(* The cross-shard fork of the computation pipeline: same regA[j] election
   as the classic path, but the register's content is a [Gx_elect] carrying
   the participant set and the request body — everything a cleaner needs to
   recompute the plan and finish the instance without the crashed owner. *)
let compute_try_cross ctx st ~client ~(request : request) ~j ~shards =
  let rid = request.rid in
  let tspan, winner =
    elect_try ctx st ~client ~rid ~j
      ~attrs:[ ("cross", "true") ]
      (Gx_elect { owner = ctx.self; participants = shards; body = request.body })
  in
  match winner with
  | Gx_elect { owner; _ } when owner = ctx.self ->
      count ctx "txn.cross_shard";
      count ctx "gx.open";
      let (_ : decision) =
        drive_cross ctx st ~rid ~j ~body:request.body ~parent:tspan
          ~vote_for:(fun ~k ~ops ->
            if k = ctx.cfg.group then local_branch_vote ctx ~rid ~j ~k ~ops
            else
              gx_vote_rpc ctx
                (Option.get ctx.cfg.cross)
                ~rid ~j ~k
                ~make:(fun () -> Gx_branch { rid; j; k; ops }))
      in
      close_span ctx tspan
  | Gx_elect _ | Reg_a_value _ ->
      (* lost the election: the winner (or the cleaning thread of a correct
         server) drives this try; the client's retransmission makes
         progress observable *)
      close_span ctx ~attr:("lost_election", "true") tspan
  | _ -> ()

(* Fork [f] as fiber [name] unless a try or branch [key] is already in
   flight here. The check-and-set runs before any suspension point, so
   two resends can never both start it. *)
let fork_once ctx key name f =
  if not (Hashtbl.mem ctx.running key) then begin
    Hashtbl.replace ctx.running key ();
    Rt.fork name (fun () ->
        Fun.protect ~finally:(fun () -> Hashtbl.remove ctx.running key) f)
  end

(* Start fresh try (rid, j) in its own fiber, on either path. Tries of
   different requests never queue behind one another's SQL — the
   databases' locks are the concurrency control — and a resend of a try
   still in flight here is dropped instead of elected and run again. *)
let start_try ctx st ~client ~(request : request) ~j shards =
  fork_once ctx (request.rid, j, -1) "try" (fun () ->
      match shards with
      | Some shards -> compute_try_cross ctx st ~client ~request ~j ~shards
      | None -> compute_try ctx st ~client ~request ~j)

(* Participant-side branch execution, triggered by a [Gx_branch]. The
   quick checks run synchronously and the blocking work in its own fiber,
   so one slow branch never heads-of-line-blocks the gx mailbox. A server
   that loses the election replies once the vote register decides (or
   with its abort contest, once the executor is suspected). *)
let gx_branch_handle ctx ~src ~rid ~j ~k ~ops =
  match Woreg.read ctx.regs ~name:(Reg_name.gx_vote ~rid ~j ~k) ~j:0 with
  | Some _ as v -> reply_vote ctx ~src ~rid ~j ~k v
  | None ->
      fork_once ctx (rid, j, k) "gx-branch" (fun () ->
          match elect_branch ctx ~rid ~j ~k ~ops with
          | Voted v -> reply_vote ctx ~src ~rid ~j ~k (Some v)
          | Lost_to w ->
              reply_vote ctx ~src ~rid ~j ~k
                (Some (await_vote ctx ~rid ~j ~k ~owner:w))
          | Unelected -> ())

(* Serve the cross-shard RPC surface of this group: branch execution,
   takeover contests, and completion; and drop every gx reply no RPC here
   waits for. Forked only on cross-enabled deployments — without it the gx
   classes go unread (and cross-less deployments never receive these
   messages at all). *)
let gx_thread ctx () =
  let wanted m =
    match m.Types.payload with
    | Gx_branch _ | Gx_resolve _ | Gx_complete _ -> true
    | (Gx_voted _ | Gx_completed _) as p ->
        not (List.exists (fun f -> f p) ctx.gx_awaited)
    | _ -> false
  in
  let rec loop () =
    (match Rt.recv ~filter:wanted () with
    | None -> ()
    | Some m -> (
        let src = m.src in
        match m.payload with
        | Gx_branch { rid; j; k; ops } when k = ctx.cfg.group ->
            gx_branch_handle ctx ~src ~rid ~j ~k ~ops
        | Gx_resolve { rid; j; k } when k = ctx.cfg.group ->
            Rt.fork "gx-resolve" (fun () ->
                reply_vote ctx ~src ~rid ~j ~k
                  (Some (contest_vote ctx ~rid ~j ~k)))
        | Gx_complete { rid; j; k; outcome } when k = ctx.cfg.group ->
            Rt.fork "gx-complete" (fun () ->
                Dbms.Stub.decide ctx.ch ctx.rd ~dbs:ctx.cfg.dbs
                  ~items:[ (Dbms.Xid.make ~rid ~j, outcome) ];
                count ctx "gx.complete";
                Rchannel.send ctx.ch src (Gx_completed { rid; j; k }))
        | _ -> () (* stamped for another shard, or a stale reply *)));
    loop ()
  in
  loop ()

(* ---------------- Elastic reconfiguration (DESIGN.md §16) ----------------

   The cfg fiber below — forked only on reconfigurable deployments — is
   every server's view of the epoch-versioned map: it answers map queries,
   adopts newer maps from announcements, seals this group during a
   migration, and serves the driver's decision-transfer scans. Config-group
   servers additionally host the {!Reconfig.Driver} itself (on [Mig_start])
   and a takeover monitor that re-drives a migration whose decided intent
   names a suspected owner. *)

let rc_epoch_gauge ctx rc =
  match ctx.sink with
  | None -> ()
  | Some s ->
      s.Rt.obs_gauge "reconfig.epoch"
        (float_of_int (Shard_map.epoch rc.rc_map))

let rc_adopt ctx rc map =
  if Shard_map.epoch map > Shard_map.epoch rc.rc_map then begin
    rc.rc_map <- map;
    (* the flip that moved our keys also releases the seal: the map now
       bounces what the seal bounced (and replays still answer) *)
    (match rc.sealing with
    | Some target when Shard_map.epoch target <= Shard_map.epoch map ->
        rc.sealing <- None
    | Some _ | None -> ());
    Rt.note
      (Printf.sprintf "adopt-map:g%d:e%d" ctx.cfg.group (Shard_map.epoch map));
    rc_epoch_gauge ctx rc
  end

(* Every terminated (rid, j, result, outcome) this server can prove: its
   own request states, plus the decided regD registers of its group — the
   latter cover tries terminated by servers that have since crashed (CT
   consensus decides at every correct process, so the survivors' agents
   know those decisions even though the rid states died with the server).
   Per rid only the highest terminated j matters: the client is past the
   lower ones. *)
let rc_decisions ctx =
  let best = Hashtbl.create 16 in
  let add rid j (d : decision) =
    match Hashtbl.find_opt best rid with
    | Some (j', _) when j' >= j -> ()
    | _ -> Hashtbl.replace best rid (j, d)
  in
  Hashtbl.iter
    (fun rid st ->
      match st.last with Some (j, d) -> add rid j d | None -> ())
    ctx.rids;
  List.iter
    (fun (name, j) ->
      match Reg_name.parse_reg_d name with
      | Some (g, _, rid) when g = ctx.cfg.group -> (
          match Woreg.read ctx.regs ~name ~j with
          | Some (Reg_d_value d) -> add rid j d
          | _ -> ())
      | _ -> ())
    (Woreg.decided_keys ctx.regs);
  Hashtbl.fold
    (fun rid (j, d) acc -> (rid, j, d.result, d.outcome) :: acc)
    best []

(* Pre-seed a destination server with the source group's terminated tries:
   a cross-flip retransmission of (rid, j) then replays the recorded
   decision instead of re-executing an already-committed transaction.
   Never regresses a newer local termination. *)
let rc_install ctx items =
  List.iter
    (fun (rid, j, result, outcome) ->
      let st = rid_state ctx rid in
      match st.last with
      | Some (j', _) when j' >= j -> ()
      | _ -> st.last <- Some (j, { result; outcome }))
    items

let rc_caps ctx (rcc : reconfig_cfg) =
  {
    Reconfig.Driver.self = ctx.self;
    ch = ctx.ch;
    propose = (fun ~key v -> Woreg.write ctx.regs ~name:key ~j:0 v);
    peek = (fun ~key -> Woreg.read ctx.regs ~name:key ~j:0);
    suspected = (fun p -> Fdetect.suspects ctx.fd p);
    suspicion = Fdetect.changed ctx.fd;
    servers_of = rcc.rc_servers_of;
    dbs_of = rcc.rc_dbs_of;
    sink = ctx.sink;
  }

let rc_drive ctx rc rcc ~target =
  let e = Shard_map.epoch target in
  if e = Shard_map.epoch rc.rc_map + 1 && not (Hashtbl.mem rc.driving e) then begin
    Hashtbl.replace rc.driving e ();
    let from = rc.rc_map in
    Rt.fork "mig-drive" (fun () ->
        Reconfig.Driver.run (rc_caps ctx rcc) ~from ~target;
        (* the announce also reaches this server's own cfg fiber, but
           adopt directly so a self-delivery hiccup cannot leave the
           driver's host behind its own flip *)
        rc_adopt ctx rc target)
  end

let cfg_thread ctx rc (rcc : reconfig_cfg) () =
  let rec loop () =
    (match Rt.recv_cls Reconfig.Rmsg.cls_cfg with
    | None -> ()
    | Some m -> (
        match m.payload with
        | Reconfig.Rmsg.Cfg_query _ ->
            (* always answer with the current map: the asker filters by
               epoch, and an unconditional reply lets the operator poll
               for completion with the same message *)
            Rchannel.send ctx.ch m.src
              (Reconfig.Rmsg.Cfg_current { map = rc.rc_map })
        | Reconfig.Rmsg.Cfg_announce { map } -> rc_adopt ctx rc map
        | Reconfig.Rmsg.Mig_start { target } ->
            (* only the config group hosts drivers: the cfg:/mig:
               registers live in its consensus namespace *)
            if ctx.cfg.group = rcc.cfg_group then rc_drive ctx rc rcc ~target
        | Reconfig.Rmsg.Mig_seal { target } ->
            let e = Shard_map.epoch target in
            if
              e > Shard_map.epoch rc.rc_map
              && (match rc.sealing with
                 | Some t -> Shard_map.epoch t < e
                 | None -> true)
            then rc.sealing <- Some target;
            Rchannel.send ctx.ch m.src
              (Reconfig.Rmsg.Mig_sealed { epoch = e; from = ctx.cfg.group })
        | Reconfig.Rmsg.Mig_decisions_req { epoch } ->
            Rchannel.send ctx.ch m.src
              (Reconfig.Rmsg.Mig_decisions { epoch; items = rc_decisions ctx })
        | Reconfig.Rmsg.Mig_install { epoch; items } ->
            rc_install ctx items;
            Rchannel.send ctx.ch m.src (Reconfig.Rmsg.Mig_installed { epoch })
        | _ -> ()));
    loop ()
  in
  loop ()

(* A periodic check that has work only at some moments ([due ()]) runs
   [check] on its [clean_period] grid: [clean_period] after each check
   ends, as a plain sleep-and-check loop would. While nothing is due it
   blocks in [idle_wait ()] instead of ticking; once a wake makes a check
   due, it resumes at the first point of the grid it left, the wake's own
   instant included. So it checks at the instants the plain loop would
   have found work, and a fleeting suspicion that ends between two grid
   points starts none. *)
let on_grid ctx ~idle_wait ~due ~check =
  let period = ctx.cfg.clean_period in
  let rec after_check () =
    let t = Rt.now () in
    if due () then begin
      Rt.sleep period;
      check ();
      after_check ()
    end
    else idle t
  and idle t =
    idle_wait ();
    if due () then begin
      let now = Rt.now () in
      let rec next g = if g >= now then g else next (g +. period) in
      Rt.sleep (next t -. now);
      check ();
      after_check ()
    end
    else idle t
  in
  after_check ()

(* Config-group takeover monitor: a migration must complete even if every
   server that was driving it crashed. The decided [mig:e<n+1>] intent is
   the whole recovery plan — when its owner is suspected and the flip is
   still undecided, any config-group server re-drives the identical,
   idempotent pipeline; the detector's wake starts that at the suspicion.
   Every [clean_period] it also adopts (and re-announces) a decided flip
   this server has not adopted yet: anti-entropy that a failure-free
   migration's announce races, so it stays on its period. *)
let rc_monitor ctx rc rcc () =
  let suspicion = Fdetect.changed ctx.fd in
  let rec loop () =
    Rt.Wake.sleep suspicion suspicion ctx.cfg.clean_period;
    let caps = rc_caps ctx rcc in
    let e = Shard_map.epoch rc.rc_map + 1 in
    (match caps.Reconfig.Driver.peek ~key:(Reconfig.Rmsg.cfg_key ~epoch:e) with
    | Some (Reconfig.Rmsg.Cfg_value map) ->
        rc_adopt ctx rc map;
        Reconfig.Driver.announce caps ~target:map
    | _ -> (
        match
          caps.Reconfig.Driver.peek ~key:(Reconfig.Rmsg.mig_key ~epoch:e)
        with
        | Some (Reconfig.Rmsg.Mig_intent { owner; target })
          when owner <> ctx.self && Fdetect.suspects ctx.fd owner ->
            rc_drive ctx rc rcc ~target
        | _ -> ()));
    loop ()
  in
  loop ()

(* Map anti-entropy for servers outside the config group. They cannot
   peek the cfg:/mig: registers (those live in the config group's
   consensus namespace) and otherwise learn of a flip only through the
   one-shot [Cfg_announce] broadcast — lose that message and the server
   bounces keys it now owns forever, with an epoch too stale for any
   client to act on. Periodically ask the config group whether a newer
   map exists and adopt it; no other fiber on these servers consumes the
   cfg-reply class, so the recv cannot steal a driver's acks. Pure
   anti-entropy repairing a rare loss, so the period is deliberately
   lazy — bounces keep answering meanwhile and the serving path never
   waits on this fiber. Each round collects replies for [refresh_window]
   ms. *)
let refresh_window = 10.

let rc_refresh ctx rc (rcc : reconfig_cfg) () =
  let rec loop () =
    Rt.sleep (25. *. ctx.cfg.clean_period);
    let have = Shard_map.epoch rc.rc_map in
    Rchannel.broadcast ctx.ch
      (rcc.rc_servers_of rcc.cfg_group)
      (Reconfig.Rmsg.Cfg_query { have });
    let deadline = Rt.now () +. refresh_window in
    let rec drain () =
      if Rt.now () < deadline then begin
        (match
           Rt.recv
             ~timeout:(deadline -. Rt.now ())
             ~cls:Reconfig.Rmsg.cls_cfg_reply
             ~filter:(fun m ->
               match m.Types.payload with
               | Reconfig.Rmsg.Cfg_current _ -> true
               | _ -> false)
             ()
         with
        | Some { Types.payload = Reconfig.Rmsg.Cfg_current { map }; _ } ->
            rc_adopt ctx rc map
        | Some _ | None -> ());
        drain ()
      end
    in
    drain ();
    loop ()
  in
  loop ()

(* ---------------- Request intake (every path) ---------------- *)

(* Every client request enters here, on the classic and the batched path
   alike, and meets the same rules in order:
   - retired (the client already holds its result, {!floor}): drop it,
     with no try and no reply;
   - stamped for another group: bounce it (executing it here would commit
     it on the wrong shard; the explicit nack makes the client fan out
     again at once instead of waiting out its resend timer);
   - a key this group does not own, or is sealing away: {!rc_bounced};
   - read-only: the method cache, then a read replica, may answer it;
   - otherwise record the client, root span and highest try seen, then
     replay: a retransmitted terminated try gets its decision again, an
     older try nothing, and a later try of a {e committed} request the
     commit — commit is final. (Later tries of a committed request only
     reach a server through migration: the client re-routed a try whose
     commit-result message was lost, restarting it under a fresh j at this
     destination, and the decision transfer seeded [st.last] with the
     source commit.)
   Anything else is a fresh try, handed to the path's [fresh]
   continuation with its participant shards ({!cross_shards}). *)
let intake ctx ~fresh (m : Types.message) =
  match m.payload with
  | Request_msg { request; j; _ }
    when not (admit ctx ~client:m.src ~rid:request.rid ~j) ->
      ()
  | Request_msg { request; j; group; _ } when group <> ctx.cfg.group ->
      count ctx "server.misrouted";
      Rt.note (Printf.sprintf "misrouted:g%d:got-g%d" ctx.cfg.group group);
      send_nack ctx ~rid:request.rid ~j ~client:m.src
  | Request_msg { request; j; _ } when rc_bounced ctx ~request ~j ~client:m.src
    ->
      ()
  | Request_msg { request; j; span; _ } ->
      if
        (not (serve_cached ctx ~request ~j ~client:m.src))
        && not (serve_replica ctx ~request ~j ~client:m.src)
      then begin
        let st = rid_state ctx request.rid in
        if st.client = None then st.client <- Some m.src;
        if st.rspan = 0 then st.rspan <- span;
        if j > st.seen then st.seen <- j;
        match st.last with
        | Some (j', d) when j' = j -> send_result ctx st ~rid:request.rid ~j d
        | Some (j', _) when j' > j -> ()
        | Some (_, d) when d.outcome = Dbms.Rm.Commit ->
            send_result ctx st ~rid:request.rid ~j d
        | Some _ | None ->
            fresh st ~client:m.src ~request ~j
              (cross_shards ctx ~body:request.body)
      end
  | _ -> ()

let compute_thread ctx () =
  let rec loop () =
    (match Rt.recv_cls cls_request with
    | None -> ()
    | Some m -> intake ctx ~fresh:(start_try ctx) m);
    loop ()
  in
  loop ()

(* ---------------- Fig. 6: the cleaning thread ---------------- *)

(* The live requests, as (client, rid) in rid order: each client's
   newest. Every request seen here and every decided register raised a
   floor, so this covers both; O(clients), not O(history). *)
let live_requests ctx =
  List.sort
    (fun (_, a) (_, b) -> Int.compare a b)
    (Hashtbl.fold (fun client f acc -> (client, f.newest) :: acc) ctx.floors [])

(* The cleaner's record of one contested try, shared by every take-over
   path (a try, a cross-shard instance, a sealed batch slot): the
   contesting write either imposed the abort or lost to the crashed
   owner's already-decided outcome, which the cleaner then finishes
   delivering (paper Fig. 6). *)
let note_cleaned ctx ~rid ~j (d : decision) =
  Rt.note
    (Printf.sprintf "cleaned:%d:%d:%s" rid j
       (match d.outcome with
       | Dbms.Rm.Commit -> "commit"
       | Dbms.Rm.Abort -> "abort"));
  match ctx.sink with
  | None -> ()
  | Some s ->
      s.Rt.obs_count
        (match d.outcome with
        | Dbms.Rm.Abort -> "cleaner.aborts"
        | Dbms.Rm.Commit -> "cleaner.finishes")
        1

(* One "clean" span per taken-over try; [rspan] is known when this server
   saw the client's broadcast, else the span roots itself. *)
let clean_span ctx st ~suspect ~rid ~j cross =
  open_span ctx ~parent:st.rspan ~rid ~j
    ~attrs:(cross @ [ ("suspect", ctx.cfg.rt.name_of suspect) ])
    "clean"

(* Take over a cross-shard try whose coordinator is suspected: contest
   every participant's vote register with an abort vote (any undecided
   branch aborts the global transaction; a branch that already voted keeps
   its decided value), fold the same outcome any driver would, and finish
   delivering. [drive_cross] re-derives the plan from the [Gx_elect]'s body
   — the reason the election record carries it. *)
let clean_cross ctx st ~suspect ~rid ~j ~body =
  let cspan = clean_span ctx st ~suspect ~rid ~j [ ("cross", "true") ] in
  count ctx "gx.takeover";
  let cc = Option.get ctx.cfg.cross in
  let final =
    drive_cross ctx st ~rid ~j ~body ~parent:cspan ~vote_for:(fun ~k ~ops:_ ->
        if k = ctx.cfg.group then vote_of (contest_vote ctx ~rid ~j ~k)
        else
          gx_vote_rpc ctx cc ~rid ~j ~k ~make:(fun () ->
              Gx_resolve { rid; j; k }))
  in
  note_cleaned ctx ~rid ~j final;
  close_span ctx cspan;
  st.cleaned <- j :: st.cleaned

let clean_request ctx ~suspect ~client ~rid =
  let st = rid_state ctx rid in
  let reg_a = Reg_name.reg_a ~group:ctx.cfg.group ~client ~rid in
  let rec scan j =
    match Woreg.read ctx.regs ~name:reg_a ~j with
    | None ->
        (* ⊥ normally means no further tries exist (they start in order)
           — but after a migration the group's regA array can have holes:
           a re-routed request's early tries terminated in the {e source}
           group's register namespace, so its first try here starts above
           1. Keep scanning up to the highest try this server has any
           evidence of — a moved-in terminated try ([st.last], from the
           decision transfer) or a client request seen here
           ([st.seen]). *)
        let floor =
          max st.seen (match st.last with Some (j', _) -> j' | None -> 0)
        in
        if j <= floor then scan (j + 1)
    | Some (Reg_a_value winner) ->
        if winner = suspect && not (List.mem j st.cleaned) then begin
          let cspan = clean_span ctx st ~suspect ~rid ~j [] in
          let final = decide_try ctx ~client ~rid ~j abort_decision in
          note_cleaned ctx ~rid ~j final;
          terminate ctx st ~parent:cspan ~rid ~j final;
          close_span ctx cspan;
          st.cleaned <- j :: st.cleaned
        end;
        scan (j + 1)
    | Some (Gx_elect { owner; body; _ }) ->
        if owner = suspect && not (List.mem j st.cleaned) then
          clean_cross ctx st ~suspect ~rid ~j ~body;
        scan (j + 1)
    | Some _ -> scan (j + 1)
  in
  scan 1

(* The cleaner scans every [clean_period] while the detector suspects a
   server of the group (a crashed owner's tries keep surfacing as its
   register decisions reach this server) and sleeps until the next
   suspicion otherwise ({!on_grid}). *)
let clean_thread ctx () =
  let suspected ai = ai <> ctx.self && Fdetect.suspects ctx.fd ai in
  let suspicion = Fdetect.changed ctx.fd in
  on_grid ctx
    ~idle_wait:(fun () -> Rt.Wake.sleep suspicion suspicion Float.infinity)
    ~due:(fun () -> List.exists suspected ctx.cfg.servers)
    ~check:(fun () ->
      List.iter
        (fun ai ->
          if suspected ai then
            List.iter
              (fun (client, rid) -> clean_request ctx ~suspect:ai ~client ~rid)
              (live_requests ctx))
        ctx.cfg.servers)

(* ---------------- Leases and batching (DESIGN.md §12) ---------------- *)

(* Volatile lease view of one server. [epoch]/[holder] cache what the lease
   register already decided; [pending] is only ever non-empty on the server
   that believes it holds the current epoch — followers deliberately queue
   nothing, so a stale queue can never re-commit a try that another epoch
   already decided (the client's retransmission re-drives any dropped
   request). [limbo] holds requests that arrived while no lease was known
   decided yet (bootstrap, or between a deposition and the next takeover):
   they are promoted into [pending] only if this server wins the next
   epoch — which seals its predecessors first — and are discarded the
   moment another holder is observed, so the follower-queue hazard cannot
   arise. *)
type lease = {
  mutable epoch : int;  (** highest lease epoch known decided; 0 = none *)
  mutable holder : Types.proc_id option;  (** winner of [epoch] *)
  mutable seq : int;  (** next batch slot in our epoch (holder only) *)
  mutable floor : int;
      (** our delivered floor in our epoch (holder only): every slot below
          it is decided, its Decide round acknowledged by every database
          and its results sent. Each election carries it *)
  mutable delivered : int list;
      (** slots above [floor] delivered out of order (holder only) *)
  pending : Window.t;  (** queued tries, arrival order *)
  limbo : Window.t;  (** arrivals while [holder = None]; see above *)
  mutable tails : int;
      (** windows past their compute phase but not yet decided: the
          pipeline overlaps the next window's compute with the previous
          window's prepare/consensus, at most one such tail in flight *)
  tail_done : Rt.Wake.t;  (** woken as each tail ends *)
}

(* Terminate a whole batch: one Decide per database carrying every
   (xid, outcome), then one Result_msg per client carrying its share of
   the decisions. [items] and [decisions] match positionally (the winning
   Reg_batch_elect order). A retired request's client already holds its
   result: it gets none, and no state comes back for it. Idempotent —
   re-delivery after a takeover re-sends results the clients deduplicate
   and re-decides transactions the databases already terminated.

   With [~async:k] (the failure-free hot path) the results go out as
   soon as the decision register is written — the register, not the
   databases, is the commit point (Fig. 4: the paper's server also replies
   right after deciding and leaves terminate() to be retried) — and the
   Decide round runs in a forked fiber off the window's critical path,
   which calls [k] once every database acknowledged it. A holder crash
   between the two is exactly the window the sealing abort-or-finish pass
   already closes. *)
let deliver_batch ctx ?(parent = 0) ?async ~trace ~items ~decisions () =
  let pairs = List.combine items decisions in
  let xitems =
    List.map
      (fun ((_, rid, j), (d : decision)) -> (Dbms.Xid.make ~rid ~j, d.outcome))
      pairs
  in
  let terminate () =
    ospan ctx ~parent ~trace "terminate" (fun () ->
        Dbms.Stub.decide ctx.ch ctx.rd ~dbs:ctx.cfg.dbs ~items:xitems)
  in
  if async = None then terminate ();
  let by_client : (Types.proc_id, (int * int * decision) list) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (fun ((client, rid, j), (d : decision)) ->
      if not (retired ctx ~client ~rid) then begin
        let st = rid_state ctx rid in
        if st.client = None then st.client <- Some client;
        record_termination ctx st ~j d;
        let cur =
          Option.value ~default:[] (Hashtbl.find_opt by_client client)
        in
        Hashtbl.replace by_client client ((rid, j, d) :: cur)
      end)
    pairs;
  Hashtbl.iter
    (fun c items ->
      Rchannel.send ctx.ch c
        (Result_msg { group = ctx.cfg.group; items = List.rev items }))
    by_client;
  match async with
  | None -> ()
  | Some k ->
      Rt.fork "batch-terminate" (fun () ->
          terminate ();
          k ())

(* The batched analogue of {!decide_try}: write batchD[e,k] and return the
   decided per-item decisions — the proposal's, or all-abort when a
   sealing successor's abort-all got there first. *)
let decide_slot ctx ~epoch ~seq ~items claim =
  match
    Woreg.write ctx.regs
      ~name:(Reg_name.batch_d ~group:ctx.cfg.group ~epoch ~seq)
      ~j:0 claim
  with
  | Reg_batch_decide ds -> ds
  | _ -> List.map (fun _ -> abort_decision) items

(* Close the unsettled batch slots of a predecessor epoch (Fig. 6
   transposed to windows): walk the slots in order from the first one not
   settled here ({!settled}), writing Seal into the first unused one — the
   deposed holder's next elect loses against it, ending the epoch — and
   abort-or-finish every slot a batch did win, by contesting its decision
   register with abort-all. The decided outcomes of those slots are then
   re-delivered as one window (idempotent): a Decide of any size is one
   round to the databases, and each client gets one result. Below the
   settled slots there is nothing to do: each was delivered everywhere,
   and its outcomes are recorded here. *)
let seal_epoch ctx ~epoch =
  let from = settled ctx epoch in
  let rec scan seq items decisions =
    match
      Woreg.write ctx.regs
        ~name:(Reg_name.batch_a ~group:ctx.cfg.group ~epoch ~seq)
        ~j:0 Reg_batch_seal
    with
    | Reg_batch_seal -> (* sealed: the epoch ends at this slot *)
        (seq, List.concat (List.rev items), List.concat (List.rev decisions))
    | Reg_batch_elect { items = slot; _ } ->
        let ds = decide_slot ctx ~epoch ~seq ~items:slot Reg_batch_abort_all in
        List.iter2 (fun (_, rid, j) d -> note_cleaned ctx ~rid ~j d) slot ds;
        scan (seq + 1) (slot :: items) (ds :: decisions)
    | _ -> scan (seq + 1) items decisions
  in
  let sealed_at, items, decisions = scan from [] [] in
  count ctx ~n:(sealed_at - from) "server.sealed_slots";
  (match items with
  | [] -> ()
  | (_, trace, _) :: _ -> deliver_batch ctx ~trace ~items ~decisions ())

(* Contest the next lease epoch. Whoever wins must seal its predecessor
   epochs BEFORE serving: sealing sets [st.last] for every (rid, j) that
   entered an unsettled batch slot, so the new window can never re-commit
   an already-decided try. It passes over every epoch known here up to
   its Seal slot. Any other epoch it seals from its settled slots, even
   below an epoch whose holder served and so sealed it already: this
   server may have missed that seal's decisions (the channel does not
   resend a decision relay to a peer it suspects), and with them the
   outcomes it must answer a late retransmission from. Sealing an epoch
   already sealed writes nothing new: it learns its slots' decisions and
   delivers them again. *)
let lease_takeover ctx ls =
  let next = ls.epoch + 1 in
  let winner =
    match
      Woreg.write ctx.regs
        ~name:(Reg_name.lease ~group:ctx.cfg.group)
        ~j:next (Reg_lease_value ctx.self)
    with
    | Reg_lease_value w -> w
    | _ -> ctx.self
  in
  ls.epoch <- next;
  Window.clear ls.pending;
  if winner <> ctx.self then begin
    ls.holder <- Some winner;
    Window.clear ls.limbo
  end
  else begin
    (* CRITICAL ordering: holdership of the new epoch must not become
       visible to the batch thread until the takeover is complete. Sealing
       suspends on consensus writes; if [ls.holder] already said "self",
       the batch thread would open window (next, 0) mid-takeover, bump
       [ls.seq] — and the [ls.seq <- 0] below would then rewind the
       counter onto an already-decided slot, whose stale election this
       server also "wins" (it owns the old register value), misdelivering
       the previous window's results under the new window's rids. *)
    ls.holder <- None;
    let seal () =
      for epoch = next - 1 downto 1 do
        if not (known_to_seal ctx epoch) then seal_epoch ctx ~epoch
      done
    in
    if next > 1 then ospan ctx ~trace:0 "seal" seal;
    (* the outcomes learned from settled slots become termination records
       here: this server answers and assembles windows from them now *)
    (match ctx.leased with
    | None -> ()
    | Some l ->
        Hashtbl.iter
          (fun client o ->
            if not (retired ctx ~client ~rid:o.l_rid) then begin
              let st = rid_state ctx o.l_rid in
              if st.client = None then st.client <- Some client;
              set_last st ~j:o.l_j o.l_outcome
            end)
          l.outcomes);
    ls.seq <- 0;
    ls.floor <- 0;
    ls.delivered <- [];
    (* promote bootstrap arrivals now that the predecessors are sealed:
       window assembly re-filters against [st.last], so anything sealing
       already decided cannot re-enter a batch *)
    Window.clear ls.pending;
    Window.transfer ls.limbo ~into:ls.pending;
    ls.holder <- Some ctx.self;
    if not (Window.is_empty ls.pending) then
      Rt.redeliver ~src:ctx.self Lease_wake;
    Rt.note (Printf.sprintf "lease-acquired:g%d:e%d" ctx.cfg.group next);
    match ctx.sink with
    | None -> ()
    | Some s ->
        s.Rt.obs_count "server.lease_acquired" 1;
        s.Rt.obs_gauge "server.lease_epoch" (float_of_int next)
  end

(* The lease monitor replaces the cleaning thread on the batched path: it
   tracks the lease register, and contests the next epoch only when the
   failure detector suspects the current holder (or none exists yet — the
   first server bootstraps epoch 1 immediately). The register write stays
   the safety argument; suspicion only gates WHEN a takeover is tried.
   It follows the register at once: the next epoch's decision wakes it.
   Takeovers run on its [clean_period] grid ({!on_grid}), the first at
   start-up (the bootstrap), so a suspicion that clears before the next
   grid point causes none. *)
let lease_monitor ctx ls () =
  let rec advance () =
    match
      Woreg.read ctx.regs
        ~name:(Reg_name.lease ~group:ctx.cfg.group)
        ~j:(ls.epoch + 1)
    with
    | Some (Reg_lease_value w) ->
        ls.epoch <- ls.epoch + 1;
        ls.holder <- Some w;
        if w <> ctx.self then begin
          Window.clear ls.pending;
          Window.clear ls.limbo
        end;
        advance ()
    | Some _ | None -> ()
  in
  let head = match ctx.cfg.servers with a :: _ -> a | [] -> ctx.self in
  let due () =
    advance ();
    match ls.holder with
    | Some h -> h <> ctx.self && Fdetect.suspects ctx.fd h
    | None -> ctx.self = head || Fdetect.suspects ctx.fd head
  in
  let check () = if due () then lease_takeover ctx ls in
  (* [due] has just advanced to the first undecided epoch *)
  let idle_wait () =
    Rt.Wake.sleep
      (Woreg.wake ctx.regs
         ~name:(Reg_name.lease ~group:ctx.cfg.group)
         ~j:(ls.epoch + 1))
      (Fdetect.changed ctx.fd) Float.infinity
  in
  check ();
  on_grid ctx ~idle_wait ~due ~check

(* Slot [seq] of [epoch] is delivered: raise our floor over every slot
   delivered in a row. A slot of an epoch we no longer hold counts for
   nothing. *)
let slot_delivered ls ~epoch ~seq =
  if epoch = ls.epoch then begin
    let floor, delivered = finish_slot ~next:ls.floor ~ahead:ls.delivered seq in
    ls.floor <- floor;
    ls.delivered <- delivered
  end

(* One batch through the amortized pipeline: a single batchA election, one
   XA start/end round, concurrently-executing business logic (the simulated
   SQL of the N transactions overlaps), one group-commit prepare, a single
   batchD decision write — still the commit point — and one batched
   terminate round. Each try of the window is marked running until the
   window ends here, so a retransmission of it is not queued for a second
   window meanwhile ({!batch_enqueue}). *)
let process_batch ctx ls (items : Window.entry list) =
  let epoch = ls.epoch and seq = ls.seq in
  let ids =
    List.map (fun (e : Window.entry) -> (e.client, e.request.rid, e.j)) items
  in
  let mark (_, rid, j) = Hashtbl.replace ctx.running (rid, j, -1) () in
  List.iter mark ids;
  let release () =
    List.iter (fun (_, rid, j) -> Hashtbl.remove ctx.running (rid, j, -1)) ids
  in
  let n = List.length items in
  let trace = match ids with (_, rid, _) :: _ -> rid | [] -> 0 in
  let bspan =
    match ctx.sink with
    | None -> 0
    | Some s ->
        let id = s.Rt.obs_span_open ~trace "batch" in
        s.Rt.obs_span_attr id "size" (string_of_int n);
        s.Rt.obs_span_attr id "epoch" (string_of_int epoch);
        s.Rt.obs_span_attr id "seq" (string_of_int seq);
        id
  in
  let winner =
    ospan ctx ~parent:bspan ~trace "election" (fun () ->
        Woreg.write ctx.regs
          ~name:(Reg_name.batch_a ~group:ctx.cfg.group ~epoch ~seq)
          ~j:0
          (Reg_batch_elect { owner = ctx.self; floor = ls.floor; items = ids }))
  in
  match winner with
  | Reg_batch_elect { owner; items = elected; _ } when owner = ctx.self ->
      (* The slot is ours only if the register holds OUR proposal. An
         owner-only check is not enough: if the slot counter ever revisits
         a slot this server already decided (defense in depth — the
         takeover path orders its state updates to prevent it), the stale
         register value also names us as owner, and executing under it
         would pair these items with the old window's decisions. Skip past
         such a slot and requeue; the old window already delivered its own
         items, and assembly re-filters against [st.last]. *)
      if elected <> ids then begin
        ls.seq <- seq + 1;
        release ();
        if ls.holder = Some ctx.self then Window.push_front ls.pending items;
        close_span ctx ~attr:("stale-slot", "true") bspan
      end
      else begin
      ls.seq <- seq + 1;
      (match ctx.sink with
      | None -> ()
      | Some s ->
          s.Rt.obs_span_attr bspan "tries"
            (String.concat " "
               (List.map
                  (fun (_, rid, j) -> Printf.sprintf "%d.%d" rid j)
                  ids)));
      let gen = cache_generation ctx in
      let xids = List.map (fun (_, rid, j) -> Dbms.Xid.make ~rid ~j) ids in
      let results =
        ospan ctx ~parent:bspan ~trace "compute" (fun () ->
            xa_start ctx ~xids;
            let results =
              fork_all "batch-exec"
                (fun ({ request = r; j; _ } : Window.entry) ->
                  let xid = Dbms.Xid.make ~rid:r.rid ~j in
                  let result = run_business ctx ~xid ~attempt:j ~body:r.body in
                  note_computed ~rid:r.rid ~j result;
                  result)
                items
            in
            xa_end ctx ~xids;
            results)
      in
      let tail () =
        let outcomes =
          ospan ctx ~parent:bspan ~trace "prepare" (fun () ->
              Dbms.Stub.prepare ctx.ch ctx.rd ~dbs:ctx.cfg.dbs ~xids)
        in
        let proposal =
          List.map2
            (fun outcome result -> { result = Some result; outcome })
            outcomes results
        in
        let decisions =
          ospan ctx ~parent:bspan ~trace "consensus" (fun () ->
              decide_slot ctx ~epoch ~seq ~items:ids
                (Reg_batch_decide proposal))
        in
        deliver_batch ctx ~parent:bspan ~trace
          ~async:(fun () -> slot_delivered ls ~epoch ~seq)
          ~items:ids ~decisions ();
        List.iter2
          (fun (e : Window.entry) d ->
            cache_after_decide ctx ~body:e.request.body ~gen d)
          items decisions;
        match ctx.sink with
        | None -> ()
        | Some s ->
            s.Rt.obs_observe "server.batch_size" (float_of_int n);
            s.Rt.obs_span_close bspan
      in
      (* two-stage pipeline: prepare/consensus of this window runs in a
         forked fiber so the next window's compute can overlap it. The
         windows stay register-ordered (the batchA election above happened
         in the assembly fiber, before the fork); one tail in flight bounds
         the overlap so prepares cannot reorder across windows. *)
      Rt.Wake.until ls.tail_done (fun () -> ls.tails = 0);
      ls.tails <- ls.tails + 1;
      Rt.fork "batch-tail" (fun () ->
          Fun.protect
            ~finally:(fun () ->
              ls.tails <- ls.tails - 1;
              release ())
            tail;
          (* not in [finally]: a fiber unwinding out of a dead process
             must not perform effects *)
          Rt.Wake.wake ls.tail_done)
      end
  | _ ->
      (* lost the slot: a successor sealed our epoch — we are deposed. The
         dropped items re-drive through client retransmission to the new
         holder; nothing may be delivered from a lost election. *)
      ls.holder <- None;
      Window.clear ls.pending;
      release ();
      close_span ctx ~attr:("deposed", "true") bspan

(* Request intake on the batched path ({!intake}, then): cross-shard
   requests bypass the batching windows — they commit through their own
   Paxos-Commit instance, not a batchD register, and the running mark
   suppresses duplicate drives while retransmissions keep arriving. The
   same mark keeps a try whose window is in flight out of the queue. Only
   the holder queues; followers DROP the request (the client's
   retransmission reaches the holder). Queueing on a follower would be
   unsound: its queue could go stale across an epoch change and feed an
   already-decided (rid, j) into a fresh window. The one exception is
   [limbo]: while NO holder is known, arrivals are parked there so the
   bootstrap head does not silently drop the first wave of requests and
   cost every client a full back-off period; limbo is promoted only
   through a won takeover (which seals predecessors first). *)
let batch_enqueue ctx ls =
  intake ctx ~fresh:(fun st ~client ~(request : request) ~j -> function
    | Some _ as shards -> start_try ctx st ~client ~request ~j shards
    | None ->
        let enqueue q =
          if
            not
              (Window.mem q ~rid:request.rid ~j
              || Hashtbl.mem ctx.running (request.rid, j, -1))
          then
            Window.push q
              {
                client;
                request;
                j;
                keys = ctx.cfg.business.Business.keys request.body;
              }
        in
        if ls.holder = Some ctx.self then enqueue ls.pending
        else if ls.holder = None then enqueue ls.limbo)

(* The batched analogue of [compute_thread]: block for one request, drain
   whatever else already arrived (timeout 0 empties the mailbox without
   waiting), linger briefly while the queue is still growing, then push up
   to [batch] mutually non-conflicting queued requests through one pipeline
   cycle ({!Window.take}). *)
let batch_thread ctx ls () =
  (* group-commit linger: after a window delivers, its clients re-issue
     within a few ms of each other — without a short wait the next window
     would seed from the first arrival alone and run nearly empty. Keep
     stretching in [linger_step] slices only while the queue actually
     grew, so an idle or trickling workload pays at most one slice. *)
  let linger_step = 2. in
  let enqueue = batch_enqueue ctx ls in
  let rec linger () =
    let before = Window.length ls.pending in
    if before < ctx.cfg.batch then begin
      Rt.sleep linger_step;
      drain ();
      if Window.length ls.pending > before then linger ()
    end
  and drain () =
    match Rt.recv_cls ~timeout:0. cls_request with
    | None -> ()
    | Some m ->
        enqueue m;
        drain ()
  in
  let rec loop () =
    (* block only when nothing is queued; a takeover that promotes [limbo]
       into [pending] wakes this wait with a [Lease_wake] *)
    let queued () =
      ls.holder = Some ctx.self && not (Window.is_empty ls.pending)
    in
    (if queued () then drain ()
     else
       match Rt.recv_cls cls_request with
       | None -> ()
       | Some m ->
           enqueue m;
           drain ());
    if queued () then linger ();
    if queued () then begin
      (* the registers decide; skip anything terminated meanwhile, and a
         request retired meanwhile, whose state is gone *)
      let batch =
        Window.take ls.pending ~cap:ctx.cfg.batch ~skip:(fun e ->
            match Hashtbl.find ctx.rids e.request.rid with
            | { last = Some (j', _); _ } -> j' >= e.j
            | { last = None; _ } -> false
            | exception Not_found -> true)
      in
      if batch <> [] then process_batch ctx ls batch
    end;
    loop ()
  in
  loop ()

(* ---------------- Fig. 4: main() ---------------- *)

let spawn cfg =
  let name =
    if cfg.group = 0 then Printf.sprintf "a%d" (cfg.index + 1)
    else Printf.sprintf "g%d:a%d" cfg.group (cfg.index + 1)
  in
  cfg.rt.spawn ~name ~main:(fun ~recovery () ->
      if recovery && cfg.persist = None then begin
        (* the paper's base protocol assumes crashed application servers
           stay down (a majority is always up); rejoining with amnesia
           would be unsound, so a recovered diskless server stays passive.
           Its cache still missed every invalidation while it was down and
           never will catch up: flush it so a runtime that reports this
           process as up doesn't feed frozen entries to the spec views *)
        (match cfg.cache with
        | Some cache -> ignore (Method_cache.flush cache)
        | None -> ());
        Rt.note "appserver-recovery-unsupported"
      end
      else begin
        if recovery then Rt.note "appserver-recovered";
        (* the channel's silence reports move a cross-shard request on
           to the next server of its shard ({!gx_rpc}) *)
        let silent = Hashtbl.create 4 and silent_wake = Rt.Wake.create () in
        let on_silent dst _ =
          Hashtbl.replace silent dst (Rt.now ());
          Rt.Wake.wake silent_wake
        in
        let ch = Rchannel.create ~on_silent () in
        Rchannel.start ch;
        let fd =
          (* With reconfiguration or cross-shard commit on, the detector
             spans every group's servers, not just this group's:
             migration drivers collect seal/install acks from {e other}
             groups' servers, and a cross-shard coordinator waits on a
             branch at another group's server; both must be able to give
             up on crashed ones — an unmonitored process is never
             suspected, so a group-local detector would leave them waiting
             on a dead server forever. *)
          let rec cross_peers (cc : cross_cfg) k =
            match cc.peers k with
            | [] -> []
            | ps -> ps @ cross_peers cc (k + 1)
          in
          let fd_peers =
            match (cfg.reconfig, cfg.cross) with
            | Some rcc, _ ->
                List.init rcc.rc_groups rcc.rc_servers_of
                |> List.concat |> List.sort_uniq compare
            | None, Some cc -> List.sort_uniq compare (cross_peers cc 0)
            | None, None -> cfg.servers
          in
          match cfg.fd_spec with
          | Fd_oracle -> Fdetect.oracle cfg.rt
          | Fd_heartbeat { period; initial_timeout; timeout_bump } ->
              Fdetect.heartbeat ~period ~initial_timeout ~timeout_bump
                ~peers:fd_peers ()
        in
        Fdetect.start fd;
        let regs =
          Consensus.Agent.create ?persist:cfg.persist ~peers:cfg.servers ~fd
            ~ch ()
        in
        Consensus.Agent.start regs;
        let rd = Dbms.Stub.Readiness.create ~dbs:cfg.dbs in
        Dbms.Stub.Readiness.start rd;
        let rc =
          Option.map
            (fun (rcc : reconfig_cfg) ->
              {
                rc_map = rcc.init_map;
                sealing = None;
                driving = Hashtbl.create 4;
              })
            cfg.reconfig
        in
        let ctx =
          {
            cfg;
            self = Rt.self ();
            ch;
            fd;
            regs;
            rd;
            rids = Hashtbl.create 16;
            floors = Hashtbl.create 16;
            leased = None;
            replica_memo = Hashtbl.create 16;
            running = Hashtbl.create 16;
            rc;
            sink = Rt.obs ();
            silent;
            silent_wake;
            gx_awaited = [];
          }
        in
        Woreg.on_decide regs (learn_register ctx);
        Woreg.retire_when regs (retired_register ctx);
        (* a recovered agent restored its decisions from the log: they
           raise the floors too, so the cleaner scans their requests, and
           they settle batch slots *)
        if recovery then
          List.iter
            (fun (name, j) -> learn_register ctx (Reg_name.key ~name ~j))
            (Woreg.decided_keys regs);
        (* reconfiguration fibers exist only on elastic deployments: a
           static server forks nothing new and its schedule stays
           byte-identical to the fixed-map protocol *)
        (match (rc, cfg.reconfig) with
        | Some rc, Some rcc ->
            rc_epoch_gauge ctx rc;
            Rt.fork "cfg" (cfg_thread ctx rc rcc);
            if cfg.group = rcc.cfg_group then
              Rt.fork "mig-monitor" (rc_monitor ctx rc rcc)
            else Rt.fork "cfg-refresh" (rc_refresh ctx rc rcc)
        | _ -> ());
        (* the gx fiber exists only on cross-enabled deployments: a default
           server forks nothing new and its schedule stays byte-identical
           to the pre-cross protocol *)
        (match cfg.cross with
        | Some _ -> Rt.fork "gx" (gx_thread ctx)
        | None -> ());
        (match cfg.cache with
        | Some cache ->
            (* a recovering server missed every invalidation broadcast
               while it was down; its surviving entries may predate
               commits, so start cold *)
            if recovery then ignore (Method_cache.flush cache);
            Rt.fork "cache-inval" (invalidate_thread ctx cache)
        | None -> ());
        if cfg.batch > 1 then begin
          (* leased, batched fast path: the lease monitor subsumes the
             cleaning thread (takeover seals the suspect's epoch, which
             aborts-or-finishes every outstanding batch) *)
          let ls =
            {
              epoch = 0;
              holder = None;
              seq = 0;
              floor = 0;
              delivered = [];
              pending = Window.create ();
              limbo = Window.create ();
              tails = 0;
              tail_done = Rt.Wake.create ();
            }
          in
          (* cross-shard tries bypass the lease windows, so their crashed
             coordinators need the classic cleaner: in batch mode no
             classic regA registers exist, which makes the scan see
             exactly the Gx_elect elections *)
          if cfg.cross <> None then Rt.fork "clean" (clean_thread ctx);
          Rt.fork "lease" (lease_monitor ctx ls);
          batch_thread ctx ls ()
        end
        else begin
          Rt.fork "clean" (clean_thread ctx);
          compute_thread ctx ()
        end
      end)
