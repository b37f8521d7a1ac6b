open Runtime
module Rt = Etx_runtime
open Dnet

type Types.payload +=
  | C_estimate of {
      key : string;
      round : int;
      est : Types.payload option;
      ts : int;
    }
  | C_propose of { key : string; round : int; value : Types.payload }
  | C_ack of { key : string; round : int; ok : bool }
  | C_decide of { key : string; value : Types.payload }
  | C_start of { key : string }
      (* a proposer that is not the round-0 coordinator announces the
         instance so that every correct peer participates from round 0 —
         CT liveness needs all correct processes in the round schedule *)

(* demux class. All CT network traffic shares one bucket: the dispatcher
   and the per-instance drivers both wait on it (with filters narrowing to
   their share — driver-claimed round messages vs everything else), so
   neither ever scans the process's other backlogs (e.g. the primary's
   queued client requests). *)
let cls_net =
  Rt.register_class ~name:"ct-net" (function
    | C_estimate _ | C_propose _ | C_ack _ | C_decide _ | C_start _ -> true
    | _ -> false)

type instance = {
  key : string;
  mutable my_proposal : Types.payload option;
  mutable decided : Types.payload option;
  mutable informed : int;
      (** peers known to hold the decision, one bit per index in [peers]:
          this process, the peer it was learned from, and every peer that
          acked a [C_decide] from here *)
  mutable driver_running : bool;
  mutable waiters : Rt.Wake.t option;
      (** local fibers blocked on the decision (proposers, the driver,
          register waits), woken by it; dropped once decided *)
  mutable saved_est : Types.payload option;
      (** recovered adoption (crash-recovery mode) *)
  mutable saved_ts : int;
  mutable restart_round : int;
      (** never participate at or below a round acknowledged before a crash *)
}

(* Crash-recovery stable log: adoptions (before the ack leaves) and
   decisions (before they are announced). *)
type plog_record =
  | P_adopt of { key : string; round : int; value : Types.payload }
  | P_decide of { key : string; value : Types.payload }

type persistence = {
  pdisk : Dstore.Disk.t;
  plog : plog_record Dstore.Log.t;
}

let make_persistence ~disk = { pdisk = disk; plog = Dstore.Log.create ~disk () }

type t = {
  self : Types.proc_id;
  peers : Types.proc_id list;
  n : int;
  majority : int;
  fd : Fdetect.t;
  ch : Rchannel.t;
  round_timeout : float;
  instances : (string, instance) Hashtbl.t;
  gone : (int, int) Hashtbl.t;
      (** by client: one past the highest {!Reg_name.position} of a
          classic register collected here *)
  everyone : int;  (** [informed] once every peer holds the decision *)
  mutable retired : string -> bool;  (** the owner's rule; see [collect] *)
  mutable on_decide : string -> unit;
  persist : persistence option;
  sink : Rt.obs_sink option;  (** fetched once at create; None = obs off *)
}

(* Register keys embed the request id ("g0:regD:c7:r1003[1]"), which is the
   trace id of all observability for that request — parsing it here lets
   consensus events join the request's span tree without any API change. *)
let trace_of_key key = Int.max 0 (Reg_name.rid_of key)

(* [informed]'s bit for peer [p]; 0 for a process outside [peers] *)
let rec bit_in p i = function
  | [] -> 0
  | q :: rest -> if q = p then 1 lsl i else bit_in p (i + 1) rest

let bit t p = bit_in p 0 t.peers

let gauge_instances t =
  match t.sink with
  | None -> ()
  | Some s ->
      s.Rt.obs_gauge "consensus.instances"
        (float_of_int (Hashtbl.length t.instances))

(* Removes [inst] once nothing can need it here again: the owner's rule
   retires its key, it is decided, no driver runs it, and every peer
   holds the decision (so no peer will ask about it). Called at each of
   those events; each check is O(1). *)
let collect t inst =
  if
    inst.informed = t.everyone
    && (not inst.driver_running)
    && inst.decided <> None
    && t.retired inst.key
  then begin
    Hashtbl.remove t.instances inst.key;
    let client = Reg_name.client_of inst.key in
    if client >= 0 then begin
      let above = Reg_name.position inst.key + 1 in
      match Hashtbl.find t.gone client with
      | mark -> if above > mark then Hashtbl.replace t.gone client above
      | exception Not_found -> Hashtbl.add t.gone client above
    end;
    gauge_instances t
  end

let ensure t key =
  match Hashtbl.find_opt t.instances key with
  | Some inst -> inst
  | None ->
      let inst =
        {
          key;
          my_proposal = None;
          decided = None;
          informed = 0;
          driver_running = false;
          waiters = None;
          saved_est = None;
          saved_ts = -1;
          restart_round = 0;
        }
      in
      Hashtbl.replace t.instances key inst;
      gauge_instances t;
      inst

let log_adoption t inst ~round value =
  match t.persist with
  | None -> ()
  | Some p ->
      Dstore.Log.append_list p.plog [ P_adopt { key = inst.key; round; value } ];
      Dstore.Log.force ~label:"reg-adopt" p.plog

let log_decision t inst value =
  match t.persist with
  | None -> ()
  | Some p ->
      Dstore.Log.append_list p.plog [ P_decide { key = inst.key; value } ];
      Dstore.Log.force ~label:"reg-decide" p.plog

let recover_from_log t p =
  let restore = function
    | P_adopt { key; round; value } ->
        let inst = ensure t key in
        if round >= inst.saved_ts then begin
          inst.saved_est <- Some value;
          inst.saved_ts <- round
        end;
        inst.restart_round <- max inst.restart_round (round + 1)
    | P_decide { key; value } ->
        let inst = ensure t key in
        if inst.decided = None then begin
          inst.decided <- Some value;
          inst.informed <- bit t t.self
        end
  in
  Dstore.Log.crash_cut p.plog;
  Dstore.Log.iter_from p.plog ~lsn:(Dstore.Log.base_lsn p.plog) ~f:(fun _ r ->
      restore r)

let create ?(round_timeout = 100.) ?persist ~peers ~fd ~ch () =
  let n = List.length peers in
  let t =
    {
      self = Rt.self ();
      peers;
      n;
      majority = (n / 2) + 1;
      fd;
      ch;
      round_timeout;
      instances = Hashtbl.create 32;
      gone = Hashtbl.create 16;
      everyone = (1 lsl n) - 1;
      retired = (fun _ -> false);
      on_decide = ignore;
      persist;
      sink = Rt.obs ();
    }
  in
  (match persist with None -> () | Some p -> recover_from_log t p);
  (* What no peer waits for stops retransmitting: the round messages of an
     instance decided here (or already collected, which only a decided one
     is), and a decision relayed to a suspected peer. A peer suspected
     wrongly learns the decision once its own driver asks: the dispatcher
     answers every message about a decided instance with [C_decide]. That
     peer's ack is what lets [collect] remove the instance. *)
  Rchannel.retire_when ch (fun dst -> function
    | C_start { key } | C_estimate { key; _ } | C_propose { key; _ }
    | C_ack { key; _ } -> (
        match Hashtbl.find t.instances key with
        | inst -> inst.decided <> None
        | exception Not_found -> true)
    | C_decide _ -> Fdetect.suspects fd dst
    | _ -> false);
  Rchannel.on_ack ch (fun dst -> function
    | C_decide { key; _ } -> (
        match Hashtbl.find t.instances key with
        | inst ->
            inst.informed <- inst.informed lor bit t dst;
            collect t inst
        | exception Not_found -> ())
    | _ -> ());
  t

let coordinator t round = List.nth t.peers (round mod t.n)

(* The wake [record_decision] fires for [inst]; one that never fires once
   the instance is decided. *)
let waiters inst =
  match inst.waiters with
  | Some w -> w
  | None ->
      let w = Rt.Wake.create () in
      if inst.decided = None then inst.waiters <- Some w;
      w

(* [from] is the peer the value was learned from ([t.self] for a decision
   reached here). *)
let record_decision t inst ~from value =
  match inst.decided with
  | Some _ -> ()
  | None ->
      log_decision t inst value;
      inst.decided <- Some value;
      inst.informed <- bit t t.self lor bit t from;
      (match t.sink with
      | None -> ()
      | Some s ->
          s.Rt.obs_count "consensus.decides" 1;
          s.Rt.obs_event ~trace:(trace_of_key inst.key) "consensus-decide"
            inst.key);
      Option.iter Rt.Wake.wake inst.waiters;
      inst.waiters <- None;
      (* reliable broadcast: relay on first learn to every peer but the
         one it came from, which already knows *)
      List.iter
        (fun p ->
          if p <> t.self && p <> from then
            Rchannel.send t.ch p (C_decide { key = inst.key; value }))
        t.peers;
      t.on_decide inst.key;
      collect t inst

(* --- the per-instance driver: one fiber running the CT state machine --- *)

(* The per-instance driver runs the rotating-coordinator state machine in
   direct style. Two liveness devices on top of suspicion-driven rotation:

   - every phase abandons its round after [round_timeout] (◇S via timeouts),
     so a round whose coordinator is stuck or gone always ends;
   - processes {e jump forward}: any message for a higher round re-enters
     the loop at that round (estimates we will coordinate are re-delivered
     so the new phase finds them in the mailbox; proposals are adopted on
     the spot). Without this, processes that restart at different rounds
     after recoveries would march in lock-step without ever meeting in a
     common round.

   Safety is unaffected: adoption timestamps carry the locking argument, and
   jumps only ever move rounds forward (never below a previously
   acknowledged round).

   A participant that acked round r's proposal stays in r: a failure-free
   instance then decides in round 0. It leaves r by suspicion of r's
   coordinator or the round timeout; a decision it missed reaches it by a
   relay or, once it asks in a later round, from a decided peer's
   dispatcher. A driver started by a message ([first], the auto-join)
   reacts to it before anything else, so a proposal is adopted without a
   round-0 estimate the coordinator would discard. *)
let driver ?first t inst () =
  let wants_instance m =
    match m.Types.payload with
    | C_estimate { key; _ } | C_propose { key; _ } | C_ack { key; _ } ->
        key = inst.key
    | _ -> false
  in
  let adopt_and_ack ~round:r value ~coordinator:c =
    (* durable adoption before the promise leaves (crash-recovery mode);
       free in the crash-stop configuration *)
    log_adoption t inst ~round:r value;
    Rchannel.send t.ch c (C_ack { key = inst.key; round = r; ok = true })
  in
  (* highest round this driver entered, for the rounds-per-write metric *)
  let max_r = ref 0 in
  (* every wait below ends on a message of this instance, its decision, its
     round deadline or (a participant's) suspicion of the coordinator *)
  let decided = waiters inst and suspicion = Fdetect.changed t.fd in
  let recv ~deadline w' =
    Rt.Wake.recv decided w' ~timeout:(deadline -. Rt.now ()) cls_net
      ~filter:wants_instance
  in
  let rec go r est ts =
    if r > !max_r then max_r := r;
    match inst.decided with
    | Some _ -> ()
    | None ->
        let c = coordinator t r in
        if c = t.self then run_coordinator r est ts
        else run_participant r est ts c
  (* Shared reaction to messages that end the current phase by moving to a
     later round; returns [true] when the phase must stop. *)
  and jump_on (m : Types.message) ~current est ts =
    match m.payload with
    | C_propose { round = r'; value; _ } when r' >= current ->
        adopt_and_ack ~round:r' value ~coordinator:m.src;
        if r' > !max_r then max_r := r';
        let est = Some value in
        await r' est r' m.src ~give_up:(fun () -> go (r' + 1) est r');
        true
    | C_estimate { round = r'; _ }
      when r' > current && coordinator t r' = t.self ->
        (* we coordinate that later round: requeue the estimate and go *)
        Rt.redeliver ~src:m.src m.payload;
        go r' est ts;
        true
    | C_estimate _ | C_propose _ | C_ack _ | _ -> false
  and run_coordinator r est ts =
    (* Phase 1/2: choose a value. Round 0 with an own proposal skips the
       estimate gathering (first-coordinator optimisation) — but only when
       nothing can have been adopted before round 0, which a recovered
       adoption would contradict. *)
    if r = 0 && inst.my_proposal <> None && inst.saved_est = None then
      propose r (Option.get inst.my_proposal)
    else begin
      let seen = Hashtbl.create 8 in
      Hashtbl.replace seen t.self (est, ts);
      let best () =
        let candidates =
          Hashtbl.fold (fun _ (e, s) acc -> (e, s) :: acc) seen []
        in
        let own =
          match inst.my_proposal with Some v -> [ (Some v, -1) ] | None -> []
        in
        List.fold_left
          (fun acc (e, s) ->
            match (e, acc) with
            | None, _ -> acc
            | Some _, Some (_, s') when s' >= s -> acc
            | Some v, _ -> Some (v, s))
          None (own @ candidates)
      in
      let deadline = Rt.now () +. t.round_timeout in
      let rec gather () =
        match inst.decided with
        | Some _ -> ()
        | None -> (
            match (Hashtbl.length seen >= t.majority, best ()) with
            | true, Some (v, _) -> propose r v
            | _ when Rt.now () >= deadline -> go (r + 1) est ts
            | _ -> (
                match recv ~deadline decided with
                | Some
                    ({ payload = C_estimate { round; est; ts; _ }; src; _ } as
                     m) ->
                    if round = r then begin
                      Hashtbl.replace seen src (est, ts);
                      gather ()
                    end
                    else if not (jump_on m ~current:r est ts) then gather ()
                | Some m ->
                    if not (jump_on m ~current:r est ts) then gather ()
                | None -> gather ()))
      in
      gather ()
    end
  and propose r v =
    (* adopting our own proposal counts as an acknowledgement: in
       crash-recovery mode it must be durable before we count it *)
    log_adoption t inst ~round:r v;
    List.iter
      (fun p ->
        if p <> t.self then
          Rchannel.send t.ch p (C_propose { key = inst.key; round = r; value = v }))
      t.peers;
    let yes = ref 1 and no = ref 0 in
    let deadline = Rt.now () +. t.round_timeout in
    let rec collect () =
      match inst.decided with
      | Some _ -> ()
      | None ->
          if !yes >= t.majority then record_decision t inst ~from:t.self v
          else if
            (!yes + !no >= t.majority && !no >= 1) || Rt.now () >= deadline
          then go (r + 1) (Some v) r
          else begin
            match recv ~deadline decided with
            | Some { payload = C_ack { round; ok; _ }; _ } when round = r ->
                if ok then incr yes else incr no;
                collect ()
            | Some m ->
                if not (jump_on m ~current:r (Some v) r) then collect ()
            | None -> collect ()
          end
    in
    collect ()
  and run_participant r est ts c =
    Rchannel.send t.ch c (C_estimate { key = inst.key; round = r; est; ts });
    await r est ts c ~give_up:(fun () ->
        Rchannel.send t.ch c (C_ack { key = inst.key; round = r; ok = false });
        go (r + 1) est ts)
  (* A participant's wait in round r, before its ack (for the proposal,
     which [jump_on] adopts) and after it (for the decision): it ends on a
     message of round r or later, or by [give_up] once coordinator [c] is
     suspected (at the detector's wake) or the round times out. *)
  and await r est ts c ~give_up =
    let deadline = Rt.now () +. t.round_timeout in
    let rec wait () =
      match inst.decided with
      | Some _ -> ()
      | None when Fdetect.suspects t.fd c || Rt.now () >= deadline ->
          give_up ()
      | None -> (
          match recv ~deadline suspicion with
          | Some m -> if not (jump_on m ~current:r est ts) then wait ()
          | None -> wait ())
    in
    wait ()
  in
  (* A recovered adoption dominates a fresh proposal as the initial
     estimate, and the driver must start above any round it acknowledged
     before a crash. A fresh proposal carries ts = -1: any timestamp >= 0
     claims "adopted from the coordinator of round ts", and two distinct
     values may never make that claim for the same round — a fresh proposal
     stamped 0 could tie a genuine round-0 adoption and steal the lock. *)
  let est0, ts0 =
    match inst.saved_est with
    | Some _ as est -> (est, inst.saved_ts)
    | None -> (inst.my_proposal, -1)
  in
  (match first with
  | Some m when jump_on m ~current:inst.restart_round est0 ts0 -> ()
  | Some m ->
      Rt.redeliver ~src:m.src m.payload;
      go inst.restart_round est0 ts0
  | None -> go inst.restart_round est0 ts0);
  (match t.sink with
  | None -> ()
  | Some s ->
      (* rounds this driver traversed before the instance decided; >1 only
         when round 0 failed (coordinator crash, suspicion, timeout) *)
      let rounds = !max_r + 1 in
      s.Rt.obs_count "consensus.rounds" rounds;
      s.Rt.obs_observe "consensus.rounds_per_write" (float_of_int rounds));
  inst.driver_running <- false;
  collect t inst

let start_driver ?first t inst =
  if (not inst.driver_running) && inst.decided = None then begin
    inst.driver_running <- true;
    Rt.fork ("consensus:" ^ inst.key) (driver ?first t inst)
  end

(* --- dispatcher: auto-join, decisions, and stale-message service --- *)

let never_held t key =
  let client = Reg_name.client_of key in
  client >= 0
  &&
  match Hashtbl.find t.gone client with
  | mark -> Reg_name.position key >= mark
  | exception Not_found -> true

(* A message about an instance absent here creates it, unless the owner's
   rule retires its key and the instance may have been collected here:
   [known] raises [Not_found] for it. Every classic register collected
   here sits below its client's [gone] mark, so a retired one at or above
   the mark was never held here. Then no peer has collected it either, as
   a collection needs every peer to hold the decision, and a server that
   has not learned the retirement may still drive it, with a database
   waiting on its outcome: this one takes part. The rule retires any
   other key only once it is decided here (a batch slot below its epoch's
   settled slots), so an absent one was collected. *)
let known t key =
  match Hashtbl.find t.instances key with
  | inst -> inst
  | exception Not_found ->
      if t.retired key && not (never_held t key) then raise Not_found
      else ensure t key

let dispatcher t () =
  let wants m =
    match m.Types.payload with
    | C_decide _ | C_start _ -> true
    | C_estimate { key; _ } | C_propose { key; _ } | C_ack { key; _ } -> (
        (* steal only messages no running driver will consume *)
        match Hashtbl.find_opt t.instances key with
        | Some inst -> not inst.driver_running
        | None -> true)
    | _ -> false
  in
  let rec loop () =
    (match Rt.recv ~cls:cls_net ~filter:wants () with
    | None -> ()
    | Some m -> (
        match m.payload with
        | C_decide { key; value } -> (
            match known t key with
            | inst -> record_decision t inst ~from:m.src value
            | exception Not_found -> ())
        | C_start { key } -> (
            match known t key with
            | inst -> if inst.decided = None then start_driver t inst
            | exception Not_found -> ())
        | C_estimate { key; _ } | C_propose { key; _ } | C_ack { key; _ } -> (
            match known t key with
            | exception Not_found -> ()
            | inst -> (
            match (inst.decided, m.payload) with
            | Some _, C_ack _ when Option.is_none t.persist ->
                (* a late ack: [record_decision]'s relay already told its
                   sender. With persistence the decision may instead have
                   been restored from the log, which relays nothing. *)
                ()
            | Some value, _ ->
                (* instance already over here: tell the sender *)
                Rchannel.send t.ch m.src (C_decide { key; value })
            | None, _ ->
                (* auto-join: the new driver starts from the message *)
                start_driver ~first:m t inst))
        | _ -> ()));
    loop ()
  in
  loop ()

let start t = Rt.fork "consensus-dispatcher" (dispatcher t)

let propose t ~key value =
  let inst = ensure t key in
  match inst.decided with
  | Some v -> v
  | None ->
      if inst.my_proposal = None then inst.my_proposal <- Some value;
      (* the round-0 coordinator's own propose announces the instance; any
         other proposer must do so explicitly *)
      if (not inst.driver_running) && coordinator t 0 <> t.self then
        List.iter
          (fun p ->
            if p <> t.self then Rchannel.send t.ch p (C_start { key }))
          t.peers;
      start_driver t inst;
      Rt.Wake.until (waiters inst) (fun () -> inst.decided <> None);
      Option.get inst.decided

let peek t ~key =
  match Hashtbl.find_opt t.instances key with
  | None -> None
  | Some inst -> inst.decided

let decision_wake t ~key = waiters (ensure t key)

let is_consensus_message = function
  | C_estimate _ | C_propose _ | C_ack _ | C_decide _ | C_start _ ->
      true
  | _ -> false

let retire_when t rule = t.retired <- rule
let on_decide t f = t.on_decide <- f

let release t ~key =
  match Hashtbl.find t.instances key with
  | inst -> collect t inst
  | exception Not_found -> ()

let instance_count t = Hashtbl.length t.instances

let decided_keys t =
  Hashtbl.fold
    (fun key inst acc -> if inst.decided <> None then key :: acc else acc)
    t.instances []
  |> List.sort String.compare
