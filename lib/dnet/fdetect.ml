open Runtime
module Rt = Etx_runtime

type Types.payload += Fd_heartbeat

let cls_hb =
  Rt.register_class ~name:"fd-heartbeat" (function
    | Fd_heartbeat -> true
    | _ -> false)

type peer_state = {
  mutable last_heard : float;
  mutable timeout : float;
  mutable suspected : bool;
}

(* Where the monitor is; see [Rchannel]'s retransmitter, which runs the
   same way. *)
type phase =
  | Unstarted  (** {!start} armed its timer for its first run *)
  | Idle  (** every peer suspected: waits for a cleared suspicion *)
  | Armed  (** the timer is armed toward [target] *)
  | Running

type hb = {
  period : float;
  bump : float;
  owner : Types.proc_id;
  peer_ids : Types.proc_id list;  (** broadcaster fan-out order *)
  states : peer_state option array;  (** indexed by pid; O(1) per lookup *)
  sink : Rt.obs_sink option;  (** fetched once at create; None = obs off *)
  hchanged : Rt.Wake.t;
  mutable beat : Rt.timer;  (** the broadcaster *)
  mutable mon : Rt.timer;  (** the monitor *)
  mutable phase : phase;
  mutable tick : float;  (** the last grid point examined *)
  mutable target : float;  (** the grid point [mon] is armed toward *)
}

let count hb name =
  match hb.sink with None -> () | Some s -> s.Rt.obs_count name 1

type t =
  | Heartbeat of hb
  | Oracle of { rt : Rt.t; ochanged : Rt.Wake.t }
  | Scripted of {
      f : Types.proc_id -> bool;
      speers : Types.proc_id list;
      schanged : Rt.Wake.t;
    }

(* How often the scripted detector re-evaluates its function. *)
let scripted_poll = 10.

let heartbeat ?(period = 10.) ?(initial_timeout = 50.) ?(timeout_bump = 25.)
    ~peers () =
  let now = Rt.now () in
  let cap = 1 + List.fold_left max 0 peers in
  let states = Array.make cap None in
  List.iter
    (fun pid ->
      states.(pid) <-
        Some { last_heard = now; timeout = initial_timeout; suspected = false })
    peers;
  Heartbeat
    {
      period;
      bump = timeout_bump;
      owner = Rt.self ();
      peer_ids = peers;
      states;
      sink = Rt.obs ();
      hchanged = Rt.Wake.create ();
      beat = Rt.no_timer;
      mon = Rt.no_timer;
      phase = Unstarted;
      tick = now;
      target = now;
    }

let oracle rt = Oracle { rt; ochanged = Rt.Wake.create () }

let of_fun ~peers f = Scripted { f; speers = peers; schanged = Rt.Wake.create () }

let changed = function
  | Heartbeat hb -> hb.hchanged
  | Oracle { ochanged; _ } -> ochanged
  | Scripted { schanged; _ } -> schanged

let state_of hb pid =
  if pid < 0 || pid >= Array.length hb.states then None else hb.states.(pid)

(* Heartbeats to every peer, every [period]. *)
let beat hb () =
  List.iter
    (fun pid -> if pid <> hb.owner then Rt.send pid Fd_heartbeat)
    hb.peer_ids;
  Rt.arm hb.beat hb.period

(* One coalesced timer instead of scanning every peer each half-period.
   Suspicions happen on the half-period grid ([tick] accumulates
   [period/2]), but the monitor only wakes at grid points where some
   unsuspected peer's [last_heard + timeout] deadline can actually have
   expired — O(peers) work per deadline rather than per half-period. *)
let next_deadline hb =
  let d = ref infinity in
  Array.iteri
    (fun pid st_opt ->
      match st_opt with
      | Some st when pid <> hb.owner && not st.suspected ->
          let dl = st.last_heard +. st.timeout in
          if dl < !d then d := dl
      | _ -> ())
    hb.states;
  !d

(* At or past the grid point [target]: suspect each overdue peer. *)
let examine hb target =
  let now = Rt.now () in
  if now >= target then begin
    let fresh = ref false in
    Array.iteri
      (fun pid st_opt ->
        match st_opt with
        | Some st
          when pid <> hb.owner
               && (not st.suspected)
               && now -. st.last_heard > st.timeout ->
            st.suspected <- true;
            fresh := true;
            count hb "fd.suspicions"
        | _ -> ())
      hb.states;
    hb.tick <- target;
    if !fresh then Rt.Wake.wake hb.hchanged
  end

(* One wake-up of the monitor ([due]: it waited toward [hb.target] and the
   timer fired or a cleared suspicion cut the wait short), then the next
   wait: none while every peer is suspected, else toward the first grid
   point strictly past the earliest deadline (suspicion uses
   [now -. last_heard > timeout], i.e. strict). *)
let rec monitor hb ~due =
  hb.phase <- Running;
  if due then examine hb hb.target;
  let deadline = next_deadline hb in
  if deadline = infinity then hb.phase <- Idle
  else begin
    let h = hb.period /. 2. in
    let target = ref (hb.tick +. h) in
    while !target <= deadline do
      target := !target +. h
    done;
    hb.target <- !target;
    let delay = !target -. Rt.now () in
    if delay <= 0. then monitor hb ~due:true
    else begin
      hb.phase <- Armed;
      Rt.arm hb.mon delay
    end
  end

(* A cleared suspicion: the peer re-enters the deadline computation,
   possibly earlier than the current wait. Only the monitor suspects, and
   no heartbeat is handled while it runs. *)
let replan hb =
  match hb.phase with
  | Idle -> monitor hb ~due:false
  | Armed ->
      Rt.cancel hb.mon;
      monitor hb ~due:true
  | Unstarted | Running -> ()

let on_monitor hb () =
  match hb.phase with
  | Unstarted ->
      hb.tick <- Rt.now ();
      monitor hb ~due:false
  | Idle | Armed | Running -> monitor hb ~due:true

(* Runs inside each heartbeat's delivery event. *)
let on_heartbeat hb (m : Types.message) =
  match state_of hb m.src with
  | None -> ()
  | Some st ->
      st.last_heard <- Rt.now ();
      if st.suspected then begin
        (* false suspicion: the ◇P adaptation rule *)
        st.suspected <- false;
        st.timeout <- st.timeout +. hb.bump;
        count hb "fd.clears";
        replan hb;
        Rt.Wake.wake hb.hchanged
      end

(* The scripted detector's poller: the one place suspicion is polled. *)
let poller f peers w () =
  let last = Hashtbl.create 8 in
  let rec loop () =
    let moved =
      List.fold_left
        (fun moved pid ->
          let s = f pid in
          if Hashtbl.find_opt last pid = Some s then moved
          else begin
            Hashtbl.replace last pid s;
            true
          end)
        false peers
    in
    if moved then Rt.Wake.wake w;
    Rt.sleep scripted_poll;
    loop ()
  in
  loop ()

let start = function
  | Oracle { ochanged; _ } -> Rt.watch (fun _ -> Rt.Wake.wake ochanged)
  | Scripted { f; speers; schanged } ->
      Rt.fork "fd-poll" (poller f speers schanged)
  | Heartbeat hb ->
      (* each timer's first run is an event of its own, as it was when
         the broadcaster and the monitor were fibers *)
      hb.beat <- Rt.timer (beat hb);
      Rt.arm hb.beat 0.;
      Rt.on_message cls_hb (on_heartbeat hb);
      hb.mon <- Rt.timer (on_monitor hb);
      Rt.arm hb.mon 0.

let suspects t pid =
  match t with
  | Oracle { rt; _ } -> not (rt.Rt.is_up pid)
  | Scripted { f; _ } -> f pid
  | Heartbeat hb -> (
      match state_of hb pid with None -> false | Some st -> st.suspected)

let is_heartbeat = function Fd_heartbeat -> true | _ -> false

let current_timeout t pid =
  match t with
  | Oracle _ | Scripted _ -> None
  | Heartbeat hb -> (
      match state_of hb pid with None -> None | Some st -> Some st.timeout)
