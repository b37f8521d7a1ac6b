open Runtime
module Rt = Etx_runtime

type Types.payload +=
  | Fd_heartbeat
  | Fd_wake  (** self-delivered poke: re-plan the coalesced monitor timer *)

let cls_hb =
  Rt.register_class ~name:"fd-heartbeat" (function
    | Fd_heartbeat -> true
    | _ -> false)

let cls_wake =
  Rt.register_class ~name:"fd-wake" (function
    | Fd_wake -> true
    | _ -> false)

type peer_state = {
  mutable last_heard : float;
  mutable timeout : float;
  mutable suspected : bool;
}

type hb = {
  period : float;
  bump : float;
  owner : Types.proc_id;
  peer_ids : Types.proc_id list;  (** broadcaster fan-out order *)
  states : peer_state option array;  (** indexed by pid; O(1) per lookup *)
  sink : Rt.obs_sink option;  (** fetched once at create; None = obs off *)
  hchanged : Rt.Wake.t;
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
    }

let oracle rt = Oracle { rt; ochanged = Rt.Wake.create () }

let of_fun ~peers f = Scripted { f; speers = peers; schanged = Rt.Wake.create () }

let changed = function
  | Heartbeat hb -> hb.hchanged
  | Oracle { ochanged; _ } -> ochanged
  | Scripted { schanged; _ } -> schanged

let state_of hb pid =
  if pid < 0 || pid >= Array.length hb.states then None else hb.states.(pid)

let broadcaster hb () =
  let self = Rt.self () in
  let rec loop () =
    List.iter
      (fun pid -> if pid <> self then Rt.send pid Fd_heartbeat)
      hb.peer_ids;
    Rt.sleep hb.period;
    loop ()
  in
  loop ()

(* Runs inside each heartbeat's delivery event. *)
let on_heartbeat hb (m : Types.message) =
  match state_of hb m.src with
  | None -> ()
  | Some st ->
      st.last_heard <- Rt.now ();
      if st.suspected then begin
        (* false suspicion: the ◇P adaptation rule. The cleared peer
           re-enters the monitor's deadline computation, possibly
           earlier than its current timer — poke it to re-plan. *)
        st.suspected <- false;
        st.timeout <- st.timeout +. hb.bump;
        count hb "fd.clears";
        Rt.redeliver ~src:hb.owner Fd_wake;
        Rt.Wake.wake hb.hchanged
      end

(* One coalesced timer instead of scanning every peer each half-period.
   Suspicions still happen on the same half-period tick grid (the [tick]
   cursor accumulates [period/2] exactly as the old sleep-per-tick loop
   did), but the monitor only wakes at ticks where some unsuspected peer's
   [last_heard + timeout] deadline can actually have expired — O(peers)
   work per deadline rather than per half-period. *)
let monitor hb () =
  let self = Rt.self () in
  let h = hb.period /. 2. in
  let tick = ref (Rt.now ()) in
  (* next unexamined grid point is [!tick +. h] *)
  let next_deadline () =
    let d = ref infinity in
    Array.iteri
      (fun pid st_opt ->
        match st_opt with
        | Some st when pid <> self && not st.suspected ->
            let dl = st.last_heard +. st.timeout in
            if dl < !d then d := dl
        | _ -> ())
      hb.states;
    !d
  in
  let rec loop () =
    let deadline = next_deadline () in
    if deadline = infinity then begin
      (* nothing to monitor until a suspicion is cleared *)
      ignore (Rt.recv_cls cls_wake);
      loop ()
    end
    else begin
      (* first grid point strictly past the deadline (suspicion uses
         [now -. last_heard > timeout], i.e. strict) *)
      let target = ref (!tick +. h) in
      while !target <= deadline do
        target := !target +. h
      done;
      let delay = !target -. Rt.now () in
      if delay > 0. then ignore (Rt.recv_cls ~timeout:delay cls_wake);
      let now = Rt.now () in
      if now >= !target then begin
        let fresh = ref false in
        Array.iteri
          (fun pid st_opt ->
            match st_opt with
            | Some st
              when pid <> self
                   && (not st.suspected)
                   && now -. st.last_heard > st.timeout ->
                st.suspected <- true;
                fresh := true;
                count hb "fd.suspicions"
            | _ -> ())
          hb.states;
        tick := !target;
        if !fresh then Rt.Wake.wake hb.hchanged
      end;
      (* else: woken by a poke — re-plan from the unchanged cursor *)
      loop ()
    end
  in
  loop ()

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
      Rt.fork "fd-broadcast" (broadcaster hb);
      Rt.on_message cls_hb (on_heartbeat hb);
      Rt.fork "fd-monitor" (monitor hb)

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
