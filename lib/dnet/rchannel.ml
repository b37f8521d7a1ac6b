open Runtime
module Rt = Etx_runtime

(* [rc_ep] identifies the sending endpoint incarnation: a process that
   crashes and recovers gets a fresh endpoint whose sequence numbers restart,
   so deduplication must key on (endpoint, seq) — otherwise a recovered
   database's first messages would be dropped as duplicates. Endpoint ids
   come from [fresh_uid], unique across processes and incarnations within a
   run, so the endpoint alone names the sending stream: the receive table
   is keyed by the bare int.

   Sequence numbers are per destination (starting at 1), which lets an ack
   carry [rc_cum], the receiver's highest contiguously-delivered sequence
   for that endpoint: one ack then retires a whole prefix of the outbox,
   and the receiver's duplicate-suppression state stays bounded by the
   out-of-order window instead of growing with every message ever seen.
   A data frame carries [rc_low], the stream's low-water mark: the sender
   holds no sequence below it, so the receiver counts everything below as
   delivered. That keeps the window bounded when the receiver cannot have
   seen a prefix: a recovered receiver meets a stream already far past 1. *)
type Types.payload +=
  | Rc_data of {
      rc_ep : int;
      rc_seq : int;
      rc_low : int;
      inner : Types.payload;
    }
  | Rc_ack of { rc_ep : int; rc_seq : int; rc_cum : int }

let cls_frame =
  Rt.register_class ~name:"rc-frame" (function
    | Rc_data _ | Rc_ack _ -> true
    | _ -> false)

(* Float-only, so the floats are stored unboxed and updating them
   allocates nothing. *)
type times = {
  mutable next_delay : float;
  mutable due : float;  (** absolute time of next retransmission *)
}

type out_entry = {
  dst : Types.proc_id;
  seq : int;
  inner : Types.payload;
  tm : times;
  mutable acked : bool;
}

(* fills the timer queue's vacated slots *)
let no_entry =
  {
    dst = -1;
    seq = 0;
    inner = Rc_ack { rc_ep = 0; rc_seq = 0; rc_cum = 0 };
    tm = { next_delay = 0.; due = 0. };
    acked = true;
  }

(* A stream to a silent destination retransmits only its probe; see
   [park]. *)
type silence =
  | Heard
  | Probing of { mutable probe : out_entry; mutable parked : out_entry list }

(* sender-side per-destination stream *)
type dst_state = {
  mutable next_seq : int;
  live : (int, out_entry) Hashtbl.t;  (** seq -> unacked entry *)
  mutable min_live : int;
      (** the low-water mark: every seq below this is retired, and this one
          is live unless the stream is empty *)
  mutable last_ack : float;  (** send time of the latest ack *)
  mutable silence : silence;
}

(* receiver-side per-endpoint stream *)
type rx_state = {
  mutable cum : int;  (** highest contiguously delivered sequence *)
  ooo : (int, unit) Hashtbl.t;  (** delivered out of order, above [cum] *)
}

(* Where the retransmitter is. It runs as one runtime timer; it wakes when
   that fires or when a new entry must be seen at once (a kick: the first
   entry after an idle spell, an entry due before a probe's timer, parked
   entries re-armed by an ack). *)
type phase =
  | Unstarted  (** {!start} armed the timer for its first run *)
  | Idle  (** nothing to time: waits for a kick *)
  | Armed  (** the timer is armed toward [wake_at] *)
  | Running

(* Retransmission timers: a lazy-deletion queue of (due, entry) snapshots.
   Acking or rescheduling an entry leaves its old snapshot queued; pops skip
   snapshots whose entry is retired or whose due time moved on. Equal due
   times pop in push order. *)
type t = {
  owner : Types.proc_id;
  ep : int;  (** endpoint incarnation, globally unique *)
  streams : (Types.proc_id, dst_state) Hashtbl.t;
  timers : out_entry Timeq.t;
  mutable pending : int;  (** unacked outgoing messages, O(1) *)
  mutable probing : int;  (** streams in [Probing] *)
  mutable wake_at : float;
      (** the due time the retransmitter sleeps toward; [infinity] while it
          waits for a kick *)
  mutable timer : Rt.timer;
  mutable phase : phase;
  rx : (int, rx_state) Hashtbl.t;  (** by sending endpoint *)
  sink : Rt.obs_sink option;  (** fetched once at create; None = obs off *)
  on_silent : (Types.proc_id -> Types.payload -> unit) option;
  mutable unneeded : Types.proc_id -> Types.payload -> bool;
      (** the owner's retirement rule, asked when an entry falls due *)
  mutable on_ack : Types.proc_id -> Types.payload -> unit;
      (** the owner's ack hook, called as each entry is acknowledged *)
}

let count t name =
  match t.sink with None -> () | Some s -> s.Rt.obs_count name 1

let retransmit_after = 10.
let backoff_factor = 2.
let max_backoff = 200.

(* Delays run 10, 20, 40, … ms: an entry's third retransmission is the one
   made while its [next_delay] is [third_delay], [silent_after] = 70 ms
   after its send. *)
let third_delay = retransmit_after *. backoff_factor *. backoff_factor
let silent_after = (2. *. third_delay) -. retransmit_after

let create ?on_silent () =
  {
    owner = Rt.self ();
    (* endpoint ids are engine-scoped (unique across incarnations within a
       trial) so independent trials stay self-contained *)
    ep = Rt.fresh_uid ();
    streams = Hashtbl.create 16;
    timers = Timeq.create ~dummy:no_entry ();
    pending = 0;
    probing = 0;
    wake_at = Float.infinity;
    timer = Rt.no_timer;
    phase = Unstarted;
    rx = Hashtbl.create 16;
    sink = Rt.obs ();
    on_silent;
    unneeded = (fun _ _ -> false);
    on_ack = (fun _ _ -> ());
  }

let retire_when t rule = t.unneeded <- rule
let on_ack t hook = t.on_ack <- hook

let pending t = t.pending

let out_of_order t =
  Hashtbl.fold (fun _ rs n -> n + Hashtbl.length rs.ooo) t.rx 0

(* Lookups use [find] and [Not_found] rather than [find_opt]: a hit, the
   common case, then allocates no option. *)
let stream_to t dst =
  match Hashtbl.find t.streams dst with
  | ds -> ds
  | exception Not_found ->
      let ds =
        {
          next_seq = 0;
          live = Hashtbl.create 16;
          min_live = 1;
          last_ack = Float.neg_infinity;
          silence = Heard;
        }
      in
      Hashtbl.add t.streams dst ds;
      ds

let stream_from t rc_ep =
  match Hashtbl.find t.rx rc_ep with
  | rs -> rs
  | exception Not_found ->
      let rs = { cum = 0; ooo = Hashtbl.create 8 } in
      Hashtbl.add t.rx rc_ep rs;
      rs

let push_timer t e = Timeq.push t.timers e.tm.due e

(* With nothing unacked the retransmitter has nothing to time: a finished
   simulation reaches quiescence. *)
let go_idle t =
  Timeq.clear t.timers;
  t.wake_at <- Float.infinity;
  t.phase <- Idle

let retire t (e : out_entry) =
  if not e.acked then begin
    e.acked <- true;
    t.pending <- t.pending - 1;
    if t.pending = 0 && t.phase = Armed then begin
      Rt.cancel t.timer;
      go_idle t
    end
  end

let retire_seq t ds seq =
  match Hashtbl.find ds.live seq with
  | e ->
      Hashtbl.remove ds.live seq;
      retire t e;
      t.on_ack e.dst e.inner
  | exception Not_found -> ()

(* Raises the low-water mark past retired entries; each sequence number is
   passed at most once over the stream's lifetime, so this is amortised
   O(1) per retirement. *)
let advance_low ds =
  while ds.min_live <= ds.next_seq && not (Hashtbl.mem ds.live ds.min_live) do
    ds.min_live <- ds.min_live + 1
  done

let handle_ack t ds ~seq ~cum =
  retire_seq t ds seq;
  while ds.min_live <= cum do
    retire_seq t ds ds.min_live;
    ds.min_live <- ds.min_live + 1
  done;
  advance_low ds

(* Silent destinations. An entry that reaches [max_backoff] while its
   destination has sent no ack for [max_backoff] stops retransmitting on
   its own: the stream's first such entry becomes the probe and keeps its
   timer, every later one is parked without a timer. A destination that is
   up keeps acking some frames, so its entries are normally not parked;
   with no crash and little loss no entry even reaches the cap. [park]
   answers whether [e] was parked. *)
let park t ds e now =
  if ds.last_ack >= now -. max_backoff then false
  else
    match ds.silence with
    | Heard ->
        ds.silence <- Probing { probe = e; parked = [] };
        t.probing <- t.probing + 1;
        false
    | Probing p when p.probe == e -> false
    | Probing p ->
        p.parked <- e :: p.parked;
        count t "rc.park";
        true

(* Extends the delivered prefix through the out-of-order entries that now
   join it. *)
let extend_cum rs =
  while Hashtbl.mem rs.ooo (rs.cum + 1) do
    Hashtbl.remove rs.ooo (rs.cum + 1);
    rs.cum <- rs.cum + 1
  done

(* The sender holds nothing below [low]: count it all as delivered. *)
let raise_low rs low =
  if Hashtbl.length rs.ooo > 0 then
    Hashtbl.filter_map_inplace
      (fun seq () -> if seq < low then None else Some ())
      rs.ooo;
  rs.cum <- low - 1;
  extend_cum rs

(* The owner no longer needs [e], which just fell due: it leaves the
   stream as if acked. A retired probe hands its role to the oldest live
   parked entry, due now; without one the stream is back to [Heard]. *)
let drop_unneeded t ds (e : out_entry) now =
  Hashtbl.remove ds.live e.seq;
  retire t e;
  advance_low ds;
  count t "rc.retire";
  match ds.silence with
  | Probing p when p.probe == e -> (
      match
        List.sort
          (fun a b -> Int.compare a.seq b.seq)
          (List.filter (fun e -> not e.acked) p.parked)
      with
      | [] ->
          ds.silence <- Heard;
          t.probing <- t.probing - 1
      | oldest :: rest ->
          p.probe <- oldest;
          p.parked <- rest;
          oldest.tm.due <- now;
          push_timer t oldest)
  | Heard | Probing _ -> ()

(* At [e]'s third retransmission, before its timer moves on: a destination
   that has acked nothing since [e] was sent is reported. *)
let check_silence t ds e =
  match t.on_silent with
  | Some report when ds.last_ack < e.tm.due -. silent_after ->
      count t "rc.silent";
      report e.dst e.inner
  | Some _ | None -> ()

(* Drops stale snapshots from the front of the queue. *)
let rec skip_stale t =
  if not (Timeq.is_empty t.timers) then begin
    let e = Timeq.min_value t.timers in
    if e.acked || Timeq.min_time t.timers <> e.tm.due then begin
      ignore (Timeq.pop t.timers);
      skip_stale t
    end
  end

(* Retransmits every entry due by [now]. *)
let rec fire t now =
  skip_stale t;
  if (not (Timeq.is_empty t.timers)) && Timeq.min_time t.timers <= now
  then begin
    let e = Timeq.pop t.timers in
    let ds = Hashtbl.find t.streams e.dst in
    if t.unneeded e.dst e.inner then drop_unneeded t ds e now
    else begin
      count t "rc.retransmit";
      Rt.send e.dst
        (Rc_data
           {
             rc_ep = t.ep;
             rc_seq = e.seq;
             rc_low = ds.min_live;
             inner = e.inner;
           });
      if e.tm.next_delay = third_delay then check_silence t ds e;
      e.tm.next_delay <-
        Float.min max_backoff (e.tm.next_delay *. backoff_factor);
      e.tm.due <- now +. e.tm.next_delay;
      if e.tm.next_delay < max_backoff || not (park t ds e now) then
        push_timer t e
    end;
    fire t now
  end

(* One wake-up of the retransmitter ([due]: the timer fired, or a kick cut
   its wait short), then the next wait: none while nothing is unacked, else
   toward the earliest due entry, at least 0.01 ms on. *)
let run t ~due =
  t.phase <- Running;
  if due then fire t (Rt.now ());
  if t.pending > 0 then skip_stale t;
  if t.pending = 0 then go_idle t
  else if Timeq.is_empty t.timers then begin
    (* with work pending the queue is empty only while every live entry is
       parked behind a live probe, whose ack kicks *)
    t.wake_at <- Float.infinity;
    t.phase <- Idle
  end
  else begin
    let due = Timeq.min_time t.timers in
    t.wake_at <- due;
    t.phase <- Armed;
    Rt.arm t.timer (Float.max 0.01 (due -. Rt.now ()))
  end

(* A kick before the first run finds nothing due yet ([start] follows
   [create] in the same event), and one during a run is seen as the run
   reads the queue. *)
let wake t =
  match t.phase with
  | Idle -> run t ~due:false
  | Armed ->
      Rt.cancel t.timer;
      run t ~due:true
  | Unstarted | Running -> ()

(* Any ack is proof of life: the probe is done, and every parked entry is
   re-armed in [seq] order for immediate retransmission. [sent_at] is the
   ack's send time: reading it instead of the clock keeps the per-ack path
   allocation-free. *)
let heard_from t ds ~sent_at =
  ds.last_ack <- sent_at;
  match ds.silence with
  | Heard -> ()
  | Probing { parked; _ } -> (
      ds.silence <- Heard;
      t.probing <- t.probing - 1;
      match parked with
      | [] -> ()
      | parked ->
          let now = Rt.now () in
          List.iter
            (fun e ->
              if not e.acked then begin
                e.tm.due <- now;
                push_timer t e
              end)
            (List.sort (fun a b -> Int.compare a.seq b.seq) parked);
          wake t)

let handle_incoming t (m : Types.message) =
  match m.payload with
  | Rc_data { rc_ep; rc_seq; rc_low; inner } ->
      let rs = stream_from t rc_ep in
      if rc_low > rs.cum + 1 then raise_low rs rc_low;
      let duplicate = rc_seq <= rs.cum || Hashtbl.mem rs.ooo rc_seq in
      if duplicate then count t "rc.duplicate";
      if not duplicate then begin
        if rc_seq = rs.cum + 1 then begin
          rs.cum <- rc_seq;
          extend_cum rs
        end
        else Hashtbl.add rs.ooo rc_seq ();
        Rt.send m.src (Rc_ack { rc_ep; rc_seq; rc_cum = rs.cum });
        Rt.redeliver ~src:m.src inner
      end
      else Rt.send m.src (Rc_ack { rc_ep; rc_seq; rc_cum = rs.cum })
  | Rc_ack { rc_ep; rc_seq; rc_cum } ->
      if rc_ep = t.ep then (
        match Hashtbl.find t.streams m.src with
        | ds ->
            handle_ack t ds ~seq:rc_seq ~cum:rc_cum;
            heard_from t ds ~sent_at:m.sent_at
        | exception Not_found -> ())
  | _ -> ()

(* Frames are handled inside their delivery event: no receive fiber. The
   retransmitter's first run is an event of its own, as it was when it
   was a fiber. *)
let start t =
  Rt.on_message cls_frame (handle_incoming t);
  t.timer <- Rt.timer (fun () -> run t ~due:true);
  Rt.arm t.timer 0.

(* The retransmitter learns of a new entry only through a kick. An idle one
   always needs it. A busy one sleeps toward its earliest due time, which
   is at most [retransmit_after] away unless every earlier entry backed
   off; a probe's [max_backoff] timer must not hold back a fresh entry, so
   while a stream is probing a new entry due sooner kicks it too. *)
let send t dst inner =
  let ds = stream_to t dst in
  ds.next_seq <- ds.next_seq + 1;
  let seq = ds.next_seq in
  let now = Rt.now () in
  let entry =
    {
      dst;
      seq;
      inner;
      tm = { next_delay = retransmit_after; due = now +. retransmit_after };
      acked = false;
    }
  in
  Hashtbl.add ds.live seq entry;
  count t "rc.send";
  let kick = t.pending = 0 || (t.probing > 0 && entry.tm.due < t.wake_at) in
  t.pending <- t.pending + 1;
  push_timer t entry;
  Rt.send dst
    (Rc_data { rc_ep = t.ep; rc_seq = seq; rc_low = ds.min_live; inner });
  if kick then begin
    t.wake_at <- now;
    wake t
  end

let broadcast t dsts inner = List.iter (fun dst -> send t dst inner) dsts

let inner_payload = function Rc_data { inner; _ } -> Some inner | _ -> None

let is_overhead = function Rc_ack _ -> true | _ -> false
