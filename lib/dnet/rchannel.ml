open Runtime
module Rt = Etx_runtime

(* [rc_ep] identifies the sending endpoint incarnation: a process that
   crashes and recovers gets a fresh endpoint whose sequence numbers restart,
   so deduplication must key on (source, endpoint, seq) — otherwise a
   recovered database's first messages would be dropped as duplicates.

   Sequence numbers are per destination (starting at 1), which lets an ack
   carry [rc_cum], the receiver's highest contiguously-delivered sequence
   for that (source, endpoint): one ack then retires a whole prefix of the
   outbox, and the receiver's duplicate-suppression state stays bounded by
   the out-of-order window instead of growing with every message ever
   seen. *)
type Types.payload +=
  | Rc_data of { rc_ep : int; rc_seq : int; inner : Types.payload }
  | Rc_ack of { rc_ep : int; rc_seq : int; rc_cum : int }
  | Rc_kick

let cls_frame =
  Rt.register_class ~name:"rc-frame" (function
    | Rc_data _ | Rc_ack _ -> true
    | _ -> false)

let cls_kick =
  Rt.register_class ~name:"rc-kick" (function
    | Rc_kick -> true
    | _ -> false)

type out_entry = {
  dst : Types.proc_id;
  seq : int;
  inner : Types.payload;
  mutable next_delay : float;
  mutable due : float;  (** absolute time of next retransmission *)
  mutable acked : bool;
}

(* A stream to a silent destination retransmits only its probe; see
   [park]. *)
type silence =
  | Heard
  | Probing of { probe : out_entry; mutable parked : out_entry list }

(* sender-side per-destination stream *)
type dst_state = {
  mutable next_seq : int;
  live : (int, out_entry) Hashtbl.t;  (** seq -> unacked entry *)
  mutable min_live : int;
      (** every seq below this is retired; cumulative acks advance it *)
  mutable last_ack : float;  (** send time of the latest ack *)
  mutable silence : silence;
}

(* receiver-side per-(source, endpoint) stream *)
type rx_state = {
  mutable cum : int;  (** highest contiguously delivered sequence *)
  ooo : (int, unit) Hashtbl.t;  (** delivered out of order, above [cum] *)
}

(* Retransmission timers: a lazy-deletion min-heap of (due, entry)
   snapshots. Acking or rescheduling an entry leaves its old snapshot in
   the heap; pops skip snapshots whose entry is retired or whose due time
   moved on. [hseq] breaks due-time ties deterministically. *)
type helem = { hdue : float; hseq : int; entry : out_entry }

type t = {
  owner : Types.proc_id;
  ep : int;  (** endpoint incarnation, globally unique *)
  streams : (Types.proc_id, dst_state) Hashtbl.t;
  timers : helem Heap.t;
  mutable hseq : int;
  mutable pending : int;  (** unacked outgoing messages, O(1) *)
  mutable probing : int;  (** streams in [Probing] *)
  mutable wake_at : float;
      (** the due time the retransmitter sleeps toward; [infinity] while it
          waits for a kick *)
  rx : (Types.proc_id * int, rx_state) Hashtbl.t;
  sink : Rt.obs_sink option;  (** fetched once at create; None = obs off *)
}

let count t name =
  match t.sink with None -> () | Some s -> s.Rt.obs_count name 1

let retransmit_after = 10.
let backoff_factor = 2.
let max_backoff = 200.

let create () =
  {
    owner = Rt.self ();
    (* endpoint ids are engine-scoped (unique across incarnations within a
       trial) so independent trials stay self-contained *)
    ep = Rt.fresh_uid ();
    streams = Hashtbl.create 16;
    timers =
      Heap.create
        ~leq:(fun a b -> a.hdue < b.hdue || (a.hdue = b.hdue && a.hseq <= b.hseq))
        ();
    hseq = 0;
    pending = 0;
    probing = 0;
    wake_at = Float.infinity;
    rx = Hashtbl.create 16;
    sink = Rt.obs ();
  }

let pending t = t.pending

let stream_to t dst =
  match Hashtbl.find_opt t.streams dst with
  | Some ds -> ds
  | None ->
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

let stream_from t src rc_ep =
  match Hashtbl.find_opt t.rx (src, rc_ep) with
  | Some rs -> rs
  | None ->
      let rs = { cum = 0; ooo = Hashtbl.create 8 } in
      Hashtbl.add t.rx (src, rc_ep) rs;
      rs

let push_timer t e =
  t.hseq <- t.hseq + 1;
  Heap.push t.timers { hdue = e.due; hseq = t.hseq; entry = e }

let retire t (e : out_entry) =
  if not e.acked then begin
    e.acked <- true;
    t.pending <- t.pending - 1
  end

let handle_ack t ds ~seq ~cum =
  (match Hashtbl.find_opt ds.live seq with
  | Some e ->
      Hashtbl.remove ds.live seq;
      retire t e
  | None -> ());
  (* advance the retired prefix; each sequence number is visited at most
     once over the stream's lifetime, so this is amortised O(1) per ack *)
  while ds.min_live <= cum do
    (match Hashtbl.find_opt ds.live ds.min_live with
    | Some e ->
        Hashtbl.remove ds.live ds.min_live;
        retire t e
    | None -> ());
    ds.min_live <- ds.min_live + 1
  done

(* Silent destinations. An entry that reaches [max_backoff] while its
   destination has sent no ack for [max_backoff] stops retransmitting on
   its own: the stream's first such entry becomes the probe and keeps its
   timer, every later one is parked without a timer. A destination that is
   up keeps acking some frames, so its entries are normally not parked;
   with no crash and little loss no entry even reaches the cap. [park]
   answers whether [e] was parked. *)
let park t e now =
  let ds = Hashtbl.find t.streams e.dst in
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
                e.due <- now;
                push_timer t e
              end)
            (List.sort (fun a b -> Int.compare a.seq b.seq) parked);
          Rt.redeliver ~src:t.owner Rc_kick)

let handle_incoming t (m : Types.message) =
  match m.payload with
  | Rc_data { rc_ep; rc_seq; inner } ->
      let rs = stream_from t m.src rc_ep in
      let duplicate = rc_seq <= rs.cum || Hashtbl.mem rs.ooo rc_seq in
      if duplicate then count t "rc.duplicate";
      if not duplicate then begin
        if rc_seq = rs.cum + 1 then begin
          rs.cum <- rs.cum + 1;
          while Hashtbl.mem rs.ooo (rs.cum + 1) do
            Hashtbl.remove rs.ooo (rs.cum + 1);
            rs.cum <- rs.cum + 1
          done
        end
        else Hashtbl.add rs.ooo rc_seq ();
        Rt.send m.src (Rc_ack { rc_ep; rc_seq; rc_cum = rs.cum });
        Rt.redeliver ~src:m.src inner
      end
      else Rt.send m.src (Rc_ack { rc_ep; rc_seq; rc_cum = rs.cum })
  | Rc_ack { rc_ep; rc_seq; rc_cum } ->
      if rc_ep = t.ep then
        (match Hashtbl.find_opt t.streams m.src with
        | Some ds ->
            handle_ack t ds ~seq:rc_seq ~cum:rc_cum;
            heard_from t ds ~sent_at:m.sent_at
        | None -> ())
  | _ -> ()

let receiver_loop t () =
  let rec loop () =
    match Rt.recv_cls cls_frame with
    | None -> ()
    | Some m ->
        handle_incoming t m;
        loop ()
  in
  loop ()

(* The retransmitter sleeps only while work is pending; with nothing unacked
   it blocks on a kick message, so a finished simulation reaches
   quiescence. *)
let retransmitter_loop t () =
  (* earliest live due time, discarding stale heap snapshots *)
  let rec next_due () =
    match Heap.peek t.timers with
    | None -> None
    | Some h ->
        if h.entry.acked || h.hdue <> h.entry.due then begin
          ignore (Heap.pop t.timers);
          next_due ()
        end
        else Some h.hdue
  in
  let rec fire now =
    match Heap.peek t.timers with
    | None -> ()
    | Some h ->
        if h.entry.acked || h.hdue <> h.entry.due then begin
          ignore (Heap.pop t.timers);
          fire now
        end
        else if h.hdue <= now then begin
          ignore (Heap.pop t.timers);
          let e = h.entry in
          count t "rc.retransmit";
          Rt.send e.dst
            (Rc_data { rc_ep = t.ep; rc_seq = e.seq; inner = e.inner });
          e.next_delay <-
            Float.min max_backoff (e.next_delay *. backoff_factor);
          e.due <- now +. e.next_delay;
          if e.next_delay < max_backoff || not (park t e now) then
            push_timer t e;
          fire now
        end
  in
  let rec loop () =
    if t.pending = 0 then begin
      Heap.clear t.timers;
      t.wake_at <- Float.infinity;
      ignore (Rt.recv_cls cls_kick);
      loop ()
    end
    else
      match next_due () with
      | None ->
          (* unreachable while every live entry has a timer or is parked
             behind a live probe (whose ack kicks us); blocking on a kick
             keeps quiescence safe regardless *)
          t.wake_at <- Float.infinity;
          ignore (Rt.recv_cls cls_kick);
          loop ()
      | Some due ->
          t.wake_at <- due;
          let delay = Float.max 0.01 (due -. Rt.now ()) in
          ignore (Rt.recv_cls ~timeout:delay cls_kick);
          fire (Rt.now ());
          loop ()
  in
  loop ()

let start t =
  Rt.fork "rchannel-rx" (receiver_loop t);
  Rt.fork "rchannel-retransmit" (retransmitter_loop t)

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
      next_delay = retransmit_after;
      due = now +. retransmit_after;
      acked = false;
    }
  in
  Hashtbl.add ds.live seq entry;
  count t "rc.send";
  let kick = t.pending = 0 || (t.probing > 0 && entry.due < t.wake_at) in
  t.pending <- t.pending + 1;
  push_timer t entry;
  Rt.send dst (Rc_data { rc_ep = t.ep; rc_seq = seq; inner });
  if kick then begin
    t.wake_at <- now;
    Rt.redeliver ~src:t.owner Rc_kick
  end

let broadcast t dsts inner = List.iter (fun dst -> send t dst inner) dsts

let inner_payload = function Rc_data { inner; _ } -> Some inner | _ -> None

let is_overhead = function Rc_ack _ | Rc_kick -> true | _ -> false
