(* Tests for the network layer: models, reliable channel, failure
   detectors. *)

open Dsim
open Runtime
open Dnet
module Rt = Runtime.Etx_runtime

type Types.payload += App of int

(* Count App payloads received by a process that records them. *)
let spawn_recorder t received =
  Engine.spawn t ~name:"recorder" ~main:(fun ~recovery:_ () ->
      let ch = Rchannel.create () in
      Rchannel.start ch;
      let rec loop () =
        match
          Rt.recv
            ~filter:(fun m ->
              match m.Types.payload with App _ -> true | _ -> false)
            ()
        with
        | Some { payload = App n; _ } ->
            received := n :: !received;
            loop ()
        | Some _ | None -> ()
      in
      loop ())

let spawn_sender t dst payloads =
  Engine.spawn t ~name:"sender" ~main:(fun ~recovery:_ () ->
      let ch = Rchannel.create () in
      Rchannel.start ch;
      List.iter
        (fun n ->
          Rchannel.send ch dst (App n);
          Rt.sleep 1.)
        payloads)

(* ------------------------------------------------------------------ *)
(* Netmodel *)

let test_constant_model () =
  let model = Netmodel.constant 3. in
  let rng = Rng.create ~seed:1 in
  Alcotest.(check (list (float 1e-9))) "constant" [ 3. ]
    (model rng ~src:0 ~dst:1)

let test_uniform_model_range () =
  let model = Netmodel.uniform ~lo:2. ~hi:4. in
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 100 do
    match model rng ~src:0 ~dst:1 with
    | [ d ] -> Alcotest.(check bool) "in range" true (d >= 2. && d <= 4.)
    | _ -> Alcotest.fail "expected one delivery"
  done

let test_lossy_model_rate () =
  let model = Netmodel.lossy ~loss:0.5 (Netmodel.constant 1.) in
  let rng = Rng.create ~seed:2 in
  let dropped = ref 0 in
  for _ = 1 to 1000 do
    if model rng ~src:0 ~dst:1 = [] then incr dropped
  done;
  Alcotest.(check bool) "about half dropped" true
    (!dropped > 420 && !dropped < 580)

let test_dup_model () =
  let model = Netmodel.lossy ~dup:1.0 (Netmodel.constant 1.) in
  let rng = Rng.create ~seed:3 in
  Alcotest.(check int) "two copies" 2 (List.length (model rng ~src:0 ~dst:1))

let test_partition () =
  let p, model = Netmodel.partitionable (Netmodel.constant 1.) in
  let rng = Rng.create ~seed:4 in
  Netmodel.isolate p 1;
  Alcotest.(check bool) "isolated" true (Netmodel.is_isolated p 1);
  Alcotest.(check (list (float 1e-9))) "cut (dst)" [] (model rng ~src:0 ~dst:1);
  Alcotest.(check (list (float 1e-9))) "cut (src)" [] (model rng ~src:1 ~dst:0);
  Alcotest.(check (list (float 1e-9))) "others fine" [ 1. ]
    (model rng ~src:0 ~dst:2);
  Netmodel.rejoin p 1;
  Alcotest.(check (list (float 1e-9))) "healed" [ 1. ]
    (model rng ~src:0 ~dst:1);
  Netmodel.isolate p 1;
  Netmodel.heal p;
  Alcotest.(check bool) "heal clears" false (Netmodel.is_isolated p 1)

(* ------------------------------------------------------------------ *)
(* Reliable channel *)

let run_rchannel_scenario ?obs ~seed ~loss ~dup n =
  let net = Netmodel.lossy ~loss ~dup (Netmodel.lan ()) in
  let t = Engine.create ~seed ~net ?obs () in
  let received = ref [] in
  let recorder = spawn_recorder t received in
  let _ = spawn_sender t recorder (List.init n (fun i -> i)) in
  ignore (Engine.run ~deadline:60_000. t);
  List.sort compare !received

let test_rchannel_lossless () =
  Alcotest.(check (list int))
    "all delivered once" [ 0; 1; 2; 3; 4 ]
    (run_rchannel_scenario ~seed:1 ~loss:0. ~dup:0. 5)

let test_rchannel_heavy_loss () =
  Alcotest.(check (list int))
    "all delivered once despite 40% loss"
    (List.init 20 (fun i -> i))
    (run_rchannel_scenario ~seed:2 ~loss:0.4 ~dup:0. 20)

let test_rchannel_duplication () =
  Alcotest.(check (list int))
    "dedup despite duplicating network"
    (List.init 10 (fun i -> i))
    (run_rchannel_scenario ~seed:3 ~loss:0. ~dup:0.8 10)

let prop_rchannel_exactly_once =
  QCheck.Test.make ~name:"reliable channel exactly-once under loss+dup"
    ~count:30
    QCheck.(triple (int_range 0 10_000) (float_range 0. 0.5) (float_range 0. 0.5))
    (fun (seed, loss, dup) ->
      run_rchannel_scenario ~seed ~loss ~dup 8 = [ 0; 1; 2; 3; 4; 5; 6; 7 ])

let test_rchannel_integrity_only_if_sent () =
  (* Nothing received that was never sent: trivially structural here, but we
     check the recorder sees exactly the sent set, no extras. *)
  let got = run_rchannel_scenario ~seed:9 ~loss:0.2 ~dup:0.2 6 in
  Alcotest.(check (list int)) "no inventions" [ 0; 1; 2; 3; 4; 5 ] got

let test_rchannel_pending_drains () =
  let t = Engine.create ~net:(Netmodel.lan ()) () in
  let received = ref [] in
  let recorder = spawn_recorder t received in
  let pending_after = ref (-1) in
  let _ =
    Engine.spawn t ~name:"sender" ~main:(fun ~recovery:_ () ->
        let ch = Rchannel.create () in
        Rchannel.start ch;
        Rchannel.send ch recorder (App 1);
        Rt.sleep 1_000.;
        pending_after := Rchannel.pending ch)
  in
  ignore (Engine.run ~deadline:5_000. t);
  Alcotest.(check int) "outbox drained after ack" 0 !pending_after

let test_rchannel_pending_exact () =
  (* pending must equal sends minus acked sends at every step: it counts
     unacknowledged messages, not heap entries or table size *)
  let t = Engine.create ~net:(Netmodel.lan ()) () in
  let received = ref [] in
  let recorder = spawn_recorder t received in
  let observed = ref [] in
  let _ =
    Engine.spawn t ~name:"sender" ~main:(fun ~recovery:_ () ->
        let ch = Rchannel.create () in
        Rchannel.start ch;
        let snap tag = observed := (tag, Rchannel.pending ch) :: !observed in
        snap "start";
        for i = 1 to 5 do
          Rchannel.send ch recorder (App i)
        done;
        (* no yield since the sends: nothing can have been acked yet *)
        snap "after-5-sends";
        Rt.sleep 1_000.;
        snap "after-acks";
        Rchannel.send ch recorder (App 6);
        Rchannel.send ch recorder (App 7);
        snap "after-2-more";
        Rt.sleep 1_000.;
        snap "end")
  in
  ignore (Engine.run ~deadline:10_000. t);
  Alcotest.(check (list (pair string int)))
    "pending tracks unacked sends exactly"
    [
      ("start", 0);
      ("after-5-sends", 5);
      ("after-acks", 0);
      ("after-2-more", 2);
      ("end", 0);
    ]
    (List.rev !observed);
  Alcotest.(check (list int)) "all delivered" [ 1; 2; 3; 4; 5; 6; 7 ]
    (List.sort compare !received)

let test_rchannel_quiesces () =
  (* With no loss the run must reach quiescence: retransmitters block. *)
  let t = Engine.create ~net:(Netmodel.lan ()) () in
  let received = ref [] in
  let recorder = spawn_recorder t received in
  let _ = spawn_sender t recorder [ 1; 2; 3 ] in
  let outcome = Engine.run t in
  Alcotest.(check bool) "quiescent" true (outcome = Engine.Quiescent);
  Alcotest.(check (list int)) "delivered" [ 1; 2; 3 ]
    (List.sort compare !received)

let test_rchannel_crashed_receiver_no_delivery () =
  let t = Engine.create ~net:(Netmodel.lan ()) () in
  let received = ref [] in
  let recorder = spawn_recorder t received in
  Engine.crash_at t 0.5 recorder;
  let _ = spawn_sender t recorder [ 7 ] in
  ignore (Engine.run ~deadline:2_000. t);
  Alcotest.(check (list int)) "nothing delivered" [] !received

let test_rchannel_delivery_after_recovery () =
  (* Receiver is down when the send happens; retransmission delivers it
     after recovery — the channel termination property for good procs. *)
  let t = Engine.create ~net:(Netmodel.lan ()) () in
  let received = ref [] in
  let recorder = spawn_recorder t received in
  Engine.crash_at t 0.5 recorder;
  Engine.recover_at t 300. recorder;
  let _ = spawn_sender t recorder [ 7 ] in
  ignore (Engine.run ~deadline:5_000. t);
  Alcotest.(check (list int)) "delivered after recovery" [ 7 ] !received

let test_rchannel_recovered_receiver_bounded () =
  (* The receiver restarts after 100 delivered messages; the sender's
     stream goes on at sequence 101. The recovered endpoint starts from an
     empty receive table, and the low-water mark in each frame tells it
     that nothing below 101 is still to come, so the 100 later messages
     extend its delivered prefix instead of waiting above a gap. *)
  let t = Engine.create ~net:(Netmodel.lan ()) () in
  let received = ref [] in
  let rx_ch = ref None in
  let recorder =
    Engine.spawn t ~name:"recorder" ~main:(fun ~recovery:_ () ->
        let ch = Rchannel.create () in
        rx_ch := Some ch;
        Rchannel.start ch;
        let rec loop () =
          match
            Rt.recv
              ~filter:(fun m ->
                match m.Types.payload with App _ -> true | _ -> false)
              ()
          with
          | Some { payload = App n; _ } ->
              received := n :: !received;
              loop ()
          | Some _ | None -> ()
        in
        loop ())
  in
  Engine.crash_at t 200. recorder;
  Engine.recover_at t 300. recorder;
  let _ =
    Engine.spawn t ~name:"sender" ~main:(fun ~recovery:_ () ->
        let ch = Rchannel.create () in
        Rchannel.start ch;
        for n = 0 to 199 do
          if n = 100 then Rt.sleep (400. -. Rt.now ());
          Rchannel.send ch recorder (App n);
          Rt.sleep 1.
        done)
  in
  Alcotest.(check bool) "quiescent" true (Engine.run t = Engine.Quiescent);
  Alcotest.(check (list int)) "every message delivered once"
    (List.init 200 Fun.id)
    (List.sort compare !received);
  match !rx_ch with
  | Some ch ->
      Alcotest.(check int) "out-of-order table empty" 0
        (Rchannel.out_of_order ch)
  | None -> Alcotest.fail "receiver never ran"

(* The App payloads of the data frames [src] put on the wire to [dst]
   (delivered or lost) in [lo, hi]. *)
let frames_to t ~src ~dst ~lo ~hi =
  List.filter_map
    (fun { Trace.at; event } ->
      match event with
      | (Trace.Sent (m, _) | Trace.Dropped m)
        when m.src = src && m.dst = dst && at >= lo && at <= hi -> (
          match Rchannel.inner_payload m.payload with
          | Some (App n) -> Some n
          | _ -> None)
      | _ -> None)
    (Trace.entries (Engine.trace t))

let test_rchannel_lost_frame_schedule () =
  (* every frame from the sender is lost: a message sent at 5 ms goes on
     the wire again at +10, +30 and +70 ms, one period of 10, 20 and
     40 ms after another *)
  let sender_pid = 1 in
  let net _ ~src ~dst:_ = if src = sender_pid then [] else [ 1.0 ] in
  let t = Engine.create ~net () in
  let recorder = spawn_recorder t (ref []) in
  let sender =
    Engine.spawn t ~name:"sender" ~main:(fun ~recovery:_ () ->
        let ch = Rchannel.create () in
        Rchannel.start ch;
        Rt.sleep 5.;
        Rchannel.send ch recorder (App 7))
  in
  Alcotest.(check int) "sender pid" sender_pid sender;
  ignore (Engine.run ~deadline:100. t);
  let wire =
    List.filter_map
      (fun { Trace.at; event } ->
        match event with
        | Trace.Dropped m when m.src = sender -> Some at
        | _ -> None)
      (Trace.entries (Engine.trace t))
  in
  Alcotest.(check (list (float 1e-9)))
    "sent at 5, resent at 15, 35, 75" [ 5.; 15.; 35.; 75. ] wire

let test_rchannel_silent_destination_probed () =
  (* 50 messages wait for a receiver that is down for 3 s. Once they have
     backed off to the 200 ms cap, one probe frame per cap period goes on
     the wire instead of one frame per message; the first ack after the
     recovery re-sends the rest. *)
  let t = Engine.create ~net:(Netmodel.lan ()) () in
  let received = ref [] in
  let recorder = spawn_recorder t received in
  Engine.crash_at t 0.5 recorder;
  Engine.recover_at t 3_000. recorder;
  let sender = spawn_sender t recorder (List.init 50 Fun.id) in
  ignore (Engine.run ~deadline:(3_000. +. 200. +. 50.) t);
  let frames =
    List.length (frames_to t ~src:sender ~dst:recorder ~lo:1_000. ~hi:3_000.)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d frames in [1 s, 3 s] <= %d" frames ((2000 / 200) + 2))
    true
    (frames <= (2000 / 200) + 2);
  Alcotest.(check (list int))
    "all delivered exactly once" (List.init 50 Fun.id)
    (List.sort compare !received)

let test_rchannel_lossy_live_never_parked () =
  (* The heavy-loss scenario, then busier streams: a receiver that is up
     keeps acking some frames, so no entry is parked even at 40% loss. *)
  List.iter
    (fun (seed, n) ->
      let obs = Obs.Registry.create () in
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d: all %d delivered once" seed n)
        (List.init n Fun.id)
        (run_rchannel_scenario ~obs ~seed ~loss:0.4 ~dup:0. n);
      Alcotest.(check bool) "loss forced retransmissions" true
        (Obs.Registry.counter_total obs "rc.retransmit" > 0);
      Alcotest.(check int)
        (Printf.sprintf "seed %d: nothing parked" seed)
        0
        (Obs.Registry.counter_total obs "rc.park"))
    [ (2, 20); (1, 200); (2, 200); (3, 200); (4, 200); (5, 200) ]

let test_rchannel_dead_neighbour () =
  (* One sender, a live receiver and a crashed one. Frames to the live
     receiver are lost for its first 600 ms, so its messages reach the cap
     and get probed and parked too. Delays are constant, so the runs with
     and without traffic to the crashed receiver must treat the live one
     identically: same delivery order, same frames per message. *)
  let run ~with_dead =
    let t = Engine.create () in
    let received = ref [] in
    let live = spawn_recorder t received in
    let dead = spawn_recorder t (ref []) in
    Engine.crash_at t 0.5 dead;
    Engine.set_net t (fun _ ~src:_ ~dst ->
        if dst = live && Engine.now_of t < 600. then [] else [ 1. ]);
    let sender =
      Engine.spawn t ~name:"sender" ~main:(fun ~recovery:_ () ->
          let ch = Rchannel.create () in
          Rchannel.start ch;
          for n = 0 to 19 do
            if with_dead then Rchannel.send ch dead (App (100 + n));
            Rchannel.send ch live (App n);
            Rt.sleep 5.
          done)
    in
    ignore (Engine.run ~deadline:3_000. t);
    let frames = frames_to t ~src:sender ~dst:live ~lo:0. ~hi:3_000. in
    ( List.rev !received,
      List.init 20 (fun n -> List.length (List.filter (( = ) n) frames)) )
  in
  let alone_order, alone_frames = run ~with_dead:false in
  let order, frames = run ~with_dead:true in
  Alcotest.(check (list int)) "all delivered alone" (List.init 20 Fun.id)
    (List.sort compare alone_order);
  Alcotest.(check (list int)) "same delivery order" alone_order order;
  Alcotest.(check (list int)) "same frames per message" alone_frames frames

let test_rchannel_probe_does_not_hold_back_fresh () =
  (* A stream to a crashed receiver is probing, so the retransmitter sleeps
     toward the probe's 200 ms timer. A fresh message to a live receiver
     whose first frame is lost must still be retransmitted after 10 ms. *)
  let t = Engine.create () in
  let received = ref [] in
  let live = spawn_recorder t received in
  let dead = spawn_recorder t (ref []) in
  Engine.crash_at t 0.5 dead;
  let first_to_live = ref true in
  Engine.set_net t (fun _ ~src:_ ~dst ->
      if dst = live && !first_to_live then begin
        first_to_live := false;
        []
      end
      else [ 1. ]);
  let _ =
    Engine.spawn t ~name:"sender" ~main:(fun ~recovery:_ () ->
        let ch = Rchannel.create () in
        Rchannel.start ch;
        for n = 0 to 4 do
          Rchannel.send ch dead (App n)
        done;
        Rt.sleep 1_000.;
        Rchannel.send ch live (App 7))
  in
  ignore (Engine.run_until ~deadline:2_000. t (fun () -> !received <> []));
  Alcotest.(check (list int)) "delivered" [ 7 ] !received;
  let at = Engine.now_of t in
  Alcotest.(check bool)
    (Printf.sprintf "delivered at %.1f ms, within 1,015 ms" at)
    true (at <= 1_015.)

let test_rchannel_retire_due_entry () =
  (* Rule: App 1 is no longer needed. To a crashed receiver, App 1 goes on
     the wire once, at its send, and is retired when it first falls due,
     10 ms later; App 2 keeps retransmitting. A live receiver acks App 1
     before it falls due, so the rule never retires it there. *)
  let obs = Obs.Registry.create () in
  let t = Engine.create ~net:(Netmodel.lan ()) ~obs () in
  let live_received = ref [] in
  let live = spawn_recorder t live_received in
  let dead = spawn_recorder t (ref []) in
  Engine.crash_at t 0.5 dead;
  let observed = ref [] in
  let sender =
    Engine.spawn t ~name:"sender" ~main:(fun ~recovery:_ () ->
        let ch = Rchannel.create () in
        Rchannel.retire_when ch (fun _ -> function
          | App n -> n = 1 | _ -> false);
        Rchannel.start ch;
        let snap tag = observed := (tag, Rchannel.pending ch) :: !observed in
        Rt.sleep 1.;
        Rchannel.send ch dead (App 1);
        Rchannel.send ch dead (App 2);
        Rchannel.send ch live (App 1);
        snap "sent";
        Rt.sleep 9.5;
        snap "before due";
        Rt.sleep 1.;
        snap "after due")
  in
  ignore (Engine.run ~deadline:1_000. t);
  Alcotest.(check (list (pair string int)))
    "pending falls when App 1 is retired"
    [ ("sent", 3); ("before due", 2); ("after due", 1) ]
    (List.rev !observed);
  let frames n =
    List.length
      (List.filter (( = ) n) (frames_to t ~src:sender ~dst:dead ~lo:0. ~hi:1_000.))
  in
  Alcotest.(check int) "App 1: the send only" 1 (frames 1);
  Alcotest.(check bool) "App 2 retransmitted" true (frames 2 > 1);
  Alcotest.(check (list int)) "live receiver got App 1" [ 1 ] !live_received;
  Alcotest.(check int) "rc.retire" 1 (Obs.Registry.counter_total obs "rc.retire");
  Alcotest.(check (list (float 0.))) "rc.retire in the Prometheus dump" [ 1. ]
    (Obs.Export_prom.counter_values (Obs.Export_prom.to_string obs)
       ~metric:"etx_rc_retire")

let test_rchannel_retired_probe_promotes () =
  (* Messages 0-4 wait for a receiver that is down until 3 s: message 0
     probes, 1-4 are parked. At 1 s message 0 stops being needed, so at its
     next due time it is retired, and message 1, the oldest parked one,
     becomes the probe. Its ack after the recovery re-sends 2-4. Without
     the hand-over nothing would probe and 1-4 would wait forever. *)
  let obs = Obs.Registry.create () in
  let t = Engine.create ~net:(Netmodel.lan ()) ~obs () in
  let received = ref [] in
  let recorder = spawn_recorder t received in
  Engine.crash_at t 0.5 recorder;
  Engine.recover_at t 3_000. recorder;
  let unneeded = ref (-1) in
  let pending_at_end = ref (-1) in
  let sender =
    Engine.spawn t ~name:"sender" ~main:(fun ~recovery:_ () ->
        let ch = Rchannel.create () in
        Rchannel.retire_when ch (fun _ -> function
          | App n -> n = !unneeded | _ -> false);
        Rchannel.start ch;
        Rt.sleep 1.;
        for n = 0 to 4 do
          Rchannel.send ch recorder (App n)
        done;
        Rt.sleep 999.;
        unneeded := 0;
        Rt.sleep 4_000.;
        pending_at_end := Rchannel.pending ch)
  in
  ignore (Engine.run ~deadline:6_000. t);
  Alcotest.(check int) "parked before the hand-over" 4
    (Obs.Registry.counter_total obs "rc.park");
  Alcotest.(check int) "message 0 retired" 1
    (Obs.Registry.counter_total obs "rc.retire");
  let probes = frames_to t ~src:sender ~dst:recorder ~lo:1_000. ~hi:2_999. in
  Alcotest.(check bool) "message 1 probes after the hand-over" true
    (probes <> [] && List.for_all (( = ) 1) probes);
  Alcotest.(check (list int)) "1-4 delivered once" [ 1; 2; 3; 4 ]
    (List.sort compare !received);
  Alcotest.(check int) "outbox drained" 0 !pending_at_end

(* A sender whose channel logs every silence report as (time, dst, n);
   it sends [App n] to [dst] at each [(at, dst, n)] of [sends]. *)
let spawn_reporting_sender t sends reports =
  Engine.spawn t ~name:"sender" ~main:(fun ~recovery:_ () ->
      let on_silent dst = function
        | App n -> reports := (Rt.now (), dst, n) :: !reports
        | _ -> ()
      in
      let ch = Rchannel.create ~on_silent () in
      Rchannel.start ch;
      List.iter
        (fun (at, dst, n) ->
          Rt.sleep (at -. Rt.now ());
          Rchannel.send ch dst (App n))
        sends)

let report = Alcotest.(list (triple (float 1e-9) int int))

let test_rchannel_silence_reported_once () =
  (* A message to a crashed receiver is reported once, at its third
     retransmission: 10 + 20 + 40 = 70 ms after the send. The probing that
     follows reports nothing more. *)
  let obs = Obs.Registry.create () in
  let t = Engine.create ~net:(Netmodel.lan ()) ~obs () in
  let dead = spawn_recorder t (ref []) in
  Engine.crash_at t 0.5 dead;
  let reports = ref [] in
  let _ = spawn_reporting_sender t [ (5., dead, 1); (8., dead, 2) ] reports in
  ignore (Engine.run ~deadline:3_000. t);
  Alcotest.check report "one report per message, at send + 70 ms"
    [ (75., dead, 1); (78., dead, 2) ]
    (List.rev !reports);
  Alcotest.(check int) "rc.silent" 2
    (Obs.Registry.counter_total obs "rc.silent")

let test_rchannel_live_never_reported () =
  (* A receiver that is up acks every frame of a lossless link, so nothing
     is reported, however many messages it gets. *)
  let t = Engine.create ~net:(Netmodel.lan ()) () in
  let received = ref [] in
  let live = spawn_recorder t received in
  let reports = ref [] in
  let _ =
    spawn_reporting_sender t
      (List.init 50 (fun n -> (float n, live, n)))
      reports
  in
  Alcotest.(check bool) "quiescent" true (Engine.run t = Engine.Quiescent);
  Alcotest.(check int) "all delivered" 50 (List.length !received);
  Alcotest.check report "no report" [] !reports

let test_rchannel_heard_since_send_not_reported () =
  (* Message 1 (sent at 5 ms) loses its first three frames, but the
     receiver acks message 2, sent at 6 ms: it is up, so message 1 is not
     reported at 75 ms. *)
  let t = Engine.create () in
  let received = ref [] in
  let live = spawn_recorder t received in
  let reports = ref [] in
  let sender =
    spawn_reporting_sender t [ (5., live, 1); (6., live, 2) ] reports
  in
  Engine.set_net t (fun _ ~src ~dst ->
      let now = Engine.now_of t in
      if src = sender && dst = live && now < 70. && now <> 6. then []
      else [ 1. ]);
  ignore (Engine.run ~deadline:1_000. t);
  Alcotest.check report "no report" [] !reports;
  Alcotest.(check (list int))
    "message 2 first, then 1" [ 2; 1 ] (List.rev !received)

(* ------------------------------------------------------------------ *)
(* Failure detector *)

(* Three peers; we inspect suspicion state through probe closures installed
   in each process. *)
let fd_scenario ~seed ~loss ~crash_p1_at ~probe_at =
  let net = Netmodel.lossy ~loss (Netmodel.lan ()) in
  let t = Engine.create ~seed ~net () in
  let suspicion = ref None in
  (* pids are assigned in spawn order: 0, 1, 2 *)
  let peers = [ 0; 1; 2 ] in
  let spawn_member name observe =
    Engine.spawn t ~name ~main:(fun ~recovery:_ () ->
        let fd = Fdetect.heartbeat ~peers () in
        Fdetect.start fd;
        if observe then begin
          Rt.sleep probe_at;
          suspicion := Some (Fdetect.suspects fd 1)
        end
        else Rt.sleep infinity)
  in
  let p0 = spawn_member "p0" true in
  let _p1 = spawn_member "p1" false in
  let _p2 = spawn_member "p2" false in
  assert (p0 = 0);
  (match crash_p1_at with None -> () | Some at -> Engine.crash_at t at 1);
  ignore (Engine.run ~deadline:(probe_at +. 100.) t);
  !suspicion

let test_fd_completeness () =
  match fd_scenario ~seed:1 ~loss:0. ~crash_p1_at:(Some 100.) ~probe_at:400. with
  | Some s -> Alcotest.(check bool) "crashed peer suspected" true s
  | None -> Alcotest.fail "probe did not run"

let test_fd_no_false_suspicion_lossless () =
  match fd_scenario ~seed:1 ~loss:0. ~crash_p1_at:None ~probe_at:400. with
  | Some s -> Alcotest.(check bool) "correct peer not suspected" false s
  | None -> Alcotest.fail "probe did not run"

let test_fd_oracle () =
  let t = Engine.create () in
  let rt = Dsim.Runtime_sim.of_engine t in
  let observed = ref []
  and victim = ref (-1) in
  let _ =
    Engine.spawn t ~name:"watcher" ~main:(fun ~recovery:_ () ->
        let fd = Fdetect.oracle rt in
        Fdetect.start fd;
        Rt.sleep 10.;
        observed := Fdetect.suspects fd !victim :: !observed;
        Rt.sleep 20.;
        observed := Fdetect.suspects fd !victim :: !observed)
  in
  victim := Engine.spawn t ~name:"victim" ~main:(fun ~recovery:_ () ->
      Rt.sleep infinity);
  Engine.crash_at t 15. !victim;
  ignore (Engine.run ~deadline:100. t);
  Alcotest.(check (list bool)) "oracle tracks truth exactly" [ true; false ]
    !observed

let test_fd_adaptive_timeout_grows () =
  (* Under heavy heartbeat loss, false suspicions occur and must bump the
     timeout (the eventually-accurate mechanism). *)
  let net = Netmodel.lossy ~loss:0.6 (Netmodel.lan ()) in
  let t = Engine.create ~seed:5 ~net () in
  let final_timeout = ref None in
  let peers = [ 0; 1 ] in
  let _ =
    Engine.spawn t ~name:"p0" ~main:(fun ~recovery:_ () ->
        let fd = Fdetect.heartbeat ~initial_timeout:30. ~peers () in
        Fdetect.start fd;
        Rt.sleep 5_000.;
        final_timeout := Fdetect.current_timeout fd 1)
  in
  let _ =
    Engine.spawn t ~name:"p1" ~main:(fun ~recovery:_ () ->
        let fd = Fdetect.heartbeat ~peers () in
        Fdetect.start fd;
        Rt.sleep infinity)
  in
  ignore (Engine.run ~deadline:6_000. t);
  match !final_timeout with
  | Some timeout ->
      Alcotest.(check bool) "timeout grew above initial" true (timeout > 30.)
  | None -> Alcotest.fail "no timeout observed"

let test_fd_heartbeat_suspect_clear_bump () =
  (* Heartbeat mode end-to-end: a silent peer is suspected after missed
     heartbeats; when it reappears the suspicion is cleared and its timeout
     is bumped (the eventually-accurate adaptation rule). *)
  let t = Engine.create ~seed:3 ~net:(Netmodel.lan ()) () in
  let peers = [ 0; 1 ] in
  let during = ref None and after = ref None and bumped = ref None in
  let _p0 =
    Engine.spawn t ~name:"p0" ~main:(fun ~recovery:_ () ->
        let fd =
          Fdetect.heartbeat ~initial_timeout:50. ~timeout_bump:25. ~peers ()
        in
        Fdetect.start fd;
        Rt.sleep 400.;
        during := Some (Fdetect.suspects fd 1);
        Rt.sleep 500.;
        after := Some (Fdetect.suspects fd 1);
        bumped := Fdetect.current_timeout fd 1)
  in
  let p1 =
    Engine.spawn t ~name:"p1" ~main:(fun ~recovery:_ () ->
        let fd = Fdetect.heartbeat ~peers () in
        Fdetect.start fd;
        Rt.sleep infinity)
  in
  (* p1 goes silent at 100 and reappears at 600 *)
  Engine.crash_at t 100. p1;
  Engine.recover_at t 600. p1;
  ignore (Engine.run ~deadline:1_500. t);
  Alcotest.(check (option bool)) "suspected while silent" (Some true) !during;
  Alcotest.(check (option bool)) "cleared on reappearance" (Some false) !after;
  match !bumped with
  | Some timeout ->
      Alcotest.(check bool)
        (Printf.sprintf "timeout %.0f bumped above initial 50" timeout)
        true (timeout > 50.)
  | None -> Alcotest.fail "no timeout recorded"

let test_fd_monitor_grid_and_replan () =
  (* p0 hears nothing from p1: its 50 ms deadline passes at 50, so p1 is
     suspected at the first half-period grid point past it, 55. One
     heartbeat from p1 at 101 clears the suspicion and re-plans the idle
     monitor at once: the new deadline 101 + 75 is overdue at the grid
     point 180, when p1, silent again, is suspected again. *)
  let t = Engine.create () in
  let log = ref [] in
  let _p0 =
    Engine.spawn t ~name:"p0" ~main:(fun ~recovery:_ () ->
        let fd = Fdetect.heartbeat ~peers:[ 0; 1 ] () in
        Fdetect.start fd;
        let rec watch last =
          Etx_runtime.Wake.until (Fdetect.changed fd) (fun () ->
              Fdetect.suspects fd 1 <> last);
          log := (Rt.now (), not last) :: !log;
          watch (not last)
        in
        watch false)
  in
  let p1 =
    Engine.spawn t ~name:"p1" ~main:(fun ~recovery:_ () ->
        Rt.sleep 100.;
        Fdetect.start (Fdetect.heartbeat ~peers:[ 0; 1 ] ());
        Rt.sleep infinity)
  in
  Engine.crash_at t 105. p1;
  ignore (Engine.run ~deadline:400. t);
  Alcotest.(check (list (pair (float 1e-9) bool)))
    "suspected at 55, cleared at 101, suspected at 180"
    [ (55., true); (101., false); (180., true) ]
    (List.rev !log)

let prop_fd_eventually_suspects_crashed =
  QCheck.Test.make ~name:"fd completeness across seeds and loss" ~count:15
    QCheck.(pair (int_range 0 1000) (float_range 0. 0.3))
    (fun (seed, loss) ->
      match
        fd_scenario ~seed ~loss ~crash_p1_at:(Some 50.) ~probe_at:2_000.
      with
      | Some s -> s
      | None -> false)

(* ------------------------------------------------------------------ *)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "dnet"
    [
      ( "netmodel",
        [
          Alcotest.test_case "constant" `Quick test_constant_model;
          Alcotest.test_case "uniform range" `Quick test_uniform_model_range;
          Alcotest.test_case "loss rate" `Quick test_lossy_model_rate;
          Alcotest.test_case "duplication" `Quick test_dup_model;
          Alcotest.test_case "partition" `Quick test_partition;
        ] );
      ( "rchannel",
        [
          Alcotest.test_case "lossless" `Quick test_rchannel_lossless;
          Alcotest.test_case "heavy loss" `Quick test_rchannel_heavy_loss;
          Alcotest.test_case "duplicating net" `Quick test_rchannel_duplication;
          Alcotest.test_case "integrity" `Quick
            test_rchannel_integrity_only_if_sent;
          Alcotest.test_case "outbox drains" `Quick test_rchannel_pending_drains;
          Alcotest.test_case "pending exact" `Quick test_rchannel_pending_exact;
          Alcotest.test_case "quiesces" `Quick test_rchannel_quiesces;
          Alcotest.test_case "crashed receiver" `Quick
            test_rchannel_crashed_receiver_no_delivery;
          Alcotest.test_case "delivery after recovery" `Quick
            test_rchannel_delivery_after_recovery;
          Alcotest.test_case "silent destination is probed" `Quick
            test_rchannel_silent_destination_probed;
          Alcotest.test_case "lossy live destination never parked" `Quick
            test_rchannel_lossy_live_never_parked;
          Alcotest.test_case "dead neighbour does not delay a live one" `Quick
            test_rchannel_dead_neighbour;
          Alcotest.test_case "probe does not hold back a fresh message" `Quick
            test_rchannel_probe_does_not_hold_back_fresh;
          Alcotest.test_case "silence reported once at send + 70 ms" `Quick
            test_rchannel_silence_reported_once;
          Alcotest.test_case "live destination never reported" `Quick
            test_rchannel_live_never_reported;
          Alcotest.test_case "destination heard since the send not reported"
            `Quick test_rchannel_heard_since_send_not_reported;
          q prop_rchannel_exactly_once;
          Alcotest.test_case "recovered receiver stays bounded" `Quick
            test_rchannel_recovered_receiver_bounded;
          Alcotest.test_case "due entry no longer needed is retired" `Quick
            test_rchannel_retire_due_entry;
          Alcotest.test_case "retired probe hands over to oldest parked"
            `Quick test_rchannel_retired_probe_promotes;
          Alcotest.test_case "lost frame resent at +10, +30, +70 ms" `Quick
            test_rchannel_lost_frame_schedule;
        ] );
      ( "fdetect",
        [
          Alcotest.test_case "completeness" `Quick test_fd_completeness;
          Alcotest.test_case "accuracy (lossless)" `Quick
            test_fd_no_false_suspicion_lossless;
          Alcotest.test_case "oracle" `Quick test_fd_oracle;
          Alcotest.test_case "adaptive timeout" `Quick
            test_fd_adaptive_timeout_grows;
          Alcotest.test_case "suspect, clear, bump (heartbeat mode)" `Quick
            test_fd_heartbeat_suspect_clear_bump;
          q prop_fd_eventually_suspects_crashed;
          Alcotest.test_case "suspected on the grid, re-planned on a clear"
            `Quick test_fd_monitor_grid_and_replan;
        ] );
    ]
