(* Tests for the wall-clock Live runtime backend: class-demultiplexed
   mailboxes, timer ordering, and the paper's crash-stop semantics (volatile
   state — fibers and mailbox — dies with the process; recovery reruns the
   main with [~recovery:true]).

   Wall-clock timings are kept small but the assertion windows generous, so
   the suite stays robust on loaded CI machines. *)

open Dsim
module ER = Runtime.Etx_runtime

type Runtime.Types.payload += Ping of int | Pong of int

let cls_ping =
  ER.register_class ~name:"test-ping" (function Ping _ -> true | _ -> false)

let cls_pong =
  ER.register_class ~name:"test-pong" (function Pong _ -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* mailbox demultiplexing *)

let test_classed_demux () =
  (* A fiber blocked on one class must not be woken by another class's
     arrival, and a classed receive takes from its bucket regardless of
     arrival order. *)
  let lt = Runtime_live.create () in
  let rt = Runtime_live.runtime lt in
  let got = ref [] in
  let rx = ref (-1) in
  let receiver =
    rt.spawn ~name:"rx" ~main:(fun ~recovery:_ () ->
        (* the Ping arrives first, but we ask for the Pong *)
        (match ER.recv_cls ~timeout:5_000. cls_pong with
        | Some { payload = Pong n; _ } -> got := ("pong", n) :: !got
        | Some _ | None -> ());
        match ER.recv_cls ~timeout:5_000. cls_ping with
        | Some { payload = Ping n; _ } -> got := ("ping", n) :: !got
        | Some _ | None -> ())
  in
  rx := receiver;
  let _tx =
    rt.spawn ~name:"tx" ~main:(fun ~recovery:_ () ->
        ER.send !rx (Ping 1);
        ER.sleep 20.;
        ER.send !rx (Pong 2))
  in
  let ok = rt.run_until ~deadline:10_000. (fun () -> List.length !got = 2) in
  Alcotest.(check bool) "both received" true ok;
  Alcotest.(check (list (pair string int)))
    "class buckets, not arrival order"
    [ ("pong", 2); ("ping", 1) ]
    (List.rev !got)

let test_filtered_recv_skips_rejected () =
  (* The predicate path: messages the filter rejects stay queued for later
     receives instead of being consumed. *)
  let lt = Runtime_live.create () in
  let rt = Runtime_live.runtime lt in
  let got = ref [] in
  let rx = ref (-1) in
  let receiver =
    rt.spawn ~name:"rx" ~main:(fun ~recovery:_ () ->
        let want n m =
          match m.Runtime.Types.payload with Ping k -> k = n | _ -> false
        in
        (match ER.recv ~timeout:5_000. ~filter:(want 2) () with
        | Some { payload = Ping n; _ } -> got := n :: !got
        | Some _ | None -> ());
        match ER.recv ~timeout:5_000. ~filter:(want 1) () with
        | Some { payload = Ping n; _ } -> got := n :: !got
        | Some _ | None -> ())
  in
  rx := receiver;
  let _tx =
    rt.spawn ~name:"tx" ~main:(fun ~recovery:_ () ->
        ER.send !rx (Ping 1);
        ER.sleep 20.;
        ER.send !rx (Ping 2))
  in
  let ok = rt.run_until ~deadline:10_000. (fun () -> List.length !got = 2) in
  Alcotest.(check bool) "both received" true ok;
  Alcotest.(check (list int)) "rejected message preserved" [ 2; 1 ]
    (List.rev !got)

(* ------------------------------------------------------------------ *)
(* timers *)

let test_sleep_ordering () =
  (* Two fibers with different sleeps must wake shortest-first, and a sleep
     must never return early on the wall clock. *)
  let lt = Runtime_live.create () in
  let rt = Runtime_live.runtime lt in
  let order = ref [] in
  let fast_wake = ref 0. in
  let _slow =
    rt.spawn ~name:"slow" ~main:(fun ~recovery:_ () ->
        ER.sleep 150.;
        order := "slow" :: !order)
  in
  let _fast =
    rt.spawn ~name:"fast" ~main:(fun ~recovery:_ () ->
        let t0 = ER.now () in
        ER.sleep 30.;
        fast_wake := ER.now () -. t0;
        order := "fast" :: !order)
  in
  let ok = rt.run_until ~deadline:10_000. (fun () -> List.length !order = 2) in
  Alcotest.(check bool) "both woke" true ok;
  Alcotest.(check (list string))
    "shorter sleep wakes first" [ "slow"; "fast" ] !order;
  Alcotest.(check bool)
    (Printf.sprintf "slept at least the requested 30 ms (%.1f)" !fast_wake)
    true
    (!fast_wake >= 29.)

let test_idle_run_sleeps () =
  (* With its only fiber asleep for 10 s, a run waits out its 500 ms
     deadline in one sleep: no timer thread, no polling, almost no CPU. *)
  let lt = Runtime_live.create () in
  let rt = Runtime_live.runtime lt in
  let _sleeper =
    rt.spawn ~name:"sleeper" ~main:(fun ~recovery:_ () -> ER.sleep 10_000.)
  in
  let cpu () =
    let t = Unix.times () in
    t.tms_utime +. t.tms_stime
  in
  let c0 = cpu () and w0 = Unix.gettimeofday () in
  let ok = rt.run_until ~deadline:500. (fun () -> false) in
  let cpu_ms = (cpu () -. c0) *. 1000.
  and wall_ms = (Unix.gettimeofday () -. w0) *. 1000. in
  Alcotest.(check bool) "predicate never held" false ok;
  Alcotest.(check bool)
    (Printf.sprintf "waited out the deadline (%.0f ms)" wall_ms)
    true (wall_ms >= 490.);
  Alcotest.(check bool)
    (Printf.sprintf "under 3 ms of CPU while idle (%.2f ms)" cpu_ms)
    true (cpu_ms < 3.)

(* ------------------------------------------------------------------ *)
(* crash / recovery *)

let test_crash_kills_fibers_and_clears_mailbox () =
  let lt = Runtime_live.create () in
  let rt = Runtime_live.runtime lt in
  let events = ref [] in
  let push e = events := e :: !events in
  let seen e = List.mem e !events in
  let victim =
    rt.spawn ~name:"victim" ~main:(fun ~recovery () ->
        if recovery then begin
          push "recovered";
          (* the Pong queued before the crash must be gone *)
          match ER.recv_cls ~timeout:150. cls_pong with
          | None -> push "mailbox-was-cleared"
          | Some _ -> push "stale-pong-survived"
        end
        else begin
          push "started";
          ER.fork "helper" (fun () ->
              ER.sleep 200.;
              push "helper-survived-crash");
          (* block forever on a class nobody sends *)
          ignore (ER.recv_cls ~timeout:30_000. cls_ping);
          push "blocked-recv-survived-crash"
        end)
  in
  let pong_sent = ref false in
  let _driver =
    rt.spawn ~name:"driver" ~main:(fun ~recovery:_ () ->
        ER.sleep 30.;
        ER.send victim (Pong 7);
        ER.sleep 10.;
        (* the send above is a network hop; by now it is queued *)
        pong_sent := true)
  in
  assert (rt.run_until ~deadline:5_000. (fun () -> seen "started"));
  assert (rt.run_until ~deadline:5_000. (fun () -> !pong_sent));
  rt.crash victim;
  Alcotest.(check bool) "victim reported down" false (rt.is_up victim);
  rt.recover victim;
  Alcotest.(check bool) "victim reported up" true (rt.is_up victim);
  let ok =
    rt.run_until ~deadline:5_000. (fun () -> seen "mailbox-was-cleared")
  in
  (* give the pre-crash helper's 200 ms timer time to (not) fire *)
  ignore
    (rt.run_until
       ~deadline:(Runtime_live.now_ms lt +. 300.)
       (fun () -> false));
  Alcotest.(check bool) "recovery ran with a clean mailbox" true ok;
  Alcotest.(check bool) "recovery flag passed" true (seen "recovered");
  Alcotest.(check bool) "forked helper died with the process" false
    (seen "helper-survived-crash");
  Alcotest.(check bool) "blocked receive died with the process" false
    (seen "blocked-recv-survived-crash");
  Alcotest.(check bool) "no stale message" false (seen "stale-pong-survived")

let () =
  Alcotest.run "runtime-live"
    [
      ( "mailbox",
        [
          Alcotest.test_case "classed demux" `Quick test_classed_demux;
          Alcotest.test_case "filtered recv preserves rejected" `Quick
            test_filtered_recv_skips_rejected;
        ] );
      ( "timers",
        [
          Alcotest.test_case "sleep ordering" `Quick test_sleep_ordering;
          Alcotest.test_case "idle run sleeps" `Quick test_idle_run_sleeps;
        ] );
      ( "crash",
        [
          Alcotest.test_case "crash kills fibers, clears mailbox" `Quick
            test_crash_kills_fibers_and_clears_mailbox;
        ] );
    ]
