(* Tests for the stable-storage substrate: simulated disk and LSN-addressed
   redo log. *)

open Dsim
module Rt = Runtime.Etx_runtime

(* Run [f] inside a single-process simulation and return its result. *)
let in_sim f =
  let t = Engine.create () in
  let result = ref None in
  let _ = Engine.spawn t ~name:"p" ~main:(fun ~recovery:_ () -> result := Some (f t)) in
  ignore (Engine.run t);
  match !result with Some r -> r | None -> Alcotest.fail "fiber did not run"

let test_disk_charges_time () =
  let elapsed =
    in_sim (fun _ ->
        let disk = Dstore.Disk.create ~force_latency:12.5 ~label:"log" () in
        let t0 = Rt.now () in
        Dstore.Disk.force disk;
        Dstore.Disk.force disk;
        Rt.now () -. t0)
  in
  Alcotest.(check (float 1e-9)) "two forced writes" 25.0 elapsed

let test_disk_counts () =
  in_sim (fun _ ->
      let disk = Dstore.Disk.create ~label:"log" () in
      Alcotest.(check int) "fresh" 0 (Dstore.Disk.forced_writes disk);
      Dstore.Disk.force disk;
      Dstore.Disk.force ~label:"special" disk;
      Alcotest.(check int) "counted" 2 (Dstore.Disk.forced_writes disk);
      Alcotest.(check (float 1e-9)) "latency accessor" 12.5
        (Dstore.Disk.force_latency disk))

let test_disk_trace_labels () =
  let reg = Obs.Registry.create () in
  let t = Engine.create ~obs:reg () in
  let _ =
    Engine.spawn t ~name:"p" ~main:(fun ~recovery:_ () ->
        let disk = Dstore.Disk.create ~force_latency:5. ~label:"log" () in
        Dstore.Disk.force disk;
        Dstore.Disk.force ~label:"log-start" disk)
  in
  ignore (Engine.run t);
  (* each force charges work under its label; the registry's work.<label>
     histograms carry the totals *)
  List.iter
    (fun (name, total) ->
      match Obs.Registry.merged_histogram reg name with
      | Some h ->
          Alcotest.(check (float 1e-9)) (name ^ " total") total
            (Obs.Histogram.sum h);
          Alcotest.(check int) (name ^ " count") 1 (Obs.Histogram.count h)
      | None -> Alcotest.failf "no %s histogram" name)
    [ ("work.log", 5.); ("work.log-start", 5.) ]

let test_log_append_records () =
  in_sim (fun _ ->
      let disk = Dstore.Disk.create ~force_latency:1. ~label:"log" () in
      let log = Dstore.Log.create ~disk () in
      Alcotest.(check int) "empty" 0 (Dstore.Log.length log);
      Alcotest.(check int) "lsn a" 1 (Dstore.Log.append log "a");
      Alcotest.(check int) "lsn b" 2 (Dstore.Log.append log "b");
      Alcotest.(check int) "lsn c" 3 (Dstore.Log.append log "c");
      Alcotest.(check int) "three" 3 (Dstore.Log.length log);
      Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ]
        (Dstore.Log.records log);
      Alcotest.(check int) "appends are volatile: no forced writes" 0
        (Dstore.Disk.forced_writes disk);
      Alcotest.(check int) "nothing durable yet" 0 (Dstore.Log.durable_lsn log);
      Dstore.Log.force log;
      Alcotest.(check int) "one force covers all" 1
        (Dstore.Disk.forced_writes disk);
      Alcotest.(check int) "durable watermark" 3 (Dstore.Log.durable_lsn log))

let test_log_iterate () =
  in_sim (fun _ ->
      let disk = Dstore.Disk.create ~force_latency:0.1 ~label:"log" () in
      let log = Dstore.Log.create ~segment_size:2 ~disk () in
      Dstore.Log.append_list log [ 1; 2; 3; 4 ];
      Alcotest.(check int) "fold sum" 10
        (Dstore.Log.fold log ~init:0 ~f:( + ));
      let seen = ref [] in
      Dstore.Log.iter_from log ~lsn:3 ~f:(fun l r -> seen := (l, r) :: !seen);
      Alcotest.(check (list (pair int int)))
        "cursor from lsn 3"
        [ (3, 3); (4, 4) ]
        (List.rev !seen);
      Alcotest.(check (option int)) "random access" (Some 2)
        (Dstore.Log.get log ~lsn:2);
      Alcotest.(check (option int)) "past tail" None
        (Dstore.Log.get log ~lsn:5))

let test_log_truncate_below () =
  in_sim (fun _ ->
      let disk = Dstore.Disk.create ~force_latency:0.1 ~label:"log" () in
      let log = Dstore.Log.create ~segment_size:2 ~disk () in
      Dstore.Log.append_list log [ "a"; "b"; "c"; "d"; "e" ];
      Dstore.Log.force log;
      let io = Dstore.Disk.forced_writes disk in
      Dstore.Log.truncate_below log ~lsn:4;
      Alcotest.(check int) "truncation forces nothing" io
        (Dstore.Disk.forced_writes disk);
      Alcotest.(check int) "floor" 4 (Dstore.Log.base_lsn log);
      Alcotest.(check int) "two retained" 2 (Dstore.Log.length log);
      Alcotest.(check (list string)) "suffix" [ "d"; "e" ]
        (Dstore.Log.records log);
      Alcotest.(check (option string)) "below floor is gone" None
        (Dstore.Log.get log ~lsn:2);
      Alcotest.check_raises "floor above durable rejected"
        (Invalid_argument "Log.truncate_below: retention floor above durable_lsn")
        (fun () ->
          Dstore.Log.append_list log [ "f"; "g" ];
          Dstore.Log.truncate_below log ~lsn:7))

let test_log_crash_cut () =
  in_sim (fun _ ->
      let disk = Dstore.Disk.create ~force_latency:0.1 ~label:"log" () in
      let log = Dstore.Log.create ~segment_size:2 ~disk () in
      Dstore.Log.append_list log [ "a"; "b" ];
      Dstore.Log.force log;
      Dstore.Log.append_list log [ "c"; "d"; "e" ];
      Alcotest.(check int) "volatile tail" 5 (Dstore.Log.appended_lsn log);
      Dstore.Log.crash_cut log;
      Alcotest.(check int) "tail cut to durable" 2
        (Dstore.Log.appended_lsn log);
      Alcotest.(check (list string)) "durable prefix survives" [ "a"; "b" ]
        (Dstore.Log.records log);
      (* LSNs keep increasing after the cut *)
      Alcotest.(check int) "next lsn after cut" 3 (Dstore.Log.append log "c'");
      Dstore.Log.force log;
      Alcotest.(check (list string)) "resumed" [ "a"; "b"; "c'" ]
        (Dstore.Log.records log))

(* A coalescing log is one database process's state, and its windows wake
   their waiters through that process's mailbox: the committers below are
   forked fibers of one process, as the database's sessions are. *)
let in_one_process t committers =
  ignore
    (Engine.spawn t ~name:"db" ~main:(fun ~recovery:_ () ->
         List.iteri
           (fun i f -> Rt.fork (Printf.sprintf "w%d" i) f)
           committers))

let test_log_group_commit_coalesces () =
  (* N concurrent committers, one disk force per window: with a coalescing
     log, concurrent forces pay one latency, not N. *)
  let t = Engine.create () in
  let disk = Dstore.Disk.create ~force_latency:10. ~label:"log" () in
  let log = Dstore.Log.create ~coalesce:true ~disk () in
  let done_at = ref [] in
  in_one_process t
    (List.init 4 (fun i () ->
         ignore (Dstore.Log.append log (Printf.sprintf "r%d" (i + 1)));
         Dstore.Log.force log;
         done_at := Rt.now () :: !done_at));
  ignore (Engine.run t);
  Alcotest.(check int) "all four committed" 4 (List.length !done_at);
  Alcotest.(check int) "durable" 4 (Dstore.Log.durable_lsn log);
  (* all four appends happen at t=0 before the first force's disk write
     starts, so a single window covers them *)
  Alcotest.(check int) "one coalesced force" 1
    (Dstore.Disk.forced_writes disk)

let test_log_group_commit_late_window () =
  (* A record appended after a window's write started must NOT be reported
     durable by that window — a second force covers it. *)
  let t = Engine.create () in
  let disk = Dstore.Disk.create ~force_latency:10. ~label:"log" () in
  let log = Dstore.Log.create ~coalesce:true ~disk () in
  in_one_process t
    [
      (fun () ->
        ignore (Dstore.Log.append log "early");
        Dstore.Log.force log);
      (fun () ->
        Rt.sleep 5.;
        (* mid-window: the first force's write is in flight *)
        ignore (Dstore.Log.append log "late");
        Dstore.Log.force log;
        Alcotest.(check int) "late record durable on return" 2
          (Dstore.Log.durable_lsn log));
    ];
  ignore (Engine.run t);
  Alcotest.(check int) "two windows" 2 (Dstore.Disk.forced_writes disk)

let test_log_group_commit_next_window_at_landing () =
  (* A committer that misses the window in flight starts the next one the
     instant the first lands (10.0 ms), so it returns one force later. *)
  let t = Engine.create () in
  let disk = Dstore.Disk.create ~force_latency:10. ~label:"log" () in
  let log = Dstore.Log.create ~coalesce:true ~disk () in
  let late_done = ref nan in
  in_one_process t
    [
      (fun () ->
        ignore (Dstore.Log.append log "early");
        Dstore.Log.force log);
      (fun () ->
        Rt.sleep 5.1;
        ignore (Dstore.Log.append log "late");
        Dstore.Log.force log;
        late_done := Rt.now ());
    ];
  ignore (Engine.run t);
  let force_starts =
    List.filter_map
      (fun { Trace.at; event } ->
        match event with Trace.Work (_, "log", _) -> Some at | _ -> None)
      (Trace.entries (Engine.trace t))
  in
  Alcotest.(check (list (float 1e-9))) "windows start" [ 0.0; 10.0 ]
    force_starts;
  Alcotest.(check (float 1e-9)) "late committer returns" 20.0 !late_done

let prop_log_segments_invisible =
  QCheck.Test.make ~name:"segmenting never changes contents" ~count:100
    QCheck.(pair (1 -- 8) (list small_int))
    (fun (seg, xs) ->
      in_sim (fun _ ->
          let disk = Dstore.Disk.create ~force_latency:0.01 ~label:"l" () in
          let log = Dstore.Log.create ~segment_size:seg ~disk () in
          Dstore.Log.append_list log xs;
          Dstore.Log.records log = xs
          && Dstore.Log.length log = List.length xs))

let prop_log_crash_cut_keeps_durable_prefix =
  (* Force after a random prefix, append the rest, crash: exactly the
     durable prefix survives, regardless of segment boundaries. *)
  QCheck.Test.make ~name:"crash cut = durable prefix" ~count:100
    QCheck.(triple (1 -- 4) (list small_int) (list small_int))
    (fun (seg, before, after) ->
      in_sim (fun _ ->
          let disk = Dstore.Disk.create ~force_latency:0.01 ~label:"l" () in
          let log = Dstore.Log.create ~segment_size:seg ~disk () in
          Dstore.Log.append_list log before;
          Dstore.Log.force log;
          Dstore.Log.append_list log after;
          Dstore.Log.crash_cut log;
          Dstore.Log.records log = before
          && Dstore.Log.appended_lsn log = List.length before))

let prop_log_truncate_then_cut =
  (* Truncation composed with crash cut: the retained window is always
     [max floor 1 .. durable]. *)
  QCheck.Test.make ~name:"truncate+cut window" ~count:100
    QCheck.(quad (1 -- 4) (list small_int) small_nat (list small_int))
    (fun (seg, before, floor_off, after) ->
      in_sim (fun _ ->
          let disk = Dstore.Disk.create ~force_latency:0.01 ~label:"l" () in
          let log = Dstore.Log.create ~segment_size:seg ~disk () in
          Dstore.Log.append_list log before;
          Dstore.Log.force log;
          let floor = min (floor_off + 1) (Dstore.Log.durable_lsn log + 1) in
          Dstore.Log.truncate_below log ~lsn:floor;
          Dstore.Log.append_list log after;
          Dstore.Log.crash_cut log;
          let expect =
            List.filteri (fun i _ -> i + 1 >= floor) before
          in
          Dstore.Log.records log = expect))

let test_log_survives_crash () =
  (* The log object lives outside the process; a crash between appends must
     not lose forced records, and must lose the unforced tail. *)
  let t = Engine.create () in
  let disk = Dstore.Disk.create ~force_latency:1. ~label:"log" () in
  let log = Dstore.Log.create ~disk () in
  let after_recovery = ref [] in
  let p =
    Engine.spawn t ~name:"p" ~main:(fun ~recovery () ->
        if recovery then begin
          Dstore.Log.crash_cut log;
          after_recovery := Dstore.Log.records log
        end
        else begin
          ignore (Dstore.Log.append log "committed-1");
          Dstore.Log.force log;
          ignore (Dstore.Log.append log "appended-not-forced");
          Rt.sleep 100.;
          ignore (Dstore.Log.append log "never-happens")
        end)
  in
  Engine.crash_at t 50. p;
  Engine.recover_at t 60. p;
  ignore (Engine.run t);
  Alcotest.(check (list string))
    "only the forced record" [ "committed-1" ] !after_recovery

(* ------------------------------------------------------------------ *)
(* backend parity: disk work routed through the runtime capability *)

let forced_writes d =
  List.map
    (fun (_, rm) -> Dstore.Disk.forced_writes (Dbms.Rm.disk rm))
    (Cluster.group d 0).dbs

let test_forced_writes_sim_live_parity () =
  (* The databases' forced IO goes through [Etx_runtime.work], so an
     identical loss-free run must cost exactly the same forced writes per
     database on the simulator and on the wall-clock backend. The generous
     client period keeps real-time jitter from ever triggering a retry. *)
  let business = Workload.Bank.update in
  let seed_data = Workload.Bank.seed_accounts [ ("acct", 100) ] in
  let script ~issue =
    ignore (issue "acct:-10");
    ignore (issue "acct:-10")
  in
  let _e, sim_d =
    Harness.Simrun.cluster ~n_dbs:2 ~client_period:5_000. ~seed_data
      ~business ~scripts:[ script ] ()
  in
  Alcotest.(check bool) "sim quiesced" true
    (Cluster.run_to_quiescence ~deadline:60_000. sim_d);
  let lt = Runtime_live.create () in
  let live_d =
    Cluster.build ~rt:(Runtime_live.runtime lt) ~n_dbs:2
      ~client_period:5_000. ~seed_data ~business ~scripts:[ script ] ()
  in
  let live_ok = Cluster.run_to_quiescence ~deadline:60_000. live_d in
  let sim_io = forced_writes sim_d
  and live_io = forced_writes live_d in
  Alcotest.(check bool) "live quiesced" true live_ok;
  Alcotest.(check bool) "forced IO happened" true
    (List.for_all (fun c -> c > 0) sim_io);
  Alcotest.(check (list int)) "identical forced IO on both backends" sim_io
    live_io

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "dstore"
    [
      ( "disk",
        [
          Alcotest.test_case "charges virtual time" `Quick
            test_disk_charges_time;
          Alcotest.test_case "counts forced writes" `Quick test_disk_counts;
          Alcotest.test_case "trace labels" `Quick test_disk_trace_labels;
          Alcotest.test_case "sim/live forced-IO parity" `Quick
            test_forced_writes_sim_live_parity;
        ] );
      ( "log",
        [
          Alcotest.test_case "append/force/records" `Quick
            test_log_append_records;
          Alcotest.test_case "cursor/fold/get" `Quick test_log_iterate;
          Alcotest.test_case "truncate below" `Quick test_log_truncate_below;
          Alcotest.test_case "crash cut" `Quick test_log_crash_cut;
          Alcotest.test_case "group commit coalesces" `Quick
            test_log_group_commit_coalesces;
          Alcotest.test_case "group commit late window" `Quick
            test_log_group_commit_late_window;
          Alcotest.test_case "group commit next window at landing" `Quick
            test_log_group_commit_next_window_at_landing;
          Alcotest.test_case "survives crash" `Quick test_log_survives_crash;
          q prop_log_segments_invisible;
          q prop_log_crash_cut_keeps_durable_prefix;
          q prop_log_truncate_then_cut;
        ] );
    ]
