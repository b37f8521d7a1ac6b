(* Tests for the consensus agent and write-once registers. *)

open Dsim
open Runtime
open Dnet
module Rt = Runtime.Etx_runtime

type Types.payload += V of int

let int_of_v = function V n -> n | _ -> Alcotest.fail "expected V payload"

(* Build [n] member processes (pids 0..n-1, spawned first so pids are
   known). Each runs [behave i agent] after starting its stack; [chans],
   when given, receives each member's channel. Returns the engine. *)
let members_scenario ?(seed = 1) ?(net = Netmodel.lan ()) ?(oracle_fd = true)
    ?obs ?chans ~n ~behave () =
  let t = Engine.create ~seed ~net ?obs () in
  let rt = Runtime_sim.of_engine t in
  let peers = List.init n (fun i -> i) in
  let spawn_member i =
    let pid =
      Engine.spawn t ~name:(Printf.sprintf "a%d" (i + 1))
        ~main:(fun ~recovery:_ () ->
          let ch = Rchannel.create () in
          Option.iter (fun a -> a.(i) <- Some ch) chans;
          Rchannel.start ch;
          let fd =
            if oracle_fd then Fdetect.oracle rt
            else Fdetect.heartbeat ~peers ()
          in
          Fdetect.start fd;
          let agent = Consensus.Agent.create ~peers ~fd ~ch () in
          Consensus.Agent.start agent;
          behave i agent)
    in
    assert (pid = i)
  in
  List.iter spawn_member peers;
  t

let test_single_proposer_decides () =
  let decisions = Array.make 3 None in
  let t =
    members_scenario ~n:3
      ~behave:(fun i agent ->
        if i = 0 then
          decisions.(i) <- Some (Consensus.Agent.propose agent ~key:"k" (V 7))
        else begin
          (* learn passively *)
          Rt.sleep 500.;
          decisions.(i) <- Consensus.Agent.peek agent ~key:"k"
        end)
      ()
  in
  ignore (Engine.run ~deadline:2_000. t);
  Array.iteri
    (fun i d ->
      match d with
      | Some v -> Alcotest.(check int) (Printf.sprintf "member %d" i) 7 (int_of_v v)
      | None -> Alcotest.fail (Printf.sprintf "member %d undecided" i))
    decisions

let test_concurrent_proposers_agree () =
  let decisions = Array.make 3 None in
  let t =
    members_scenario ~n:3
      ~behave:(fun i agent ->
        decisions.(i) <-
          Some (Consensus.Agent.propose agent ~key:"k" (V (100 + i))))
      ()
  in
  ignore (Engine.run ~deadline:5_000. t);
  let values = Array.to_list decisions |> List.filter_map Fun.id |> List.map int_of_v in
  Alcotest.(check int) "all decided" 3 (List.length values);
  (match values with
  | v :: rest ->
      List.iter (fun v' -> Alcotest.(check int) "agreement" v v') rest;
      Alcotest.(check bool) "validity" true (List.mem v [ 100; 101; 102 ])
  | [] -> Alcotest.fail "no decisions")

let test_decision_survives_coordinator_crash_after_decide () =
  (* a1 (round-0 coordinator) proposes and decides, then crashes; others
     must still learn the decision (reliable broadcast / forwarding). *)
  let decisions = Array.make 3 None in
  let t =
    members_scenario ~n:3
      ~behave:(fun i agent ->
        if i = 0 then begin
          decisions.(i) <- Some (Consensus.Agent.propose agent ~key:"k" (V 1))
        end
        else begin
          Rt.sleep 1_000.;
          decisions.(i) <- Consensus.Agent.peek agent ~key:"k"
        end)
      ()
  in
  Engine.crash_at t 50. 0;
  ignore (Engine.run ~deadline:3_000. t);
  (match decisions.(1) with
  | Some v -> Alcotest.(check int) "a2 learned" 1 (int_of_v v)
  | None -> Alcotest.fail "a2 undecided");
  match decisions.(2) with
  | Some v -> Alcotest.(check int) "a3 learned" 1 (int_of_v v)
  | None -> Alcotest.fail "a3 undecided"

let test_crashed_initial_coordinator_rotation () =
  (* a1 crashes immediately; a2 proposes; rotation must reach a decision. *)
  let decisions = Array.make 3 None in
  let t =
    members_scenario ~n:3
      ~behave:(fun i agent ->
        if i = 1 then begin
          Rt.sleep 20.;
          decisions.(i) <- Some (Consensus.Agent.propose agent ~key:"k" (V 42))
        end
        else Rt.sleep infinity)
      ()
  in
  Engine.crash_at t 1. 0;
  let decided = Engine.run_until ~deadline:10_000. t (fun () -> decisions.(1) <> None) in
  Alcotest.(check bool) "decided despite crashed coordinator" true decided;
  match decisions.(1) with
  | Some v -> Alcotest.(check int) "a2's value" 42 (int_of_v v)
  | None -> Alcotest.fail "undecided"

let test_latency_one_round_trip_for_primary () =
  (* Nice run: primary write completes in about one LAN round trip (the
     paper's 4-5 ms claim), well under two round trips. *)
  let elapsed = ref infinity in
  let t =
    members_scenario ~n:3
      ~behave:(fun i agent ->
        if i = 0 then begin
          let t0 = Rt.now () in
          ignore (Consensus.Agent.propose agent ~key:"k" (V 7));
          elapsed := Rt.now () -. t0
        end)
      ()
  in
  ignore (Engine.run ~deadline:1_000. t);
  Alcotest.(check bool)
    (Printf.sprintf "one round trip (got %.2f ms)" !elapsed)
    true
    (!elapsed < 7.0)

let test_every_local_proposer_wakes () =
  (* Two fibers of one member propose the same key: the decision wakes
     both, so both return at the decision instant with the same value. *)
  let returns = ref [] in
  let t =
    members_scenario ~n:3
      ~behave:(fun i agent ->
        if i = 0 then
          List.iter
            (fun v ->
              Rt.fork "proposer" (fun () ->
                  let d = Consensus.Agent.propose agent ~key:"k" (V v) in
                  returns := (Rt.now (), int_of_v d) :: !returns))
            [ 1; 2 ])
      ()
  in
  ignore (Engine.run ~deadline:1_000. t);
  match !returns with
  | [ (t_second, v_second); (t_first, v_first) ] ->
      Alcotest.(check int) "same value" v_first v_second;
      Alcotest.(check (float 0.)) "second returns at the decision instant"
        t_first t_second
  | r -> Alcotest.failf "%d proposers returned, expected 2" (List.length r)

let test_five_members_minority_crash () =
  let decisions = Array.make 5 None in
  let t =
    members_scenario ~n:5
      ~behave:(fun i agent ->
        if i >= 2 then begin
          Rt.sleep 10.;
          decisions.(i) <-
            Some (Consensus.Agent.propose agent ~key:"k" (V i))
        end
        else Rt.sleep infinity)
      ()
  in
  Engine.crash_at t 1. 0;
  Engine.crash_at t 1. 1;
  let all_decided () = decisions.(2) <> None && decisions.(3) <> None && decisions.(4) <> None in
  let ok = Engine.run_until ~deadline:20_000. t all_decided in
  Alcotest.(check bool) "all correct decided" true ok;
  let values = Array.to_list decisions |> List.filter_map Fun.id |> List.map int_of_v in
  match values with
  | v :: rest -> List.iter (fun v' -> Alcotest.(check int) "agreement" v v') rest
  | [] -> Alcotest.fail "no decisions"

(* Consensus payloads sent over the channels of [t]'s trace, by kind:
   (estimates, proposes, acks, decides). *)
let ct_sends t =
  let e = ref 0 and p = ref 0 and a = ref 0 and d = ref 0 in
  List.iter
    (fun (entry : Trace.entry) ->
      match entry.event with
      | Trace.Sent (m, _) -> (
          match Rchannel.inner_payload m.payload with
          | Some (Consensus.Agent.C_estimate _) -> incr e
          | Some (Consensus.Agent.C_propose _) -> incr p
          | Some (Consensus.Agent.C_ack _) -> incr a
          | Some (Consensus.Agent.C_decide _) -> incr d
          | _ -> ())
      | _ -> ())
    (Trace.entries (Engine.trace t));
  (!e, !p, !a, !d)

(* Every driver's [consensus.rounds_per_write] observation, by node. *)
let rounds_per_write reg =
  Obs.Registry.histograms reg
  |> List.filter_map (fun ((k : Obs.Registry.key), h) ->
         if k.name = "consensus.rounds_per_write" then
           Some (k.node, Obs.Histogram.count h, Obs.Histogram.max_value h)
         else None)
  |> List.sort compare

let test_failure_free_write_one_round () =
  (* The round-0 coordinator proposes and nothing fails: the participants
     adopt its proposal without a round-0 estimate, stay in round 0 after
     acking, and relay the decision to every peer but its sender; the
     coordinator answers no late ack, whose sender its relay reached. *)
  let obs = Obs.Registry.create () in
  let t =
    members_scenario ~obs ~n:3
      ~behave:(fun i agent ->
        if i = 0 then ignore (Consensus.Agent.propose agent ~key:"k" (V 7)))
      ()
  in
  ignore (Engine.run ~deadline:1_000. t);
  let estimates, proposes, acks, decides = ct_sends t in
  Alcotest.(check int) "estimates" 0 estimates;
  Alcotest.(check int) "proposes" 2 proposes;
  Alcotest.(check int) "acks" 2 acks;
  Alcotest.(check int) "decides" 4 decides;
  Alcotest.(check (list (triple string int (option (float 0.)))))
    "every driver decides in round 0"
    [ ("a1", 1, Some 1.); ("a2", 1, Some 1.); ("a3", 1, Some 1.) ]
    (rounds_per_write obs)

let test_relay_survives_decider_crash () =
  (* Every a1 -> a3 frame is lost and a1 crashes soon after deciding: a3,
     which never proposes, learns the value only from a2's relay. *)
  let lan = Netmodel.lan () in
  let net rng ~src ~dst = if src = 0 && dst = 2 then [] else lan rng ~src ~dst in
  let a3 = ref None in
  let t =
    members_scenario ~net ~n:3
      ~behave:(fun i agent ->
        if i = 0 then ignore (Consensus.Agent.propose agent ~key:"k" (V 5))
        else if i = 2 then begin
          Rt.sleep 1_000.;
          a3 := Consensus.Agent.peek agent ~key:"k"
        end)
      ()
  in
  Engine.crash_at t 8. 0;
  ignore (Engine.run ~deadline:2_000. t);
  match !a3 with
  | Some v -> Alcotest.(check int) "a3 learned through a2" 5 (int_of_v v)
  | None -> Alcotest.fail "a3 undecided"

let test_acked_participant_moves_on oracle_fd () =
  (* Constant 1 ms links: the proposal lands at t = 1, the acks leave then
     and would land at t = 2, but a1 crashes at t = 1.5, before it can
     decide. The two acked survivors must leave round 0 (by suspicion or
     the round timeout) and decide a1's value in round 1. *)
  let obs = Obs.Registry.create () in
  let decisions = Array.make 3 None in
  let t =
    members_scenario ~net:Engine.default_net ~oracle_fd ~obs ~n:3
      ~behave:(fun i agent ->
        if i = 0 then ignore (Consensus.Agent.propose agent ~key:"k" (V 3))
        else begin
          Rt.sleep 500.;
          decisions.(i) <- Consensus.Agent.peek agent ~key:"k"
        end)
      ()
  in
  Engine.crash_at t 1.5 0;
  ignore (Engine.run ~deadline:1_000. t);
  let round0_acks =
    List.filter
      (fun (entry : Trace.entry) ->
        match entry.event with
        | Trace.Sent (m, _) -> (
            entry.at < 1.5
            &&
            match Rchannel.inner_payload m.payload with
            | Some (Consensus.Agent.C_ack { round = 0; ok = true; _ }) -> true
            | _ -> false)
        | _ -> false)
      (Trace.entries (Engine.trace t))
  in
  Alcotest.(check int) "both survivors acked round 0" 2
    (List.length round0_acks);
  List.iter
    (fun i ->
      match decisions.(i) with
      | Some v -> Alcotest.(check int) "a1's value" 3 (int_of_v v)
      | None -> Alcotest.failf "a%d undecided" (i + 1))
    [ 1; 2 ];
  Alcotest.(check (list (triple string int (option (float 0.)))))
    "the survivors decide in round 1"
    [ ("a2", 1, Some 2.); ("a3", 1, Some 2.) ]
    (rounds_per_write obs)

(* The same crash, seen by the oracle: the survivors wait in round 0
   after their acks, and the crash notice wakes them, so they leave round
   0 at the crash instant — not at a later re-check. a3 then sends its
   round-1 estimate to a2, round 1's coordinator. *)
let test_participant_gives_up_at_suspicion () =
  let crash_at = 1.5 in
  let t =
    members_scenario ~net:Engine.default_net ~oracle_fd:true ~n:3
      ~behave:(fun i agent ->
        if i = 0 then ignore (Consensus.Agent.propose agent ~key:"k" (V 3))
        else Rt.sleep 500.)
      ()
  in
  Engine.crash_at t crash_at 0;
  ignore (Engine.run ~deadline:1_000. t);
  let round1_estimates =
    List.filter_map
      (fun (entry : Trace.entry) ->
        match entry.event with
        | Trace.Sent (m, _) -> (
            match Rchannel.inner_payload m.payload with
            | Some (Consensus.Agent.C_estimate { round = 1; _ }) ->
                Some (m.src, m.dst, entry.at)
            | _ -> None)
        | _ -> None)
      (Trace.entries (Engine.trace t))
  in
  Alcotest.(check (list (triple int int (float 0.))))
    "a3 enters round 1 at the crash" [ (2, 1, crash_at) ] round1_estimates

(* ------------------------------------------------------------------ *)
(* Write-once registers: a register view is the member's agent *)

let test_woreg_write_once () =
  let results = Array.make 3 None in
  let t =
    members_scenario ~n:3
      ~behave:(fun i reg ->
        results.(i) <-
          Some (Consensus.Woreg.write reg ~name:"regA:r0" ~j:1 (V i)))
      ()
  in
  ignore (Engine.run ~deadline:5_000. t);
  let values = Array.to_list results |> List.filter_map Fun.id |> List.map int_of_v in
  Alcotest.(check int) "all writes returned" 3 (List.length values);
  match values with
  | v :: rest -> List.iter (fun v' -> Alcotest.(check int) "single written value" v v') rest
  | [] -> Alcotest.fail "no writes"

let test_woreg_read_bottom_then_value () =
  let before = ref (Some (V 999)) in
  let after = ref None in
  let t =
    members_scenario ~n:3
      ~behave:(fun i reg ->
        if i = 1 then begin
          before := Consensus.Woreg.read reg ~name:"regD:r0" ~j:1;
          Rt.sleep 200.;
          after := Consensus.Woreg.read reg ~name:"regD:r0" ~j:1
        end
        else if i = 0 then begin
          Rt.sleep 10.;
          ignore (Consensus.Woreg.write reg ~name:"regD:r0" ~j:1 (V 5))
        end)
      ()
  in
  ignore (Engine.run ~deadline:2_000. t);
  Alcotest.(check bool) "⊥ before any write" true (!before = None);
  match !after with
  | Some v -> Alcotest.(check int) "value after write" 5 (int_of_v v)
  | None -> Alcotest.fail "read still ⊥ after write"

let test_woreg_distinct_indices_independent () =
  let r1 = ref None and r2 = ref None in
  let t =
    members_scenario ~n:3
      ~behave:(fun i reg ->
        if i = 0 then
          r1 := Some (Consensus.Woreg.write reg ~name:"regA:r1" ~j:1 (V 10))
        else if i = 1 then
          r2 := Some (Consensus.Woreg.write reg ~name:"regA:r1" ~j:2 (V 20)))
      ()
  in
  ignore (Engine.run ~deadline:5_000. t);
  Alcotest.(check bool) "j=1 got 10" true
    (match !r1 with Some v -> int_of_v v = 10 | None -> false);
  Alcotest.(check bool) "j=2 got 20" true
    (match !r2 with Some v -> int_of_v v = 20 | None -> false)

let test_woreg_distinct_arrays_independent () =
  let ra = ref None and rd = ref None and keys = ref [] in
  let t =
    members_scenario ~n:3
      ~behave:(fun i reg ->
        if i = 0 then begin
          ra := Some (Consensus.Woreg.write reg ~name:"regA:r2" ~j:1 (V 1));
          rd := Some (Consensus.Woreg.write reg ~name:"regD:r2" ~j:1 (V 2));
          keys := Consensus.Woreg.decided_keys reg
        end)
      ()
  in
  ignore (Engine.run ~deadline:5_000. t);
  Alcotest.(check bool) "regA independent" true
    (match !ra with Some v -> int_of_v v = 1 | None -> false);
  Alcotest.(check bool) "regD independent" true
    (match !rd with Some v -> int_of_v v = 2 | None -> false);
  Alcotest.(check (list (pair string int)))
    "decided registers by name and index"
    [ ("regA:r2", 1); ("regD:r2", 1) ]
    !keys

let prop_write_once_under_concurrency =
  QCheck.Test.make ~name:"wo-register write-once under concurrent writers"
    ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let n = 3 in
      let results = Array.make n None in
      let t =
        members_scenario ~seed ~n
          ~behave:(fun i reg ->
            Rt.sleep (float_of_int (seed mod (i + 2)));
            results.(i) <-
              Some (Consensus.Woreg.write reg ~name:"reg" ~j:7 (V i)))
          ()
      in
      ignore (Engine.run ~deadline:30_000. t);
      let values =
        Array.to_list results |> List.filter_map Fun.id |> List.map int_of_v
      in
      List.length values = n
      && match values with v :: rest -> List.for_all (( = ) v) rest | [] -> false)

let woreg_cases =
  [
    Alcotest.test_case "write-once" `Quick test_woreg_write_once;
    Alcotest.test_case "read ⊥ then value" `Quick
      test_woreg_read_bottom_then_value;
    Alcotest.test_case "indices independent" `Quick
      test_woreg_distinct_indices_independent;
    Alcotest.test_case "arrays independent" `Quick
      test_woreg_distinct_arrays_independent;
    QCheck_alcotest.to_alcotest prop_write_once_under_concurrency;
  ]

(* ------------------------------------------------------------------ *)
(* collection of retired instances *)

let fork_notes t ~pid name =
  List.length
    (List.filter
       (fun (e : Trace.entry) ->
         match e.event with
         | Trace.Note (p, s) -> p = pid && s = "fork " ^ name
         | _ -> false)
       (Trace.entries (Engine.trace t)))

let test_collects_retired_instances () =
  let counts = ref [] in
  let t =
    members_scenario ~n:3
      ~behave:(fun i agent ->
        if i = 0 then begin
          let count () = Consensus.Agent.instance_count agent in
          ignore (Consensus.Agent.propose agent ~key:"a" (V 1));
          ignore (Consensus.Agent.propose agent ~key:"b" (V 2));
          Rt.sleep 100.;
          let before = count () in
          Consensus.Agent.retire_when agent (fun key -> key <> "b");
          (* the rule alone removes nothing: its owner says when *)
          let ruled = count () in
          Consensus.Agent.release agent ~key:"a";
          let released = count () in
          (* decided under the rule: collected once both peers acked the
             relays, with no release *)
          ignore (Consensus.Agent.propose agent ~key:"c" (V 3));
          let deciding = count () in
          Rt.sleep 100.;
          counts := [ before; ruled; released; deciding; count () ]
        end)
      ()
  in
  ignore (Engine.run ~deadline:2_000. t);
  Alcotest.(check (list int)) "instances" [ 2; 2; 1; 2; 1 ] !counts

let test_stale_messages_leave_collected_key () =
  let counts = ref (-1, -1) in
  let t =
    members_scenario ~n:3
      ~behave:(fun i agent ->
        if i = 0 then begin
          Consensus.Agent.retire_when agent (fun _ -> true);
          ignore (Consensus.Agent.propose agent ~key:"k" (V 1));
          Rt.sleep 100.;
          let collected = Consensus.Agent.instance_count agent in
          Rt.sleep 400.;
          counts := (collected, Consensus.Agent.instance_count agent)
        end)
      ()
  in
  (* a late round message and a late decision from peer 1, long after the
     instance was collected at peer 0 *)
  Engine.schedule t ~delay:200. (fun () ->
      Engine.post t ~src:1 ~dst:0
        (Consensus.Agent.C_estimate { key = "k"; round = 3; est = None; ts = -1 });
      Engine.post t ~src:1 ~dst:0
        (Consensus.Agent.C_propose { key = "k"; round = 4; value = V 9 });
      Engine.post t ~src:1 ~dst:0
        (Consensus.Agent.C_decide { key = "k"; value = V 1 }));
  ignore (Engine.run ~deadline:2_000. t);
  Alcotest.(check (pair int int)) "no instance, before and after" (0, 0) !counts;
  Alcotest.(check int) "no driver forked for the stale messages" 1
    (fork_notes t ~pid:0 "consensus:k")

(* Register [j] of client 9's request [rid]: a classic key, which the
   agent orders among the client's keys. *)
let classic_key ~rid ~j =
  Consensus.Reg_name.key
    ~name:(Consensus.Reg_name.reg_d ~group:0 ~client:9 ~rid)
    ~j

(* A server that has not learned a retirement drives a register its
   peers already retired without ever holding it (a try of a request
   answered elsewhere from a cache), with the round-0 coordinator down:
   the retired peer takes part, so the register decides. *)
let test_retired_never_held_register_decides () =
  let key = classic_key ~rid:1017 ~j:1 in
  let got = ref None and peer1 = ref None in
  let t =
    members_scenario ~n:3
      ~behave:(fun i agent ->
        if i = 1 then begin
          Consensus.Agent.retire_when agent (fun _ -> true);
          Rt.sleep 1_000.;
          peer1 := Consensus.Agent.peek agent ~key
        end
        else if i = 2 then begin
          Rt.sleep 10.;
          got := Some (Consensus.Agent.propose agent ~key (V 5))
        end)
      ()
  in
  Engine.crash_at t 0.5 0;
  ignore (Engine.run ~deadline:2_000. t);
  (match !got with
  | Some v -> Alcotest.(check int) "the driver's register decides" 5 (int_of_v v)
  | None -> Alcotest.fail "the register never decided");
  match !peer1 with
  | Some v -> Alcotest.(check int) "the retired peer holds it" 5 (int_of_v v)
  | None -> Alcotest.fail "the retired peer never took part"

(* Once a classic key is collected, a late proposal for it, or for an
   earlier key of the same client, never re-creates the instance; a later
   key this agent never held does. *)
let test_collected_classic_keys_stay_gone () =
  let collected = classic_key ~rid:1017 ~j:1
  and earlier = classic_key ~rid:1016 ~j:3
  and later = classic_key ~rid:1018 ~j:1 in
  let late = ref (Some (V 0)) in
  let t =
    members_scenario ~n:3
      ~behave:(fun i agent ->
        if i = 0 then begin
          Consensus.Agent.retire_when agent (fun _ -> true);
          ignore (Consensus.Agent.propose agent ~key:collected (V 1));
          Rt.sleep 500.;
          late := Consensus.Agent.peek agent ~key:collected
        end)
      ()
  in
  Engine.schedule t ~delay:200. (fun () ->
      List.iter
        (fun key ->
          Engine.post t ~src:1 ~dst:0
            (Consensus.Agent.C_propose { key; round = 4; value = V 9 }))
        [ collected; earlier; later ]);
  ignore (Engine.run ~deadline:2_000. t);
  Alcotest.(check (list int)) "drivers forked at peer 0" [ 1; 0; 1 ]
    (List.map (fun key -> fork_notes t ~pid:0 ("consensus:" ^ key))
       [ collected; earlier; later ]);
  Alcotest.(check bool) "the collected key stays absent" true (!late = None)

let test_suspected_peer_pins_until_ack () =
  let counts = ref [] and late = ref None in
  let t =
    members_scenario ~n:3
      ~behave:(fun i agent ->
        if i = 0 then begin
          Consensus.Agent.retire_when agent (fun _ -> true);
          Rt.sleep 1.;
          ignore (Consensus.Agent.propose agent ~key:"k" (V 3));
          Rt.sleep 300.;
          (* peer 2 is down: the relay to it was never acked *)
          let pinned = Consensus.Agent.instance_count agent in
          Rt.sleep 700.;
          counts := [ pinned; Consensus.Agent.instance_count agent ]
        end
        else if i = 2 && Rt.now () > 100. then
          (* recovered: asks, and acks the answer *)
          late := Some (Consensus.Agent.propose agent ~key:"k" (V 4)))
      ()
  in
  Engine.crash_at t 0.5 2;
  Engine.recover_at t 400. 2;
  ignore (Engine.run ~deadline:3_000. t);
  Alcotest.(check (list int)) "pinned, then collected" [ 1; 0 ] !counts;
  match !late with
  | Some v -> Alcotest.(check int) "the decision" 3 (int_of_v v)
  | None -> Alcotest.fail "recovered peer got nothing"

let test_latecomer_gets_decide_after_driver_exit () =
  (* A server that asks about an instance long after it was decided (and
     its driver exited) must still learn the decision — the dispatcher's
     decided-instance service. *)
  let late = ref None and collected = ref (-1) in
  let t =
    members_scenario ~n:3
      ~behave:(fun i agent ->
        if i = 0 then ignore (Consensus.Agent.propose agent ~key:"k" (V 9))
        else if i = 1 then begin
          (* collect locally, then re-propose: the fresh driver's messages
             hit peers whose drivers are long gone *)
          Rt.sleep 300.;
          Consensus.Agent.retire_when agent (fun _ -> true);
          Consensus.Agent.release agent ~key:"k";
          collected := Consensus.Agent.instance_count agent;
          Consensus.Agent.retire_when agent (fun _ -> false);
          late := Some (Consensus.Agent.propose agent ~key:"k" (V 42))
        end)
      ()
  in
  ignore (Engine.run ~deadline:10_000. t);
  Alcotest.(check int) "collected locally" 0 !collected;
  match !late with
  | Some v ->
      (* the old decision wins: peers answer C_decide from their memory *)
      Alcotest.(check int) "old decision returned" 9 (int_of_v v)
  | None -> Alcotest.fail "late proposer got nothing"

(* ------------------------------------------------------------------ *)
(* Properties under random loss, delay, crashes and real failure
   detectors. *)

let prop_agreement_under_faults =
  QCheck.Test.make ~name:"consensus agreement+validity under faults" ~count:40
    QCheck.(
      triple (int_range 0 100_000) (float_range 0. 0.2) (int_range 0 2))
    (fun (seed, loss, crash_member) ->
      let n = 3 in
      let decisions = Array.make n None in
      let chans = Array.make n None in
      let net = Netmodel.lossy ~loss (Netmodel.lan ()) in
      let t =
        members_scenario ~seed ~net ~oracle_fd:false ~chans ~n
          ~behave:(fun i agent ->
            decisions.(i) <-
              Some (Consensus.Agent.propose agent ~key:"k" (V (100 + i))))
          ()
      in
      (* crash one member (a minority) at a random-ish time *)
      Engine.crash_at t (float_of_int (seed mod 17)) crash_member;
      let correct = List.filter (fun i -> i <> crash_member) [ 0; 1; 2 ] in
      let all_correct_decided () =
        List.for_all (fun i -> decisions.(i) <> None) correct
      in
      let ok = Engine.run_until ~deadline:60_000. t all_correct_decided in
      (* termination for correct members *)
      ok
      &&
      (* agreement + validity among those decided *)
      let values =
        List.filter_map (fun i -> decisions.(i)) correct |> List.map int_of_v
      in
      (match values with
      | [] -> false
      | v :: rest ->
          List.for_all (( = ) v) rest && List.mem v [ 100; 101; 102 ])
      &&
      (* nothing is still needed once every correct member decided: round
         messages of the decided instance and decisions relayed to the
         crashed (so eventually suspected) member are retired, so every
         correct member's outbox drains *)
      (ignore (Engine.run ~deadline:(Engine.now_of t +. 2_000.) t);
       List.for_all
         (fun i ->
           match chans.(i) with
           | Some ch -> Rchannel.pending ch = 0
           | None -> false)
         correct))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "consensus"
    [
      ( "agent",
        [
          Alcotest.test_case "single proposer" `Quick
            test_single_proposer_decides;
          Alcotest.test_case "concurrent proposers agree" `Quick
            test_concurrent_proposers_agree;
          Alcotest.test_case "decision survives crash" `Quick
            test_decision_survives_coordinator_crash_after_decide;
          Alcotest.test_case "coordinator rotation" `Quick
            test_crashed_initial_coordinator_rotation;
          Alcotest.test_case "primary writes in one round trip" `Quick
            test_latency_one_round_trip_for_primary;
          Alcotest.test_case "five members, minority crash" `Quick
            test_five_members_minority_crash;
          Alcotest.test_case "every local proposer wakes" `Quick
            test_every_local_proposer_wakes;
          Alcotest.test_case "failure-free write is one round" `Quick
            test_failure_free_write_one_round;
          Alcotest.test_case "relay survives a decider crash" `Quick
            test_relay_survives_decider_crash;
          Alcotest.test_case "acked participant moves on, oracle" `Quick
            (test_acked_participant_moves_on true);
          Alcotest.test_case "acked participant moves on, heartbeat" `Quick
            (test_acked_participant_moves_on false);
          Alcotest.test_case "participant gives up at the suspicion" `Quick
            test_participant_gives_up_at_suspicion;
          q prop_agreement_under_faults;
        ] );
      (* Alcotest sizes its name column by the longest group name and cuts
         test names to fit, so group names here stay at five characters. *)
      ("woreg", woreg_cases);
      ( "gc",
        [
          Alcotest.test_case "collects retired decided instances" `Quick
            test_collects_retired_instances;
          Alcotest.test_case "stale messages leave a collected key" `Quick
            test_stale_messages_leave_collected_key;
          Alcotest.test_case "retired never-held register decides" `Quick
            test_retired_never_held_register_decides;
          Alcotest.test_case "collected classic keys stay gone" `Quick
            test_collected_classic_keys_stay_gone;
          Alcotest.test_case "suspected peer pins until its ack" `Quick
            test_suspected_peer_pins_until_ack;
          Alcotest.test_case "latecomer after local GC" `Quick
            test_latecomer_gets_decide_after_driver_exit;
        ] );
    ]
