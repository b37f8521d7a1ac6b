(* Tests for the discrete-event simulation kernel. *)

open Dsim
open Runtime
module Rt = Runtime.Etx_runtime

type Types.payload += Ping of int | Pong of int

(* demux classes for the engine tests below; classification is global, so
   every Ping/Pong in this binary lands in these buckets — semantically
   invisible to the predicate-based tests *)
let cls_ping =
  Rt.register_class ~name:"test-ping" (function
    | Ping _ -> true
    | _ -> false)

let cls_pong =
  Rt.register_class ~name:"test-pong" (function
    | Pong _ -> true
    | _ -> false)

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Heap: the (time, push order) timer queue *)

let drain q =
  let rec go acc =
    if Timeq.is_empty q then List.rev acc else go (Timeq.pop q :: acc)
  in
  go []

let test_heap_ordering () =
  let q = Timeq.create ~dummy:0 () in
  List.iter (fun x -> Timeq.push q (float_of_int x) x) [ 5; 1; 4; 1; 3; 9; 2 ];
  Alcotest.(check (list int)) "sorted" [ 1; 1; 2; 3; 4; 5; 9 ] (drain q)

let test_heap_peek () =
  let q = Timeq.create ~dummy:"" () in
  Alcotest.check_raises "empty peek" (Invalid_argument "Timeq: empty")
    (fun () -> ignore (Timeq.min_time q));
  Timeq.push q 3. "c";
  Timeq.push q 1. "a";
  check_float "peek time" 1. (Timeq.min_time q);
  Alcotest.(check string) "peek value" "a" (Timeq.min_value q);
  Alcotest.(check int) "length: peeking leaves it queued" 2 (Timeq.length q)

let test_heap_equal_times () =
  let q = Timeq.create ~dummy:"" () in
  List.iter (fun v -> Timeq.push q 7. v) [ "a"; "b"; "c" ];
  Timeq.push q 2. "first";
  Timeq.push q 7. "d";
  Alcotest.(check (list string)) "push order among equal times"
    [ "first"; "a"; "b"; "c"; "d" ] (drain q)

let test_heap_clear () =
  let q = Timeq.create ~dummy:0 () in
  for i = 1 to 100 do
    Timeq.push q (float_of_int (i mod 7)) i
  done;
  Timeq.clear q;
  Alcotest.(check bool) "empty" true (Timeq.is_empty q);
  Alcotest.(check int) "length" 0 (Timeq.length q);
  Timeq.push q 1. 1;
  Timeq.push q 0. 0;
  Alcotest.(check (list int)) "usable after clear" [ 0; 1 ] (drain q)

(* a fresh payload at time 1, watched through [w] *)
let[@inline never] push_watched q w =
  let v = ref 42 in
  Weak.set w 0 (Some v);
  Timeq.push q 1. v

let test_heap_releases_payload () =
  (* neither a popped nor a cleared payload is kept alive by the queue's
     vacated slot, which a queue that empties keeps for reuse *)
  let q = Timeq.create ~dummy:(ref 0) () in
  let collected remove =
    let w = Weak.create 1 in
    push_watched q w;
    remove ();
    Gc.full_major ();
    not (Weak.check w 0)
  in
  Alcotest.(check bool) "popped" true
    (collected (fun () -> ignore (Sys.opaque_identity (Timeq.pop q))));
  Alcotest.(check bool) "cleared" true (collected (fun () -> Timeq.clear q));
  Alcotest.(check bool) "empty" true (Timeq.is_empty q)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains sorted" ~count:200
    QCheck.(list int)
    (fun xs ->
      let q = Timeq.create ~dummy:0 () in
      List.iter (fun x -> Timeq.push q (float_of_int x) x) xs;
      drain q = List.sort compare xs)

let prop_heap_stable_on_ties =
  (* Equal times drain in push order — the engine relies on this for
     determinism. *)
  QCheck.Test.make ~name:"heap FIFO among equal keys" ~count:200
    QCheck.(list (int_bound 5))
    (fun keys ->
      let q = Timeq.create ~dummy:(0, 0) () in
      List.iteri (fun i k -> Timeq.push q (float_of_int k) (k, i)) keys;
      let by_key (a, _) (b, _) = compare a b in
      drain q = List.stable_sort by_key (List.mapi (fun i k -> (k, i)) keys))

let prop_heap_matches_sorted_keys =
  (* pushes interleaved with pops, against a list kept sorted by
     (time, push number) *)
  QCheck.Test.make ~name:"heap agrees with a sorted key list" ~count:300
    QCheck.(small_list (option (int_bound 4)))
    (fun ops ->
      let q = Timeq.create ~dummy:(-1) () in
      let model = ref [] and n = ref 0 in
      List.for_all
        (function
          | Some k ->
              let time = float_of_int k /. 2. in
              incr n;
              Timeq.push q time !n;
              model := List.merge compare [ (time, !n) ] !model;
              Timeq.length q = List.length !model
          | None -> (
              match !model with
              | [] -> Timeq.is_empty q
              | (time, v) :: rest ->
                  model := rest;
                  Timeq.min_time q = time && Timeq.pop q = v))
        ops
      && drain q = List.map snd !model)

let prop_heap_remove =
  (* pushes, pops and removals at the root, a middle slot, the last slot or
     any slot, against a list kept sorted by (time, push number); the
     [moved] callback keeps every entry's slot *)
  QCheck.Test.make ~name:"heap removal keeps the order of the rest" ~count:500
    QCheck.(small_list (pair (int_bound 4) (int_bound 5)))
    (fun ops ->
      let slot = Hashtbl.create 16 in
      let q =
        Timeq.create ~moved:(fun v i -> Hashtbl.replace slot v i) ~dummy:(-1) ()
      in
      let model = ref [] and n = ref 0 in
      let at i =
        Hashtbl.fold (fun v j acc -> if j = i then v else acc) slot (-1)
      in
      let remove_slot i =
        let v = at i in
        Timeq.remove q i;
        model := List.filter (fun (_, v') -> v' <> v) !model;
        Hashtbl.find slot v = -1
      in
      let slots_agree () =
        List.for_all
          (fun (_, v) ->
            let i = Hashtbl.find slot v in
            i >= 0 && i < Timeq.length q && at i = v)
          !model
      in
      List.for_all
        (fun (op, k) ->
          let len = Timeq.length q in
          (match op with
          | 0 | 1 ->
              (* few distinct times, so many ties *)
              let time = float_of_int (k mod 3) in
              incr n;
              Timeq.push q time !n;
              model := List.merge compare [ (time, !n) ] !model;
              true
          | 2 -> (
              match !model with
              | [] -> Timeq.is_empty q
              | (_, v) :: rest ->
                  model := rest;
                  Timeq.pop q = v && Hashtbl.find slot v = -1)
          | _ ->
              len = 0
              || remove_slot
                   (match k with
                   | 0 -> 0
                   | 1 -> len / 2
                   | 2 -> len - 1
                   | _ -> k mod len))
          && Timeq.length q = List.length !model
          && slots_agree ())
        ops
      && drain q = List.map snd !model)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  Alcotest.(check bool) "different" false (Rng.int64 a = Rng.int64 b)

let test_rng_split_independent () =
  let a = Rng.create ~seed:7 in
  let c = Rng.split a in
  Alcotest.(check bool) "split differs" false (Rng.int64 a = Rng.int64 c)

let prop_rng_float_range =
  QCheck.Test.make ~name:"float in range" ~count:500 QCheck.(int_range 1 10000)
    (fun seed ->
      let r = Rng.create ~seed in
      let v = Rng.float r 3.5 in
      v >= 0. && v < 3.5)

let prop_rng_int_range =
  QCheck.Test.make ~name:"int in range" ~count:500
    QCheck.(pair (int_range 1 1000) (int_range 1 50))
    (fun (seed, bound) ->
      let r = Rng.create ~seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let test_rng_int_large_bound () =
  (* The bitmask-rejection sampler must stay uniform at bounds where a
     modulo fold visibly skews the distribution. With [bound = 3 * 2^60]
     the top third holds exactly 1/3 of the mass; check range and that the
     top third gets its share (3000 draws: expect ~1000, 3-sigma ~ 77). *)
  let bound = 3 * (1 lsl 60) in
  let r = Rng.create ~seed:12 in
  let hi = ref 0 in
  for _ = 1 to 3_000 do
    let v = Rng.int r bound in
    if v < 0 || v >= bound then Alcotest.failf "out of range: %d" v;
    if v >= 1 lsl 61 then incr hi
  done;
  Alcotest.(check bool)
    (Printf.sprintf "top third ~1/3 of draws (got %d/3000)" !hi)
    true
    (!hi > 850 && !hi < 1150);
  (* the extreme: bound = max_int — every draw in range, top half reachable *)
  let r = Rng.create ~seed:13 in
  let top = ref 0 in
  for _ = 1 to 1_000 do
    let v = Rng.int r max_int in
    if v < 0 || v >= max_int then Alcotest.failf "out of range: %d" v;
    if v > max_int / 2 then incr top
  done;
  Alcotest.(check bool)
    (Printf.sprintf "top half reachable at max_int (got %d/1000)" !top)
    true
    (!top > 400 && !top < 600)

let test_rng_bool_bias () =
  let r = Rng.create ~seed:3 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bool r 0.3 then incr hits
  done;
  let ratio = float_of_int !hits /. 10_000. in
  Alcotest.(check bool) "near 0.3" true (ratio > 0.27 && ratio < 0.33)

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:4 in
  let sum = ref 0. in
  for _ = 1 to 20_000 do
    sum := !sum +. Rng.exponential r ~mean:5.0
  done;
  let mean = !sum /. 20_000. in
  Alcotest.(check bool) "mean near 5" true (mean > 4.7 && mean < 5.3)


(* The SplitMix64 stream, pinned: every seeded run depends on it. *)
let test_rng_stream_pinned () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:0xC0FFEE in
  List.iter
    (fun v -> Alcotest.(check int64) "seed 1" v (Rng.int64 a))
    [ -7995527694508729151L; -4689498862643123097L; -534904783426661026L ];
  List.iter
    (fun v -> Alcotest.(check int64) "seed 0xC0FFEE" v (Rng.int64 b))
    [ -3854493065656348422L; -1376874792606038919L; -8665326297722227765L ];
  let c = Rng.split b in
  List.iter
    (fun v -> Alcotest.(check int64) "split" v (Rng.int64 c))
    [ -3419193272631046601L; 3706606359376221735L; 1558460143916937189L ];
  Alcotest.(check int64) "parent after split" (-4375855199308403592L)
    (Rng.int64 b);
  let d = Rng.create ~seed:5 in
  Alcotest.(check (float 0.)) "float" 0x1.8c0cec328e27p-2 (Rng.float d 1.0);
  Alcotest.(check int) "int" 446 (Rng.int d 1000);
  Alcotest.(check bool) "bool" true (Rng.bool d 0.5)

(* The state is unboxed: a draw allocates nothing of its own. A float
   returned across a module boundary is boxed by the caller's convention
   (two words) unless the call is inlined, which the development build's
   [-opaque] rules out, so [Rng.float] is held to that box. *)
let test_rng_draws_do_not_allocate () =
  let r = Rng.create ~seed:9 in
  let n = 10_000 in
  let hits = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    if Rng.bool r 0.5 then incr hits
  done;
  let w1 = Gc.minor_words () in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.float r 1.0
  done;
  let w2 = Gc.minor_words () in
  Alcotest.(check bool) "draws happened" true (!hits > 0 && !sum > 0.);
  Alcotest.(check (float 0.)) "Rng.bool: 0 words" 0. (w1 -. w0);
  Alcotest.(check bool)
    (Printf.sprintf "Rng.float: at most its result box (%.0f words)" (w2 -. w1))
    true
    (w2 -. w1 <= float_of_int (2 * n))

(* ------------------------------------------------------------------ *)
(* Engine basics *)

let test_sleep_ordering () =
  let t = Engine.create () in
  let log = ref [] in
  let mark tag = log := tag :: !log in
  let _ =
    Engine.spawn t ~name:"a" ~main:(fun ~recovery:_ () ->
        Rt.sleep 10.;
        mark "a10";
        Rt.sleep 20.;
        mark "a30")
  in
  let _ =
    Engine.spawn t ~name:"b" ~main:(fun ~recovery:_ () ->
        Rt.sleep 5.;
        mark "b5";
        Rt.sleep 20.;
        mark "b25")
  in
  let outcome = Engine.run t in
  Alcotest.(check bool) "quiescent" true (outcome = Engine.Quiescent);
  Alcotest.(check (list string))
    "order" [ "b5"; "a10"; "b25"; "a30" ] (List.rev !log)

let test_virtual_time_advances () =
  let t = Engine.create () in
  let seen = ref 0. in
  let _ =
    Engine.spawn t ~name:"p" ~main:(fun ~recovery:_ () ->
        Rt.sleep 42.5;
        seen := Rt.now ())
  in
  ignore (Engine.run t);
  check_float "time" 42.5 !seen;
  check_float "engine clock" 42.5 (Engine.now_of t)

let test_send_recv () =
  let t = Engine.create () in
  let got = ref None in
  let receiver =
    Engine.spawn t ~name:"rx" ~main:(fun ~recovery:_ () ->
        match Rt.recv_any () with
        | Some m -> got := Some m.Types.payload
        | None -> ())
  in
  let _ =
    Engine.spawn t ~name:"tx" ~main:(fun ~recovery:_ () ->
        Rt.send receiver (Ping 7))
  in
  ignore (Engine.run t);
  Alcotest.(check bool) "got ping" true (!got = Some (Ping 7))

let test_selective_receive () =
  let t = Engine.create () in
  let order = ref [] in
  let receiver =
    Engine.spawn t ~name:"rx" ~main:(fun ~recovery:_ () ->
        (* Wait for Pong first even though Ping arrives first. *)
        (match
           Rt.recv
             ~filter:(fun m ->
               match m.Types.payload with Pong _ -> true | _ -> false)
             ()
         with
        | Some { payload = Pong n; _ } -> order := ("pong", n) :: !order
        | _ -> ());
        match Rt.recv_any () with
        | Some { payload = Ping n; _ } -> order := ("ping", n) :: !order
        | _ -> ())
  in
  let _ =
    Engine.spawn t ~name:"tx" ~main:(fun ~recovery:_ () ->
        Rt.send receiver (Ping 1);
        Rt.sleep 5.;
        Rt.send receiver (Pong 2))
  in
  ignore (Engine.run t);
  Alcotest.(check (list (pair string int)))
    "pong then queued ping"
    [ ("pong", 2); ("ping", 1) ]
    (List.rev !order)

let test_recv_timeout () =
  let t = Engine.create () in
  let result = ref (Some ()) in
  let at = ref 0. in
  let _ =
    Engine.spawn t ~name:"rx" ~main:(fun ~recovery:_ () ->
        (match Rt.recv_any ~timeout:25. () with
        | Some _ -> ()
        | None -> result := None);
        at := Rt.now ())
  in
  ignore (Engine.run t);
  Alcotest.(check bool) "timed out" true (!result = None);
  check_float "at timeout" 25. !at

let test_recv_timeout_beaten_by_message () =
  let t = Engine.create () in
  let got = ref false in
  let receiver =
    Engine.spawn t ~name:"rx" ~main:(fun ~recovery:_ () ->
        match Rt.recv_any ~timeout:50. () with
        | Some _ -> got := true
        | None -> ())
  in
  let _ =
    Engine.spawn t ~name:"tx" ~main:(fun ~recovery:_ () ->
        Rt.sleep 10.;
        Rt.send receiver (Ping 0))
  in
  ignore (Engine.run t);
  Alcotest.(check bool) "message won" true !got

let test_fork_shares_mailbox () =
  let t = Engine.create () in
  let tags = ref [] in
  let receiver =
    Engine.spawn t ~name:"rx" ~main:(fun ~recovery:_ () ->
        Rt.fork "pong-handler" (fun () ->
            match
              Rt.recv
                ~filter:(fun m ->
                  match m.Types.payload with Pong _ -> true | _ -> false)
                ()
            with
            | Some _ -> tags := "pong" :: !tags
            | None -> ());
        match
          Rt.recv
            ~filter:(fun m ->
              match m.Types.payload with Ping _ -> true | _ -> false)
            ()
        with
        | Some _ -> tags := "ping" :: !tags
        | None -> ())
  in
  let _ =
    Engine.spawn t ~name:"tx" ~main:(fun ~recovery:_ () ->
        Rt.sleep 1.;
        Rt.send receiver (Pong 0);
        Rt.sleep 1.;
        Rt.send receiver (Ping 0))
  in
  ignore (Engine.run t);
  Alcotest.(check (list string)) "both fibers got their message"
    [ "pong"; "ping" ] (List.rev !tags)

let test_work_traced () =
  let reg = Obs.Registry.create () in
  let t = Engine.create ~obs:reg () in
  let _ =
    Engine.spawn t ~name:"p" ~main:(fun ~recovery:_ () ->
        Rt.work "sql" 187.;
        Rt.work "sql" 6.;
        Rt.work "commit" 18.6)
  in
  ignore (Engine.run t);
  (* work charges land in the registry's per-label histograms *)
  List.iter
    (fun (name, total, slices) ->
      match Obs.Registry.merged_histogram reg name with
      | Some h ->
          Alcotest.(check (float 1e-9)) (name ^ " total") total
            (Obs.Histogram.sum h);
          Alcotest.(check int) (name ^ " slices") slices
            (Obs.Histogram.count h)
      | None -> Alcotest.failf "no %s histogram" name)
    [ ("work.sql", 193., 2); ("work.commit", 18.6, 1) ]

(* ------------------------------------------------------------------ *)
(* Crash / recovery *)

let test_crash_drops_sleeper () =
  let t = Engine.create () in
  let woke = ref false in
  let victim =
    Engine.spawn t ~name:"v" ~main:(fun ~recovery:_ () ->
        Rt.sleep 100.;
        woke := true)
  in
  Engine.crash_at t 50. victim;
  ignore (Engine.run t);
  Alcotest.(check bool) "never woke" false !woke

let test_recovery_flag () =
  let t = Engine.create () in
  let runs = ref [] in
  let victim =
    Engine.spawn t ~name:"v" ~main:(fun ~recovery () ->
        runs := recovery :: !runs;
        Rt.sleep 1000.)
  in
  Engine.crash_at t 10. victim;
  Engine.recover_at t 20. victim;
  ignore (Engine.run ~deadline:500. t);
  Alcotest.(check (list bool)) "initial then recovery" [ false; true ]
    (List.rev !runs)

let test_message_to_down_process_lost () =
  let t = Engine.create () in
  let got = ref false in
  let receiver =
    Engine.spawn t ~name:"rx" ~main:(fun ~recovery:_ () ->
        match Rt.recv_any () with Some _ -> got := true | None -> ())
  in
  Engine.crash_at t 1. receiver;
  let _ =
    Engine.spawn t ~name:"tx" ~main:(fun ~recovery:_ () ->
        Rt.sleep 5.;
        Rt.send receiver (Ping 1))
  in
  Engine.recover_at t 20. receiver;
  ignore (Engine.run ~deadline:100. t);
  Alcotest.(check bool) "message was lost" false !got

let test_mailbox_cleared_on_crash () =
  let t = Engine.create () in
  let got = ref 0 in
  let receiver =
    Engine.spawn t ~name:"rx" ~main:(fun ~recovery () ->
        if recovery then
          match Rt.recv_any ~timeout:100. () with
          | Some _ -> incr got
          | None -> ())
  in
  let _ =
    Engine.spawn t ~name:"tx" ~main:(fun ~recovery:_ () ->
        Rt.send receiver (Ping 1))
  in
  (* Message delivered at t=1 into the mailbox; crash at t=5 must clear it. *)
  Engine.crash_at t 5. receiver;
  Engine.recover_at t 10. receiver;
  ignore (Engine.run t);
  Alcotest.(check int) "nothing survived the crash" 0 !got

let test_incarnation_fences_stale_wakeups () =
  let t = Engine.create () in
  let wakes = ref 0 in
  let victim =
    Engine.spawn t ~name:"v" ~main:(fun ~recovery () ->
        if not recovery then begin
          Rt.sleep 100.;
          incr wakes
        end)
  in
  Engine.crash_at t 50. victim;
  Engine.recover_at t 60. victim;
  ignore (Engine.run t);
  (* The pre-crash sleep must not fire after recovery. *)
  Alcotest.(check int) "no stale wake" 0 !wakes

let test_is_up () =
  let t = Engine.create () in
  let p = Engine.spawn t ~name:"p" ~main:(fun ~recovery:_ () -> ()) in
  Alcotest.(check bool) "up" true (Engine.is_up t p);
  Engine.crash t p;
  Alcotest.(check bool) "down" false (Engine.is_up t p);
  Engine.recover t p;
  Alcotest.(check bool) "up again" true (Engine.is_up t p)

(* ------------------------------------------------------------------ *)
(* Network model, determinism, run control *)

let test_lossy_network_drops () =
  let net _rng ~src:_ ~dst:_ = [] in
  let t = Engine.create ~net () in
  let got = ref false in
  let receiver =
    Engine.spawn t ~name:"rx" ~main:(fun ~recovery:_ () ->
        match Rt.recv_any ~timeout:100. () with
        | Some _ -> got := true
        | None -> ())
  in
  let _ =
    Engine.spawn t ~name:"tx" ~main:(fun ~recovery:_ () ->
        Rt.send receiver (Ping 1))
  in
  ignore (Engine.run t);
  Alcotest.(check bool) "dropped" false !got

let test_duplicating_network () =
  let net _rng ~src:_ ~dst:_ = [ 1.0; 2.0; 3.0 ] in
  let t = Engine.create ~net () in
  let count = ref 0 in
  let receiver =
    Engine.spawn t ~name:"rx" ~main:(fun ~recovery:_ () ->
        let rec loop () =
          match Rt.recv_any ~timeout:50. () with
          | Some _ ->
              incr count;
              loop ()
          | None -> ()
        in
        loop ())
  in
  let _ =
    Engine.spawn t ~name:"tx" ~main:(fun ~recovery:_ () ->
        Rt.send receiver (Ping 1))
  in
  ignore (Engine.run t);
  Alcotest.(check int) "three copies" 3 !count

let test_self_send_bypasses_loss () =
  let net _rng ~src:_ ~dst:_ = [] in
  let t = Engine.create ~net () in
  let got = ref false in
  let _ =
    Engine.spawn t ~name:"p" ~main:(fun ~recovery:_ () ->
        Rt.send (Rt.self ()) (Ping 9);
        match Rt.recv_any ~timeout:10. () with
        | Some _ -> got := true
        | None -> ())
  in
  ignore (Engine.run t);
  Alcotest.(check bool) "self delivery" true !got

let test_redeliver () =
  let t = Engine.create () in
  let src_seen = ref (-1) in
  let _ =
    Engine.spawn t ~name:"p" ~main:(fun ~recovery:_ () ->
        Rt.redeliver ~src:42 (Ping 5);
        match Rt.recv_any ~timeout:10. () with
        | Some m -> src_seen := m.Types.src
        | None -> ())
  in
  ignore (Engine.run t);
  Alcotest.(check int) "attributed src" 42 !src_seen

let run_trace_of seed =
  let t = Engine.create ~seed () in
  let events = ref [] in
  let b =
    Engine.spawn t ~name:"b" ~main:(fun ~recovery:_ () ->
        let rec loop () =
          match Rt.recv_any ~timeout:30. () with
          | Some m ->
              events := (Rt.now (), m.Types.msg_id) :: !events;
              loop ()
          | None -> ()
        in
        loop ())
  in
  let _ =
    Engine.spawn t ~name:"a" ~main:(fun ~recovery:_ () ->
        for i = 1 to 10 do
          Rt.sleep (Rng.float (Engine.rng t) 3.);
          Rt.send b (Ping i)
        done)
  in
  ignore (Engine.run t);
  !events

let test_determinism_same_seed () =
  Alcotest.(check bool)
    "identical traces" true
    (run_trace_of 123 = run_trace_of 123)

let test_determinism_different_seed () =
  Alcotest.(check bool)
    "different traces" false
    (run_trace_of 123 = run_trace_of 124)

let test_run_deadline () =
  let t = Engine.create () in
  let ticks = ref 0 in
  let _ =
    Engine.spawn t ~name:"ticker" ~main:(fun ~recovery:_ () ->
        let rec loop () =
          Rt.sleep 10.;
          incr ticks;
          loop ()
        in
        loop ())
  in
  let outcome = Engine.run ~deadline:95. t in
  Alcotest.(check bool) "deadline" true (outcome = Engine.Deadline_reached);
  Alcotest.(check int) "nine ticks" 9 !ticks

let test_run_until_pred () =
  let t = Engine.create () in
  let ticks = ref 0 in
  let _ =
    Engine.spawn t ~name:"ticker" ~main:(fun ~recovery:_ () ->
        let rec loop () =
          Rt.sleep 10.;
          incr ticks;
          loop ()
        in
        loop ())
  in
  let ok = Engine.run_until ~deadline:1000. t (fun () -> !ticks >= 5) in
  Alcotest.(check bool) "pred reached" true ok;
  Alcotest.(check int) "stopped promptly" 5 !ticks

let test_post_from_orchestration () =
  let t = Engine.create () in
  let got = ref false in
  let receiver =
    Engine.spawn t ~name:"rx" ~main:(fun ~recovery:_ () ->
        match Rt.recv_any ~timeout:100. () with
        | Some _ -> got := true
        | None -> ())
  in
  Engine.schedule t ~delay:5. (fun () ->
      Engine.post t ~src:99 ~dst:receiver (Ping 1));
  ignore (Engine.run t);
  Alcotest.(check bool) "posted" true !got

let test_stop_interrupts_run () =
  let t = Engine.create () in
  let ticks = ref 0 in
  let _ =
    Engine.spawn t ~name:"ticker" ~main:(fun ~recovery:_ () ->
        let rec loop () =
          Rt.sleep 10.;
          incr ticks;
          if !ticks = 3 then Engine.stop t;
          loop ()
        in
        loop ())
  in
  let outcome = Engine.run t in
  Alcotest.(check bool) "stopped" true (outcome = Engine.Stopped);
  Alcotest.(check int) "exactly three" 3 !ticks

let test_exit_fiber () =
  let t = Engine.create () in
  let after = ref false in
  let _ =
    Engine.spawn t ~name:"p" ~main:(fun ~recovery:_ () ->
        Rt.fork "child" (fun () ->
            Rt.exit_fiber () |> ignore);
        Rt.sleep 1.;
        after := true)
  in
  let outcome = Engine.run t in
  Alcotest.(check bool) "clean quiescence" true (outcome = Engine.Quiescent);
  Alcotest.(check bool) "siblings unaffected" true !after

let test_zero_sleep_and_timeout () =
  let t = Engine.create () in
  let order = ref [] in
  let _ =
    Engine.spawn t ~name:"p" ~main:(fun ~recovery:_ () ->
        order := "before" :: !order;
        Rt.sleep 0.;
        order := "after-sleep0" :: !order;
        (match Rt.recv_any ~timeout:0. () with
        | None -> order := "timeout0" :: !order
        | Some _ -> ());
        order := "done" :: !order)
  in
  ignore (Engine.run t);
  Alcotest.(check (list string))
    "zero delays are fine"
    [ "before"; "after-sleep0"; "timeout0"; "done" ]
    (List.rev !order)

let test_nested_fork () =
  let t = Engine.create () in
  let depth = ref 0 in
  let _ =
    Engine.spawn t ~name:"p" ~main:(fun ~recovery:_ () ->
        Rt.fork "child" (fun () ->
            incr depth;
            Rt.fork "grandchild" (fun () ->
                incr depth;
                Rt.fork "great" (fun () -> incr depth))))
  in
  ignore (Engine.run t);
  Alcotest.(check int) "all generations ran" 3 !depth

let test_fork_dies_with_process () =
  let t = Engine.create () in
  let child_woke = ref false in
  let p =
    Engine.spawn t ~name:"p" ~main:(fun ~recovery () ->
        if not recovery then begin
          Rt.fork "child" (fun () ->
              Rt.sleep 100.;
              child_woke := true);
          Rt.sleep 1_000.
        end)
  in
  Engine.crash_at t 50. p;
  Engine.recover_at t 60. p;
  ignore (Engine.run t);
  Alcotest.(check bool) "forked fiber died with the crash" false !child_woke

let test_send_all () =
  let t = Engine.create () in
  let got = ref 0 in
  let receivers =
    List.init 3 (fun i ->
        Engine.spawn t
          ~name:(Printf.sprintf "rx%d" i)
          ~main:(fun ~recovery:_ () ->
            match Rt.recv_any ~timeout:100. () with
            | Some _ -> incr got
            | None -> ()))
  in
  let _ =
    Engine.spawn t ~name:"tx" ~main:(fun ~recovery:_ () ->
        Rt.send_all receivers (Ping 3))
  in
  ignore (Engine.run t);
  Alcotest.(check int) "all three got it" 3 !got

let test_name_and_is_up_accessors () =
  let t = Engine.create () in
  let p = Engine.spawn t ~name:"alice" ~main:(fun ~recovery:_ () -> ()) in
  Alcotest.(check string) "name" "alice" (Engine.name_of t p);
  Alcotest.check_raises "unknown pid"
    (Invalid_argument "Engine: unknown process 99") (fun () ->
      ignore (Engine.name_of t 99))

(* ------------------------------------------------------------------ *)
(* Trace analyses *)

let test_communication_steps_chain () =
  let t = Engine.create () in
  (* a -> b -> c is two sequential steps. *)
  let c =
    Engine.spawn t ~name:"c" ~main:(fun ~recovery:_ () ->
        ignore (Rt.recv_any ~timeout:100. ()))
  in
  let b =
    Engine.spawn t ~name:"b" ~main:(fun ~recovery:_ () ->
        match Rt.recv_any ~timeout:100. () with
        | Some _ -> Rt.send c (Ping 2)
        | None -> ())
  in
  let _ =
    Engine.spawn t ~name:"a" ~main:(fun ~recovery:_ () ->
        Rt.send b (Ping 1))
  in
  ignore (Engine.run t);
  Alcotest.(check int) "messages" 2 (Trace.message_count (Engine.trace t));
  Alcotest.(check int) "steps" 2
    (Trace.communication_steps (Engine.trace t))

let test_communication_steps_parallel () =
  let t = Engine.create () in
  (* a multicasts to b and c in parallel: 2 messages but 1 step. *)
  let b =
    Engine.spawn t ~name:"b" ~main:(fun ~recovery:_ () ->
        ignore (Rt.recv_any ~timeout:100. ()))
  in
  let c =
    Engine.spawn t ~name:"c" ~main:(fun ~recovery:_ () ->
        ignore (Rt.recv_any ~timeout:100. ()))
  in
  let _ =
    Engine.spawn t ~name:"a" ~main:(fun ~recovery:_ () ->
        Rt.send_all [ b; c ] (Ping 1))
  in
  ignore (Engine.run t);
  Alcotest.(check int) "messages" 2 (Trace.message_count (Engine.trace t));
  Alcotest.(check int) "steps" 1
    (Trace.communication_steps (Engine.trace t))

let prop_engine_deterministic =
  QCheck.Test.make ~name:"engine deterministic per seed" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed -> run_trace_of seed = run_trace_of seed)

(* ------------------------------------------------------------------ *)
(* Message handlers *)

(* A reliable-channel frame is handled inside its delivery event: the ack
   leaves at the delivery instant and no receive fiber is forked. *)
let test_frame_handler_acks_at_delivery () =
  let t = Engine.create ~net:(Dnet.Netmodel.constant 1.0) () in
  let got = ref [] in
  let rx =
    Engine.spawn t ~name:"rx" ~main:(fun ~recovery:_ () ->
        let ch = Dnet.Rchannel.create () in
        Dnet.Rchannel.start ch;
        match Rt.recv_cls cls_ping with
        | Some { Types.payload = Ping n; _ } -> got := [ (n, Rt.now ()) ]
        | _ -> ())
  in
  let _ =
    Engine.spawn t ~name:"tx" ~main:(fun ~recovery:_ () ->
        let ch = Dnet.Rchannel.create () in
        Dnet.Rchannel.start ch;
        Dnet.Rchannel.send ch rx (Ping 4))
  in
  ignore (Engine.run t);
  Alcotest.(check (list (pair int (float 1e-9)))) "delivered at 1.0"
    [ (4, 1.0) ] !got;
  let entries = Trace.entries (Engine.trace t) in
  let acks =
    List.filter_map
      (fun (en : Trace.entry) ->
        match en.event with
        | Trace.Sent (m, _) when m.src = rx && Dnet.Rchannel.is_overhead m.payload
          ->
            Some en.at
        | _ -> None)
      entries
  in
  Alcotest.(check (list (float 1e-9))) "ack sent at the delivery" [ 1.0 ] acks;
  let forks =
    List.filter_map
      (fun (en : Trace.entry) ->
        match en.event with
        | Trace.Note (pid, s) when pid = rx -> Some s
        | _ -> None)
      entries
  in
  Alcotest.(check (list string)) "a channel forks nothing" [] forks

let test_ended_wait_leaves_nothing_queued () =
  (* a receive that a message ends, and a wait that a wake ends: neither
     leaves its 100 ms timeout queued, so the run goes quiescent at the
     delivery and at the wake *)
  let t = Engine.create () in
  let got = ref None in
  let rx =
    Engine.spawn t ~name:"rx" ~main:(fun ~recovery:_ () ->
        got :=
          Option.map
            (fun _ -> Rt.now ())
            (Rt.recv_cls ~timeout:100. cls_ping))
  in
  let _ =
    Engine.spawn t ~name:"tx" ~main:(fun ~recovery:_ () ->
        Rt.send rx (Ping 1))
  in
  Alcotest.(check bool) "quiescent" true (Engine.run t = Engine.Quiescent);
  Alcotest.(check (option (float 1e-9))) "received at 1.0" (Some 1.0) !got;
  check_float "quiescent at the delivery" 1.0 (Engine.now_of t);
  let t = Engine.create () in
  let woke = ref None in
  let _ =
    Engine.spawn t ~name:"w" ~main:(fun ~recovery:_ () ->
        let w = Etx_runtime.Wake.create () in
        Rt.fork "waker" (fun () ->
            Rt.sleep 5.;
            Etx_runtime.Wake.wake w);
        Etx_runtime.Wake.sleep w w 100.;
        woke := Some (Rt.now ()))
  in
  Alcotest.(check bool) "quiescent" true (Engine.run t = Engine.Quiescent);
  Alcotest.(check (option (float 1e-9))) "woken at 5" (Some 5.) !woke;
  check_float "quiescent at the wake" 5. (Engine.now_of t)

let test_timer_fenced_by_incarnation () =
  (* a timer armed before a crash never runs, not even once the process
     has recovered; one armed by the new incarnation runs *)
  let t = Engine.create () in
  let fired = ref [] in
  let p =
    Engine.spawn t ~name:"p" ~main:(fun ~recovery () ->
        let label = if recovery then "recovered" else "first" in
        let tm =
          Etx_runtime.timer (fun () ->
              fired := (label, Rt.now ()) :: !fired)
        in
        Etx_runtime.arm tm (if recovery then 30. else 50.);
        Rt.sleep 1_000.)
  in
  Engine.crash_at t 10. p;
  Engine.recover_at t 20. p;
  ignore (Engine.run t);
  Alcotest.(check (list (pair string (float 1e-9))))
    "only the recovered incarnation's timer" [ ("recovered", 50.) ] !fired

let test_timer_arm_cancel () =
  (* arming an armed timer moves it; a cancelled one never runs; the
     callback runs with its process's context *)
  let t = Engine.create () in
  let fired = ref [] in
  let at name () = fired := (name, Rt.now (), Rt.self ()) :: !fired in
  let p =
    Engine.spawn t ~name:"p" ~main:(fun ~recovery:_ () ->
        let a = Etx_runtime.timer (at "a")
        and b = Etx_runtime.timer (at "b")
        and c = Etx_runtime.timer (at "c") in
        Etx_runtime.arm a 10.;
        Etx_runtime.arm b 20.;
        Etx_runtime.arm c 40.;
        Etx_runtime.arm a 30.;
        Rt.sleep 25.;
        Etx_runtime.cancel c;
        Etx_runtime.cancel c;
        Etx_runtime.cancel b)
  in
  ignore (Engine.run t);
  Alcotest.(check (list (triple string (float 1e-9) int)))
    "a moved to 30, b ran at 20, c cancelled" [ ("b", 20., p); ("a", 30., p) ]
    (List.rev !fired);
  check_float "nothing left queued" 30. (Engine.now_of t);
  let t = Engine.create () in
  let _ =
    Engine.spawn t ~name:"p" ~main:(fun ~recovery:_ () ->
        Etx_runtime.arm (Etx_runtime.timer (fun () -> Rt.sleep 1.)) 5.)
  in
  Alcotest.check_raises "a suspending callback raises"
    (Invalid_argument "Etx_runtime.timer: a timer callback must not suspend")
    (fun () -> ignore (Engine.run t))

let suspended =
  Invalid_argument "Etx_runtime.on_message: a message handler must not suspend"

let test_handler_that_receives_raises () =
  (* at a delivery event, outside every fiber *)
  let t = Engine.create () in
  let p =
    Engine.spawn t ~name:"p" ~main:(fun ~recovery:_ () ->
        Rt.on_message cls_ping (fun _ -> ignore (Rt.recv_any ())))
  in
  let _ =
    Engine.spawn t ~name:"q" ~main:(fun ~recovery:_ () -> Rt.send p (Ping 1))
  in
  Alcotest.check_raises "delivery" suspended (fun () -> ignore (Engine.run t));
  (* inside the registering fiber, through a redelivery *)
  let t = Engine.create () in
  let _ =
    Engine.spawn t ~name:"p" ~main:(fun ~recovery:_ () ->
        Rt.on_message cls_ping (fun _ -> Rt.sleep 1.);
        Rt.redeliver ~src:0 (Ping 2))
  in
  Alcotest.check_raises "redelivery" suspended (fun () -> ignore (Engine.run t));
  (* one handler per class *)
  let t = Engine.create () in
  let _ =
    Engine.spawn t ~name:"p" ~main:(fun ~recovery:_ () ->
        Rt.on_message cls_ping ignore;
        Rt.on_message cls_ping ignore)
  in
  Alcotest.check_raises "second handler"
    (Invalid_argument "Etx_runtime.on_message: p already handles class test-ping")
    (fun () -> ignore (Engine.run t));
  (* outside any fiber the direct calls raise, and obs answers None *)
  Alcotest.(check bool) "obs outside" true (Etx_runtime.obs () = None);
  Alcotest.check_raises "now outside"
    (Failure "Etx_runtime.now: called outside a fiber") (fun () ->
      ignore (Rt.now ()))

let test_handlers_cleared_by_crash_and_recovery () =
  let t = Engine.create ~net:(Dnet.Netmodel.constant 1.0) () in
  let handled = ref [] in
  let register () =
    Rt.on_message cls_ping (function
      | { Types.payload = Ping n; _ } -> handled := (n, Rt.now ()) :: !handled
      | _ -> ())
  in
  let p =
    Engine.spawn t ~name:"p" ~main:(fun ~recovery () ->
        if recovery then Rt.sleep 50.;
        register ())
  in
  let q = Engine.spawn t ~name:"q" ~main:(fun ~recovery:_ () -> ()) in
  List.iter
    (fun (at, n) ->
      Engine.schedule t ~delay:at (fun () -> Engine.post t ~src:q ~dst:p (Ping n)))
    [ (0., 1); (19., 2) ];
  Engine.crash_at t 5. p;
  Engine.recover_at t 10. p;
  ignore (Engine.run ~deadline:30. t);
  Alcotest.(check (list (pair int (float 1e-9)))) "only the first handled"
    [ (1, 1.0) ] !handled;
  Alcotest.(check int) "second queued" 1 (Engine.mailbox_length t ~cls:cls_ping p);
  ignore (Engine.run t);
  Alcotest.(check (list (pair int (float 1e-9))))
    "re-registration takes the queued one" [ (2, 60.); (1, 1.0) ] !handled;
  Alcotest.(check int) "mailbox empty" 0 (Engine.mailbox_length t ~cls:cls_ping p)

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_pool_preserves_order () =
  let items = List.init 100 Fun.id in
  let out = Pool.map ~domains:4 (fun x -> x * x) items in
  Alcotest.(check (list int)) "order" (List.map (fun x -> x * x) items) out

let test_pool_matches_sequential () =
  let items = List.init 37 (fun i -> i * 13) in
  let f x = Printf.sprintf "%d:%d" x (x mod 7) in
  Alcotest.(check (list string)) "parity" (Pool.map ~domains:1 f items)
    (Pool.map ~domains:4 f items)

(* A small cluster trial with a heartbeat detector and a primary crash:
   each domain installs its own engine's context, so 2 domains render what
   1 does. *)
let cluster_trial seed =
  let e, c =
    Harness.Simrun.cluster ~seed ~shards:1
      ~fd_spec:
        (Etx.Appserver.Fd_heartbeat
           { period = 10.; initial_timeout = 60.; timeout_bump = 30. })
      ~seed_data:(Workload.Bank.seed_accounts [ ("a0", 100); ("a1", 100) ])
      ~business:Workload.Bank.update
      ~scripts:
        [
          (fun ~issue -> List.iter (fun b -> ignore (issue b)) [ "a0:1"; "a0:2" ]);
          (fun ~issue -> ignore (issue "a1:5"));
        ]
      ()
  in
  Engine.crash_at e 150. (Cluster.primary c ~shard:0);
  let quiesced = Cluster.run_to_quiescence ~deadline:60_000. c in
  let records =
    List.sort compare
      (List.map
         (fun (r : Etx.Client.record) ->
           Printf.sprintf "r%d tries=%d at=%.17g" r.rid r.tries r.delivered_at)
         (Cluster.all_records c))
  in
  String.concat "\n"
    (Printf.sprintf "seed %d quiesced %b events %d" seed quiesced
       (Engine.events_of e)
    :: records)

let test_pool_cluster_parity () =
  let seeds = [ 1; 2; 3; 4 ] in
  let one = Pool.map ~domains:1 cluster_trial seeds in
  List.iter
    (fun s ->
      match String.split_on_char '\n' s with
      | head :: records ->
          Alcotest.(check int) (head ^ ": every request delivered") 3
            (List.length records)
      | [] -> assert false)
    one;
  Alcotest.(check (list string)) "2 domains = 1" one
    (Pool.map ~domains:2 cluster_trial seeds)

exception Pool_boom of int

let test_pool_propagates_exception () =
  Alcotest.check_raises "raises" (Pool_boom 5) (fun () ->
      ignore
        (Pool.map ~domains:4
           (fun x -> if x = 5 then raise (Pool_boom 5) else x)
           (List.init 20 Fun.id)))

let test_pool_empty_and_oversized () =
  Alcotest.(check (list int)) "empty" [] (Pool.map ~domains:8 Fun.id []);
  (* more domains than items must clamp, not spawn idle domains *)
  Alcotest.(check (list int)) "clamped" [ 1; 2 ]
    (Pool.map ~domains:64 Fun.id [ 1; 2 ])

(* ------------------------------------------------------------------ *)
(* Mailbox growth regression: enqueueing n messages into a process that
   never receives must be ~O(n). The pre-deque representation appended with
   [mailbox @ [m]] — O(n) each, quadratic overall — which takes tens of
   seconds at this size; the deque version finishes in milliseconds. *)

let test_mailbox_enqueue_linear () =
  let n = 20_000 in
  let t = Engine.create ~tracing:false () in
  let sink =
    Engine.spawn t ~name:"sink" ~main:(fun ~recovery:_ () ->
        Rt.sleep 1e12)
  in
  let _ =
    Engine.spawn t ~name:"src" ~main:(fun ~recovery:_ () ->
        for i = 1 to n do
          Rt.send sink (Ping i)
        done)
  in
  let t0 = Sys.time () in
  ignore (Engine.run ~deadline:1e9 t);
  let elapsed = Sys.time () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "20k enqueues in %.3fs (< 5s)" elapsed)
    true (elapsed < 5.0)

(* ------------------------------------------------------------------ *)
(* Classed queue (Cq) and message demultiplexing *)

let test_cq_order () =
  let q = Cq.create () in
  Cq.push q ~cls:0 "a";
  Cq.push q ~cls:1 "b";
  Cq.push q ~cls:0 "c";
  Cq.push q ~cls:(-1) "d";
  Alcotest.(check int) "length" 4 (Cq.length q);
  Alcotest.(check (list string)) "global order" [ "a"; "b"; "c"; "d" ]
    (Cq.to_list q);
  Alcotest.(check (option string)) "pop_cls 1" (Some "b") (Cq.pop_cls q 1);
  Alcotest.(check (option string)) "pop_cls 0" (Some "a") (Cq.pop_cls q 0);
  Alcotest.(check (option string)) "global pop" (Some "c") (Cq.pop q);
  Alcotest.(check (option string)) "unclassed" (Some "d") (Cq.pop q);
  Alcotest.(check bool) "empty" true (Cq.is_empty q)

let test_cq_take_first () =
  let q = Cq.create () in
  Cq.push q ~cls:0 1;
  Cq.push q ~cls:1 2;
  Cq.push q ~cls:0 3;
  Cq.push q ~cls:1 4;
  (* global scan crosses classes, oldest first *)
  Alcotest.(check (option int)) "take_first even" (Some 2)
    (Cq.take_first q (fun x -> x mod 2 = 0));
  (* bucket scan only sees its own class *)
  Alcotest.(check (option int)) "in-cls miss" None
    (Cq.take_first_in_cls q 0 (fun x -> x mod 2 = 0));
  Alcotest.(check (option int)) "in-cls hit" (Some 3)
    (Cq.take_first_in_cls q 0 (fun x -> x > 1));
  Alcotest.(check (list int)) "rest in order" [ 1; 4 ] (Cq.to_list q)

let test_cq_clear () =
  (* a clear empties both lists; the queue then works as new *)
  let q = Cq.create () in
  Cq.push q ~cls:0 "a";
  Cq.push q ~cls:1 "b";
  Cq.clear q;
  Alcotest.(check int) "cleared" 0 (Cq.length q);
  Alcotest.(check (option string)) "bucket emptied" None (Cq.pop_cls q 1);
  Cq.push q ~cls:1 "c";
  Alcotest.(check int) "length" 1 (Cq.length q);
  Alcotest.(check (list string)) "contents" [ "c" ] (Cq.to_list q);
  Alcotest.(check (option string)) "bucket intact" (Some "c") (Cq.pop_cls q 1)

type cq_op =
  | Push of int * int  (** class, value *)
  | Pop_cls of int
  | Take_even of int  (** take_first_in_cls with an even-value filter *)
  | Clear

let show_cq_op = function
  | Push (c, v) -> Printf.sprintf "push %d %d" c v
  | Pop_cls c -> Printf.sprintf "pop_cls %d" c
  | Take_even c -> Printf.sprintf "take_even %d" c
  | Clear -> "clear"

let prop_cq_model =
  let op =
    QCheck.Gen.(
      frequency
        [
          (5, map2 (fun c v -> Push (c, v)) (int_range (-1) 2) (int_bound 9));
          (2, map (fun c -> Pop_cls c) (int_range (-1) 3));
          (2, map (fun c -> Take_even c) (int_range (-1) 3));
          (1, return Clear);
        ])
  in
  QCheck.Test.make ~name:"cq agrees with a list model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_cq_op ops))
       (QCheck.Gen.small_list op))
    (fun ops ->
      let q = Cq.create () in
      (* the model: (push number, class, value), oldest first *)
      let model = ref [] and pushes = ref 0 in
      let take_model pred =
        match List.find_opt pred !model with
        | None -> None
        | Some (id, _, v) ->
            model := List.filter (fun (i, _, _) -> i <> id) !model;
            Some v
      in
      let step = function
        | Push (c, v) ->
            let id = !pushes in
            incr pushes;
            Cq.push q ~cls:c v;
            model := !model @ [ (id, c, v) ];
            true
        | Pop_cls c ->
            let want = take_model (fun (_, c', _) -> c' = c) in
            Cq.pop_cls q c = want
        | Take_even c ->
            let want = take_model (fun (_, c', v) -> c' = c && v mod 2 = 0) in
            Cq.take_first_in_cls q c (fun v -> v mod 2 = 0) = want
        | Clear ->
            Cq.clear q;
            model := [];
            true
      in
      List.for_all
        (fun o ->
          step o
          && Cq.length q = List.length !model
          && Cq.to_list q = List.map (fun (_, _, v) -> v) !model)
        ops)

let test_demux_interleaved_waiters () =
  let t = Engine.create () in
  let log = ref [] in
  let receiver =
    Engine.spawn t ~name:"rx" ~main:(fun ~recovery:_ () ->
        (* classed waiter registered before a predicate waiter that also
           matches Ping: registration order must decide who gets it *)
        Rt.fork "classed" (fun () ->
            match Rt.recv_cls cls_ping with
            | Some { Types.payload = Ping n; _ } -> log := ("cls", n) :: !log
            | _ -> ());
        Rt.fork "pred" (fun () ->
            match
              Rt.recv
                ~filter:(fun m ->
                  match m.Types.payload with
                  | Ping _ | Pong _ -> true
                  | _ -> false)
                ()
            with
            | Some { Types.payload = Ping n; _ } -> log := ("pred-ping", n) :: !log
            | Some { Types.payload = Pong n; _ } -> log := ("pred-pong", n) :: !log
            | _ -> ()))
  in
  let _ =
    Engine.spawn t ~name:"tx" ~main:(fun ~recovery:_ () ->
        Rt.send receiver (Ping 1);
        Rt.sleep 5.;
        Rt.send receiver (Ping 2))
  in
  ignore (Engine.run t);
  Alcotest.(check (list (pair string int)))
    "classed waiter wins, predicate takes the next"
    [ ("cls", 1); ("pred-ping", 2) ]
    (List.rev !log)

let test_demux_classed_skips_other_classes () =
  let t = Engine.create () in
  let log = ref [] in
  let receiver =
    Engine.spawn t ~name:"rx" ~main:(fun ~recovery:_ () ->
        Rt.sleep 10.;
        (* mailbox now holds Ping 1, Ping 2, Pong 7 *)
        (match Rt.recv_cls cls_pong with
        | Some { Types.payload = Pong n; _ } -> log := ("pong", n) :: !log
        | _ -> ());
        (match Rt.recv_any () with
        | Some { Types.payload = Ping n; _ } -> log := ("ping", n) :: !log
        | _ -> ());
        match Rt.recv_any () with
        | Some { Types.payload = Ping n; _ } -> log := ("ping", n) :: !log
        | _ -> ())
  in
  let _ =
    Engine.spawn t ~name:"tx" ~main:(fun ~recovery:_ () ->
        Rt.send receiver (Ping 1);
        Rt.send receiver (Ping 2);
        Rt.send receiver (Pong 7))
  in
  ignore (Engine.run t);
  Alcotest.(check (list (pair string int)))
    "classed pop skips other classes; global order intact for the rest"
    [ ("pong", 7); ("ping", 1); ("ping", 2) ]
    (List.rev !log)

let test_demux_crash_clears_class_buckets () =
  let t = Engine.create () in
  let got = ref 0 in
  let receiver =
    Engine.spawn t ~name:"rx" ~main:(fun ~recovery () ->
        if recovery then
          match Rt.recv_cls ~timeout:100. cls_ping with
          | Some _ -> incr got
          | None -> ())
  in
  let _ =
    Engine.spawn t ~name:"tx" ~main:(fun ~recovery:_ () ->
        Rt.send receiver (Ping 1))
  in
  (* classed message buffered at t=1; crash at t=5 must clear its bucket *)
  Engine.crash_at t 5. receiver;
  Engine.recover_at t 10. receiver;
  ignore (Engine.run t);
  Alcotest.(check int) "class bucket cleared by crash" 0 !got

(* Receiving n classed messages while n messages of another class sit in the
   mailbox must be ~O(n): each classed receive touches only its bucket. The
   predicate path re-scanned the whole mailbox per receive — O(n²), tens of
   seconds at this size. *)
let test_demux_classed_recv_linear () =
  let n = 20_000 in
  let t = Engine.create ~tracing:false () in
  let sink =
    Engine.spawn t ~name:"sink" ~main:(fun ~recovery:_ () ->
        for _ = 1 to n do
          ignore (Rt.recv_cls cls_pong)
        done;
        Rt.sleep 1e12)
  in
  let _ =
    Engine.spawn t ~name:"src" ~main:(fun ~recovery:_ () ->
        for i = 1 to n do
          Rt.send sink (Ping i)
        done;
        for i = 1 to n do
          Rt.send sink (Pong i)
        done)
  in
  let t0 = Sys.time () in
  ignore (Engine.run ~deadline:1e9 t);
  let elapsed = Sys.time () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "20k classed recvs in %.3fs (< 5s)" elapsed)
    true (elapsed < 5.0)

(* ------------------------------------------------------------------ *)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "dsim"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "peek/length" `Quick test_heap_peek;
          Alcotest.test_case "equal times in push order" `Quick
            test_heap_equal_times;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "popped payload collectable" `Quick
            test_heap_releases_payload;
          q prop_heap_sorts;
          q prop_heap_stable_on_ties;
          q prop_heap_matches_sorted_keys;
          q prop_heap_remove;
        ] );
      ( "fifo",
        [
          Alcotest.test_case "mailbox enqueue linear" `Quick
            test_mailbox_enqueue_linear;
        ] );
      ( "demux",
        [
          Alcotest.test_case "cq order" `Quick test_cq_order;
          Alcotest.test_case "cq take_first" `Quick test_cq_take_first;
          Alcotest.test_case "cq clear" `Quick test_cq_clear;
          q prop_cq_model;
          Alcotest.test_case "interleaved waiters" `Quick
            test_demux_interleaved_waiters;
          Alcotest.test_case "classed skips other classes" `Quick
            test_demux_classed_skips_other_classes;
          Alcotest.test_case "crash clears class buckets" `Quick
            test_demux_crash_clears_class_buckets;
          Alcotest.test_case "classed recv linear" `Quick
            test_demux_classed_recv_linear;
        ] );
      ( "pool",
        [
          Alcotest.test_case "preserves order" `Quick test_pool_preserves_order;
          Alcotest.test_case "parallel = sequential" `Quick
            test_pool_matches_sequential;
          Alcotest.test_case "cluster trial on 2 domains" `Quick
            test_pool_cluster_parity;
          Alcotest.test_case "propagates exception" `Quick
            test_pool_propagates_exception;
          Alcotest.test_case "empty/clamped" `Quick
            test_pool_empty_and_oversized;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "split independent" `Quick
            test_rng_split_independent;
          Alcotest.test_case "bool bias" `Quick test_rng_bool_bias;
          Alcotest.test_case "large bounds stay uniform" `Quick
            test_rng_int_large_bound;
          Alcotest.test_case "exponential mean" `Quick
            test_rng_exponential_mean;
          Alcotest.test_case "stream pinned" `Quick test_rng_stream_pinned;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_rng_draws_do_not_allocate;
          q prop_rng_float_range;
          q prop_rng_int_range;
        ] );
      ( "engine",
        [
          Alcotest.test_case "sleep ordering" `Quick test_sleep_ordering;
          Alcotest.test_case "virtual time" `Quick test_virtual_time_advances;
          Alcotest.test_case "send/recv" `Quick test_send_recv;
          Alcotest.test_case "selective receive" `Quick test_selective_receive;
          Alcotest.test_case "recv timeout" `Quick test_recv_timeout;
          Alcotest.test_case "message beats timeout" `Quick
            test_recv_timeout_beaten_by_message;
          Alcotest.test_case "fork shares mailbox" `Quick
            test_fork_shares_mailbox;
          Alcotest.test_case "work traced" `Quick test_work_traced;
          q prop_engine_deterministic;
        ] );
      ( "crash-recovery",
        [
          Alcotest.test_case "crash drops sleeper" `Quick
            test_crash_drops_sleeper;
          Alcotest.test_case "recovery flag" `Quick test_recovery_flag;
          Alcotest.test_case "message to down process lost" `Quick
            test_message_to_down_process_lost;
          Alcotest.test_case "mailbox cleared on crash" `Quick
            test_mailbox_cleared_on_crash;
          Alcotest.test_case "incarnation fencing" `Quick
            test_incarnation_fences_stale_wakeups;
          Alcotest.test_case "is_up" `Quick test_is_up;
        ] );
      ( "network",
        [
          Alcotest.test_case "lossy drops" `Quick test_lossy_network_drops;
          Alcotest.test_case "duplication" `Quick test_duplicating_network;
          Alcotest.test_case "self send immune" `Quick
            test_self_send_bypasses_loss;
          Alcotest.test_case "redeliver" `Quick test_redeliver;
        ] );
      ( "run-control",
        [
          Alcotest.test_case "determinism same seed" `Quick
            test_determinism_same_seed;
          Alcotest.test_case "determinism different seed" `Quick
            test_determinism_different_seed;
          Alcotest.test_case "deadline" `Quick test_run_deadline;
          Alcotest.test_case "run_until" `Quick test_run_until_pred;
          Alcotest.test_case "orchestration post" `Quick
            test_post_from_orchestration;
          Alcotest.test_case "stop" `Quick test_stop_interrupts_run;
          Alcotest.test_case "exit_fiber" `Quick test_exit_fiber;
          Alcotest.test_case "zero delays" `Quick test_zero_sleep_and_timeout;
          Alcotest.test_case "nested fork" `Quick test_nested_fork;
          Alcotest.test_case "fork dies with process" `Quick
            test_fork_dies_with_process;
          Alcotest.test_case "send_all" `Quick test_send_all;
          Alcotest.test_case "accessors" `Quick test_name_and_is_up_accessors;
        ] );
      ( "handlers",
        [
          Alcotest.test_case "frame acked at delivery" `Quick
            test_frame_handler_acks_at_delivery;
          Alcotest.test_case "suspending handler raises" `Quick
            test_handler_that_receives_raises;
          Alcotest.test_case "cleared by crash and recovery" `Quick
            test_handlers_cleared_by_crash_and_recovery;
        ] );
      ( "timers",
        [
          Alcotest.test_case "an ended wait leaves nothing queued" `Quick
            test_ended_wait_leaves_nothing_queued;
          Alcotest.test_case "fenced by incarnation" `Quick
            test_timer_fenced_by_incarnation;
          Alcotest.test_case "arm moves, cancel disarms" `Quick
            test_timer_arm_cancel;
        ] );
      ( "trace",
        [
          Alcotest.test_case "steps: chain" `Quick
            test_communication_steps_chain;
          Alcotest.test_case "steps: parallel" `Quick
            test_communication_steps_parallel;
        ] );
    ]
