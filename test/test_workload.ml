(* Tests for the business-logic workloads (bank, travel, generators),
   exercised through full deployments. *)

let run ?(n_dbs = 1) ?seed_data ~business bodies =
  let _e, d =
    Harness.Simrun.cluster ~n_dbs ?seed_data ~business
      ~scripts:
        [ (fun ~issue -> List.iter (fun b -> ignore (issue b)) bodies) ]
      ()
  in
  let ok = Cluster.run_to_quiescence ~deadline:300_000. d in
  Alcotest.(check bool) "quiesced" true ok;
  Alcotest.(check (list string)) "spec" [] (Cluster.Spec.check_all d);
  d

let read_int d db_index key =
  let _, rm = List.nth (Cluster.group d 0).dbs db_index in
  match Dbms.Rm.read_committed rm key with
  | Some (Dbms.Value.Int v) -> v
  | Some (Dbms.Value.Str _) -> Alcotest.fail (key ^ " is not an int")
  | None -> Alcotest.fail (key ^ " missing")

let results d =
  List.map
    (fun (r : Etx.Client.record) -> r.result)
    (Cluster.all_records d)

(* ------------------------------------------------------------------ *)
(* bank *)

let test_bank_update () =
  let d =
    run
      ~seed_data:(Workload.Bank.seed_accounts [ ("a", 100) ])
      ~business:Workload.Bank.update [ "a:25"; "a:-50" ]
  in
  Alcotest.(check int) "balance" 75 (read_int d 0 "a");
  Alcotest.(check (list string)) "results"
    [ "updated:a:125"; "updated:a:75" ]
    (results d)

let test_bank_update_creates_account () =
  let d = run ~business:Workload.Bank.update [ "fresh:10" ] in
  Alcotest.(check int) "created from zero" 10 (read_int d 0 "fresh")

let test_bank_transfer_moves_money () =
  let d =
    run
      ~seed_data:(Workload.Bank.seed_accounts [ ("a", 100); ("b", 5) ])
      ~business:Workload.Bank.transfer [ "a:b:30" ]
  in
  Alcotest.(check int) "a debited" 70 (read_int d 0 "a");
  Alcotest.(check int) "b credited" 35 (read_int d 0 "b")

let test_bank_transfer_insufficient () =
  let d =
    run
      ~seed_data:(Workload.Bank.seed_accounts [ ("a", 10); ("b", 0) ])
      ~business:Workload.Bank.transfer [ "a:b:30" ]
  in
  Alcotest.(check int) "a untouched" 10 (read_int d 0 "a");
  Alcotest.(check int) "b untouched" 0 (read_int d 0 "b");
  (match Cluster.all_records d with
  | [ r ] ->
      Alcotest.(check bool) "aborted once then reported" true (r.tries = 2);
      Alcotest.(check string) "failure report"
        "failed:insufficient-funds:a=10" r.result
  | _ -> Alcotest.fail "expected one record")

let test_bank_audit_read_only () =
  let d =
    run
      ~seed_data:(Workload.Bank.seed_accounts [ ("a", 42) ])
      ~business:Workload.Bank.audit [ "a"; "missing" ]
  in
  Alcotest.(check (list string)) "results"
    [ "balance:a:42"; "balance:missing:none" ]
    (results d)

let test_bank_parse_errors () =
  (* a malformed request body is a programming error: it aborts the whole
     simulation loudly rather than silently corrupting the run *)
  Alcotest.check_raises "update body"
    (Invalid_argument "Bank.update: bad request body nope") (fun () ->
      let _e, d =
        Harness.Simrun.cluster ~business:Workload.Bank.update
          ~scripts:[ (fun ~issue -> ignore (issue "nope")) ]
          ()
      in
      ignore (Cluster.run_to_quiescence ~deadline:10_000. d))

(* ------------------------------------------------------------------ *)
(* travel *)

let inventory destinations =
  Workload.Travel.seed_inventory ~destinations ~seats:4 ~rooms:2 ~cars:3

let test_travel_booking_decrements_all_three () =
  let d =
    run ~n_dbs:3 ~seed_data:(inventory [ "rome" ])
      ~business:Workload.Travel.book [ "rome:2" ]
  in
  (* resources spread round-robin across the three databases *)
  Alcotest.(check int) "seats on db1" 2
    (read_int d 0 (Workload.Travel.seats_key "rome"));
  Alcotest.(check int) "rooms on db2" 1
    (read_int d 1 (Workload.Travel.rooms_key "rome"));
  Alcotest.(check int) "cars on db3" 2
    (read_int d 2 (Workload.Travel.cars_key "rome"))

let test_travel_single_db_layout () =
  let d =
    run ~n_dbs:1 ~seed_data:(inventory [ "rome" ])
      ~business:Workload.Travel.book [ "rome:1" ]
  in
  Alcotest.(check int) "seats" 3 (read_int d 0 (Workload.Travel.seats_key "rome"));
  Alcotest.(check int) "rooms" 1 (read_int d 0 (Workload.Travel.rooms_key "rome"))

let test_travel_sellout_reports () =
  (* rooms = 2: the third booking must fail with a committed report, and
     inventory must never go negative *)
  let d =
    run ~n_dbs:3 ~seed_data:(inventory [ "oslo" ])
      ~business:Workload.Travel.book [ "oslo:1"; "oslo:1"; "oslo:1" ]
  in
  Alcotest.(check int) "rooms exhausted, not negative" 0
    (read_int d 1 (Workload.Travel.rooms_key "oslo"));
  match results d with
  | [ r1; r2; r3 ] ->
      Alcotest.(check bool) "first two booked" true
        (String.length r1 > 6
        && String.sub r1 0 6 = "booked"
        && String.sub r2 0 6 = "booked");
      Alcotest.(check bool) "third reported unavailable" true
        (String.length r3 > 11 && String.sub r3 0 11 = "unavailable")
  | _ -> Alcotest.fail "expected three records"

let test_travel_party_too_big () =
  let d =
    run ~n_dbs:3 ~seed_data:(inventory [ "lima" ])
      ~business:Workload.Travel.book [ "lima:9" ]
  in
  (match results d with
  | [ r ] ->
      Alcotest.(check bool) "unavailable" true
        (String.length r > 11 && String.sub r 0 11 = "unavailable")
  | _ -> Alcotest.fail "expected one record");
  Alcotest.(check int) "seats untouched" 4
    (read_int d 0 (Workload.Travel.seats_key "lima"))

(* ------------------------------------------------------------------ *)
(* generator *)

let test_generator_deterministic () =
  let kind = Workload.Generator.Bank_updates { accounts = 4; max_delta = 9 } in
  let a = Workload.Generator.bodies ~seed:3 ~n:20 kind in
  let b = Workload.Generator.bodies ~seed:3 ~n:20 kind in
  let c = Workload.Generator.bodies ~seed:4 ~n:20 kind in
  Alcotest.(check (list string)) "same seed" a b;
  Alcotest.(check bool) "different seed differs" true (a <> c);
  Alcotest.(check int) "n bodies" 20 (List.length a)

let test_generator_bodies_parse () =
  (* every generated body must be accepted by its business logic *)
  let kinds =
    [
      Workload.Generator.Bank_updates { accounts = 3; max_delta = 5 };
      Workload.Generator.Bank_transfers { accounts = 3; max_amount = 5 };
      Workload.Generator.Travel_bookings
        { destinations = [ "x"; "y" ]; max_party = 2 };
    ]
  in
  List.iter
    (fun kind ->
      let bodies = Workload.Generator.bodies ~seed:1 ~n:5 kind in
      let d =
        run
          ~n_dbs:(match kind with Workload.Generator.Travel_bookings _ -> 3 | _ -> 1)
          ~seed_data:(Workload.Generator.seed_data_of kind)
          ~business:(Workload.Generator.business_of kind)
          bodies
      in
      Alcotest.(check int) "all delivered" 5
        (List.length (Cluster.all_records d)))
    kinds

let is_write body = String.contains body ':'

let test_generator_read_heavy_mix () =
  (* the interleave is deterministic: every (reads_per_write + 1)-th body
     is a write, so the ratio is exact for any n, not just in expectation *)
  List.iter
    (fun (reads_per_write, n) ->
      let kind =
        Workload.Generator.Read_heavy
          { accounts = 4; max_delta = 9; reads_per_write }
      in
      let bodies = Workload.Generator.bodies ~seed:9 ~n kind in
      let writes = List.length (List.filter is_write bodies) in
      let cycle = reads_per_write + 1 in
      let expected_writes =
        if reads_per_write = 0 then n
        else List.length (List.filteri (fun i _ -> i mod cycle = cycle - 1) bodies)
      in
      Alcotest.(check int)
        (Printf.sprintf "writes for rpw=%d n=%d" reads_per_write n)
        expected_writes writes;
      List.iteri
        (fun i body ->
          let want_write = reads_per_write = 0 || i mod cycle = cycle - 1 in
          Alcotest.(check bool)
            (Printf.sprintf "body %d kind (rpw=%d)" i reads_per_write)
            want_write (is_write body);
          match String.split_on_char ':' body with
          | [ acct ] | [ acct; _ ] ->
              Alcotest.(check bool) "account name" true
                (String.length acct > 4 && String.sub acct 0 4 = "acct")
          | _ -> Alcotest.fail ("bad read-heavy body " ^ body))
        bodies)
    [ (3, 20); (3, 7); (1, 10); (0, 6); (9, 30) ]

let test_generator_travel_lookups () =
  let kind = Workload.Generator.Travel_lookups { destinations = [ "x"; "y" ] } in
  let bodies = Workload.Generator.bodies ~seed:2 ~n:12 kind in
  List.iter
    (fun b -> Alcotest.(check bool) "known destination" true (List.mem b [ "x"; "y" ]))
    bodies;
  let d =
    run ~n_dbs:3
      ~seed_data:(Workload.Generator.seed_data_of kind)
      ~business:(Workload.Generator.business_of kind)
      bodies
  in
  List.iter
    (fun (r : Etx.Client.record) ->
      Alcotest.(check bool) "availability result" true
        (String.length r.result > 10
        && String.sub r.result 0 10 = "available:"))
    (Cluster.all_records d)

let test_generator_read_heavy_sharded () =
  let map = Etx.Shard_map.create ~shards:3 () in
  let kind =
    Workload.Generator.Read_heavy { accounts = 8; max_delta = 5; reads_per_write = 3 }
  in
  let tagged = Workload.Generator.sharded_bodies ~map ~seed:4 ~n:40 kind in
  Alcotest.(check int) "n bodies" 40 (List.length tagged);
  List.iter
    (fun (shard, body) ->
      (* every body is single-key: its tag must be its account's shard *)
      let acct = List.hd (String.split_on_char ':' body) in
      Alcotest.(check int) ("shard of " ^ body) (Etx.Shard_map.shard_of map acct)
        shard)
    tagged;
  (* the tagging must not perturb the body stream itself *)
  Alcotest.(check (list string)) "same stream as unsharded"
    (Workload.Generator.bodies ~seed:4 ~n:40 kind)
    (List.map snd tagged)

let test_generator_transfer_distinct_accounts () =
  let kind = Workload.Generator.Bank_transfers { accounts = 5; max_amount = 9 } in
  List.iter
    (fun body ->
      match String.split_on_char ':' body with
      | [ a; b; _ ] ->
          Alcotest.(check bool) "from <> to" true (not (String.equal a b))
      | _ -> Alcotest.fail "bad transfer body")
    (Workload.Generator.bodies ~seed:5 ~n:50 kind)

let test_generator_cross_ratio_mix () =
  let map = Etx.Shard_map.create ~shards:2 () in
  let kind = Workload.Generator.Bank_transfers { accounts = 8; max_amount = 9 } in
  let shard a = Etx.Shard_map.shard_of map a in
  let is_cross body =
    match String.split_on_char ':' body with
    | [ a; b; _ ] -> shard a <> shard b
    | _ -> Alcotest.fail ("bad transfer body " ^ body)
  in
  List.iter
    (fun ratio ->
      let tagged =
        Workload.Generator.sharded_bodies ~map ~cross_ratio:ratio ~seed:6
          ~n:30 kind
      in
      (* the interleave is deterministic, so the mix is exact, not just in
         expectation: request i is cross iff floor((i+1)r) > floor(ir) *)
      Alcotest.(check int)
        (Printf.sprintf "cross count at ratio %.1f" ratio)
        (int_of_float (30. *. ratio))
        (List.length (List.filter (fun (_, b) -> is_cross b) tagged));
      List.iteri
        (fun i (s, b) ->
          let want =
            ratio > 0.
            && int_of_float (float_of_int (i + 1) *. ratio)
               > int_of_float (float_of_int i *. ratio)
          in
          Alcotest.(check bool)
            (Printf.sprintf "body %d cross (r=%.1f)" i ratio)
            want (is_cross b);
          (* the tag is always the source account's home shard *)
          Alcotest.(check int) ("tag of " ^ b)
            (shard (List.hd (String.split_on_char ':' b)))
            s)
        tagged)
    [ 0.; 0.1; 0.5; 1. ]

let test_generator_cross_ratio_zero_byte_identical () =
  (* ratio 0 must not perturb the rng draw sequence: the default stream and
     the explicit-zero stream are the same list *)
  let map = Etx.Shard_map.create ~shards:3 () in
  let kind = Workload.Generator.Bank_transfers { accounts = 9; max_amount = 7 } in
  Alcotest.(check (list (pair int string)))
    "ratio 0 = default"
    (Workload.Generator.sharded_bodies ~map ~seed:8 ~n:25 kind)
    (Workload.Generator.sharded_bodies ~map ~cross_ratio:0. ~seed:8 ~n:25 kind)

(* The transfer generator as first written: filters every account through
   the shard map for every body. Kept as the reference the precomputed
   version must reproduce body for body. *)
let naive_sharded_transfers ~map ~cross_ratio ~seed ~n ~accounts ~max_amount =
  let shard_of_acct a = Etx.Shard_map.shard_of map (Printf.sprintf "acct%d" a) in
  let by_shard = Hashtbl.create 8 in
  for a = accounts - 1 downto 0 do
    let s = shard_of_acct a in
    Hashtbl.replace by_shard s
      (a :: Option.value ~default:[] (Hashtbl.find_opt by_shard s))
  done;
  let all_accts = List.init accounts (fun a -> a) in
  let rng = Runtime.Rng.create ~seed in
  List.init n (fun i ->
      let cross =
        cross_ratio > 0.
        && int_of_float (float_of_int (i + 1) *. cross_ratio)
           > int_of_float (float_of_int i *. cross_ratio)
      in
      let from_acct = Runtime.Rng.int rng accounts in
      let s = shard_of_acct from_acct in
      let intra_mates () =
        List.filter (( <> ) from_acct) (Hashtbl.find by_shard s)
      in
      let mates =
        if cross then
          match List.filter (fun a -> shard_of_acct a <> s) all_accts with
          | [] -> intra_mates ()
          | foreign -> foreign
        else intra_mates ()
      in
      let to_acct =
        match mates with
        | [] -> from_acct
        | _ -> List.nth mates (Runtime.Rng.int rng (List.length mates))
      in
      ( s,
        Printf.sprintf "acct%d:acct%d:%d" from_acct to_acct
          (1 + Runtime.Rng.int rng max_amount) ))

let test_generator_transfers_match_reference () =
  List.iter
    (fun (shards, ratio, accounts) ->
      let map = Etx.Shard_map.create ~shards () in
      let kind = Workload.Generator.Bank_transfers { accounts; max_amount = 50 } in
      Alcotest.(check (list (pair int string)))
        (Printf.sprintf "%d shards, ratio %.1f, %d accounts" shards ratio
           accounts)
        (naive_sharded_transfers ~map ~cross_ratio:ratio ~seed:11 ~n:300
           ~accounts ~max_amount:50)
        (Workload.Generator.sharded_bodies ~map ~cross_ratio:ratio ~seed:11
           ~n:300 kind))
    [
      (2, 0.5, 1024);
      (2, 1., 1024);
      (3, 0.3, 1024);
      (1, 0.5, 1024);
      (2, 0., 1024);
      (4, 0.5, 3);
      (3, 0.5, 1);
    ]

let prop_travel_inventory_conserved =
  QCheck.Test.make ~name:"travel inventory never negative, exactly booked"
    ~count:15
    QCheck.(pair (int_range 0 10_000) (int_range 1 6))
    (fun (seed, n_requests) ->
      let bodies = List.init n_requests (fun _ -> "ibiza:1") in
      let _e, d =
        Harness.Simrun.cluster ~seed ~n_dbs:3
          ~seed_data:
            (Workload.Travel.seed_inventory ~destinations:[ "ibiza" ] ~seats:3
               ~rooms:3 ~cars:3)
          ~business:Workload.Travel.book
          ~scripts:
        [ (fun ~issue -> List.iter (fun b -> ignore (issue b)) bodies) ]
          ()
      in
      let ok = Cluster.run_to_quiescence ~deadline:300_000. d in
      ok
      && Cluster.Spec.check_all d = []
      &&
      let booked =
        List.length
          (List.filter
             (fun (r : Etx.Client.record) ->
               String.length r.result > 6 && String.sub r.result 0 6 = "booked")
             (Cluster.all_records d))
      in
      let _, rm = List.nth (Cluster.group d 0).dbs 0 in
      match Dbms.Rm.read_committed rm (Workload.Travel.seats_key "ibiza") with
      | Some (Dbms.Value.Int seats) ->
          seats = 3 - booked && seats >= 0 && booked <= 3
      | Some (Dbms.Value.Str _) | None -> false)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "workload"
    [
      ( "bank",
        [
          Alcotest.test_case "update" `Quick test_bank_update;
          Alcotest.test_case "update creates" `Quick
            test_bank_update_creates_account;
          Alcotest.test_case "transfer" `Quick test_bank_transfer_moves_money;
          Alcotest.test_case "insufficient funds" `Quick
            test_bank_transfer_insufficient;
          Alcotest.test_case "audit" `Quick test_bank_audit_read_only;
          Alcotest.test_case "parse errors are loud" `Quick
            test_bank_parse_errors;
        ] );
      ( "travel",
        [
          Alcotest.test_case "books across 3 dbs" `Quick
            test_travel_booking_decrements_all_three;
          Alcotest.test_case "single-db layout" `Quick
            test_travel_single_db_layout;
          Alcotest.test_case "sell-out reports" `Quick
            test_travel_sellout_reports;
          Alcotest.test_case "party too big" `Quick test_travel_party_too_big;
          q prop_travel_inventory_conserved;
        ] );
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "bodies parse" `Quick test_generator_bodies_parse;
          Alcotest.test_case "transfer accounts distinct" `Quick
            test_generator_transfer_distinct_accounts;
          Alcotest.test_case "read-heavy mix ratio exact" `Quick
            test_generator_read_heavy_mix;
          Alcotest.test_case "travel lookups" `Quick
            test_generator_travel_lookups;
          Alcotest.test_case "read-heavy sharded bodies intra-shard" `Quick
            test_generator_read_heavy_sharded;
          Alcotest.test_case "cross ratio mix exact" `Quick
            test_generator_cross_ratio_mix;
          Alcotest.test_case "cross ratio 0 byte-identical" `Quick
            test_generator_cross_ratio_zero_byte_identical;
          Alcotest.test_case "transfers match the naive reference" `Quick
            test_generator_transfers_match_reference;
        ] );
    ]
