(* The paper's motivating travel application: book flight + hotel + car in
   one exactly-once transaction spanning three databases.

   Shows a genuine sell-out: the last seats go to whoever's transaction
   commits first, a concurrent request hits a user-level abort (the paper's
   footnote 4) and receives a committed "unavailable" report instead —
   never a double booking, never a lost booking.

   Run with:  dune exec examples/travel_booking.exe *)

let () =
  let destinations = [ "lisbon" ] in
  (* only 3 seats on the lisbon flight *)
  let inventory =
    Workload.Travel.seed_inventory ~destinations ~seats:3 ~rooms:10 ~cars:10
  in
  let _engine, cluster =
    Harness.Simrun.cluster ~n_dbs:3 (* flights / hotels / cars databases *)
      ~seed_data:inventory ~business:Workload.Travel.book
      ~scripts:
        [
          (fun ~issue ->
            (* Party of two, then party of two again: 3 seats only — the
               second booking must fail cleanly, and the user must be TOLD
               it failed (rather than retrying blindly and maybe paying
               twice). *)
            List.iter
              (fun body ->
                let r = issue body in
                Printf.printf "%-10s -> %s (tries=%d)\n" body r.result r.tries)
              [ "lisbon:2"; "lisbon:2"; "lisbon:1" ]);
        ]
      ()
  in
  let quiesced = Cluster.run_to_quiescence cluster in
  assert quiesced;

  (* Inventory accounting must be exact. *)
  let flights_rm = snd (List.nth (Cluster.group cluster 0).dbs 0) in
  (match Dbms.Rm.read_committed flights_rm (Workload.Travel.seats_key "lisbon") with
  | Some (Dbms.Value.Int seats) ->
      Printf.printf "seats left on the lisbon flight: %d\n" seats
  | Some (Dbms.Value.Str _) | None -> assert false);

  match Cluster.Spec.check_all cluster with
  | [] -> print_endline "specification holds across all three databases"
  | violations ->
      List.iter print_endline violations;
      exit 1
