(* Fail-over walkthrough: the two fail-over executions of the paper's
   Figure 1 (c and d), driven explicitly.

   (c) The primary crashes AFTER the commit decision reached the regD
       write-once register but BEFORE it told anyone: the cleaning thread of
       a backup tries to abort, loses against the register (write-once!),
       discovers the commit, finishes it and the client still delivers the
       ORIGINAL result — exactly once.

   (d) The primary crashes mid-compute: the cleaning thread aborts try 1,
       the client's retransmission reaches a new primary, and try 2 commits.

   Run with:  dune exec examples/failover_demo.exe *)

let cleaner_notes engine =
  List.filter_map
    (fun (e : Dsim.Trace.entry) ->
      match e.event with
      | Dsim.Trace.Note (pid, s)
        when String.length s > 8 && String.sub s 0 8 = "cleaned:" ->
          Some
            (Printf.sprintf "  [%.1f ms] %s %s" e.at
               (Dsim.Engine.name_of engine pid)
               s)
      | _ -> None)
    (Dsim.Trace.entries (Dsim.Engine.trace engine))

let scenario ~label ~crash_at =
  Printf.printf "--- %s (primary crashes at t=%.0f ms) ---\n" label crash_at;
  let engine, cluster =
    Harness.Simrun.cluster ~client_period:300.
      ~seed_data:(Workload.Bank.seed_accounts [ ("acct", 1000) ])
      ~business:Workload.Bank.update
      ~scripts:
        [
          (fun ~issue ->
            let r = issue "acct:-100" in
            Printf.printf "  client delivered %S after %d tr%s (%.1f ms)\n"
              r.result r.tries
              (if r.tries = 1 then "y" else "ies")
              (r.delivered_at -. r.issued_at));
        ]
      ()
  in
  Dsim.Engine.crash_at engine crash_at (Cluster.primary cluster ~shard:0);
  let quiesced =
    Cluster.run_to_quiescence ~deadline:120_000. cluster
  in
  assert quiesced;
  List.iter print_endline (cleaner_notes engine);
  let _, rm = List.hd (Cluster.group cluster 0).dbs in
  (match Dbms.Rm.read_committed rm "acct" with
  | Some (Dbms.Value.Int balance) ->
      Printf.printf "  final balance: %d (debited exactly once)\n" balance
  | Some (Dbms.Value.Str _) | None -> assert false);
  (match Cluster.Spec.check_all cluster with
  | [] -> print_endline "  specification holds"
  | violations ->
      List.iter print_endline violations;
      exit 1);
  print_endline "  message sequence diagram:";
  String.split_on_char '\n' (Harness.Seqdiag.of_engine engine)
  |> List.iter (fun line -> if line <> "" then print_endline ("    " ^ line));
  print_newline ()

let () =
  (* With the calibrated cost model, the decision lands in regD around
     t ≈ 225 ms and the client would deliver around t ≈ 243 ms. *)
  scenario ~label:"Fig 1(c): fail-over with commit" ~crash_at:230.;
  scenario ~label:"Fig 1(d): fail-over with abort" ~crash_at:100.
