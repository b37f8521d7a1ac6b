(* The §5 extension in action: with persistent registers (crash-recovery
   consensus, the paper's pointer to [22,23]) the WHOLE middle tier can
   crash and come back, and the e-Transaction still executes exactly once.

   The run: one debit; all three application servers crash in a rolling
   wave starting mid-request and recover half a second later. A diskless
   deployment would be stuck forever (no majority was spared); the
   recoverable one finishes.

   Run with:  dune exec examples/recoverable_cluster.exe *)

let () =
  let engine, cluster =
    Harness.Simrun.cluster ~recoverable:true ~client_period:300.
      ~seed_data:(Workload.Bank.seed_accounts [ ("acct", 1000) ])
      ~business:Workload.Bank.update
      ~scripts:
        [
          (fun ~issue ->
            let r = issue "acct:-100" in
            Printf.printf "delivered %S after %d tr%s (%.1f virtual ms)\n"
              r.result r.tries
              (if r.tries = 1 then "y" else "ies")
              (r.delivered_at -. r.issued_at));
        ]
      ()
  in
  List.iteri
    (fun i server ->
      let at = 60. +. (float_of_int i *. 40.) in
      Dsim.Engine.crash_at engine at server;
      Dsim.Engine.recover_at engine (at +. 500.) server)
    (Cluster.group cluster 0).app_servers;

  let quiesced = Cluster.run_to_quiescence ~deadline:300_000. cluster in
  assert quiesced;

  let _, rm = List.hd (Cluster.group cluster 0).dbs in
  (match Dbms.Rm.read_committed rm "acct" with
  | Some (Dbms.Value.Int balance) ->
      Printf.printf "final balance: %d (debited exactly once across a full \
                     middle-tier outage)\n"
        balance;
      assert (balance = 900)
  | Some (Dbms.Value.Str _) | None -> assert false);

  (* agreement and non-blocking termination hold *)
  let view = List.hd (Cluster.Spec.shard_views cluster) in
  assert (Etx.Spec.View.agreement_a2 view = []);
  assert (Etx.Spec.View.agreement_a3 view = []);
  assert (Etx.Spec.View.termination_t2 view = []);
  print_endline "agreement + termination hold; see A5 for what this costs"
