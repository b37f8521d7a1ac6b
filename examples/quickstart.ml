(* Quickstart: issue one e-Transaction and watch the guarantees hold.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* The paper's deployment is a one-shard cluster on a fresh simulated
     world: 3 stateless application servers running the
     asynchronous-replication protocol, 1 XA database, and one client per
     script. A script runs inside its client process; [issue] blocks until
     a COMMITTED result is delivered — that is the exactly-once
     contract. *)
  let _engine, cluster =
    Harness.Simrun.cluster
      ~seed_data:(Workload.Bank.seed_accounts [ ("alice", 100) ])
      ~business:Workload.Bank.update
      ~scripts:
        [
          (fun ~issue ->
            let record = issue "alice:-30" in
            Printf.printf "delivered: %s (in %.1f virtual ms, %d tr%s)\n"
              record.result
              (record.delivered_at -. record.issued_at)
              record.tries
              (if record.tries = 1 then "y" else "ies"));
        ]
      ()
  in
  (* Drive the virtual clock until the client is done and every database
     transaction is decided. *)
  let quiesced = Cluster.run_to_quiescence cluster in
  assert quiesced;

  (* The database state reflects exactly one execution. *)
  let _, rm = List.hd (Cluster.group cluster 0).dbs in
  (match Dbms.Rm.read_committed rm "alice" with
  | Some (Dbms.Value.Int balance) ->
      Printf.printf "alice's balance: %d (was 100, debited 30 exactly once)\n"
        balance
  | Some (Dbms.Value.Str _) | None -> assert false);

  (* And the full e-Transaction specification (termination, agreement,
     validity — Section 3 of the paper) holds for the run. *)
  match Cluster.Spec.check_all cluster with
  | [] -> print_endline "specification: T.1 T.2 A.1 A.2 A.3 V.1 V.2 all hold"
  | violations ->
      List.iter print_endline violations;
      exit 1
