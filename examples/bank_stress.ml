(* Stress run: 40 generated bank transfers through a hostile environment —
   10% message loss, heartbeat (imperfect) failure detection, one
   application-server crash and two database restarts — then check the full
   e-Transaction specification and print latency statistics.

   Run with:  dune exec examples/bank_stress.exe *)

let () =
  let kind = Workload.Generator.Bank_transfers { accounts = 8; max_amount = 50 } in
  let bodies = Workload.Generator.bodies ~seed:7 ~n:40 kind in
  let net = Dnet.Netmodel.lossy ~loss:0.10 (Dnet.Netmodel.three_tier ~n_dbs:1 ()) in
  let engine, cluster =
    Harness.Simrun.cluster ~seed:7 ~net ~client_period:300.
      ~fd_spec:
        (Etx.Appserver.Fd_heartbeat
           { period = 10.; initial_timeout = 60.; timeout_bump = 30. })
      ~seed_data:(Workload.Generator.seed_data_of kind)
      ~business:(Workload.Generator.business_of kind)
      ~scripts:
        [ (fun ~issue -> List.iter (fun body -> ignore (issue body)) bodies) ]
      ()
  in
  (* fault schedule *)
  Dsim.Engine.crash_at engine 1_500. (Cluster.primary cluster ~shard:0);
  let db = fst (List.hd (Cluster.group cluster 0).dbs) in
  Dsim.Engine.crash_at engine 3_000. db;
  Dsim.Engine.recover_at engine 3_400. db;
  Dsim.Engine.crash_at engine 6_000. db;
  Dsim.Engine.recover_at engine 6_500. db;

  let quiesced = Cluster.run_to_quiescence ~deadline:600_000. cluster in
  Printf.printf "quiesced: %b at %.1f virtual ms\n" quiesced
    (Dsim.Engine.now_of engine);

  let records = Cluster.all_records cluster in
  let latencies =
    List.map (fun (r : Etx.Client.record) -> r.delivered_at -. r.issued_at) records
  in
  let summary = Stats.Summary.of_samples latencies in
  Format.printf "latency: %a@." Stats.Summary.pp summary;
  let retried =
    List.length (List.filter (fun (r : Etx.Client.record) -> r.tries > 1) records)
  in
  Printf.printf "%d/%d requests needed more than one try\n" retried
    (List.length records);

  (* Money conservation: transfers move balance around, never create it. *)
  let _, rm = List.hd (Cluster.group cluster 0).dbs in
  let total =
    List.fold_left
      (fun acc i ->
        match Dbms.Rm.read_committed rm (Printf.sprintf "acct%d" i) with
        | Some (Dbms.Value.Int v) -> acc + v
        | Some (Dbms.Value.Str _) | None -> acc)
      0
      (List.init 8 Fun.id)
  in
  Printf.printf "sum of balances: %d (must be 8 x 10000)\n" total;
  assert (total = 80_000);

  match Cluster.Spec.check_all cluster with
  | [] -> print_endline "specification holds under loss, crashes and restarts"
  | violations ->
      List.iter print_endline violations;
      exit 1
