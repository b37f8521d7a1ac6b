(* The motivation, demonstrated: with the unreliable baseline protocol a
   client that retries after a crash can be CHARGED TWICE; the e-Transaction
   protocol, under the identical fault schedule, charges exactly once.

   The schedule: the (single) application server crashes right after the
   database committed the debit but before the reply reached the client,
   then recovers. The client times out and retries. The baseline server is
   stateless, so the retry is a brand-new transaction — a second debit. The
   e-Transaction deployment instead recovers the committed decision from the
   wo-registers and re-delivers the ORIGINAL result.

   Run with:  dune exec examples/duplicate_charge.exe *)

let seed_data = Workload.Bank.seed_accounts [ ("card", 1000) ]

(* Crash times chosen inside each protocol's vulnerable window (calibrated
   cost model): the baseline server commits at the database around t ≈ 210
   and would reply at ≈ 214; the e-Transaction primary writes the commit
   decision into regD around t ≈ 225 and would reply at ≈ 243. *)
let baseline_crash = 200.

let etx_crash = 230.

let baseline_run () =
  let engine, rt = Harness.Simrun.engine () in
  let b =
    Baselines.Baseline.build ~rt ~client_period:300. ~seed_data
      ~business:Workload.Bank.update
      ~script:(fun ~issue ->
        let r = issue "card:-100" in
        Printf.printf "  baseline client delivered %S (tries=%d)\n" r.result
          r.tries)
      ()
  in
  Dsim.Engine.crash_at engine baseline_crash b.server;
  Dsim.Engine.recover_at engine (baseline_crash +. 100.) b.server;
  ignore
    (Dsim.Engine.run_until ~deadline:120_000. engine (fun () ->
         Etx.Client.script_done b.client));
  let _, rm = List.hd b.dbs in
  match Dbms.Rm.read_committed rm "card" with
  | Some (Dbms.Value.Int balance) -> balance
  | Some (Dbms.Value.Str _) | None -> assert false

let etransaction_run () =
  let engine, d =
    Harness.Simrun.cluster ~client_period:300. ~seed_data
      ~business:Workload.Bank.update
      ~scripts:
        [
          (fun ~issue ->
            let r = issue "card:-100" in
            Printf.printf "  e-Transaction client delivered %S (tries=%d)\n"
              r.result r.tries);
        ]
      ()
  in
  Dsim.Engine.crash_at engine etx_crash (Cluster.primary d ~shard:0);
  let quiesced = Cluster.run_to_quiescence ~deadline:120_000. d in
  assert quiesced;
  (match Cluster.Spec.check_all d with
  | [] -> ()
  | violations ->
      List.iter print_endline violations;
      exit 1);
  let _, rm = List.hd (Cluster.group d 0).dbs in
  match Dbms.Rm.read_committed rm "card" with
  | Some (Dbms.Value.Int balance) -> balance
  | Some (Dbms.Value.Str _) | None -> assert false

let () =
  print_endline "Debiting 100 from a card with balance 1000; the server";
  print_endline "crashes after the commit but before replying, and the";
  print_endline "client retries.";
  print_newline ();
  let baseline_balance = baseline_run () in
  Printf.printf "  baseline final balance:      %4d%s\n" baseline_balance
    (if baseline_balance < 900 then "   <-- CHARGED TWICE" else "");
  print_newline ();
  let etx_balance = etransaction_run () in
  Printf.printf "  e-Transaction final balance: %4d   (exactly once)\n"
    etx_balance;
  assert (etx_balance = 900)
