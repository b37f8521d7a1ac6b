(* etx-sim: command-line driver for the e-Transaction simulator.

   Subcommands either regenerate one entry of the artefact table
   (Harness.Artefact: the paper's figures and the ablations) or run a demo
   scenario with a chosen workload, fault schedule and verbosity. *)

open Cmdliner

let seed_arg =
  let doc = "Random seed (identical seeds give identical executions)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let csv_arg =
  let doc = "Also write the result as CSV to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let domains_arg =
  let doc =
    "Run the sweep's trials on $(docv) domains in parallel. Results are \
     bit-identical to --domains 1; only wall-clock time changes."
  in
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"D" ~doc)

(* ---------------- experiment subcommands ---------------- *)

(* one subcommand per entry of the artefact table *)
let artefact_cmd (e : Harness.Artefact.t) =
  let run seed csv domains =
    let out = e.run ~seed ~domains:(max 1 domains) in
    print_endline out.text;
    Option.iter
      (fun file ->
        let oc = open_out file in
        output_string oc (Harness.Artefact.csv out.rows);
        output_char oc '\n';
        close_out oc;
        Printf.eprintf "wrote %s\n" file)
      csv;
    match e.check out.rows with
    | [] -> ()
    | failures ->
        List.iter (Printf.eprintf "%s: %s\n" e.name) failures;
        exit 1
  in
  Cmd.v (Cmd.info e.name ~doc:e.doc)
    Term.(const run $ seed_arg $ csv_arg $ domains_arg)

(* ---------------- demo subcommand ---------------- *)

type workload_choice = W_bank | W_transfer | W_travel | W_mixed

let workload_conv =
  let parse = function
    | "bank" -> Ok W_bank
    | "transfer" -> Ok W_transfer
    | "travel" -> Ok W_travel
    | "mixed" -> Ok W_mixed
    | s -> Error (`Msg (Printf.sprintf "unknown workload %S" s))
  in
  let print ppf w =
    Format.pp_print_string ppf
      (match w with
      | W_bank -> "bank"
      | W_transfer -> "transfer"
      | W_travel -> "travel"
      | W_mixed -> "mixed")
  in
  Arg.conv (parse, print)

(* Write the registry's Prometheus dump, then re-parse the dump itself (the
   artifact CI archives) and cross-check the committed counter against the
   clients' delivered records. Returns false on mismatch. *)
let write_obs_dump ~file ~delivered reg =
  let dump = Obs.Export_prom.to_string reg in
  let oc = open_out file in
  output_string oc dump;
  close_out oc;
  Printf.eprintf "wrote %s\n" file;
  let committed =
    int_of_float
      (List.fold_left ( +. ) 0.
         (Obs.Export_prom.counter_values dump ~metric:"etx_client_committed"))
  in
  if committed <> delivered then begin
    Printf.printf
      "OBS INCONSISTENCY: etx_client_committed=%d in %s but %d records \
       delivered\n"
      committed file delivered;
    false
  end
  else begin
    Printf.printf "obs: etx_client_committed=%d matches delivered records\n"
      committed;
    true
  end

(* Sharded demo: [shards] replica groups, [clients] clients, keyed bodies
   drawn from the workload generator (transfers stay intra-shard), requests
   dealt round-robin to the clients. Faults target shard 0. *)
let demo_run_cluster seed workload requests n_app_servers n_dbs shards clients
    batch cache replicas replica_bound group_commit force_latency cross_ratio
    crash_primary_at crash_db obs =
  let kind =
    let accounts = max 8 (4 * shards) in
    match workload with
    | W_bank -> Workload.Generator.Bank_updates { accounts; max_delta = 100 }
    | W_transfer ->
        Workload.Generator.Bank_transfers { accounts; max_amount = 100 }
    | W_travel ->
        Workload.Generator.Travel_bookings
          {
            destinations = [ "paris"; "tokyo"; "oslo"; "lima" ];
            max_party = 3;
          }
    | W_mixed ->
        Workload.Generator.Read_heavy
          { accounts; max_delta = 100; reads_per_write = 3 }
  in
  let map = Etx.Shard_map.create ~shards () in
  let bodies =
    Workload.Generator.sharded_bodies ~map ~cross_ratio ~seed
      ~n:(clients * requests) kind
    |> List.map snd
  in
  (* deal bodies round-robin: client i gets bodies i, i+clients, ... *)
  let script_for i ~issue =
    List.iteri (fun k body -> if k mod clients = i then ignore (issue body)) bodies
  in
  let reg = Option.map (fun _ -> Obs.Registry.create ()) obs in
  let engine, c =
    Harness.Simrun.cluster ~seed ~map ?obs:reg ~n_app_servers ~n_dbs ~batch
      ~cache ~replicas ~replica_bound ~group_commit
      ~cross:(cross_ratio > 0.) ~disk_force_latency:force_latency
      ~client_period:300.
      ~seed_data:(Workload.Generator.seed_data_of kind)
      ~business:(Workload.Generator.business_of kind)
      ~scripts:(List.init clients script_for)
      ()
  in
  (match crash_primary_at with
  | Some t -> Dsim.Engine.crash_at engine t (Cluster.primary c ~shard:0)
  | None -> ());
  (match crash_db with
  | Some t ->
      let db = fst (List.hd (Cluster.group c 0).Cluster.dbs) in
      Dsim.Engine.crash_at engine t db;
      Dsim.Engine.recover_at engine (t +. 200.) db
  | None -> ());
  let quiesced = Cluster.run_to_quiescence ~deadline:600_000. c in
  Printf.printf "quiesced: %b (virtual time %.1f ms, %d shards, %d clients)\n"
    quiesced
    (Dsim.Engine.now_of engine)
    shards clients;
  List.iter
    (fun (r : Etx.Client.record) ->
      Printf.printf
        "  request %d %-24s -> shard %d %-32s (tries=%d, latency=%.1f ms)\n"
        r.rid r.body
        (Cluster.shard_of_key c r.key)
        r.result r.tries
        (r.delivered_at -. r.issued_at))
    (Cluster.all_records c);
  if replicas > 0 then
    Array.iter
      (fun g ->
        List.iter
          (fun (_, rep, _) ->
            Printf.printf "  replica %-12s applied=%d lag=%d served=%d\n"
              (Dbms.Replica.name rep)
              (Dbms.Replica.applied_lsn rep)
              (Dbms.Replica.lag rep) (Dbms.Replica.served rep))
          g.Cluster.replicas)
      c.Cluster.groups;
  let violations = Cluster.Spec.check_all c in
  let violations =
    violations
    @ (match reg with
      | Some reg -> Cluster.Spec.obs_consistency reg c
      | None -> [])
  in
  (match violations with
  | [] -> print_endline "specification: all properties hold on every shard"
  | vs ->
      print_endline "SPECIFICATION VIOLATIONS:";
      List.iter (fun v -> print_endline ("  " ^ v)) vs);
  let obs_ok =
    match (obs, reg) with
    | Some file, Some reg ->
        write_obs_dump ~file
          ~delivered:(List.length (Cluster.all_records c))
          reg
    | _ -> true
  in
  if (not quiesced) || violations <> [] || not obs_ok then exit 1

let demo_run seed workload requests n_app_servers n_dbs shards clients batch
    cache replicas replica_bound group_commit force_latency cross_ratio
    crash_primary_at crash_db verbose diagram obs =
  if shards < 1 then (Printf.eprintf "--shards must be >= 1\n"; exit 2);
  if clients < 1 then (Printf.eprintf "--clients must be >= 1\n"; exit 2);
  if batch < 1 then (Printf.eprintf "--batch must be >= 1\n"; exit 2);
  if replicas < 0 then (Printf.eprintf "--replicas must be >= 0\n"; exit 2);
  if cross_ratio < 0. || cross_ratio > 1. then
    (Printf.eprintf "--cross-ratio must be in [0, 1]\n"; exit 2);
  if cross_ratio > 0. && shards < 2 then
    (Printf.eprintf "--cross-ratio needs --shards >= 2\n"; exit 2);
  if shards > 1 || clients > 1 then
    demo_run_cluster seed workload requests n_app_servers n_dbs shards clients
      batch cache replicas replica_bound group_commit force_latency cross_ratio
      crash_primary_at crash_db obs
  else
  let business, seed_data, body_of =
    match workload with
    | W_bank ->
        ( Workload.Bank.update,
          Workload.Bank.seed_accounts [ ("acct0", 1_000_000) ],
          fun i -> Printf.sprintf "acct0:%d" (i + 1) )
    | W_transfer ->
        ( Workload.Bank.transfer,
          Workload.Bank.seed_accounts [ ("acct0", 500); ("acct1", 0) ],
          fun _ -> "acct0:acct1:100" )
    | W_travel ->
        ( Workload.Travel.book,
          Workload.Travel.seed_inventory ~destinations:[ "paris"; "tokyo" ]
            ~seats:5 ~rooms:5 ~cars:5,
          fun i -> if i mod 2 = 0 then "paris:2" else "tokyo:1" )
    | W_mixed ->
        (* three audits then an update, all on one hot account, so repeat
           reads hit the cache and the update invalidates them *)
        ( Workload.Bank.mixed,
          Workload.Bank.seed_accounts [ ("acct0", 1_000) ],
          fun i -> if i mod 4 = 3 then "acct0:7" else "acct0" )
  in
  (* verbose mode reads its work breakdown from the registry's
     [work.<label>] histograms, so it needs one even without -obs *)
  let reg =
    if verbose || obs <> None then Some (Obs.Registry.create ()) else None
  in
  let engine, c =
    Harness.Simrun.cluster ~seed ?obs:reg ~n_app_servers ~n_dbs ~batch
      ~cache ~replicas ~replica_bound ~group_commit
      ~disk_force_latency:force_latency ~client_period:300. ~seed_data
      ~business
      ~scripts:
        [
          (fun ~issue ->
            for i = 0 to requests - 1 do
              ignore (issue (body_of i))
            done);
        ]
      ()
  in
  (match crash_primary_at with
  | Some t -> Dsim.Engine.crash_at engine t (Cluster.primary c ~shard:0)
  | None -> ());
  (match crash_db with
  | Some t ->
      let db = fst (List.hd (Cluster.group c 0).dbs) in
      Dsim.Engine.crash_at engine t db;
      Dsim.Engine.recover_at engine (t +. 200.) db
  | None -> ());
  let quiesced = Cluster.run_to_quiescence ~deadline:600_000. c in
  Printf.printf "quiesced: %b (virtual time %.1f ms)\n" quiesced
    (Dsim.Engine.now_of engine);
  List.iter
    (fun (r : Etx.Client.record) ->
      Printf.printf
        "  request %d %-24s -> %-40s (tries=%d, latency=%.1f ms)\n" r.rid
        r.body r.result r.tries
        (r.delivered_at -. r.issued_at))
    (Cluster.all_records c);
  if replicas > 0 then
    List.iter
      (fun (_, rep, _) ->
        Printf.printf "  replica %-12s applied=%d lag=%d served=%d\n"
          (Dbms.Replica.name rep)
          (Dbms.Replica.applied_lsn rep)
          (Dbms.Replica.lag rep) (Dbms.Replica.served rep))
      (Cluster.group c 0).replicas;
  let violations = Cluster.Spec.check_all c in
  (match violations with
  | [] -> print_endline "specification: all properties hold"
  | vs ->
      print_endline "SPECIFICATION VIOLATIONS:";
      List.iter (fun v -> print_endline ("  " ^ v)) vs);
  if verbose then begin
    let trace = Dsim.Engine.trace engine in
    Printf.printf "protocol messages: %d, communication steps: %d\n"
      (Harness.Msgclass.protocol_messages trace)
      (Harness.Msgclass.protocol_steps trace);
    Format.printf "trace: %a@." Dsim.Trace.pp_stats (Dsim.Trace.stats trace);
    match reg with
    | Some reg ->
        (* work totals per category, from the [work.<label>] histograms
           (counts and quantiles also live there) *)
        let work_names =
          List.sort_uniq String.compare
            (List.filter_map
               (fun ({ Obs.Registry.name; _ }, _) ->
                 if String.length name > 5 && String.sub name 0 5 = "work."
                 then Some name
                 else None)
               (Obs.Registry.histograms reg))
        in
        List.iter
          (fun name ->
            match Obs.Registry.merged_histogram reg name with
            | Some h ->
                Printf.printf "  work[%s] = %.1f ms over %d slices\n"
                  (String.sub name 5 (String.length name - 5))
                  (Obs.Histogram.sum h) (Obs.Histogram.count h)
            | None -> ())
          work_names
    | None -> ()
  end;
  if diagram then begin
    print_endline "--- message sequence diagram ---";
    print_string (Harness.Seqdiag.of_engine engine)
  end;
  let obs_ok =
    match (obs, reg) with
    | Some file, Some reg ->
        write_obs_dump ~file
          ~delivered:(List.length (Cluster.all_records c))
          reg
    | _ -> true
  in
  if (not quiesced) || violations <> [] || not obs_ok then exit 1

let demo_cmd =
  let workload =
    Arg.(
      value
      & opt workload_conv W_bank
      & info [ "w"; "workload" ] ~docv:"bank|transfer|travel|mixed"
          ~doc:
            "Business logic to run (mixed = read-dominant bank audits with \
             interleaved updates).")
  in
  let requests =
    Arg.(
      value & opt int 3
      & info [ "n"; "requests" ] ~docv:"N" ~doc:"Requests to issue.")
  in
  let apps =
    Arg.(
      value & opt int 3
      & info [ "app-servers" ] ~docv:"M" ~doc:"Application servers.")
  in
  let dbs =
    Arg.(
      value & opt int 1
      & info [ "databases" ] ~docv:"K" ~doc:"Database servers.")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"S"
          ~doc:
            "Partition the key space across $(docv) independent replica \
             groups (each with its own app servers, databases and failure \
             detector); requests route by key. With S > 1 the fault flags \
             target shard 0.")
  in
  let clients =
    Arg.(
      value & opt int 1
      & info [ "clients" ] ~docv:"C"
          ~doc:"Concurrent clients behind the shard router.")
  in
  let batch =
    Arg.(
      value & opt int 1
      & info [ "batch" ] ~docv:"B"
          ~doc:
            "Window cap of the leased, batched commit pipeline on every \
             application server (1 = the classic per-request path).")
  in
  let cache =
    Arg.(
      value & flag
      & info [ "cache" ]
          ~doc:
            "Equip every application server with a method cache (read-only \
             calls served without a transaction) and every database with \
             commit-piggybacked invalidation; the cache-coherence obligation \
             joins the specification checks.")
  in
  let replicas =
    Arg.(
      value & opt int 0
      & info [ "replicas" ] ~docv:"R"
          ~doc:
            "Asynchronous change-log read replicas per database: primaries \
             ship committed write-sets off the commit path, app servers \
             route cache-miss read-only requests to a replica and fall back \
             to the primary when provable staleness exceeds the bound; the \
             replica-consistency obligation joins the specification checks \
             (0 = the classic primary-only read path).")
  in
  let replica_bound =
    Arg.(
      value & opt int 8
      & info [ "replica-bound" ] ~docv:"L"
          ~doc:
            "Staleness bound for replica reads (LSN delta between the \
             primary's committed watermark and the replica's applied \
             prefix); a lagging replica answers stale and the request falls \
             back to the primary.")
  in
  let group_commit =
    Arg.(
      value & flag
      & info [ "group-commit" ]
          ~doc:
            "Coalesce concurrent redo-log forces on every database into one \
             disk write per group-commit window (amortizes the forced write \
             the same way the batched pipeline amortizes consensus).")
  in
  let force_latency =
    Arg.(
      value & opt float 12.5
      & info [ "force-latency" ] ~docv:"MS"
          ~doc:"Latency of one forced redo-log disk write (default 12.5).")
  in
  let cross_ratio =
    Arg.(
      value & opt float 0.
      & info [ "cross-ratio" ] ~docv:"R"
          ~doc:
            "Fraction of transfer bodies whose destination account lives on \
             a foreign shard (deterministic interleave). Any positive value \
             builds the cluster with the cross-shard commit wiring, so those \
             transfers commit atomically across their replica groups via \
             Paxos Commit; 0 (the default) keeps the classic group-local \
             path, record-for-record. Needs --shards >= 2.")
  in
  let crash_primary =
    Arg.(
      value
      & opt (some float) None
      & info [ "crash-primary-at" ] ~docv:"MS"
          ~doc:
            "Crash the default primary at this virtual time (ms). With \
             --cross-ratio > 0 shard 0's primary is the coordinator of every \
             cross transfer homed there, so this exercises the \
             takeover-completion path.")
  in
  let crash_db =
    Arg.(
      value
      & opt (some float) None
      & info [ "crash-db-at" ] ~docv:"MS"
          ~doc:"Crash db1 at this virtual time; it recovers 200 ms later.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print trace statistics.")
  in
  let diagram =
    Arg.(
      value & flag
      & info [ "diagram" ] ~doc:"Print the message sequence diagram.")
  in
  let obs =
    Arg.(
      value
      & opt (some string) None
      & info [ "obs" ] ~docv:"FILE"
          ~doc:
            "Attach an observability registry to the run and write its \
             Prometheus text dump to $(docv). The dump is re-parsed and the \
             committed counter cross-checked against the delivered records \
             (non-zero exit on mismatch); with --shards > 1 the cluster-level \
             obs-consistency checks run too.")
  in
  Cmd.v
    (Cmd.info "demo"
       ~doc:
         "Run a deployment with a chosen workload and fault schedule, print \
          delivered results and check the e-Transaction specification.")
    Term.(
      const demo_run $ seed_arg $ workload $ requests $ apps $ dbs $ shards
      $ clients $ batch $ cache $ replicas $ replica_bound $ group_commit
      $ force_latency $ cross_ratio $ crash_primary $ crash_db $ verbose
      $ diagram $ obs)

let main_cmd =
  let doc =
    "e-Transaction protocol simulator (Frølund & Guerraoui, DSN 2000)"
  in
  Cmd.group
    (Cmd.info "etx-sim" ~version:"1.0.0" ~doc)
    (demo_cmd :: List.map artefact_cmd Harness.Artefact.all)

let () = exit (Cmd.eval main_cmd)
