(* Convenience constructors: one call builds a deployment (or comparison
   protocol) on a fresh simulator engine and returns both, so harness sweeps
   and tests keep direct access to engine-only facilities (crash_at, trace,
   seqdiag) alongside the backend-agnostic handle. *)

let engine ?(seed = 1) ?(tracing = true) ?obs () =
  let e = Dsim.Engine.create ~seed ~tracing ?obs () in
  (e, Dsim.Runtime_sim.of_engine e)

let cluster ?seed ?tracing ?obs ?net ?map ?shards ?n_app_servers ?n_dbs ?fd_spec
    ?timing ?disk_force_latency ?seed_data ?client_period ?clean_period
    ?recoverable ?batch ?cache ?group_commit ?replicas ?cross ?reconfig
    ?provision ~business ~scripts () =
  let e, rt = engine ?seed ?tracing ?obs () in
  let c =
    Cluster.build ?net ?map ?shards ?n_app_servers ?n_dbs ?fd_spec ?timing
      ?disk_force_latency ?seed_data ?client_period ?clean_period
      ?recoverable ?batch ?cache ?group_commit ?replicas ?cross ?reconfig
      ?provision ~rt ~business ~scripts ()
  in
  (e, c)

let baseline ?seed ?tracing ?obs ?net ?n_dbs ?timing ?disk_force_latency ?seed_data
    ?client_period ~business ~script () =
  let e, rt = engine ?seed ?tracing ?obs () in
  let b =
    Baselines.Baseline.build ?net ?n_dbs ?timing ?disk_force_latency
      ?seed_data ?client_period ~rt ~business ~script ()
  in
  (e, b)

let tpc ?seed ?tracing ?obs ?net ?n_dbs ?timing ?disk_force_latency ?seed_data
    ?client_period ~business ~script () =
  let e, rt = engine ?seed ?tracing ?obs () in
  let t =
    Baselines.Tpc.build ?net ?n_dbs ?timing ?disk_force_latency ?seed_data
      ?client_period ~rt ~business ~script ()
  in
  (e, t)

let pbackup ?seed ?tracing ?obs ?net ?n_dbs ?timing ?disk_force_latency ?seed_data
    ?client_period ?backup_fd ~business ~script () =
  let e, rt = engine ?seed ?tracing ?obs () in
  let p =
    Baselines.Pbackup.build ?net ?n_dbs ?timing ?disk_force_latency ?seed_data
      ?client_period ?backup_fd ~rt ~business ~script ()
  in
  (e, p)
