(* A fresh simulator engine with its runtime, and a cluster built on one:
   harness sweeps and tests keep direct access to engine-only facilities
   (crash_at, trace, seqdiag) alongside the backend-agnostic handle. *)

let engine ?(seed = 1) ?(tracing = true) ?obs () =
  let e = Dsim.Engine.create ~seed ~tracing ?obs () in
  (e, Dsim.Runtime_sim.of_engine e)

let cluster ?seed ?tracing ?obs ?net ?map ?shards ?n_app_servers ?n_dbs ?fd_spec
    ?seed_data ?client_period ?clean_period ?recoverable ?batch ?cache
    ?group_commit ?replicas ?cross ?reconfig ?provision ~business ~scripts () =
  let e, rt = engine ?seed ?tracing ?obs () in
  let c =
    Cluster.build ?net ?map ?shards ?n_app_servers ?n_dbs ?fd_spec ?seed_data
      ?client_period ?clean_period ?recoverable ?batch ?cache ?group_commit
      ?replicas ?cross ?reconfig ?provision ~rt ~business ~scripts ()
  in
  (e, c)
