(** Build deployments on a fresh simulator engine.

    The protocol builders ({!Cluster.build} and the {!Baselines}
    equivalents) are backend-agnostic: they take a runtime
    capability and never see the engine. Simulator-based sweeps and tests,
    however, routinely need the engine itself — for [crash_at], the trace,
    sequence diagrams, or virtual-time inspection — so {!engine} creates
    one and adapts it with {!Dsim.Runtime_sim.of_engine}: a comparison
    protocol is [Baselines.X.build ~rt] on its runtime, and {!cluster}
    does the same for a {!Cluster} in one call. *)

val engine :
  ?seed:int ->
  ?tracing:bool ->
  ?obs:Obs.Registry.t ->
  unit ->
  Dsim.Engine.t * Runtime.Etx_runtime.t
(** A fresh engine plus its runtime capability (seed defaults to 1, tracing
    on — the historical deployment defaults). [?obs] opts in observability
    exactly as on {!Dsim.Engine.create}. *)

val cluster :
  ?seed:int ->
  ?tracing:bool ->
  ?obs:Obs.Registry.t ->
  ?net:Runtime.Etx_runtime.netmodel ->
  ?map:Etx.Shard_map.t ->
  ?shards:int ->
  ?n_app_servers:int ->
  ?n_dbs:int ->
  ?fd_spec:Etx.Appserver.fd_spec ->
  ?seed_data:(string * Dbms.Value.t) list ->
  ?client_period:float ->
  ?clean_period:float ->
  ?recoverable:bool ->
  ?batch:int ->
  ?cache:bool ->
  ?group_commit:bool ->
  ?replicas:int ->
  ?cross:bool ->
  ?reconfig:bool ->
  ?provision:int ->
  business:Etx.Business.t ->
  scripts:(issue:(string -> Etx.Client.record) -> unit) list ->
  unit ->
  Dsim.Engine.t * Cluster.t
(** A {!Cluster} on a fresh engine — one script per client. The first
    three options are {!engine}'s; the rest are {!Cluster.build}'s, with
    its defaults and its rejections. The paper's deployment is the default
    one-shard cluster. *)
