(** The client protocol (paper Figure 2), wrapped in a simulated process.

    [issue] keeps retransmitting the request until a {e committed} result
    comes back: it first sends to the default primary, falls back to
    broadcasting to every application server after the back-off period, and
    increments the result identifier [j] whenever a try aborts. The
    fall-back comes early when the reliable channel reports the primary
    silent ({!Dnet.Rchannel.create}'s [on_silent]: no ack 70 ms after the
    request). The client's channel resends only the try in flight: a
    request of an earlier try or an earlier request is retired
    ({!Dnet.Rchannel.retire_when}) when it next falls due. Only a
    committed result is delivered to the end-user — that, together with the
    server-side protocol, is the exactly-once guarantee.

    One deliberate strengthening of the figure's pseudo-code: after the
    broadcast (line 6) the paper waits unboundedly (line 7); we re-broadcast
    every back-off period, which is strictly more live and matches the
    paper's stated design ("clients use a simple timeout mechanism to
    re-submit requests"). *)

open Runtime

type record = {
  rid : int;
  key : string;  (** the request's routing key *)
  body : string;
  result : Etx_types.result_value;  (** the delivered (committed) result *)
  tries : int;  (** the final result identifier [j] *)
  issued_at : float;
  delivered_at : float;
  cached : bool;
      (** served from an app server's method cache ([Result_cached_msg]):
          no transaction was committed for this request, so the spec holds
          the record to the cache-coherence obligation instead of
          A.1/exactly-once *)
  replica : (int * int) option;
      (** [Some (lsn, lag)]: served by an asynchronous read replica
          ([Result_replica_msg]) from the primary's committed state as of
          [lsn], with provable staleness [lag] (an LSN delta ≤ the
          deployment's staleness bound); no transaction was committed for
          this request, so the spec holds the record to the
          replica-consistency obligation instead of A.1/exactly-once *)
  group : int;
      (** the replica group that served the committed result. Under
          reconfiguration a key's home group changes across epochs; the
          spec reads the serving group from the record instead of
          recomputing it from one map *)
}

type reconfig = {
  mutable map : Shard_map.t;
      (** this client's current view of the epoch-versioned shard map;
          refreshed when a bounce carries a newer epoch (DESIGN.md §16) *)
  group_servers : int -> Types.proc_id list;
      (** group index → that group's application servers *)
  cfg_servers : Types.proc_id list;
      (** the config group's application servers, queried ([Cfg_query])
          for newer maps *)
}

type handle

val spawn :
  Etx_runtime.t ->
  ?name:string ->
  ?period:float ->
  ?affinity:int ->
  ?router:(string -> int * Types.proc_id list) ->
  ?reconfig:reconfig ->
  servers:Types.proc_id list ->
  script:(issue:(string -> record) -> unit) ->
  unit ->
  handle
(** [servers] ordered, head = default primary; [period] is the back-off
    timeout (default 400 ms). [script] runs inside the client process and
    issues requests one at a time; it does not re-run if the client process
    is crashed and recovered (a crashed client stays silent, as in the
    paper's model).

    [affinity] (default 0) rotates the first-try target within the routed
    group's server list ([affinity mod length]), so a fleet of clients can
    spread initial load over the application servers instead of all
    addressing the head; 0 preserves the paper's head-first behaviour
    byte-for-byte. Retries still broadcast to the whole group.

    [router key] resolves the routing key of each issued request to the
    replica group serving it: [(group, group's servers, head = primary)].
    Defaults to [(0, servers)] — the single-group deployment. A sharded
    cluster passes the shard-map lookup here; requests and results carry the
    group on the wire so a misrouted request is dropped by the receiving
    server rather than executed on the wrong shard.

    [reconfig] supersedes [router]: the key is resolved against the
    client's mutable map view on {e every} attempt, and a server bounce
    carrying a newer epoch triggers a map refresh ([Cfg_query] to the
    config group, counted as [client.map_refresh]) followed by an
    immediate re-route of the same try — the client never aborts or
    duplicates a request because the cluster moved its key. *)

val pid : handle -> Types.proc_id

val records : handle -> record list
(** Results delivered so far, oldest first. *)

val script_done : handle -> bool
(** Whether the script ran to completion (the T.1 check). *)
