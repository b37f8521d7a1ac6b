(** Wire messages understood by a database server.

    [Prepare]/[Vote]/[Decide]/[Ack_decide]/[Ready] are the paper's
    Figure 3 message types; [Exec_req]/[Exec_reply] carry the business-logic
    manipulation the paper abstracts as "transactional manipulation";
    [Commit1]/[Commit1_reply] support the unreliable baseline protocol's
    single-phase commit (Fig. 7a). Every XA step carries a window of
    transactions: one message per database covers the whole window, so
    its prepare/decide round and forced log writes are paid once per
    window, and a single transaction is a window of one. *)

type Runtime.Types.payload +=
  | Xa_start of { xids : Xid.t list }
  | Xa_started of { xids : Xid.t list }
  | Xa_end of { xids : Xid.t list }
  | Xa_ended of { xids : Xid.t list }
  | Exec_req of { xid : Xid.t; seq : int; ops : Rm.op list }
      (** [seq] numbers the physical exec attempts within [xid] so the
          server can recognize a redelivered batch (see
          {!Rm.exec_dedup}) *)
  | Exec_reply of { xid : Xid.t; seq : int; reply : Rm.exec_reply }
  | Prepare of { xids : Xid.t list }
  | Vote of { votes : (Xid.t * Rm.vote) list }  (** in [Prepare.xids] order *)
  | Decide of { items : (Xid.t * Rm.outcome) list }
  | Ack_decide of { xids : Xid.t list }
  | Ready
  | Ready_wake of { epoch : int }
      (** application server → its own waiting stub fiber, never on the
          wire: the database announced recovery epoch [epoch] *)
  | Commit1 of { xid : Xid.t }
  | Commit1_reply of { xid : Xid.t; outcome : Rm.outcome }
  (* change-log shipping (primary database -> its read replicas) and the
     bounded-staleness replica read protocol (application server -> replica) *)
  | Ship of {
      entries : (int * (string * Value.t) list) list;
          (** committed write-sets above the replica's applied LSN,
              ascending; [] is a watermark-only heartbeat *)
      upto : int;  (** primary's last committed LSN at ship time *)
    }
  | Ship_snapshot of {
      state : (string * Value.t) list;
      as_of : int;
      upto : int;
    }
      (** the replica fell below the primary's retention floor (a
          checkpoint ran): re-seed from a full committed snapshot *)
  | Replica_exec of { rid : int; seq : int; ops : Rm.op list; bound : int }
      (** read-only business batch; [bound] is the staleness the client
          tolerates (LSN delta) *)
  | Replica_values of {
      rid : int;
      seq : int;
      values : Value.t option list;
      lsn : int;  (** the replica's applied LSN: the state the reads saw *)
      lag : int;  (** provable staleness at serve time (LSN delta) *)
    }
  | Replica_stale of { rid : int; seq : int; lag : int }
      (** lag exceeded [bound]: caller must fall back to the primary *)
  | Replica_refused of { rid : int; seq : int }
      (** the batch was not read-only: replicas never execute writes *)
  (* online shard migration (driver application server <-> database):
     ownership sealing plus the pull/push range-copy protocol layered on
     the same change-feed machinery that serves read replicas. Handled by
     a dedicated fiber forked only on migratable databases. *)
  | Mig_seal_req of { epoch : int; owns : string -> bool }
      (** install (and force-log) an ownership filter: from now on this
          database votes No on any transaction writing a key it does not
          own under the epoch-[epoch] map. Monotone in [epoch]; replays
          and re-seals are idempotent *)
  | Mig_seal_ack of { epoch : int }
  | Mig_pull_req of { from_lsn : int }
      (** read the committed change feed above [from_lsn] (the driver's
          per-source watermark); read-only and idempotent *)
  | Mig_pull_resp of {
      from_lsn : int;  (** echoed, so stale replies can be discarded *)
      feed : Rm.change_feed;
      watermark : int;  (** the database's last committed LSN *)
      in_doubt_moving : int;
          (** prepared-but-undecided transactions that write a key the
              seal disowns: the copy is complete only once these drained
              to zero (each will commit below a later watermark or
              abort) *)
      sealed : int;  (** currently installed seal epoch; 0 = none *)
    }
  | Mig_push_req of {
      src : string;  (** source database name: the watermark namespace *)
      snapshot : (string * Value.t) list option;
          (** [Some state]: re-seed (the source fell below its retention
              floor), applied before [entries] *)
      entries : (int * (string * Value.t) list) list;
          (** moving-key write-sets in source-LSN order, ascending *)
      upto : int;  (** source LSN the transfer covers through *)
    }
  | Mig_push_ack of { src : string; upto : int }
      (** [upto] = the destination's durable per-[src] import watermark *)
  | Invalidate of { keys : string list }
      (** database → every application server: the write keyset of a
          just-committed transaction (or the union over a committed batch),
          piggybacked on the Decide fan-out so method caches drop entries
          whose read keyset intersects it. [keys = []] is the flush-all
          sentinel, broadcast by a database that recovered from a snapshot
          and can no longer enumerate the writes it replayed. Sent only
          when the deployment enables invalidation (cache on). *)

(* demux classes, one per server-side handler loop plus the stub-side
   reply and readiness streams *)
let cls_exec =
  Runtime.Etx_runtime.register_class ~name:"db-exec" (function
    | Exec_req _ | Commit1 _ | Xa_start _ | Xa_end _ -> true
    | _ -> false)

let cls_prepare =
  Runtime.Etx_runtime.register_class ~name:"db-prepare" (function
    | Prepare _ -> true
    | _ -> false)

let cls_decide =
  Runtime.Etx_runtime.register_class ~name:"db-decide" (function
    | Decide _ -> true
    | _ -> false)

let cls_reply =
  Runtime.Etx_runtime.register_class ~name:"db-reply" (function
    | Exec_reply _ | Vote _ | Ack_decide _ | Xa_started _ | Xa_ended _
    | Commit1_reply _ | Ready_wake _ ->
        true
    | _ -> false)

let cls_invalidate =
  Runtime.Etx_runtime.register_class ~name:"db-invalidate" (function
    | Invalidate _ -> true
    | _ -> false)

let cls_ship =
  Runtime.Etx_runtime.register_class ~name:"db-ship" (function
    | Ship _ | Ship_snapshot _ -> true
    | _ -> false)

let cls_replica_exec =
  Runtime.Etx_runtime.register_class ~name:"replica-exec" (function
    | Replica_exec _ -> true
    | _ -> false)

let cls_replica_reply =
  Runtime.Etx_runtime.register_class ~name:"replica-reply" (function
    | Replica_values _ | Replica_stale _ | Replica_refused _ -> true
    | _ -> false)

let cls_mig =
  Runtime.Etx_runtime.register_class ~name:"db-mig" (function
    | Mig_seal_req _ | Mig_pull_req _ | Mig_push_req _ -> true
    | _ -> false)

let cls_mig_reply =
  Runtime.Etx_runtime.register_class ~name:"db-mig-reply" (function
    | Mig_seal_ack _ | Mig_pull_resp _ | Mig_push_ack _ -> true
    | _ -> false)

let cls_ready =
  Runtime.Etx_runtime.register_class ~name:"db-ready" (function
    | Ready -> true
    | _ -> false)
