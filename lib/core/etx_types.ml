(** Domain types and wire messages of the e-Transaction protocol. *)

type request = {
  rid : int;  (** unique request identifier *)
  key : string;  (** routing key: names the partition the request lives in *)
  body : string;  (** the "Request" domain value (e.g. travel parameters) *)
}

(* The routing key of a request body is the text before the first ':' —
   every workload writes bodies as "acct0:...", "paris:...", etc., so the
   first field names the datum the request touches. Bodies with no ':' are
   their own key. *)
let routing_key body =
  match String.index_opt body ':' with
  | Some i -> String.sub body 0 i
  | None -> body

(** The "Result" domain: what the business logic computed for the end-user
    (reservation numbers, hotel names, or a user-level failure report). *)
type result_value = string

(** A decision pairs a result with its transaction outcome — the content of
    the [regD] write-once registers. The paper writes [(nil, abort)] for a
    cleaning-thread abort; [result = None] encodes the [nil]. *)
type decision = { result : result_value option; outcome : Dbms.Rm.outcome }

let abort_decision = { result = None; outcome = Dbms.Rm.Abort }

(** Canonical names of the protocol's registers ({!Consensus.Reg_name}). *)
module Reg_name = Consensus.Reg_name

(** Canonical names of method-cache entries. An entry caches the committed
    result of one read-only business-method invocation, so its identity is
    the pair (method label, request body) — one encode/decode pair shared by
    the application server's cache, the observability dumps and the spec
    checker, exactly like {!Reg_name} for the register families.

    Format: ["cache:<label>/<body>"]. The method label must not contain the
    ['/'] separator (labels are short identifiers like ["bank-audit"]); the
    body may contain anything, including further ['/'] characters — the
    parse splits on the {e first} one. *)
module Cache_key = struct
  let prefix = "cache:"

  let format ~label ~body =
    if String.contains label '/' then
      invalid_arg ("Cache_key.format: label contains '/': " ^ label);
    Printf.sprintf "%s%s/%s" prefix label body

  let parse name =
    let plen = String.length prefix in
    if
      String.length name <= plen
      || not (String.equal (String.sub name 0 plen) prefix)
    then None
    else
      let rest = String.sub name plen (String.length name - plen) in
      match String.index_opt rest '/' with
      | None -> None
      | Some i ->
          Some
            ( String.sub rest 0 i,
              String.sub rest (i + 1) (String.length rest - i - 1) )
end

(* [group] scopes the message to one replica group of a sharded cluster:
   servers drop requests addressed to another group, so a misrouted message
   can never start a transaction on the wrong shard. Single-group
   deployments use group 0 throughout. *)
(* [span] carries the client's root span id for causal tracing (0 = no
   tracing): the serving application server parents its per-try spans under
   it, stitching the cross-node request tree together. It is observability
   metadata only — no protocol decision reads it. *)
type Runtime.Types.payload +=
  | Request_msg of { request : request; j : int; group : int; span : int }
      (** client → application server: [\[Request, request, j\]] *)
  | Result_msg of {
      group : int;
      items : (int * int * decision) list;  (** (rid, j, decision) *)
    }
      (** application server → client: [\[Result, j, decision\]] for every
          listed try, all of them this client's — one per try on the
          classic path, one per window on the batched path *)
  | Reg_a_value of Runtime.Types.proc_id
      (** content of [regA\[j\]]: which server computes result [j] *)
  | Reg_d_value of decision  (** content of [regD\[j\]] *)
  | Reg_lease_value of Runtime.Types.proc_id
      (** content of the lease register, instance [e]: holder of epoch [e] *)
  | Reg_batch_elect of {
      owner : Runtime.Types.proc_id;
      floor : int;
          (** the owner's delivered floor in epoch [e]: every slot below
              it is decided, acknowledged by every database and answered *)
      items : (Runtime.Types.proc_id * int * int) list;
          (** (client, rid, j) of every request in the batch *)
    }
      (** content of [batchA\[e,k\]]: the leaseholder's claim over a window
          of results — the batched analogue of N [Reg_a_value] writes *)
  | Reg_batch_seal
      (** content of [batchA\[e,k\]] written by a {e successor} leaseholder:
          closes epoch [e] at sequence [k]; the deposed holder's next elect
          attempt loses against it *)
  | Reg_batch_decide of decision list
      (** content of [batchD\[e,k\]]: the batch's decisions, positionally
          matching the winning [Reg_batch_elect.items] *)
  | Reg_batch_abort_all
      (** content of [batchD\[e,k\]] written by a cleaner: every request of
          the batch aborts (the batched analogue of [(nil, abort)]) *)
  | Result_cached_msg of { rid : int; j : int; result : result_value; group : int }
      (** application server → client: a read-only result served from the
          method cache, bypassing the registers and the commit pipeline.
          Distinct from {!Result_msg}, whose items each stand for a
          decided transaction, so the client can mark the delivered
          record: cached records have no committed transaction behind them,
          and the spec checker holds them to the cache-coherence obligation
          instead of A.1/exactly-once *)
  | Result_replica_msg of {
      rid : int;
      j : int;
      result : result_value;
      lsn : int;  (** the replica state (primary LSN) the reads saw *)
      lag : int;  (** provable staleness at serve time (LSN delta) *)
      group : int;
    }
      (** application server → client: a read-only result computed on an
          asynchronous read replica, bypassing the registers and the commit
          pipeline. Like cached records these carry no committed
          transaction; the spec checker holds them to the
          replica-consistency obligation (result matches the primary's
          committed state {e as of [lsn]}, and [lag] ≤ the deployment's
          staleness bound) instead of A.1/exactly-once *)

type Runtime.Types.payload +=
  | Result_nack_msg of { rid : int; j : int; group : int; epoch : int }
      (** application server → client: explicit misroute bounce. The server
          cannot serve try [j] of [rid] (the request is stamped for another
          group, the key is not owned here under the current map, or the
          region is sealed for migration), so the client should fan out to
          other servers immediately instead of waiting out its resend
          timer. [epoch] is the server's map epoch ([0] when the
          deployment is not reconfigurable): a client holding an older map
          refetches it and re-routes (DESIGN.md §16). Carries no decision
          — it never concludes a try *)
  | Silent_hint of { rid : int; j : int }
      (** client → itself, never on the wire: the first-try server of try
          [j] acked nothing in 70 ms, so the try fans out at once *)
  | Gx_elect of {
      owner : Runtime.Types.proc_id;
      participants : int list;
      body : string;
    }
      (** content of [regA\[j\]] for a {e cross-shard} try: the coordinator's
          claim over the global transaction. Carries the participant shard
          set and the request body so any cleaner that discovers the
          election can recompute the branch plan and drive the Paxos-Commit
          instance to completion without the crashed owner *)
  | Gx_vote_value of { ok : bool; values : Dbms.Value.t option list }
      (** content of a [Reg_name.gx_vote] register: participant [k]'s vote.
          [ok = true] promises every database of shard [k] is prepared;
          [values] are the branch's read results (for the coordinator's
          [finish]). [ok = false] aborts the global transaction *)
  | Gx_branch of { rid : int; j : int; k : int; ops : Dbms.Rm.op list }
      (** coordinator → participant-shard server: execute branch [k] of
          global transaction (rid, j) — run [ops] at your databases,
          prepare, and decide your shard's vote register. Resent until a
          {!Gx_voted} reply arrives *)
  | Gx_voted of {
      rid : int;
      j : int;
      k : int;
      ok : bool;
      values : Dbms.Value.t option list;
    }
      (** participant → coordinator: branch [k]'s vote register decided *)
  | Gx_resolve of { rid : int; j : int; k : int }
      (** takeover cleaner → participant-shard server: contest branch [k]'s
          vote register with an abort vote and reply its decided value —
          the suspicion-gated analogue of the classic regD contest *)
  | Gx_complete of { rid : int; j : int; k : int; outcome : Dbms.Rm.outcome }
      (** decision driver → participant-shard server: the global outcome is
          known; decide it at every database of shard [k]. Idempotent *)
  | Gx_completed of { rid : int; j : int; k : int }
      (** participant → decision driver: branch [k]'s databases decided *)

(* A batched server's takeover queued requests for its intake, which may
   be blocked on the request class: this wakes it ({!Appserver}). *)
type Runtime.Types.payload += Lease_wake

(* demux classes for the two client/server message streams *)
let cls_request =
  Runtime.Etx_runtime.register_class ~name:"etx-request" (function
    | Request_msg _ | Lease_wake -> true
    | _ -> false)

let cls_result =
  Runtime.Etx_runtime.register_class ~name:"etx-result" (function
    | Result_msg _ | Result_cached_msg _
    | Result_replica_msg _ | Result_nack_msg _ | Silent_hint _ ->
        true
    | _ -> false)

(* cross-shard commit traffic: requests served by the gx handler fiber
   (forked only on cross-enabled servers), and replies consumed by whoever
   is driving the instance — coordinator pipeline or takeover cleaner *)
let cls_gx =
  Runtime.Etx_runtime.register_class ~name:"etx-gx" (function
    | Gx_branch _ | Gx_resolve _ | Gx_complete _ -> true
    | _ -> false)

let cls_gx_reply =
  Runtime.Etx_runtime.register_class ~name:"etx-gx-reply" (function
    | Gx_voted _ | Gx_completed _ -> true
    | _ -> false)

let pp_decision ppf d =
  Format.fprintf ppf "(%s,%s)"
    (match d.result with None -> "nil" | Some r -> r)
    (match d.outcome with Dbms.Rm.Commit -> "commit" | Dbms.Rm.Abort -> "abort")
