open Runtime
module Rt = Etx_runtime

type outcome = Commit | Abort

type vote = Yes | No

type op =
  | Get of string
  | Put of string * Value.t
  | Add of string * int
  | Ensure_min of string * int
  | Fail

type exec_reply =
  | Exec_ok of { values : Value.t option list; business_ok : bool }
  | Exec_conflict of string
  | Exec_rejected

type timing = {
  start_cpu : float;
  sql_cpu : float;
  end_cpu : float;
  prepare_cpu : float;
  commit_cpu : float;
  abort_cpu : float;
}

(* Calibration: with the three-tier network model the application-server ↔
   database round trip averages 2.4 ms, so the CPU costs below put the
   app-server-visible components at Figure 8's values: start 3.4, SQL 187,
   end 3.4, prepare ≈ 19, commit 18.6. The forced-IO part of prepare/commit
   (12.5 ms) is charged by the disk. *)
let paper_timing =
  {
    start_cpu = 1.0;
    sql_cpu = 184.6;
    end_cpu = 1.0;
    prepare_cpu = 4.1;
    commit_cpu = 3.7;
    abort_cpu = 1.0;
  }

let zero_timing =
  {
    start_cpu = 0.;
    sql_cpu = 0.;
    end_cpu = 0.;
    prepare_cpu = 0.;
    commit_cpu = 0.;
    abort_cpu = 0.;
  }

type txn_phase = Active | Prepared | Committed | Aborted

type txn = {
  xid : Xid.t;
  mutable phase : txn_phase;
  mutable writes : (string * Value.t) list;  (* workspace, oldest first *)
  mutable poisoned : bool;
  mutable exec_log : (int * exec_reply option) list;
      (* per delivered exec sequence number: [None] while the batch is
         still executing, [Some reply] once terminal — the at-least-once
         redelivery guard (see [exec_dedup]) *)
  mutable voting : bool;
  mutable deciding : bool;
      (* a session holds the transaction's prepare (resp. terminal) step
         from its phase check to its phase change, across the CPU charge
         and the log force. Under group commit every message runs in its
         own session, so a duplicate Prepare or Decide would pass the
         same check and log the step twice; it waits for the holder
         instead and re-reads the phase (see [await_step]); releasing
         a claim wakes it. *)
}

(* Typed redo records. Each occupies one LSN in the redo log; recovery is
   checkpoint-load + LSN-ordered replay of everything above the latest
   [W_snapshot]. *)
type redo =
  | W_prepared of Xid.t * (string * Value.t) list
  | W_committed of Xid.t * (string * Value.t) list
  | W_aborted of Xid.t
  | W_snapshot of {
      state : (string * Value.t) list;  (** full committed state *)
      committed : Xid.t list;  (** commit order, oldest first *)
      aborted : Xid.t list;
      imports : (string * int) list;
          (** per-source migration import watermarks (empty except on
              migration destinations) *)
    }
  (* online shard migration (DESIGN.md §16) *)
  | W_seal of int * (string -> bool)
      (** ownership filter of the given epoch: replayed on recovery so a
          sealed source database cannot resurrect write acceptance for
          keys that are mid-migration (the predicate is pure placement
          data captured from the target shard map) *)
  | W_import of {
      src : string;
      snapshot : (string * Value.t) list option;
      entries : (int * (string * Value.t) list) list;
      upto : int;
    }
      (** migrated write-sets from source database [src], covering its
          change log through LSN [upto]; applied to committed state and
          fed to the change feed like a commit *)

(* On-disk footprint estimator for the db.log_bytes gauge: keys/strings
   dominate, fixed per-record framing overhead otherwise. *)
let value_size = function
  | Value.Int _ -> 8
  | Value.Str s -> 8 + String.length s

let writes_size ws =
  List.fold_left (fun a (k, v) -> a + 16 + String.length k + value_size v) 0 ws

let redo_size = function
  | W_prepared (_, ws) | W_committed (_, ws) -> 32 + writes_size ws
  | W_aborted _ -> 24
  | W_snapshot { state; committed; aborted; imports } ->
      32 + writes_size state
      + (16 * (List.length committed + List.length aborted))
      + List.fold_left (fun a (s, _) -> a + 16 + String.length s) 0 imports
  | W_seal _ -> 24
  | W_import { src; snapshot; entries; _ } ->
      32 + String.length src
      + writes_size (Option.value ~default:[] snapshot)
      + List.fold_left (fun a (_, ws) -> a + 8 + writes_size ws) 0 entries

(* A lock is exclusive (one writer) or shared (any number of readers);
   shared locks exist only in strict-2PL mode. *)
type lock_state = L_exclusive of Xid.t | L_shared of Xid.t list

type t = {
  rm_name : string;
  rm_disk : Dstore.Disk.t;
  timing : timing;
  seed_data : (string * Value.t) list;
  read_locks : bool;
  log : redo Dstore.Log.t;
  store : (string, Value.t) Hashtbl.t;
  locks : (string, lock_state) Hashtbl.t;
  txns : (Xid.t, txn) Hashtbl.t;
  mutable commit_order : Xid.t list;  (* newest first *)
  mutable vote_log : (Xid.t * vote) list;  (* newest first *)
  (* committed change history above the snapshot floor, for change-log
     shipping to read replicas and for [state_at] (spec re-execution):
     [(lsn, writes)] newest first. Rebuilt by recovery, reset by
     checkpoint. *)
  mutable changes : (int * (string * Value.t) list) list;
  mutable snapshot_state : (string * Value.t) list;
      (* committed state as of [snapshot_lsn] (seed data at LSN 0) *)
  mutable snapshot_lsn : int;
  mutable last_commit_lsn : int;
      (* shipping watermark: LSN of the latest committed change
         (= [snapshot_lsn] right after a checkpoint) *)
  mutable recovery_steps : int;  (* redo records applied by the last recover *)
  (* online shard migration (DESIGN.md §16) *)
  mutable seal : (int * (string -> bool)) option;
      (* highest-epoch ownership filter installed; a prepare whose write
         set leaves the owned region votes No *)
  commit_lsns : (Xid.t, int) Hashtbl.t;
      (* LSN of each transaction's commit record (above the snapshot
         floor): the migration-integrity oracle checks destination import
         watermarks against these *)
  imports : (string, int) Hashtbl.t;
      (* migration destination: highest source LSN imported, per source
         database name; durable via W_import / W_snapshot *)
  steps : Rt.Wake.t;  (* sessions waiting for a claimed step *)
  committed : Rt.Wake.t;  (* woken at each commit noted for shipping *)
}

let create ?(timing = paper_timing) ?(seed_data = []) ?(read_locks = false)
    ?(group_commit = false) ~disk ~name () =
  let store = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace store k v) seed_data;
  {
    rm_name = name;
    rm_disk = disk;
    timing;
    seed_data;
    read_locks;
    log =
      Dstore.Log.create ~coalesce:group_commit ~size_of:redo_size
        ~obs_prefix:"db" ~disk ();
    store;
    locks = Hashtbl.create 64;
    txns = Hashtbl.create 64;
    commit_order = [];
    vote_log = [];
    changes = [];
    snapshot_state = seed_data;
    snapshot_lsn = 0;
    last_commit_lsn = 0;
    recovery_steps = 0;
    seal = None;
    commit_lsns = Hashtbl.create 64;
    imports = Hashtbl.create 4;
    steps = Rt.Wake.create ();
    committed = Rt.Wake.create ();
  }

(* Append one redo record and make it durable: the append itself is free
   (volatile tail), the force charges the disk — one [Disk.force] per
   call in per-call mode, coalesced into group-commit windows when the
   database was created with [group_commit]. *)
let log_one t ~label r =
  let lsn = Dstore.Log.append t.log r in
  Dstore.Log.force ~label t.log;
  lsn

(* [changes] must stay sorted newest-first: under group commit two
   decides can share one force window and the higher-LSN fiber may
   resume first, so a plain prepend would record the pair out of order
   and [changes_since] (which reverses the prefix) would ship them
   descending — the replica's idempotent apply would then drop the
   lower LSN forever. Insertion is O(1) in the common in-order case. *)
let note_commit t ~lsn writes =
  let rec insert = function
    | ((l, _) as hd) :: rest when l > lsn -> hd :: insert rest
    | rest -> (lsn, writes) :: rest
  in
  t.changes <- insert t.changes;
  if lsn > t.last_commit_lsn then t.last_commit_lsn <- lsn;
  Rt.Wake.wake t.committed

let commit_wake t = t.committed

let name t = t.rm_name
let group_commit t = Dstore.Log.coalescing t.log
let disk t = t.rm_disk

let find_txn t xid = Hashtbl.find_opt t.txns xid

let get_txn t xid =
  match find_txn t xid with
  | Some txn -> txn
  | None ->
      let txn =
        {
          xid;
          phase = Active;
          writes = [];
          poisoned = false;
          exec_log = [];
          voting = false;
          deciding = false;
        }
      in
      Hashtbl.replace t.txns xid txn;
      txn

let release_locks t xid =
  let updates =
    Hashtbl.fold
      (fun k state acc ->
        match state with
        | L_exclusive owner when Xid.equal owner xid -> (k, None) :: acc
        | L_shared owners when List.exists (Xid.equal xid) owners -> (
            match List.filter (fun o -> not (Xid.equal o xid)) owners with
            | [] -> (k, None) :: acc
            | rest -> (k, Some (L_shared rest)) :: acc)
        | L_exclusive _ | L_shared _ -> acc)
      t.locks []
  in
  List.iter
    (fun (k, state) ->
      match state with
      | None -> Hashtbl.remove t.locks k
      | Some s -> Hashtbl.replace t.locks k s)
    updates

(* Current value as seen by a transaction: its workspace shadows the
   committed store. *)
let lookup t txn key =
  let rec in_workspace = function
    | [] -> None
    | (k, v) :: rest -> (
        match in_workspace rest with
        | Some _ as hit -> hit
        | None -> if String.equal k key then Some v else None)
  in
  match in_workspace txn.writes with
  | Some v -> Some v
  | None -> Hashtbl.find_opt t.store key

let write_set ops =
  List.filter_map
    (function
      | Put (k, _) | Add (k, _) -> Some k
      | Get _ | Ensure_min _ | Fail -> None)
    ops
  |> List.sort_uniq String.compare

let read_set ops =
  List.filter_map
    (function
      | Get k | Ensure_min (k, _) -> Some k
      | Put _ | Add _ | Fail -> None)
    ops
  |> List.sort_uniq String.compare

(* Acquire every lock the batch needs or none (atomic): exclusive for the
   write set, shared for the read set in strict-2PL mode. A sole reader may
   upgrade to a writer. *)
let try_lock_all t xid ops =
  let writes = write_set ops in
  let reads =
    if t.read_locks then
      List.filter (fun k -> not (List.mem k writes)) (read_set ops)
    else []
  in
  let write_conflict k =
    match Hashtbl.find_opt t.locks k with
    | None -> false
    | Some (L_exclusive owner) -> not (Xid.equal owner xid)
    | Some (L_shared owners) ->
        not (List.for_all (Xid.equal xid) owners) (* upgrade iff sole owner *)
  in
  let read_conflict k =
    match Hashtbl.find_opt t.locks k with
    | None | Some (L_shared _) -> false
    | Some (L_exclusive owner) -> not (Xid.equal owner xid)
  in
  match
    ( List.find_opt write_conflict writes,
      List.find_opt read_conflict reads )
  with
  | Some k, _ | None, Some k -> Error k
  | None, None ->
      List.iter (fun k -> Hashtbl.replace t.locks k (L_exclusive xid)) writes;
      List.iter
        (fun k ->
          match Hashtbl.find_opt t.locks k with
          | None -> Hashtbl.replace t.locks k (L_shared [ xid ])
          | Some (L_shared owners) ->
              if not (List.exists (Xid.equal xid) owners) then
                Hashtbl.replace t.locks k (L_shared (xid :: owners))
          | Some (L_exclusive _) -> () (* ours, by the conflict check *))
        reads;
      Ok ()

let abort_local t txn ~log =
  release_locks t txn.xid;
  txn.phase <- Aborted;
  if log then ignore (log_one t ~label:"abort" (W_aborted txn.xid))

let xa_start t ~xid =
  let (_ : txn) = get_txn t xid in
  Rt.work "start" t.timing.start_cpu

let xa_end t ~xid =
  (* Must NOT create the transaction: if a crash wiped it after xa_start,
     re-creating an empty workspace here would let it vote Yes and commit a
     spurious no-op — the update would be silently lost. An unknown branch
     is simply detached; the prepare phase will then vote No. *)
  let (_ : txn option) = find_txn t xid in
  Rt.work "end" t.timing.end_cpu

let exec t ~xid ops =
  match find_txn t xid with
  | None -> Exec_rejected
  | Some txn -> (
  match txn.phase with
  | Prepared | Committed | Aborted -> Exec_rejected
  | Active -> (
      match try_lock_all t xid ops with
      | Error key -> Exec_conflict key
      | Ok () ->
          Rt.work "SQL" t.timing.sql_cpu;
          (* re-validate: a concurrent decide may have aborted us while the
             simulated SQL was running *)
          if txn.phase <> Active then Exec_rejected
          else begin
            let values = ref [] in
            let ok = ref true in
            let step op =
              if !ok then
                match op with
                | Get k -> values := lookup t txn k :: !values
                | Put (k, v) -> txn.writes <- txn.writes @ [ (k, v) ]
                | Add (k, n) -> (
                    match lookup t txn k with
                    | Some (Value.Int cur) ->
                        txn.writes <- txn.writes @ [ (k, Value.Int (cur + n)) ]
                    | None -> txn.writes <- txn.writes @ [ (k, Value.Int n) ]
                    | Some (Value.Str _) ->
                        ok := false;
                        txn.poisoned <- true)
                | Ensure_min (k, bound) -> (
                    match lookup t txn k with
                    | Some (Value.Int cur) when cur >= bound -> ()
                    | Some (Value.Int _) | None | Some (Value.Str _) ->
                        ok := false;
                        txn.poisoned <- true)
                | Fail ->
                    ok := false;
                    txn.poisoned <- true
            in
            List.iter step ops;
            Exec_ok { values = List.rev !values; business_ok = !ok }
          end))

(* Exec with at-least-once delivery protection. A reliable channel only
   dedups within one receiver incarnation: after a database crash the new
   incarnation's channel state is fresh, so a peer's outbox redelivers
   every un-acked [Exec_req] — and the readiness-epoch re-send in the stub
   adds another copy. A batch containing [Add]/[Put] is not idempotent
   (each application appends to the workspace, compounding relative
   updates), so the server routes every exec through here: each {e
   physical} attempt carries a unique per-transaction [seq], exactly one
   delivery of a given [seq] executes, the terminal reply is replayed to
   late duplicates, and a duplicate that arrives while the original is
   still executing is dropped ([None] — the original's reply answers the
   caller). Conflict retries use a {e fresh} [seq], so they re-execute as
   before. *)
let exec_dedup t ~seq ~xid ops =
  match find_txn t xid with
  | None -> Some Exec_rejected
  | Some txn -> (
      match List.assoc_opt seq txn.exec_log with
      | Some (Some cached) -> Some cached
      | Some None -> None
      | None ->
          txn.exec_log <- (seq, None) :: txn.exec_log;
          let reply = exec t ~xid ops in
          txn.exec_log <-
            (seq, Some reply) :: List.remove_assoc seq txn.exec_log;
          Some reply)

(* A sealed database disowns the keys a migration is moving away: any
   not-yet-prepared transaction writing one votes No. Transactions that
   prepared before the seal keep their Yes (their decide drains before the
   copy completes — the driver waits on [in_doubt_moving]); after that
   drain no new commit can ever touch a moving key here, which is the
   no-lost-update half of the migration safety argument. *)
let violates_seal t txn =
  match t.seal with
  | None -> false
  | Some (_, owns) -> List.exists (fun (k, _) -> not (owns k)) txn.writes

(* A session that finds another holding the same step of a transaction
   sleeps until the holder lets go, then re-runs the step from its phase
   check. Without group commit each handler runs its steps inline, so two
   of a kind never overlap and nothing here ever waits. A crash kills
   holder and waiter alike, and recovery rebuilds every transaction
   unclaimed. *)
let await_step t held = Rt.Wake.until t.steps (fun () -> not (held ()))

let release_vote t txn =
  txn.voting <- false;
  Rt.Wake.wake t.steps

let release_decide t txn =
  txn.deciding <- false;
  Rt.Wake.wake t.steps

(* Prepare: classify and charge each transaction, stage the W_prepared
   records and force them all with a single disk write (a single
   transaction is a window of one, so its forced IO is the per-call
   discipline's). Both the CPU charge and the force suspend this fiber; a
   concurrent decide (e.g. a cleaning thread's abort) may have terminated
   a transaction meanwhile, so re-validate after every suspension instead
   of blindly promoting — one aborted while the force was in flight gets
   a W_aborted record so recovery cannot resurrect it. A transaction
   another session is preparing waits until this session holds no claim,
   then votes as a window of one, so two windows never wait on each
   other. *)
let rec vote_many t ~xids =
  let classify xid =
    match find_txn t xid with
    | None -> (xid, `No)
    | Some txn when txn.voting -> (xid, `Busy txn)
    | Some txn -> (
        match txn.phase with
        | Prepared | Committed -> (xid, `Yes)
        | Aborted -> (xid, `No)
        | Active ->
            txn.voting <- true;
            if txn.poisoned || violates_seal t txn then begin
              Rt.work "abort" t.timing.abort_cpu;
              abort_local t txn ~log:false;
              release_vote t txn;
              (xid, `No)
            end
            else begin
              Rt.work "prepare" t.timing.prepare_cpu;
              if txn.phase <> Active then begin
                release_vote t txn;
                match txn.phase with
                | Committed | Prepared -> (xid, `Yes)
                | Aborted | Active -> (xid, `No)
              end
              else (xid, `Stage txn)
            end)
  in
  let staged = List.map classify xids in
  let to_force =
    List.filter_map
      (function
        | xid, `Stage txn -> Some (W_prepared (xid, txn.writes))
        | _ -> None)
      staged
  in
  if to_force <> [] then begin
    Dstore.Log.append_list t.log to_force;
    Dstore.Log.force ~label:"prepare" t.log
  end;
  let settle (xid, cls) =
    match cls with
    | `Yes -> (xid, `Vote Yes)
    | `No -> (xid, `Vote No)
    | `Busy _ as b -> (xid, b)
    | `Stage txn ->
        let v =
          if txn.phase = Active then begin
            txn.phase <- Prepared;
            Yes
          end
          else
            match txn.phase with
            | Committed | Prepared -> Yes
            | Aborted | Active ->
                ignore (log_one t ~label:"abort" (W_aborted xid));
                No
        in
        release_vote t txn;
        (xid, `Vote v)
  in
  List.map settle staged
  |> List.map (function
       | xid, `Vote v ->
           t.vote_log <- (xid, v) :: t.vote_log;
           (xid, v)
       | xid, `Busy txn ->
           await_step t (fun () -> txn.voting);
           (xid, vote t ~xid))

and vote t ~xid = snd (List.hd (vote_many t ~xids:[ xid ]))

let apply_writes t writes =
  List.iter (fun (k, v) -> Hashtbl.replace t.store k v) writes

(* Apply a transaction whose W_committed record is durable at [lsn]. *)
let apply_commit t txn ~lsn =
  apply_writes t txn.writes;
  release_locks t txn.xid;
  txn.phase <- Committed;
  t.commit_order <- txn.xid :: t.commit_order;
  Hashtbl.replace t.commit_lsns txn.xid lsn;
  note_commit t ~lsn txn.writes

(* One transaction of a decide window after its phase check. *)
type decide_step =
  | Decided of outcome  (* nothing to log *)
  | Held of txn * outcome  (* another session is deciding it *)
  | Staged of { txn : txn; outcome : outcome; lsn : int }
      (* claimed by this session; [lsn] is its terminal record's *)

(* Decide: charge each transaction and append its terminal log record,
   force the window's records together with one disk write, then apply. A
   commit keeps its locks until its record is durable. An abort releases
   them in the same step that appends its W_aborted record, with no
   suspension in between: the log is durable in LSN order, so a
   transaction that takes a released lock appends its own prepare after
   the abort record, and any force that makes that prepare durable makes
   the abort durable too. A staged transaction is this session's until it
   is applied; one another session is deciding waits until this session
   holds no claim, then is decided as a window of one, so a transaction is
   logged, applied and counted committed at most once. *)
let rec decide_many t ~items =
  let stage (xid, outcome) =
    match find_txn t xid with
    | None ->
        (* never heard of it: record the abort so later decides agree *)
        let txn = get_txn t xid in
        txn.phase <- Aborted;
        Decided Abort
    | Some txn when txn.deciding -> Held (txn, outcome)
    | Some txn -> (
        match (txn.phase, outcome) with
        | Committed, (Commit | Abort) -> Decided Commit
        | Aborted, (Commit | Abort) -> Decided Abort
        | Prepared, Commit ->
            txn.deciding <- true;
            Rt.work "commit" t.timing.commit_cpu;
            let lsn = Dstore.Log.append t.log (W_committed (xid, txn.writes)) in
            Staged { txn; outcome; lsn }
        | Prepared, Abort ->
            txn.deciding <- true;
            Rt.work "abort" t.timing.abort_cpu;
            abort_local t txn ~log:false;
            let lsn = Dstore.Log.append t.log (W_aborted xid) in
            Staged { txn; outcome; lsn }
        | Active, (Commit | Abort) ->
            (* commit without prepare violates V.2; abort defensively *)
            Rt.work "abort" t.timing.abort_cpu;
            abort_local t txn ~log:false;
            Decided Abort)
  in
  let steps = List.map stage items in
  if List.exists (function Staged _ -> true | _ -> false) steps then
    Dstore.Log.force t.log
      ~label:
        (if
           List.exists
             (function Staged { outcome = Commit; _ } -> true | _ -> false)
             steps
         then "commit"
         else "abort");
  List.iter
    (function
      | Staged { txn; outcome = Commit; lsn } ->
          apply_commit t txn ~lsn;
          release_decide t txn
      | Staged { txn; outcome = Abort; _ } -> release_decide t txn
      | Decided _ | Held _ -> ())
    steps;
  List.map2
    (fun (xid, _) -> function
      | Decided outcome | Staged { outcome; _ } -> (xid, outcome)
      | Held (txn, outcome) ->
          await_step t (fun () -> txn.deciding);
          (xid, decide t ~xid outcome))
    items steps

and decide t ~xid outcome =
  snd (List.hd (decide_many t ~items:[ (xid, outcome) ]))

let commit_one_phase t ~xid =
  match find_txn t xid with
  | None -> Abort
  | Some txn -> (
      match txn.phase with
      | Committed -> Commit
      | Aborted | Prepared -> Abort
      | Active ->
          if txn.poisoned then begin
            abort_local t txn ~log:false;
            Abort
          end
          else begin
            Rt.work "commit" t.timing.commit_cpu;
            apply_commit t txn
              ~lsn:(log_one t ~label:"commit" (W_committed (xid, txn.writes)));
            Commit
          end)

let recover t =
  (* crash cut first: records appended but never forced died with the
     incarnation (exactly as if the old force-per-append WAL had crashed
     mid-force, before the record existed) *)
  Dstore.Log.crash_cut t.log;
  Rt.Wake.reset t.steps;
  Rt.Wake.reset t.committed;
  Hashtbl.reset t.store;
  Hashtbl.reset t.locks;
  Hashtbl.reset t.txns;
  t.commit_order <- [];
  t.changes <- [];
  t.snapshot_state <- t.seed_data;
  t.snapshot_lsn <- 0;
  t.last_commit_lsn <- 0;
  t.seal <- None;
  Hashtbl.reset t.commit_lsns;
  Hashtbl.reset t.imports;
  List.iter (fun (k, v) -> Hashtbl.replace t.store k v) t.seed_data;
  let replay_one lsn = function
    | W_prepared (xid, writes) ->
        let txn = get_txn t xid in
        txn.phase <- Prepared;
        txn.writes <- writes
    | W_committed (xid, writes) ->
        let txn = get_txn t xid in
        txn.phase <- Committed;
        txn.writes <- writes;
        apply_writes t writes;
        t.commit_order <- xid :: t.commit_order;
        Hashtbl.replace t.commit_lsns xid lsn;
        note_commit t ~lsn writes
    | W_aborted xid ->
        let txn = get_txn t xid in
        txn.phase <- Aborted
    | W_snapshot { state; committed; aborted; imports } ->
        Hashtbl.reset t.store;
        List.iter (fun (k, v) -> Hashtbl.replace t.store k v) state;
        List.iter
          (fun xid ->
            let txn = get_txn t xid in
            txn.phase <- Committed;
            t.commit_order <- xid :: t.commit_order)
          committed;
        List.iter
          (fun xid ->
            let txn = get_txn t xid in
            txn.phase <- Aborted)
          aborted;
        Hashtbl.reset t.imports;
        List.iter (fun (s, w) -> Hashtbl.replace t.imports s w) imports;
        t.changes <- [];
        t.snapshot_state <- state;
        t.snapshot_lsn <- lsn;
        if lsn > t.last_commit_lsn then t.last_commit_lsn <- lsn
    | W_seal (epoch, owns) -> (
        match t.seal with
        | Some (e, _) when e >= epoch -> ()
        | Some _ | None -> t.seal <- Some (epoch, owns))
    | W_import { src; snapshot; entries; upto } ->
        (match snapshot with
        | Some state -> apply_writes t state
        | None -> ());
        List.iter (fun (_, ws) -> apply_writes t ws) entries;
        let writes =
          Option.value ~default:[] snapshot @ List.concat_map snd entries
        in
        if writes <> [] then note_commit t ~lsn writes;
        let cur = Option.value ~default:0 (Hashtbl.find_opt t.imports src) in
        if upto > cur then Hashtbl.replace t.imports src upto
  in
  (* checkpoint-bounded replay: scan for the latest durable snapshot, then
     apply only it and the records above it, in LSN order *)
  let ckpt = ref 0 in
  Dstore.Log.iter_from t.log ~lsn:(Dstore.Log.base_lsn t.log) ~f:(fun lsn r ->
      match r with W_snapshot _ -> ckpt := lsn | _ -> ());
  let steps = ref 0 in
  Dstore.Log.iter_from t.log
    ~lsn:(max !ckpt (Dstore.Log.base_lsn t.log))
    ~f:(fun lsn r ->
      incr steps;
      replay_one lsn r);
  t.recovery_steps <- !steps;
  (* in-doubt transactions keep their write locks across the crash (read
     sets are not logged, so shared locks are volatile) *)
  Hashtbl.iter
    (fun xid txn ->
      if txn.phase = Prepared then
        List.iter
          (fun (k, _) -> Hashtbl.replace t.locks k (L_exclusive xid))
          txn.writes)
    t.txns

let checkpoint t =
  let state = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.store [] in
  let decided phase =
    Hashtbl.fold
      (fun xid txn acc -> if txn.phase = phase then xid :: acc else acc)
      t.txns []
    |> List.sort Xid.compare
  in
  let prepared =
    Hashtbl.fold
      (fun xid txn acc ->
        if txn.phase = Prepared then (xid, txn.writes) :: acc else acc)
      t.txns []
  in
  (* Crash-atomic: the snapshot and the in-doubt workspaces are appended
     to the volatile tail and made durable by ONE force — a crash before
     it cuts the whole group (recovery replays the untruncated history), a
     crash after it finds a complete checkpoint. Only then is the history
     below the snapshot truncated; the old truncate-then-append order had
     a window in which a crash lost every committed record. *)
  let snap_lsn =
    Dstore.Log.append t.log
      (W_snapshot
         {
           state;
           committed = List.rev t.commit_order;
           aborted = decided Aborted;
           imports = Hashtbl.fold (fun s w acc -> (s, w) :: acc) t.imports [];
         })
  in
  (* in-doubt workspaces stay individually recoverable *)
  List.iter
    (fun (xid, writes) ->
      ignore (Dstore.Log.append t.log (W_prepared (xid, writes))))
    prepared;
  (* the ownership seal must survive the truncation below the snapshot *)
  (match t.seal with
  | Some (epoch, owns) ->
      ignore (Dstore.Log.append t.log (W_seal (epoch, owns)))
  | None -> ());
  Dstore.Log.force ~label:"checkpoint" t.log;
  Dstore.Log.truncate_below t.log ~lsn:snap_lsn;
  t.snapshot_state <- state;
  t.snapshot_lsn <- snap_lsn;
  t.changes <- [];
  if snap_lsn > t.last_commit_lsn then t.last_commit_lsn <- snap_lsn

let log_length t = Dstore.Log.length t.log
let log_bytes t = Dstore.Log.bytes t.log
let last_commit_lsn t = t.last_commit_lsn
let recovery_steps t = t.recovery_steps

(* ---------------- Change-log shipping surface ---------------- *)

type change_feed =
  | Up_to_date
  | Entries of (int * (string * Value.t) list) list
      (** committed writes above the consumer's LSN, ascending *)
  | Snapshot of { state : (string * Value.t) list; as_of : int }
      (** the consumer is below the snapshot floor: enumeration is no
          longer possible, re-seed from the full committed snapshot *)

let changes_since ?(max_entries = 64) t ~lsn =
  if lsn < t.snapshot_lsn then
    Snapshot { state = t.snapshot_state; as_of = t.snapshot_lsn }
  else
    (* [changes] is newest first, so the entries above [lsn] are its
       prefix, collected here oldest first *)
    let rec above acc = function
      | ((l, _) as entry) :: older when l > lsn -> above (entry :: acc) older
      | _ -> acc
    in
    match above [] t.changes with
    | [] -> Up_to_date
    | fresh ->
        let rec take n = function
          | x :: rest when n > 0 -> x :: take (n - 1) rest
          | _ -> []
        in
        Entries (take max_entries fresh)

let state_at t ~lsn =
  if lsn < t.snapshot_lsn || lsn > t.last_commit_lsn then None
  else begin
    let h = Hashtbl.create 64 in
    List.iter (fun (k, v) -> Hashtbl.replace h k v) t.snapshot_state;
    List.iter
      (fun (l, ws) ->
        if l <= lsn then List.iter (fun (k, v) -> Hashtbl.replace h k v) ws)
      (List.rev t.changes);
    Some h
  end

let phase_of t xid = Option.map (fun txn -> txn.phase) (find_txn t xid)

let read_committed t key = Hashtbl.find_opt t.store key

let committed_xids t = List.rev t.commit_order

let writes_of t xid =
  match find_txn t xid with
  | None -> []
  | Some txn ->
      List.sort_uniq String.compare (List.map fst txn.writes)

let in_doubt t =
  Hashtbl.fold
    (fun xid txn acc -> if txn.phase = Prepared then xid :: acc else acc)
    t.txns []
  |> List.sort Xid.compare

let locks_held t =
  Hashtbl.fold
    (fun k state acc ->
      match state with
      | L_exclusive xid -> (k, xid) :: acc
      | L_shared owners -> List.map (fun xid -> (k, xid)) owners @ acc)
    t.locks []
  |> List.sort compare

let known_xids t =
  Hashtbl.fold (fun xid _ acc -> xid :: acc) t.txns [] |> List.sort Xid.compare

let votes_cast t = List.rev t.vote_log

(* A yes vote must reach a durable decision; a no vote aborted on the
   spot and holds nothing, so it never blocks quiescence. *)
let settled t =
  in_doubt t = []
  && List.for_all
       (fun (xid, vote) ->
         match (vote, phase_of t xid) with
         | No, _ -> true
         | Yes, (Some Committed | Some Aborted) -> true
         | Yes, (Some Active | Some Prepared | None) -> false)
       t.vote_log

(* ---------------- Online shard migration surface ---------------- *)

let seal t ~epoch ~owns =
  match t.seal with
  | Some (e, _) when e >= epoch -> () (* monotone; re-seals are no-ops *)
  | Some _ | None ->
      ignore (log_one t ~label:"seal" (W_seal (epoch, owns)));
      t.seal <- Some (epoch, owns)

let sealed_epoch t = match t.seal with None -> 0 | Some (e, _) -> e

let in_doubt_moving t =
  match t.seal with
  | None -> 0
  | Some (_, owns) ->
      Hashtbl.fold
        (fun _ txn n ->
          if
            txn.phase = Prepared
            && List.exists (fun (k, _) -> not (owns k)) txn.writes
          then n + 1
          else n)
        t.txns 0

let import_watermark t ~src =
  Option.value ~default:0 (Hashtbl.find_opt t.imports src)

let import t ~src ?snapshot ~entries ~upto () =
  let cur = import_watermark t ~src in
  (* Entry-only transfers below or at the watermark are replays — drop
     them. A snapshot transfer additionally applies {e at} the watermark:
     the bootstrap snapshot of an unlogged source (seed data only) comes
     as [upto = 0] against a fresh watermark of 0, and re-applying the
     state the watermark already covers is the identity. *)
  if (if snapshot = None then upto <= cur else upto < cur) then cur
  else begin
    (* Without a snapshot, drop the prefix an earlier (possibly pre-crash)
       transfer already covered: entry LSNs are source LSNs, strictly
       above the watermark. With one, apply the transfer whole — snapshot
       plus its entry suffix reconstructs the source state at [upto]
       exactly, which supersedes anything imported before. *)
    let entries =
      if snapshot = None then List.filter (fun (l, _) -> l > cur) entries
      else entries
    in
    let lsn =
      log_one t ~label:"import" (W_import { src; snapshot; entries; upto })
    in
    (match snapshot with Some state -> apply_writes t state | None -> ());
    List.iter (fun (_, ws) -> apply_writes t ws) entries;
    let writes =
      Option.value ~default:[] snapshot @ List.concat_map snd entries
    in
    (* imported state enters the change feed like a commit, so the
       destination's read replicas and [state_at] oracle see it *)
    if writes <> [] then note_commit t ~lsn writes;
    let upto = max upto cur in
    Hashtbl.replace t.imports src upto;
    upto
  end

let commit_lsn_of t xid = Hashtbl.find_opt t.commit_lsns xid
