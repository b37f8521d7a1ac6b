let computed_prefix = "computed:"

let computed_note ~rid ~j result =
  Printf.sprintf "%s%d:%d:%s" computed_prefix rid j result

module View = struct
  type t = {
    label : string;
    dbs : (Runtime.Types.proc_id * Dbms.Rm.t) list;
    records : Client.record list;
    scripts_done : bool;
    notes : unit -> (Runtime.Types.proc_id * string) list;
    caches : (Runtime.Types.proc_id * Method_cache.t) list;
        (** per-app-server method caches (empty when caching is off);
            checked by {!cache_coherence} *)
    business : Business.t option;
        (** the deployment's business logic, for cache re-execution *)
    replicas :
      (Runtime.Types.proc_id * Dbms.Replica.t * Runtime.Types.proc_id) list;
        (** (replica pid, handle, primary database pid) triples — empty
            when replicas are off; checked by {!replica_consistency} *)
    replica_bound : int;
        (** the deployment's staleness bound (LSN delta); every
            replica-served record must prove lag ≤ this *)
  }

  let tag v msg = if v.label = "" then msg else v.label ^ ": " ^ msg

  let committed_for_rid rm rid =
    List.filter (fun xid -> xid.Dbms.Xid.rid = rid) (Dbms.Rm.committed_xids rm)

  (* Records served from a method cache or a read replica have no
     committed transaction of their own: A.1 and exactly-once deliberately
     skip them (a cached result's provenance is covered by V.1's
     computed-note check and the cache-coherence obligation; a
     replica-served one by the replica-consistency obligation below). *)
  let transactional v =
    List.filter
      (fun (r : Client.record) -> (not r.cached) && r.replica = None)
      v.records

  let agreement_a1 v =
    List.concat_map
      (fun (record : Client.record) ->
        let xid = Dbms.Xid.make ~rid:record.rid ~j:record.tries in
        List.filter_map
          (fun (_, rm) ->
            match Dbms.Rm.phase_of rm xid with
            | Some Dbms.Rm.Committed -> None
            | phase ->
                Some
                  (tag v
                     (Printf.sprintf
                        "A.1: delivered %s not committed at %s (phase %s)"
                        (Dbms.Xid.to_string xid) (Dbms.Rm.name rm)
                        (match phase with
                        | None -> "unknown"
                        | Some Dbms.Rm.Active -> "active"
                        | Some Dbms.Rm.Prepared -> "prepared"
                        | Some Dbms.Rm.Aborted -> "aborted"
                        | Some Dbms.Rm.Committed -> assert false))))
          v.dbs)
      (transactional v)

  let agreement_a2 v =
    List.concat_map
      (fun (_, rm) ->
        let by_rid = Hashtbl.create 8 in
        List.iter
          (fun xid ->
            let rid = xid.Dbms.Xid.rid in
            let cur = Option.value ~default:[] (Hashtbl.find_opt by_rid rid) in
            Hashtbl.replace by_rid rid (xid :: cur))
          (Dbms.Rm.committed_xids rm);
        Hashtbl.fold
          (fun rid xids acc ->
            if List.length xids > 1 then
              tag v
                (Printf.sprintf "A.2: %s committed %d results for request %d"
                   (Dbms.Rm.name rm) (List.length xids) rid)
              :: acc
            else acc)
          by_rid [])
      v.dbs

  let decided_phase rm xid =
    match Dbms.Rm.phase_of rm xid with
    | Some Dbms.Rm.Committed -> Some Dbms.Rm.Commit
    | Some Dbms.Rm.Aborted -> Some Dbms.Rm.Abort
    | Some Dbms.Rm.Active | Some Dbms.Rm.Prepared | None -> None

  let agreement_a3 v =
    let all_xids =
      List.concat_map (fun (_, rm) -> Dbms.Rm.known_xids rm) v.dbs
      |> List.sort_uniq Dbms.Xid.compare
    in
    List.concat_map
      (fun xid ->
        let decisions =
          List.filter_map
            (fun (_, rm) ->
              Option.map (fun o -> (Dbms.Rm.name rm, o)) (decided_phase rm xid))
            v.dbs
        in
        match decisions with
        | [] | [ _ ] -> []
        | (_, first) :: rest ->
            List.filter_map
              (fun (name, o) ->
                if o = first then None
                else
                  Some
                    (tag v
                       (Printf.sprintf "A.3: %s decided differently on %s" name
                          (Dbms.Xid.to_string xid))))
              rest)
      all_xids

  let computed_notes v =
    List.filter_map
      (fun (_, s) ->
        if String.starts_with ~prefix:computed_prefix s then Some s else None)
      (v.notes ())

  (* Parse "computed:<rid>:<j>:<result>" structurally; the result field may
     itself contain ':'.  Malformed notes are dropped rather than matched. *)
  let computed_results notes =
    List.filter_map
      (fun note ->
        match String.split_on_char ':' note with
        | "computed" :: rid :: j :: (_ :: _ as rest) ->
            if int_of_string_opt rid <> None && int_of_string_opt j <> None
            then Some (String.concat ":" rest)
            else None
        | _ -> None)
      notes

  let validity_v1 v =
    let notes = computed_notes v in
    let results = computed_results notes in
    List.filter_map
      (fun (record : Client.record) ->
        if record.cached then
          (* a cached result has no try of its own: it must have been
             computed by SOME earlier try (the cache fill) — any rid/j —
             matched on the full result field, not a bare suffix *)
          if List.exists (String.equal record.result) results then None
          else
            Some
              (tag v
                 (Printf.sprintf
                    "V.1: cached result %S for request %d was never computed \
                     by any try"
                    record.result record.rid))
        else if record.replica <> None then
          (* a replica-served result was computed on the replica, outside
             the elected-try protocol: its provenance obligation is
             replica-consistency (re-execution against the primary's state
             as of the record's LSN), not the computed-note check *)
          None
        else
          let expected =
            computed_note ~rid:record.rid ~j:record.tries record.result
          in
          if List.mem expected notes then None
          else
            Some
              (tag v
                 (Printf.sprintf
                    "V.1: delivered result %S for request %d was never computed"
                    record.result record.rid)))
      v.records

  let validity_v2 v =
    let committed_anywhere =
      List.concat_map (fun (_, rm) -> Dbms.Rm.committed_xids rm) v.dbs
      |> List.sort_uniq Dbms.Xid.compare
    in
    List.concat_map
      (fun xid ->
        List.filter_map
          (fun (_, rm) ->
            let voted_yes =
              List.exists
                (fun (x, v) -> Dbms.Xid.equal x xid && v = Dbms.Rm.Yes)
                (Dbms.Rm.votes_cast rm)
            in
            if voted_yes then None
            else
              Some
                (tag v
                   (Printf.sprintf
                      "V.2: %s committed somewhere but %s never voted yes"
                      (Dbms.Xid.to_string xid) (Dbms.Rm.name rm))))
          v.dbs)
      committed_anywhere

  let termination_t1 v =
    if v.scripts_done then []
    else [ tag v "T.1: client script did not run to completion" ]

  let termination_t2 v =
    List.concat_map
      (fun (_, rm) ->
        let in_doubt =
          List.map
            (fun xid ->
              tag v
                (Printf.sprintf "T.2: %s still in doubt at %s"
                   (Dbms.Xid.to_string xid) (Dbms.Rm.name rm)))
            (Dbms.Rm.in_doubt rm)
        in
        (* Only yes votes need a durable decision: a no vote aborts the
           transaction on the spot and holds no locks, and its (empty) abort
           record legitimately does not survive a later crash. *)
        let undecided_votes =
          List.filter_map
            (fun (xid, vote) ->
              match (vote, Dbms.Rm.phase_of rm xid) with
              | Dbms.Rm.No, _ -> None
              | Dbms.Rm.Yes, (Some Dbms.Rm.Committed | Some Dbms.Rm.Aborted) ->
                  None
              | ( Dbms.Rm.Yes,
                  (Some Dbms.Rm.Active | Some Dbms.Rm.Prepared | None) ) ->
                  Some
                    (tag v
                       (Printf.sprintf
                          "T.2: %s voted yes on %s but never decided it"
                          (Dbms.Rm.name rm) (Dbms.Xid.to_string xid))))
            (Dbms.Rm.votes_cast rm)
        in
        in_doubt @ undecided_votes)
      v.dbs

  let exactly_once v =
    List.concat_map
      (fun (record : Client.record) ->
        List.concat_map
          (fun (_, rm) ->
            match committed_for_rid rm record.rid with
            | [ xid ] when xid.Dbms.Xid.j = record.tries -> []
            | [ xid ] ->
                [
                  tag v
                    (Printf.sprintf
                       "exactly-once: %s committed try %d for request %d but \
                        the client delivered try %d"
                       (Dbms.Rm.name rm) xid.Dbms.Xid.j record.rid record.tries);
                ]
            | [] ->
                [
                  tag v
                    (Printf.sprintf
                       "exactly-once: no committed transaction at %s for \
                        delivered request %d"
                       (Dbms.Rm.name rm) record.rid);
                ]
            | xids ->
                [
                  tag v
                    (Printf.sprintf
                       "exactly-once: %d committed transactions at %s for \
                        request %d"
                       (List.length xids) (Dbms.Rm.name rm) record.rid);
                ])
          v.dbs)
      (transactional v)

  (* Cache coherence (DESIGN.md §13): every entry still LIVE in a method
     cache must equal re-executing its method against the databases'
     current committed state — this is exactly the consistency claim of
     the commit-piggybacked invalidation protocol (a write that made an
     entry stale must have swept it). Re-execution runs the business logic
     over a read-only window onto each database's committed store; a
     supposedly read-only method that attempts a write during re-execution
     is itself a violation. Entries already invalidated are (correctly)
     not checked — a result {e delivered} before a later write is allowed
     to be outdated by it, just like an uncached read would be. *)
  let cache_coherence v =
    match v.business with
    | None -> []
    | Some b ->
        let db_pids = List.map fst v.dbs in
        List.concat_map
          (fun (pid, cache) ->
            List.concat_map
              (fun (e : Method_cache.entry) ->
                let where =
                  Printf.sprintf "%s (server %d)"
                    (Etx_types.Cache_key.format ~label:e.label ~body:e.body)
                    pid
                in
                if e.label <> b.Business.label then
                  [
                    tag v
                      (Printf.sprintf
                         "cache-coherence: %s cached for method %S but the \
                          deployment runs %S"
                         where e.label b.Business.label);
                  ]
                else begin
                  let wrote = ref false in
                  let exec ~db ops =
                    let rm = List.assoc db v.dbs in
                    let values =
                      List.filter_map
                        (fun op ->
                          match op with
                          | Dbms.Rm.Get k ->
                              Some (Dbms.Rm.read_committed rm k)
                          | _ ->
                              wrote := true;
                              None)
                        ops
                    in
                    Dbms.Rm.Exec_ok { values; business_ok = true }
                  in
                  let ctx =
                    {
                      Business.xid = Dbms.Xid.make ~rid:0 ~j:0;
                      dbs = db_pids;
                      exec;
                      attempt = 1;
                    }
                  in
                  let fresh = b.Business.run ctx ~body:e.body in
                  let writes =
                    if !wrote then
                      [
                        tag v
                          (Printf.sprintf
                             "cache-coherence: re-executing %s performed \
                              writes (method is not read-only)"
                             where);
                      ]
                    else []
                  in
                  let stale =
                    if String.equal fresh e.result then []
                    else
                      [
                        tag v
                          (Printf.sprintf
                             "cache-coherence: %s caches %S but re-execution \
                              against committed state gives %S"
                             where e.result fresh);
                      ]
                  in
                  writes @ stale
                end)
              (Method_cache.entries cache))
          v.caches

  (* Replica consistency (DESIGN.md §14). Two obligations:

     (a) {e replica state = a committed log prefix}: every replica's store
     must equal the primary's committed state as of the replica's applied
     LSN — the change feed applied in LSN order can produce nothing else,
     and any divergence (reordering, a lost entry, a write leaking onto a
     replica) shows up here. [state_at] answers [None] when a later
     checkpoint discarded the history below the replica's LSN or the LSN
     is ahead of the primary's committed watermark (possible mid-recovery
     while the primary replays); both are unverifiable, not violations —
     the fault sweeps run this check at quiescence too, where the common
     case is verifiable.

     (b) {e every replica-served record is honestly bounded}: its proven
     lag is within the deployment's bound, and re-executing the business
     method against the primary's committed state {e as of the record's
     LSN} reproduces the delivered result — the staleness tag is a real
     snapshot, not a guess. *)
  let replica_consistency v =
    let state_checks =
      List.concat_map
        (fun (rpid, replica, db_pid) ->
          match List.assoc_opt db_pid v.dbs with
          | None -> []
          | Some rm -> (
              match Dbms.Rm.state_at rm ~lsn:(Dbms.Replica.applied_lsn replica)
              with
              | None -> [] (* unverifiable: checkpointed past or mid-replay *)
              | Some expect ->
                  let expected =
                    Hashtbl.fold (fun k value acc -> (k, value) :: acc) expect []
                    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
                  in
                  if expected = Dbms.Replica.store_bindings replica then []
                  else
                    [
                      tag v
                        (Printf.sprintf
                           "replica-consistency: %s (pid %d) at LSN %d does                             not equal %s's committed prefix"
                           (Dbms.Replica.name replica)
                           rpid
                           (Dbms.Replica.applied_lsn replica)
                           (Dbms.Rm.name rm));
                    ]))
        v.replicas
    in
    let record_checks =
      match v.business with
      | None -> []
      | Some b ->
          let db_pids = List.map fst v.dbs in
          List.concat_map
            (fun (record : Client.record) ->
              match record.replica with
              | None -> []
              | Some (lsn, lag) ->
                  let bound_errs =
                    if lag <= v.replica_bound then []
                    else
                      [
                        tag v
                          (Printf.sprintf
                             "replica-consistency: request %d served with                               lag %d above bound %d"
                             record.rid lag v.replica_bound);
                      ]
                  in
                  let unverifiable = ref false in
                  let exec ~db ops =
                    match
                      Option.bind
                        (List.assoc_opt db v.dbs)
                        (fun rm -> Dbms.Rm.state_at rm ~lsn)
                    with
                    | None ->
                        unverifiable := true;
                        Dbms.Rm.Exec_ok { values = []; business_ok = true }
                    | Some state ->
                        let values =
                          List.filter_map
                            (fun op ->
                              match op with
                              | Dbms.Rm.Get k ->
                                  Some (Hashtbl.find_opt state k)
                              | _ ->
                                  unverifiable := true;
                                  None)
                            ops
                        in
                        Dbms.Rm.Exec_ok { values; business_ok = true }
                  in
                  let ctx =
                    {
                      Business.xid = Dbms.Xid.make ~rid:0 ~j:0;
                      dbs = db_pids;
                      exec;
                      attempt = 1;
                    }
                  in
                  let fresh = b.Business.run ctx ~body:record.body in
                  let result_errs =
                    if !unverifiable || String.equal fresh record.result then
                      []
                    else
                      [
                        tag v
                          (Printf.sprintf
                             "replica-consistency: request %d delivered %S                               but the primary's state at LSN %d gives %S"
                             record.rid record.result lsn fresh);
                      ]
                  in
                  bound_errs @ result_errs)
            v.records
    in
    state_checks @ record_checks

  let check_all v =
    agreement_a1 v @ agreement_a2 v @ agreement_a3 v @ validity_v1 v
    @ validity_v2 v @ termination_t1 v @ termination_t2 v @ exactly_once v
    @ cache_coherence v @ replica_consistency v
end
