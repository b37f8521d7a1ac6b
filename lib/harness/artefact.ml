(* The artefact table. Each entry runs one driver from {!Experiments},
   whose table declares every column once; [out] derives the printed text
   and the named rows from it. *)

module E = Experiments

type row = (string * Stats.Json.t) list
type output = { text : string; rows : row list }

type t = {
  name : string;
  title : string;
  doc : string;
  obs : string;
  host_timed : bool;
  smoke : bool;
  run : seed:int -> domains:int -> output;
  check : row list -> string list;
}

let entry ?(obs = "off") ?(host_timed = false) ?(smoke = false)
    ?(check = fun _ -> []) name title doc run =
  { name; title; doc; obs; host_timed; smoke; run; check }

let out (t : Stats.Table.t) =
  { text = Stats.Table.text t; rows = List.map Stats.Table.fields t.rows }

(* ------------------------------------------------------------------ *)
(* Checks *)

let num row k =
  match List.assoc_opt k row with
  | Some (Stats.Json.Int n) -> float_of_int n
  | Some (Stats.Json.Float x) -> x
  | _ -> nan

let flag row k = List.assoc_opt k row = Some (Stats.Json.Bool true)
let fail fmt = Printf.ksprintf (fun m -> [ m ]) fmt

(* each row with [k] set, paired with the row that has [k] unset and the
   same [key] *)
let twins ~key k rows =
  let twin r u = num u key = num r key && not (flag u k) in
  List.filter_map
    (fun r -> if flag r k then Some (r, List.find_opt (twin r) rows) else None)
    rows

(* off rows: forces/commit never rises with the cap; at cap 1 the
   coalescing scheduler forces less than per-call forcing *)
let check_group_commit rows =
  let fpc r = num r "forces_per_commit" in
  let rec rises = function
    | a :: (b :: _ as rest) when fpc b > fpc a ->
        fail "group commit off: forces/commit rises from cap %g to cap %g"
          (num a "batch") (num b "batch")
        @ rises rest
    | _ :: rest -> rises rest
    | [] -> []
  in
  let by_cap a b = compare (num a "batch") (num b "batch") in
  let off = List.filter (fun r -> not (flag r "group_commit")) rows in
  let cap1 (on, _) = num on "batch" = 1. in
  rises (List.stable_sort by_cap off)
  @
  match List.find_opt cap1 (twins ~key:"batch" "group_commit" rows) with
  | Some (on, Some off) when num on "forces" < num off "forces" -> []
  | _ -> fail "cap 1: group commit on does not force less than off"

(* every cache-on row hits, and reads faster than cache-off at its size *)
let check_cache rows =
  List.concat_map
    (fun (on, off) ->
      let n = num on "servers" in
      (if num on "hit_rate" > 0. then []
       else fail "%g servers: cache on, hit rate 0" n)
      @
      match off with
      | Some off when num on "read_tx_per_vs" > num off "read_tx_per_vs" -> []
      | _ -> fail "%g servers: cache on does not read faster than off" n)
    (twins ~key:"servers" "cache" rows)

let check_replica rows =
  List.concat_map
    (fun r ->
      if num r "replicas" >= 1. && not (num r "replica_served" > 0.) then
        fail "%g replicas: no read served from a replica" (num r "replicas")
      else [])
    rows

let check_recovery rows =
  List.concat_map
    (fun (ck, plain) ->
      match plain with
      | Some u when num ck "replay_steps" < num u "replay_steps" -> []
      | _ ->
          fail "%g commits: checkpoints do not shorten replay"
            (num ck "commits"))
    (twins ~key:"commits" "checkpointed" rows)

let check_obs_overhead rows =
  match List.sort_uniq compare (List.map (fun r -> num r "events") rows) with
  | [ _ ] -> []
  | _ -> fail "simulator event counts differ across obs modes"

(* ------------------------------------------------------------------ *)
(* The table *)

let all =
  [
    entry "figure8" "E1/E4 (paper Figure 8)"
      "Latency components table (paper Figure 8)."
      (fun ~seed ~domains -> out (E.figure8 ~seed ~domains ()));
    entry "figure7" "E2 (paper Figure 7)"
      "Communication steps in failure-free runs (paper Figure 7)."
      (fun ~seed ~domains -> out (E.figure7 ~seed ~domains ()));
    entry "figure1" "E3 (paper Figure 1)"
      "The four canonical executions (paper Figure 1)."
      (fun ~seed ~domains -> out (E.figure1 ~seed ~domains ()));
    entry "failover" "A1 (ablation)"
      "Ablation A1: fail-over latency vs detector timeout."
      (fun ~seed ~domains -> out (E.failover_sweep ~seed ~domains ()));
    entry "backoff" "A2 (ablation)"
      "Ablation A2: client back-off period sensitivity."
      (fun ~seed ~domains -> out (E.backoff_sweep ~seed ~domains ()));
    entry "loss" "A3 (ablation)" "Ablation A3: message-loss tolerance."
      (fun ~seed ~domains -> out (E.loss_sweep ~seed ~domains ()));
    entry "dbs" "A4 (ablation)" "Ablation A4: latency vs number of databases."
      (fun ~seed ~domains -> out (E.db_sweep ~seed ~domains ()));
    entry "persistence" "A5 (ablation)"
      "Ablation A5: the latency cost of recoverable application servers."
      (fun ~seed ~domains -> out (E.persistence_ablation ~seed ~domains ()));
    entry "consensus-failover" "A6 (ablation)"
      "Ablation A6: register-write latency under a crashed coordinator vs \
       the round timeout."
      (fun ~seed ~domains ->
        out (E.consensus_failover_sweep ~seed ~domains ()));
    entry "throughput" "A7 (ablation)"
      "Ablation A7: aggregate throughput vs concurrent clients."
      (fun ~seed ~domains -> out (E.throughput_sweep ~seed ~domains ()));
    entry "fd-quality" "A9 (ablation)"
      "Ablation A9: spurious cleanings and retries vs the suspicion timeout."
      (fun ~seed ~domains -> out (E.fd_quality_sweep ~seed ~domains ()));
    entry ~obs:"traced" "failover-phases" "A12 (ablation)"
      "Ablation A12: per-phase latency attribution of fail-over, from the \
       span layer."
      (fun ~seed ~domains -> out (E.failover_phases ~seed ~domains ()));
    entry ~obs:"sweep" ~host_timed:true ~check:check_obs_overhead
      "obs-overhead" "Obs overhead (events/sec, wall-clock, host-dependent)"
      "Simulator events per wall-clock second with obs off, metrics only, \
       and traced."
      (fun ~seed ~domains:_ -> out (E.obs_overhead ~seed));
    entry ~host_timed:true "scale" "A10 (cluster-scale sweep)"
      "Ablation A10: simulator events per wall-clock second vs cluster size \
       (takes minutes)."
      (fun ~seed ~domains:_ -> out (E.scale_sweep ~seed ()));
    entry ~host_timed:true ~smoke:true "scale-smoke"
      "A10 (cluster-scale sweep)"
      "Ablation A10 at its smallest point only."
      (fun ~seed ~domains:_ ->
        out (E.scale_sweep ~seed ~points:[ List.hd E.scale_points ] ()));
    entry "shard" "A11 (shard scaling)"
      "Ablation A11: virtual-time throughput vs shard count."
      (fun ~seed ~domains -> out (E.shard_sweep ~seed ~domains ()));
    entry "cross" "A16 (cross-shard commit)"
      "Ablation A16: cross-shard commit throughput and messages vs the \
       cross-shard fraction."
      (fun ~seed ~domains -> out (E.cross_sweep ~seed ~domains ()));
    entry "migrate" "A17 (elastic reconfiguration)"
      "Ablation A17: throughput before, during and after an online shard \
       split."
      (fun ~seed ~domains -> out (E.migrate_sweep ~seed ~domains ()));
    entry ~obs:"metrics" "batch" "A13 (batched commit pipeline)"
      "Ablation A13: batched-pipeline throughput and messages vs the window \
       cap, with phase costs from a traced run (A13b)."
      (fun ~seed ~domains ->
        let a13 = out (E.batch_sweep ~seed ~domains ()) in
        {
          a13 with
          text =
            a13.text ^ "\n\n== A13b (amortized phase cost) ==\n"
            ^ Stats.Table.text (E.batch_phases ~seed ~domains ());
        });
    entry ~obs:"metrics" ~check:check_cache "cache" "A14 (method cache)"
      "Ablation A14: the method cache under a read-heavy mix, on vs off per \
       server count."
      (fun ~seed ~domains -> out (E.read_sweep ~seed ~domains ()));
    entry ~obs:"metrics" ~check:check_group_commit "group-commit"
      "A15a (group commit)"
      "Ablation A15a: disk forces per commit vs the window cap, group commit \
       off vs on."
      (fun ~seed ~domains -> out (E.group_commit_sweep ~seed ~domains ()));
    entry ~host_timed:true ~check:check_recovery "recovery"
      "A15b (checkpointed recovery)"
      "Ablation A15b: recovery replay work vs committed history, with and \
       without checkpoints."
      (fun ~seed ~domains -> out (E.recovery_sweep ~seed ~domains ()));
    entry ~obs:"metrics" ~check:check_replica "replica"
      "A15c (change-log read replicas)"
      "Ablation A15c: read throughput served from change-log replicas vs the \
       replica count."
      (fun ~seed ~domains -> out (E.replica_sweep ~seed ~domains ()));
  ]

let find name = List.find_opt (fun e -> e.name = name) all

let csv rows =
  let special c = c = ',' || c = '"' || c = '\n' in
  let cell = function
    | Stats.Json.String x when String.exists special x ->
        "\"" ^ String.concat "\"\"" (String.split_on_char '"' x) ^ "\""
    | Stats.Json.String x -> x
    | v -> Stats.Json.to_string ~indent:0 v
  in
  let line cells = String.concat "," cells in
  match rows with
  | [] -> ""
  | first :: _ ->
      String.concat "\n"
        (line (List.map fst first)
        :: List.map (fun r -> line (List.map (fun (_, v) -> cell v) r)) rows)
