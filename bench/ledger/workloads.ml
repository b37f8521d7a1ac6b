(* The five workloads and their frozen constants.

   Each workload puts most of the work on layers the others leave idle, so
   a change to one layer shows on one workload and is predicted to leave
   another unchanged. The constants (reference rate, arrivals, latency
   limit, ladder start, searches) were measured once on the commit that
   introduced the benchmark and are frozen: changing one is a change to the
   benchmark, never part of a performance claim. *)

type failover = {
  trials : int;
      (** independent trials, seeds N .. N+trials-1, sharing [n_ref] *)
  db_crash_after : float;  (** ms after the leaseholder crash *)
  db_down : float;  (** ms the database stays down *)
}

type t = {
  name : string;
  why : string;
  shards : int;
  servers : int;  (** application servers per shard *)
  batch : int;
  group_commit : bool;
  cache : bool;
  replicas : int;
  cross_ratio : float;  (** > 0 builds the cluster with cross-shard commit *)
  fd_spec : Etx.Appserver.fd_spec;
  loss : float;
  kind : Workload.Generator.kind;
  ref_rate : float;  (** tx per virtual second of the reference run *)
  n_ref : int;  (** arrivals of the reference measurement *)
  limit_ms : float;  (** p99 latency limit a capacity rung must meet *)
  r0 : float;  (** first rung of the capacity ladder *)
  searches : int;
      (** independent capacity searches whose median is reported: one
          search's knee moves with its arrivals (a standard deviation of
          4-12% by workload), and a run of 20 s holds this many *)
  single_server : bool;
      (** also run one application server alone, the unreplicated
          reference the paper's Fig 8 reports *)
  failover : failover option;
}

let accounts = 1_024

let base =
  {
    name = "";
    why = "";
    shards = 1;
    servers = 3;
    batch = 1;
    group_commit = false;
    cache = false;
    replicas = 0;
    cross_ratio = 0.;
    fd_spec = Etx.Appserver.Fd_oracle;
    loss = 0.;
    kind = Workload.Generator.Bank_updates { accounts; max_delta = 100 };
    ref_rate = 1.;
    n_ref = 1_000;
    limit_ms = 1_000.;
    r0 = 1.;
    searches = 3;
    single_server = false;
    failover = None;
  }

let all =
  [
    {
      base with
      name = "classic";
      why =
        "per-request regA/regD consensus and 2PC of the paper's Figs 4-6; \
         leases, cache, replicas and cross-shard commit are bypassed";
      ref_rate = 6.;
      n_ref = 5_000;
      limit_ms = 2_000.;
      r0 = 9.5;
      single_server = true;
    };
    {
      base with
      name = "batched";
      why =
        "leased windows of 16 with group commit: batch intake, vote_many / \
         decide_many and the coalesced log; per-request consensus is bypassed";
      batch = 16;
      group_commit = true;
      ref_rate = 20.;
      n_ref = 20_000;
      limit_ms = 4_000.;
      r0 = 33.;
      searches = 9;
    };
    {
      base with
      name = "read_mostly";
      why =
        "7 reads per write on 64 shared accounts: method cache, invalidation, \
         change-feed shipping and replica routing, with writes beside them";
      cache = true;
      replicas = 1;
      kind =
        Workload.Generator.Read_heavy
          { accounts = 64; max_delta = 100; reads_per_write = 7 };
      ref_rate = 4.;
      n_ref = 8_000;
      limit_ms = 1_000.;
      r0 = 5.8;
      searches = 13;
    };
    {
      base with
      name = "cross_shard";
      why =
        "2 shards, half the transfers span both: Paxos Commit over the groups \
         beside intra-shard windows of 4; batched is its bypass control";
      shards = 2;
      batch = 4;
      cross_ratio = 0.5;
      kind = Workload.Generator.Bank_transfers { accounts; max_amount = 100 };
      ref_rate = 8.;
      n_ref = 4_000;
      limit_ms = 4_000.;
      r0 = 44.;
      searches = 2;
    };
    {
      base with
      name = "failover";
      why =
        "leaseholder crash then a database crash on a lossy network: \
         back-off, heartbeat detection, lease takeover, retransmission, \
         recovery";
      batch = 4;
      fd_spec =
        Etx.Appserver.Fd_heartbeat
          { period = 10.; initial_timeout = 50.; timeout_bump = 10. };
      loss = 0.01;
      ref_rate = 8.;
      n_ref = 6_000;
      limit_ms = 2_000.;
      r0 = 10.5;
      failover =
        Some
          {
            trials = 10;
            db_crash_after = 20_000.;
            db_down = 500.;
          };
    };
  ]

let per_trial w f = w.n_ref / f.trials

let find name = List.find_opt (fun w -> w.name = name) all
