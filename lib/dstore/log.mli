(** LSN-addressed append-only redo log on a simulated {!Disk}.

    Replaces the old [Wal]: records are addressed by {e log sequence
    numbers} (LSNs, 1-based, monotonically increasing, never reused) and
    the log distinguishes what has merely been {e appended} (volatile,
    buffered in memory) from what has been {e forced} (durable). A crash
    loses the suffix above {!durable_lsn} — recovery must call
    {!crash_cut} before replaying, mirroring a real redo log whose tail
    page never hit the platter.

    Two force disciplines, chosen at {!create}:
    - [coalesce:false] (default): every {!force} issues one
      {!Disk.force}, unconditionally — byte-identical virtual-time
      behaviour to the old force-per-append WAL.
    - [coalesce:true]: a {e group-commit scheduler}. Concurrent forces
      coalesce into one {!Disk.force} per window: the first caller
      becomes the flusher for everything appended before its write
      started, later callers wait on the in-flight window (and one of
      them flushes the next window if their records missed it). N
      concurrent committers pay one disk latency, not N.

    Storage is segmented: records live in fixed-size slabs, appended in
    O(1) with no per-record list cells, iterated oldest-first by an O(1)
    cursor (no [List.rev] materialisation on replay — the old WAL's
    recovery allocated the whole log reversed). {!truncate_below}
    reclaims whole segments under a checkpoint LSN; the logical floor is
    exact, segment slabs are freed at slab granularity.

    All length/LSN accessors are O(1). *)

type 'a t

val create :
  ?coalesce:bool ->
  ?segment_size:int ->
  ?size_of:('a -> int) ->
  ?obs_prefix:string ->
  disk:Disk.t ->
  unit ->
  'a t
(** [segment_size] records per slab (default 256). [size_of] estimates a
    record's on-disk footprint in bytes for the [<prefix>.log_bytes]
    gauge (default: 1 per record). [obs_prefix] opts this log into
    observability: each {!force} counts [<prefix>.force] and refreshes
    the [<prefix>.log_len] / [<prefix>.log_bytes] gauges through the
    fiber's obs sink (nothing is emitted when obs is off, and logs
    created without a prefix — register persistence, baselines — never
    emit). *)

val append : 'a t -> 'a -> int
(** Append one record to the volatile tail; returns its LSN. No disk
    interaction and no virtual-time charge — durability is bought
    separately by {!force}. *)

val append_list : 'a t -> 'a list -> unit
(** Append records in order (each gets its own LSN). *)

val force : ?label:string -> 'a t -> unit
(** Make every record appended so far durable (advance [durable_lsn] to
    at least the [appended_lsn] observed at call time). See the force
    disciplines above. In per-call mode the {!Disk.force} is issued even
    if nothing new was appended (matching the old WAL's unconditional
    force, e.g. on truncate). Must run inside a fiber; in coalesced mode
    every caller must be a fiber of the one process that owns the log,
    because a window wakes its waiters through that process's mailbox. *)

val appended_lsn : 'a t -> int
(** Highest LSN handed out; 0 when no record was ever appended. O(1). *)

val durable_lsn : 'a t -> int
(** Highest LSN guaranteed to survive a crash. O(1). *)

val base_lsn : 'a t -> int
(** Lowest retained LSN ([appended_lsn + 1] when the retained suffix is
    empty — also the initial state, base 1 / appended 0). O(1). *)

val length : 'a t -> int
(** Number of retained records, [appended_lsn - base_lsn + 1]. O(1). *)

val bytes : 'a t -> int
(** Estimated footprint of the retained records (per [size_of]). O(1). *)

val coalescing : 'a t -> bool
(** Whether this log was created with [coalesce:true] (the group-commit
    discipline). Lets the owner choose a matching concurrency shape —
    group commit only pays when forces actually overlap. *)

val get : 'a t -> lsn:int -> 'a option
(** Random access; [None] outside [base_lsn .. appended_lsn]. *)

val iter_from : 'a t -> lsn:int -> f:(int -> 'a -> unit) -> unit
(** [iter_from t ~lsn ~f] applies [f lsn' record] to every retained
    record with [lsn' >= lsn], in LSN order. The recovery/shipping
    cursor: O(1) per step, no intermediate list. *)

val fold : 'a t -> init:'b -> f:('b -> 'a -> 'b) -> 'b
(** Left fold over all retained records, oldest first. *)

val records : 'a t -> 'a list
(** All retained records, oldest first (tests, small logs). *)

val crash_cut : 'a t -> unit
(** Discard the non-durable suffix (records above [durable_lsn]) — what
    a crash does to a real log's unflushed tail. Recovery must call this
    before replaying; also resets the group-commit scheduler (an
    in-flight window and its waiters died with their fibers). *)

val truncate_below : 'a t -> lsn:int -> unit
(** Raise the retention floor to [lsn]: records below it are gone
    ({!get} answers [None], iteration starts at the floor) and sealed
    segments entirely below the floor are freed. No disk force — the
    checkpoint record justifying the truncation must already be durable
    (replaying a not-yet-truncated prefix twice is harmless; losing the
    checkpoint is not). Raising the floor above [durable_lsn] is
    rejected ([Invalid_argument]): never drop history that the durable
    log cannot reconstruct. *)
