module Rt = Runtime.Etx_runtime

(* Records live in fixed-size slabs. [seg_base] is the LSN of slot 0;
   [hi] the highest filled LSN ([seg_base - 1] when empty). A segment
   seals (moves to the sealed list) when full; only the tail accepts
   appends. *)
type 'a segment = {
  seg_base : int;
  slots : 'a option array;
  mutable hi : int;
}

type 'a t = {
  disk : Disk.t;
  coalesce : bool;
  segment_size : int;
  size_of : 'a -> int;
  obs_prefix : string option;
  mutable sink : Rt.obs_sink option option;
      (* obs sink, fetched lazily on the first force (creation happens
         outside fibers, where [Rt.obs] answers [None]) *)
  mutable sealed : 'a segment list;  (* full slabs, oldest first *)
  mutable tail : 'a segment;
  mutable base_lsn : int;  (* retention floor: lowest retained LSN *)
  mutable appended_lsn : int;
  mutable durable_lsn : int;
  mutable byte_total : int;  (* estimated footprint of retained records *)
  mutable forcing : bool;  (* a coalesced force window is in flight *)
  flushed : Rt.Wake.t;  (* woken as each coalesced window lands *)
}

let fresh_segment ~size ~base = { seg_base = base; slots = Array.make size None; hi = base - 1 }

let create ?(coalesce = false) ?(segment_size = 256) ?(size_of = fun _ -> 1)
    ?obs_prefix ~disk () =
  if segment_size < 1 then invalid_arg "Log.create: segment_size must be >= 1";
  {
    disk;
    coalesce;
    segment_size;
    size_of;
    obs_prefix;
    sink = None;
    sealed = [];
    tail = fresh_segment ~size:segment_size ~base:1;
    base_lsn = 1;
    appended_lsn = 0;
    durable_lsn = 0;
    byte_total = 0;
    forcing = false;
    flushed = Rt.Wake.create ();
  }

let coalescing t = t.coalesce
let appended_lsn t = t.appended_lsn
let durable_lsn t = t.durable_lsn
let base_lsn t = t.base_lsn
let length t = t.appended_lsn - t.base_lsn + 1
let bytes t = t.byte_total

let append t r =
  let lsn = t.appended_lsn + 1 in
  if lsn - t.tail.seg_base >= Array.length t.tail.slots then begin
    t.sealed <- t.sealed @ [ t.tail ];
    t.tail <- fresh_segment ~size:t.segment_size ~base:lsn
  end;
  t.tail.slots.(lsn - t.tail.seg_base) <- Some r;
  t.tail.hi <- lsn;
  t.appended_lsn <- lsn;
  t.byte_total <- t.byte_total + t.size_of r;
  lsn

let append_list t rs = List.iter (fun r -> ignore (append t r)) rs

let seg_for t lsn =
  if lsn >= t.tail.seg_base then Some t.tail
  else
    List.find_opt
      (fun s -> lsn >= s.seg_base && lsn - s.seg_base < Array.length s.slots)
      t.sealed

let get t ~lsn =
  if lsn < t.base_lsn || lsn > t.appended_lsn then None
  else
    match seg_for t lsn with
    | None -> None
    | Some s -> s.slots.(lsn - s.seg_base)

let iter_from t ~lsn ~f =
  let lo = max lsn t.base_lsn in
  let iter_seg s =
    for l = max lo s.seg_base to s.hi do
      match s.slots.(l - s.seg_base) with
      | Some r -> f l r
      | None -> ()
    done
  in
  List.iter iter_seg t.sealed;
  iter_seg t.tail

let fold t ~init ~f =
  let acc = ref init in
  iter_from t ~lsn:t.base_lsn ~f:(fun _ r -> acc := f !acc r);
  !acc

let records t = List.rev (fold t ~init:[] ~f:(fun acc r -> r :: acc))

let emit_obs t =
  match t.obs_prefix with
  | None -> ()
  | Some p -> (
      let sink =
        match t.sink with
        | Some s -> s
        | None ->
            let s = Rt.obs () in
            t.sink <- Some s;
            s
      in
      match sink with
      | None -> ()
      | Some s ->
          s.Rt.obs_count (p ^ ".force") 1;
          s.Rt.obs_gauge (p ^ ".log_len") (float_of_int (length t));
          s.Rt.obs_gauge (p ^ ".log_bytes") (float_of_int t.byte_total))

(* The group-commit window: the flusher's Disk.force covers every record
   appended before the write started, so the window watermark is read
   AFTER winning the flusher role and before the force. Waiters sleep
   until the window lands; whoever wakes to find its target still
   volatile and no window in flight becomes the next flusher. *)
let rec coalesced_force ?label t ~target =
  if t.durable_lsn >= target then ()
  else if t.forcing then begin
    Rt.Wake.until t.flushed (fun () -> not t.forcing);
    coalesced_force ?label t ~target
  end
  else begin
    t.forcing <- true;
    (* gather yield: let every fiber ready at this same instant append
       before the window watermark is read, so simultaneous committers
       share one disk write instead of serialising into two windows *)
    Rt.sleep 0.;
    let window = t.appended_lsn in
    Disk.force ?label t.disk;
    t.durable_lsn <- max t.durable_lsn window;
    t.forcing <- false;
    Rt.Wake.wake t.flushed;
    emit_obs t
  end

let force ?label t =
  if t.coalesce then coalesced_force ?label t ~target:t.appended_lsn
  else begin
    (* per-call discipline: unconditionally one forced write, exactly the
       old WAL's accounting (identity with pre-log revisions) *)
    Disk.force ?label t.disk;
    t.durable_lsn <- t.appended_lsn;
    emit_obs t
  end

let crash_cut t =
  t.forcing <- false;
  Rt.Wake.reset t.flushed;
  let d = t.durable_lsn in
  if t.appended_lsn > d then begin
    iter_from t ~lsn:(d + 1) ~f:(fun _ r ->
        t.byte_total <- t.byte_total - t.size_of r);
    let cut seg =
      for l = max seg.seg_base (d + 1) to seg.hi do
        seg.slots.(l - seg.seg_base) <- None
      done;
      seg.hi <- min seg.hi d
    in
    if t.tail.seg_base <= d + 1 then cut t.tail
    else begin
      (* the cut point lies in a sealed slab: it becomes the new tail,
         everything above it is dropped whole *)
      let keep = List.filter (fun s -> s.seg_base <= d) t.sealed in
      match List.rev keep with
      | last :: rest_rev
        when last.seg_base + Array.length last.slots - 1 > d ->
          cut last;
          t.sealed <- List.rev rest_rev;
          t.tail <- last
      | _ ->
          t.sealed <- keep;
          t.tail <- fresh_segment ~size:t.segment_size ~base:(d + 1)
    end;
    t.appended_lsn <- d
  end

let truncate_below t ~lsn =
  if lsn > t.durable_lsn + 1 then
    invalid_arg "Log.truncate_below: retention floor above durable_lsn";
  if lsn > t.base_lsn then begin
    let floor = min lsn (t.appended_lsn + 1) in
    iter_from t ~lsn:t.base_lsn ~f:(fun l r ->
        if l < floor then t.byte_total <- t.byte_total - t.size_of r);
    (* free slabs entirely below the floor; blank the boundary slab's
       dropped prefix so the records are collectable *)
    t.sealed <- List.filter (fun s -> s.hi >= floor) t.sealed;
    let blank seg =
      for l = seg.seg_base to min seg.hi (floor - 1) do
        seg.slots.(l - seg.seg_base) <- None
      done
    in
    List.iter blank t.sealed;
    blank t.tail;
    t.base_lsn <- lsn
  end
