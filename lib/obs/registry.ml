(* Per-node metrics registry: counters, gauges and log-bucketed histograms
   keyed by (group, node, name), plus the span/event store backing causal
   request tracing. One registry instance covers one backend instance (all
   its nodes), so a whole trial — sim or live — exports as one snapshot.

   The replica group is parsed from the node name ("g2:a1" -> group 2,
   ungrouped names -> group 0), matching the cluster's naming scheme, so
   per-shard aggregation needs no extra plumbing.

   A registry belongs to one engine, and an engine runs on one thread
   whichever clock it keeps, so nothing here takes a lock. Disabled
   observability never reaches this module (see the zero-cost argument in
   DESIGN.md §10). *)

module ER = Runtime.Etx_runtime

type key = { group : int; node : string; name : string }

let group_of_node node =
  if String.length node >= 2 && node.[0] = 'g' then
    match String.index_opt node ':' with
    | Some i -> (
        match int_of_string_opt (String.sub node 1 (i - 1)) with
        | Some g -> g
        | None -> 0)
    | None -> 0
  else 0

let key ~node ~name = { group = group_of_node node; node; name }

type t = {
  counters : (key, int ref) Hashtbl.t;
  gauges : (key, float ref) Hashtbl.t;
  hists : (key, Histogram.t) Hashtbl.t;
  mutable spans_rev : Span.t list;
  by_id : (int, Span.t) Hashtbl.t;
  mutable events_rev : Span.event list;
  mutable next_span : int;
  spans_on : bool;  (** when false, span/event calls are no-ops *)
}

let create ?(spans = true) () =
  {
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    hists = Hashtbl.create 32;
    spans_rev = [];
    by_id = Hashtbl.create 256;
    events_rev = [];
    next_span = 0;
    spans_on = spans;
  }

let spans_enabled t = t.spans_on

(* Metrics ------------------------------------------------------------- *)

let incr t ~node ~name by =
  let k = key ~node ~name in
  match Hashtbl.find_opt t.counters k with
  | Some r -> r := !r + by
  | None -> Hashtbl.replace t.counters k (ref by)

let set_gauge t ~node ~name v =
  let k = key ~node ~name in
  match Hashtbl.find_opt t.gauges k with
  | Some r -> r := v
  | None -> Hashtbl.replace t.gauges k (ref v)

let observe t ~node ~name v =
  let k = key ~node ~name in
  let h =
    match Hashtbl.find_opt t.hists k with
    | Some h -> h
    | None ->
        let h = Histogram.create () in
        Hashtbl.replace t.hists k h;
        h
  in
  Histogram.observe h v

(* Spans and events ---------------------------------------------------- *)

let span_open t ~node ~at ?(parent = 0) ~trace name =
  if not t.spans_on then 0
  else begin
    t.next_span <- t.next_span + 1;
    let s =
      {
        Span.id = t.next_span;
        trace;
        parent;
        name;
        node;
        start = at;
        stop = Float.nan;
        attrs = [];
      }
    in
    t.spans_rev <- s :: t.spans_rev;
    Hashtbl.replace t.by_id s.id s;
    s.id
  end

let span_close t ~at id =
  if t.spans_on && id <> 0 then
    match Hashtbl.find_opt t.by_id id with
    | Some s when Float.is_nan s.stop -> s.stop <- at
    | Some _ | None -> ()

let span_attr t id k v =
  if t.spans_on && id <> 0 then
    match Hashtbl.find_opt t.by_id id with
    | Some s ->
        if not (List.mem_assoc k s.attrs) then s.attrs <- (k, v) :: s.attrs
    | None -> ()

let event t ~node ~at ~trace ~name detail =
  if t.spans_on then
    t.events_rev <-
      { Span.etrace = trace; enode = node; ename = name; eat = at; detail }
      :: t.events_rev

(* Read side ----------------------------------------------------------- *)

let key_order a b =
  match compare a.name b.name with
  | 0 -> (
      match compare a.group b.group with
      | 0 -> compare a.node b.node
      | c -> c)
  | c -> c

let sorted_bindings tbl read =
  Hashtbl.fold (fun k v acc -> (k, read v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> key_order a b)

let counters t = sorted_bindings t.counters (fun r -> !r)
let gauges t = sorted_bindings t.gauges (fun r -> !r)
let histograms t = sorted_bindings t.hists Histogram.copy
let spans t = List.rev t.spans_rev
let events t = List.rev t.events_rev

let counter_total ?group t name =
  List.fold_left
    (fun acc (k, v) ->
      if
        k.name = name
        && match group with None -> true | Some g -> k.group = g
      then acc + v
      else acc)
    0 (counters t)

let counter_value t ~node ~name =
  match Hashtbl.find_opt t.counters (key ~node ~name) with
  | Some r -> !r
  | None -> 0

let histogram t ~node ~name =
  Option.map Histogram.copy (Hashtbl.find_opt t.hists (key ~node ~name))

let merged_histogram t name =
  let hs =
    List.filter_map
      (fun (k, h) -> if k.name = name then Some h else None)
      (histograms t)
  in
  match hs with
  | [] -> None
  | h :: rest -> Some (List.fold_left Histogram.merge h rest)

(* Fiber-side sink ----------------------------------------------------- *)

(* Package the registry as the neutral closure record fibers obtain once
   through [Etx_runtime.obs]. [node] is bound by the backend (the process
   the fiber belongs to), [now] is the backend's clock, so instrument sites
   never name a backend. *)
let sink t ~node ~now : ER.obs_sink =
  {
    ER.obs_count = (fun name by -> incr t ~node ~name by);
    obs_gauge = (fun name v -> set_gauge t ~node ~name v);
    obs_observe = (fun name v -> observe t ~node ~name v);
    obs_span_open =
      (fun ?parent ~trace name -> span_open t ~node ~at:(now ()) ?parent ~trace name);
    obs_span_close = (fun id -> span_close t ~at:(now ()) id);
    obs_span_attr = (fun id k v -> span_attr t id k v);
    obs_event =
      (fun ~trace name detail -> event t ~node ~at:(now ()) ~trace ~name detail);
  }
