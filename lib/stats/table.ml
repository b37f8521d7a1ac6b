let fmt_ms v = Printf.sprintf "%.1f" v

let fmt_pct v = Printf.sprintf "%+.0f%%" v

let render ~headers ~rows =
  let all = headers :: rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let pad r = r @ List.init (ncols - List.length r) (fun _ -> "") in
  let all = List.map pad all in
  let widths =
    List.init ncols (fun i ->
        List.fold_left (fun acc r -> max acc (String.length (List.nth r i))) 0 all)
  in
  let render_row r =
    String.concat "  "
      (List.mapi
         (fun i cell ->
           let w = List.nth widths i in
           if i = 0 then Printf.sprintf "%-*s" w cell
           else Printf.sprintf "%*s" w cell)
         r)
  in
  let sep =
    String.concat "  " (List.map (fun w -> String.make w '-') widths)
  in
  match all with
  | header :: body ->
      String.concat "\n" (render_row header :: sep :: List.map render_row body)
  | [] -> ""

type cell = { data : (string * Json.t) list; shown : (string * string) option }

let cell header key value text =
  { data = [ (key, value) ]; shown = Some (header, text) }

let field_only key value = { data = [ (key, value) ]; shown = None }
let shown_as header text data = { data; shown = Some (header, text) }

type t = { caption : string; transposed : bool; rows : cell list list }

let rec transpose = function
  | [] | [] :: _ -> []
  | lines -> List.map List.hd lines :: transpose (List.map List.tl lines)

let text t =
  let shown = List.map (List.filter_map (fun c -> c.shown)) t.rows in
  let lines =
    match shown with
    | [] -> []
    | first :: _ -> List.map fst first :: List.map (List.map snd) shown
  in
  let caption = if t.caption = "" then "" else t.caption ^ "\n" in
  match if t.transposed then transpose lines else lines with
  | headers :: rows -> caption ^ render ~headers ~rows
  | [] -> caption

let fields row = List.concat_map (fun c -> c.data) row
