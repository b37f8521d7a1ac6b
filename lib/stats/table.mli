(** Plain-text table rendering for experiment output, and the declared
    tables the harness's sweeps return. *)

val render : headers:string list -> rows:string list list -> string
(** Column-aligned table with a header separator; first column is
    left-aligned, the rest right-aligned. *)

val fmt_ms : float -> string
(** Milliseconds with one decimal, e.g. ["217.4"]. *)

val fmt_pct : float -> string
(** Signed percentage, e.g. ["+16%"]. *)

(** {1 Declared tables}

    A sweep declares each column once, as one cell of every row: the typed
    field its CSV and JSON records carry, and the header and formatted
    text its printed table shows. Both outputs derive from the same
    cells, so they cannot disagree on a column's order or value. *)

type cell
(** One column of one row: the CSV columns and JSON fields it stands for,
    as typed values, and its header and text in the printed table. *)

val cell : string -> string -> Json.t -> string -> cell
(** [cell header key value text]: one field, printed as [text]. *)

val field_only : string -> Json.t -> cell
(** A field the printed table leaves out. *)

val shown_as : string -> string -> (string * Json.t) list -> cell
(** [shown_as header text data]: one printed column for several fields
    (e.g. ["3/12"] for a count and a total), or for none. *)

type t = { caption : string; transposed : bool; rows : cell list list }
(** A [transposed] table prints each row as a column: its first shown
    cell heads the column, and each later header heads a line. *)

val text : t -> string
(** The caption and a newline (nothing for an empty caption), then the
    shown cells {!render}ed under the first row's headers. *)

val fields : cell list -> (string * Json.t) list
(** A row's fields, in declaration order. *)
