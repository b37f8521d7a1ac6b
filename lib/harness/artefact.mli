(** The artefact table: every figure and ablation the harness regenerates,
    in one ordered list.

    [bench/main.exe] runs entries by name and records their rows in
    [BENCH_harness.json]; [etx_sim] has one subcommand per entry and
    derives its [--csv] file from the same rows. An entry's [check]
    states what its rows must show; both consumers exit 1 when it
    reports a failure. *)

type row = (string * Stats.Json.t) list
(** One data point, as named fields. The keys are the CSV header and the
    JSON field names. *)

type output = { text : string; rows : row list }
(** [text] is the rendered table, printed under the entry's title. *)

type t = {
  name : string;  (** bench argument and etx_sim subcommand *)
  title : string;  (** section title *)
  doc : string;  (** one line *)
  obs : string;
      (** observability mode of the run: ["off"], ["metrics"], ["traced"],
          or ["sweep"] when it compares all three *)
  host_timed : bool;
      (** the text and rows show host wall-clock figures, so they differ
          between runs; such entries are left out of the 1-vs-N-domain
          comparison *)
  smoke : bool;
      (** a cut-down copy of another entry, for CI; a run of every entry
          leaves it out *)
  run : seed:int -> domains:int -> output;
      (** deterministic per seed and independent of [domains], except for
          the host timings of a [host_timed] entry *)
  check : row list -> string list;  (** failures; empty when the rows hold *)
}

val all : t list
val find : string -> t option

val csv : row list -> string
(** A header line of the first row's keys, then one line per row. *)
