(** The benchmark suites behind [hdd_cli bench SUITE]: one record per
    suite, one driver that runs any of them, and the one baseline
    comparator every regression gate goes through.

    A suite owns everything that differs between benchmarks — what it
    runs, how it prints, its intrinsic gates, its regression budget and
    which report values the baseline gate compares.  The driver owns
    the sequence they share: run, write the report, print, fail on an
    intrinsic gate, then compare against the committed baseline. *)

type outcome = {
  report : Jsonlite.t;  (** written to the output file *)
  print : Format.formatter -> unit;  (** the human-readable summary *)
  problems : string list;
      (** the suite's intrinsic gate failures; [[]] when healthy *)
}

type t = {
  name : string;  (** the [SUITE] argument *)
  out : string;  (** default output file *)
  budget : float;
      (** fraction a gated metric may fall below its baseline value *)
  run : quick:bool -> workers:int list option -> outcome;
      (** [quick] shrinks the run for per-push CI; [workers] is the
          worker-domain list, read by the parallel suite only *)
  gated : Jsonlite.t -> (string * float) list;
      (** the named higher-is-better values of a report that the
          baseline gate compares *)
}

val of_result :
  to_json:('r -> Jsonlite.t) ->
  pp:(Format.formatter -> 'r -> unit) ->
  gates:('r -> string list) ->
  'r ->
  outcome
(** The outcome of a harness that returns a typed result. *)

val metric : ?name:string -> string list -> Jsonlite.t -> (string * float) list
(** [metric keys report]: the finite number at [keys], named [name]
    (default the dot-joined path), or [[]] when absent or not finite. *)

val regressions :
  budget:float ->
  baseline:(string * float) list ->
  current:(string * float) list ->
  (string * float * float option) list
(** Baseline metrics the current report fails: [(metric, was, Some now)]
    when [now] fell more than [budget] below a positive [was], and
    [(metric, was, None)] when the current report lacks the metric —
    a renamed key must not switch a gate off.  A metric only the
    current report has is skipped (a new point has no baseline). *)

val main :
  t ->
  quick:bool ->
  out:string option ->
  baseline:string option ->
  workers:int list option ->
  int
(** Run the suite, write its report to [out] (default [t.out]), print
    the summary, then apply the intrinsic gates and, with [baseline],
    {!regressions} against that committed report.  Returns the exit
    code: 0 when every gate holds, 1 otherwise. *)
