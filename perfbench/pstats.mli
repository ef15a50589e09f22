(** The benchmark's arithmetic: quantiles, the tail-percentile rule and
    throughput over quarters of a run. *)

val quantile_sorted : float array -> float -> float
(** [quantile_sorted a q]: nearest-rank [q]-quantile of an ascending
    array — the value at rank [ceil (q * n)].  [nan] when empty. *)

val median : float array -> float
(** Median of an unsorted array (the argument is not modified). *)

val tail_quantile : int -> float
(** The percentile the rule allows for [n] samples: the highest of
    0.9, 0.99, 0.999, … that leaves at least ten samples beyond its
    nearest-rank position, or 0.5 when none does. *)

val tail_ratio : first:float * int -> total:float * int -> float
(** [tail_ratio ~first:(t1, n1) ~total:(t, n)]: throughput over the
    rest of a run, [(n - n1) / (t - t1)], divided by throughput over its
    first part, [n1 / t1].  Times are elapsed seconds from the start and
    counts are cumulative.  For one run [first] is the mark at its first
    quarter; for the two-run form it is the whole of a run a quarter as
    long with the same seed. *)

(** Equal windows of one run.  A run is split into [windows] parts
    (a multiple of four) either by a commit count fixed in advance or by
    a duration; {!observe} is fed the cumulative count and elapsed time
    and records [(t, n)] whenever a window boundary is reached.  Rates
    are medians over windows, so a burst of interference from outside
    the process moves them less than it moves a whole-run mean. *)
module Windows : sig
  type basis = Count of int | Time of float
  type t

  val create : ?windows:int -> basis -> t
  (** [windows] defaults to 20.
      @raise Invalid_argument unless it is a positive multiple of 4. *)

  val observe : t -> t:float -> n:int -> bool
  (** Record every boundary reached by [(t, n)]; [true] when at least
      one mark was added by this call. *)

  val finish : t -> t:float -> n:int -> unit
  (** Close the run at [(t, n)]: marks not reached yet (a run cut short,
      or a timed loop's last step) are all recorded here. *)

  val marks : t -> (float * int) array
  (** The marks recorded so far; the last is the end. *)

  val rates : t -> float array
  (** Throughput within each recorded window. *)

  val rate : t -> float
  (** Median of the window rates. *)

  val first_quarter_rate : t -> float
  (** Median rate of the windows in the first quarter of the run. *)

  val tail : t -> float
  (** Median rate of the windows after the first quarter divided by
      {!first_quarter_rate}: the single-run [tail_ratio]. *)
end

(** A latency histogram of fixed size: values below 128 are kept exactly,
    larger ones in buckets 1/128 of their power of two wide, so any
    quantile is within 0.8% of a recorded value and recording allocates
    nothing.  A long run's latencies then cost the process no memory. *)
module Hist : sig
  type t

  val create : unit -> t
  val add : t -> int -> unit
  (** Record a non-negative value (negative ones count as 0). *)

  val count : t -> int

  val quantile : t -> float -> float
  (** Nearest-rank quantile, as {!quantile_sorted}: the midpoint of the
      bucket holding the rank's value.  [nan] when empty. *)
end
