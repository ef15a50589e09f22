(** Wall-clock spans recorded by the benchmark's own call wrappers.

    A span has a name, a start and an end in monotonic nanoseconds, the
    span that issued it (its parent, [-1] for none) and the transaction
    id it worked for (0 for the client's own spans).  Spans are written
    into preallocated arrays.  The client calls {!boundary} between complete
    span trees; when the arrays are nearly full they are folded into
    per-name totals of calls and self time, and the first chunk is kept
    for the Chrome export.  So a run of any length is traced in bounded
    memory, and every span counts in the totals. *)

val self_times :
  start:int array -> stop:int array -> parent:int array -> int -> int array
(** [self_times ~start ~stop ~parent n]: for each of the first [n] spans,
    its duration minus the part of it that its children cover.  Children
    are the spans whose [parent] is its index; their intervals are
    clipped to the parent's and merged, so nested and overlapping
    children are counted once. *)

type t

val flush_name : string
(** The span name under which folding time is accounted:
    ["bench.trace_flush"]. *)

val create : names:string list -> capacity:int -> t
(** [names] are every span name the run will use; {!flush_name} is
    added. *)

val id : t -> string -> int
(** @raise Invalid_argument for a name not given to {!create}. *)

val open_ : t -> name:int -> parent:int -> txn:int -> int
(** Start a span now and return its index, the [parent] of spans it
    issues. *)

val set_txn : t -> int -> int -> unit
(** [set_txn t span txn]: name the transaction once it is known — a
    begin call learns its transaction's id only when it returns. *)

val close : t -> int -> int
(** End the span now; returns its duration in nanoseconds. *)

val boundary : t -> unit
(** No span is open: fold the arrays into the totals if they are nearly
    full. *)

val flush : t -> unit
(** Fold whatever is buffered into the totals now.
    @raise Failure if a span is still open. *)

val totals : t -> (string * int * int) list
(** After {!flush}: [(name, spans, self_ns)] for every name. *)

val write_chrome : t -> string -> unit
(** Chrome trace-event JSON of the first chunk: one complete event per
    span (its parent and transaction in [args]) plus one async event per
    transaction, from its first call's start to its last call's end. *)
