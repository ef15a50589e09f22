(** Metrics of one benchmark run, the environment they were measured in,
    and the three ways they leave the process: a table for people, a
    report file with everything, and the one-line result the benchmark
    contract reads. *)

type metric = { name : string; unit_ : string; value : float }

type t

val create : unit -> t
val add : t -> string -> string -> float -> unit
(** [add r name unit value]; a later [add] of the same name replaces it. *)

val metrics : t -> metric list
(** In the order first added. *)

val find : t -> string -> float
(** @raise Not_found *)

val env :
  seed:int -> flush_policy:string -> tmp_fs:string -> (string * string) list
(** What every report records beside its numbers: [nproc], [ocaml],
    [seed], [flush_policy] and [tmp_fs]. *)

val filesystem_of : string -> string
(** File-system type of a directory as [stat -f] names it, or
    ["unknown"]. *)

val result_line :
  correct:bool -> attempted:int -> failed:int -> metric list -> string
(** One JSON object on one line: [correct], [attempted], [failed] and
    [metrics] as [{"name": {"value": v, "unit": u}}], numbers with all
    their digits. *)

val print_table : out_channel -> metric list -> unit

val write_file :
  path:string ->
  workload:string ->
  trace:bool ->
  env:(string * string) list ->
  checks:(string * bool) list ->
  correct:bool ->
  attempted:int ->
  failed:int ->
  metric list ->
  unit
