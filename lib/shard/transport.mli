(** Shard interconnect: who carries the {!Wire} frames.

    A transport value is one shard's endpoint — a [send] that ships an
    encoded packet toward its [dst] and a non-blocking [poll] that
    yields the next arrived packet, FIFO per channel.  Two carriers:

    - {!Loopback}: an in-memory hub.  Frames still round-trip through
      the real {!Wire} codec (so the bytes exercised are the bytes a
      socket would carry), delivery is FIFO per destination, and a
      {!Netfault.plan} can drop/duplicate/delay/reorder {e publication}
      frames only — the fault suite's contract.  Safe both from a
      single thread (the deterministic cluster) and across domains
      (one hub mutex).
    - {!Pipe}: real [Unix] pipes for the forked process mode, a full
      mesh: one pipe per ordered pair of shards, plus one each way
      between every shard and the parent router.  FIFO holds per pipe,
      which is all the protocol needs: a delta and the publication
      that counts it travel on the same src -> dst pipe.  There is no
      order across pipes. *)

type t = {
  me : int;
  nodes : int;
  send : Wire.packet -> unit;
  poll : unit -> Wire.packet option;
}

val send_to : t -> dst:int -> stamp:Time.t -> Wire.msg -> unit

val broadcast : t -> stamp:Time.t -> Wire.msg -> unit
(** [send_to] every other node, ascending ids. *)

module Loopback : sig
  val create : ?fault:Netfault.plan -> nodes:int -> unit -> t array
  (** One endpoint per node.  With [fault], every [Wire.Pub] send
      consumes one {!Netfault.on_pub} ordinal; held frames that never
      age out are dropped at the end of the run (a delay is allowed to
      degenerate into a drop — both are mere staleness). *)
end

module Pipe : sig
  type endpoint

  val endpoint :
    me:int ->
    nodes:int ->
    inbound:(int * Unix.file_descr) list ->
    outbound:(int * Unix.file_descr) list ->
    on_close:(int -> unit) ->
    endpoint
  (** One endpoint over many pipes: [inbound] pairs a source address
      with the read end of its pipe to us, [outbound] a destination
      with the write end of ours to it.  Shards are addresses
      [0 .. nodes - 1]; the router is {!parent_addr}.  Every fd is made
      non-blocking.

      [send] writes the whole frame to the pipe of [dst].  While that
      pipe is full it keeps reading our inbound pipes (into the poll
      queue), so two shards writing to each other cannot deadlock.  A
      frame for a reader that has exited ([EPIPE]; the process must
      ignore [SIGPIPE]) is dropped, as is every later frame to it: at
      shutdown, siblings exit while others still broadcast.

      An inbound pipe at EOF is closed and no longer read.  Once every
      frame read from it has been polled, [on_close src] runs, once;
      what it raises propagates out of the [send], [poll] or {!wait}
      that noticed. *)

  val net : endpoint -> t

  val wait : endpoint -> float -> unit
  (** Block until a frame is ready to poll, an inbound pipe closes, or
      [timeout] seconds pass — [select] over the open inbound pipes, in
      place of a sleep.  Returns at once when a frame is already
      queued. *)

  val close : endpoint -> unit
  (** Close every pipe end the endpoint still holds. *)

  val parent_addr : nodes:int -> int
  (** The router's own address: control messages ([Outcome],
      [Trace_slice], [Bye]) are sent to it rather than to a shard. *)
end
