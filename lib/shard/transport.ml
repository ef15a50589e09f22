type t = {
  me : int;
  nodes : int;
  send : Wire.packet -> unit;
  poll : unit -> Wire.packet option;
}

let send_to t ~dst ~stamp msg =
  t.send { Wire.src = t.me; dst; stamp; msg }

let broadcast t ~stamp msg =
  for dst = 0 to t.nodes - 1 do
    if dst <> t.me then send_to t ~dst ~stamp msg
  done

module Loopback = struct
  let create ?fault ~nodes () =
    let qs = Array.init nodes (fun _ -> Queue.create ()) in
    (* held publication frames per destination: (pubs still to pass, frame) *)
    let held = Array.make nodes [] in
    let mu = Mutex.create () in
    let deliver dst frame = Queue.add frame qs.(dst) in
    (* a publication passing dst ages every held frame for dst; the ones
       that reach zero follow it out, oldest first *)
    let pass_pub dst frame =
      deliver dst frame;
      held.(dst) <-
        List.filter_map
          (fun (n, f) ->
            if n <= 1 then begin
              deliver dst f;
              None
            end
            else Some (n - 1, f))
          held.(dst)
    in
    let send (pkt : Wire.packet) =
      if pkt.dst < 0 || pkt.dst >= nodes then
        invalid_arg "Loopback: destination out of range";
      let frame = Wire.encode pkt in
      Mutex.lock mu;
      Fun.protect ~finally:(fun () -> Mutex.unlock mu) @@ fun () ->
      match (pkt.msg, fault) with
      | Wire.Pub _, Some plan -> (
        match Netfault.on_pub plan with
        | Netfault.Deliver -> pass_pub pkt.dst frame
        | Netfault.Skip -> ()
        | Netfault.Twice ->
          pass_pub pkt.dst frame;
          pass_pub pkt.dst frame
        | Netfault.Hold n -> held.(pkt.dst) <- held.(pkt.dst) @ [ (n, frame) ])
      | _ -> deliver pkt.dst frame
    in
    let poll me () =
      Mutex.lock mu;
      Fun.protect ~finally:(fun () -> Mutex.unlock mu) @@ fun () ->
      match Queue.take_opt qs.(me) with
      | None -> None
      | Some frame -> (
        match Wire.decode frame ~pos:0 with
        | Ok (pkt, _) -> Some pkt
        | Error e -> failwith ("Loopback: corrupt frame: " ^ e))
    in
    Array.init nodes (fun me -> { me; nodes; send; poll = poll me })
end

module Framebuf = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create () = { buf = Bytes.create 4096; len = 0 }

  let feed t bytes ~len =
    let need = t.len + len in
    if need > Bytes.length t.buf then begin
      let cap = ref (Bytes.length t.buf * 2) in
      while need > !cap do
        cap := !cap * 2
      done;
      let b = Bytes.create !cap in
      Bytes.blit t.buf 0 b 0 t.len;
      t.buf <- b
    end;
    Bytes.blit bytes 0 t.buf t.len len;
    t.len <- t.len + len

  let next t =
    if t.len < 8 then None
    else
      let plen = Int32.to_int (Bytes.get_int32_le t.buf 0) in
      if plen < 0 then failwith "Framebuf: negative frame length"
      else if t.len < 8 + plen then None
      else begin
        let frame = Bytes.sub t.buf 0 (8 + plen) in
        Bytes.blit t.buf (8 + plen) t.buf 0 (t.len - 8 - plen);
        t.len <- t.len - 8 - plen;
        match Wire.decode frame ~pos:0 with
        | Ok (pkt, _) -> Some pkt
        | Error e -> failwith ("Framebuf: corrupt frame: " ^ e)
      end
end

module Pipe = struct
  let parent_addr ~nodes = nodes

  type chan = {
    src : int;
    fd : Unix.file_descr;
    fb : Framebuf.t;
    mutable eof : bool;  (** read returned 0; no longer selected *)
    mutable reported : bool;  (** [on_close] has run *)
  }

  type endpoint = {
    net : t;
    chans : chan array;
    out : Unix.file_descr option array;  (** by destination; [None] once gone *)
    pending : Wire.packet Queue.t;  (** decoded, not yet polled *)
    chunk : Bytes.t;
    on_close : int -> unit;
  }

  let net ep = ep.net

  let live ep =
    Array.fold_right
      (fun c acc -> if c.eof then acc else c.fd :: acc)
      ep.chans []

  (* Read what [c] holds and decode every complete frame into
     [pending]; EOF retires the channel. *)
  let fill ep c =
    match Unix.read c.fd ep.chunk 0 (Bytes.length ep.chunk) with
    | 0 ->
      c.eof <- true;
      Unix.close c.fd
    | n ->
      Framebuf.feed c.fb ep.chunk ~len:n;
      let rec decode () =
        match Framebuf.next c.fb with
        | Some pkt ->
          Queue.add pkt ep.pending;
          decode ()
        | None -> ()
      in
      decode ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()

  (* A closed channel is reported only once every frame read so far has
     been polled, so [on_close] sees everything its peer sent. *)
  let report ep =
    if Queue.is_empty ep.pending then
      Array.iter
        (fun c ->
          if c.eof && not c.reported then begin
            c.reported <- true;
            ep.on_close c.src
          end)
        ep.chans

  (* Fill the channels readable within [timeout] (negative: no limit),
     optionally waiting for [out] to become writable too. *)
  let select ep ?(out = []) timeout =
    match live ep with
    | [] when out = [] -> if timeout > 0. then Unix.sleepf timeout
    | fds -> (
      match Unix.select fds out [] timeout with
      | ready, _, _ ->
        Array.iter
          (fun c -> if (not c.eof) && List.mem c.fd ready then fill ep c)
          ep.chans
      | exception Unix.Unix_error (EINTR, _, _) -> ())

  let poll ep () =
    if Queue.is_empty ep.pending then begin
      report ep;
      select ep 0.
    end;
    Queue.take_opt ep.pending

  let wait ep timeout =
    report ep;
    if Queue.is_empty ep.pending then select ep timeout

  (* Write one whole frame.  While the pipe is full, keep draining our
     own inbound pipes: the peer may be blocked writing to us. *)
  let write_frame ep fd bytes =
    let n = Bytes.length bytes in
    let rec go off =
      if off < n then
        match Unix.single_write fd bytes off (n - off) with
        | k -> go (off + k)
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
          select ep ~out:[ fd ] (-1.);
          report ep;
          go off
    in
    go 0

  let endpoint ~me ~nodes ~inbound ~outbound ~on_close =
    let out = Array.make (nodes + 1) None in
    List.iter
      (fun (dst, fd) ->
        Unix.set_nonblock fd;
        out.(dst) <- Some fd)
      outbound;
    let chans =
      Array.of_list
        (List.map
           (fun (src, fd) ->
             Unix.set_nonblock fd;
             { src; fd; fb = Framebuf.create (); eof = false;
               reported = false })
           inbound)
    in
    let rec ep =
      { net = { me; nodes; send; poll = (fun () -> poll ep ()) };
        chans;
        out;
        pending = Queue.create ();
        chunk = Bytes.create 65536;
        on_close }
    and send (pkt : Wire.packet) =
      match out.(pkt.dst) with
      | None -> ()
      | Some fd -> (
        try write_frame ep fd (Wire.encode pkt)
        with Unix.Unix_error (EPIPE, _, _) ->
          (* the reader exited: drop this and every later frame *)
          Unix.close fd;
          out.(pkt.dst) <- None)
    in
    ep

  let close ep =
    Array.iter
      (fun c ->
        if not c.eof then begin
          c.eof <- true;
          c.reported <- true;
          Unix.close c.fd
        end)
      ep.chans;
    Array.iteri
      (fun dst fd ->
        Option.iter Unix.close fd;
        ep.out.(dst) <- None)
      ep.out
end
