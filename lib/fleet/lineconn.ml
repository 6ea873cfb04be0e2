(* One non-blocking JSON-lines peer (client or backend) of the router.

   The thread-per-connection server blocks in [input_line]; here a single
   thread owns thousands of connections, so every read and write must take
   only what the kernel has ready and bank the rest:

   - inbound bytes accumulate in [inbuf] until a '\n' completes a protocol
     line (partial lines survive across any number of reads); each read
     scans only its own new bytes, so a long line arriving in pieces costs
     linear time, and every read reuses the connection's one chunk;
   - outbound lines queue in [outq]; [on_writable] sends as much as the
     socket accepts and remembers the offset into the head chunk, so a
     slow client stalls only its own queue, never the loop.

   The router consults [wants_write] when rebuilding poll interest: write
   interest exists only while there is something to flush, which is what
   keeps an idle connection costing one registry slot and nothing else. *)

type t = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  chunk : Bytes.t;  (* read buffer, reused by every read *)
  mutable last_nl : int;  (* offset of the last '\n' in inbuf; -1 if none *)
  mutable outq : string list;  (* reversed tail; see enqueue *)
  mutable outhead : string;  (* chunk currently being written *)
  mutable outoff : int;  (* bytes of outhead already written *)
  mutable closed : bool;
}

let read_chunk = 65536

let create fd =
  Unix.set_nonblock fd;
  {
    fd;
    inbuf = Buffer.create 256;
    chunk = Bytes.create read_chunk;
    last_nl = -1;
    outq = [];
    outhead = "";
    outoff = 0;
    closed = false;
  }

let fd t = t.fd

let wants_write t =
  (not t.closed) && (t.outoff < String.length t.outhead || t.outq <> [])

(* Bank [n] freshly read bytes, noting the last newline among them. *)
let bank t n =
  (match Bytes.rindex_from_opt t.chunk (n - 1) '\n' with
  | Some i -> t.last_nl <- Buffer.length t.inbuf + i
  | None -> ());
  Buffer.add_subbytes t.inbuf t.chunk 0 n

(* Split complete lines out of the inbound buffer; the trailing partial
   line (if any) stays buffered. *)
let take_lines t =
  if t.last_nl < 0 then []
  else begin
    let last = t.last_nl in
    let lines = Buffer.sub t.inbuf 0 last in
    let tail =
      Buffer.sub t.inbuf (last + 1) (Buffer.length t.inbuf - last - 1)
    in
    Buffer.clear t.inbuf;
    Buffer.add_string t.inbuf tail;
    t.last_nl <- -1;
    String.split_on_char '\n' lines
    |> List.filter (fun l -> String.trim l <> "")
  end

let on_readable t =
  if t.closed then `Closed
  else begin
    let rec drain () =
      match Unix.read t.fd t.chunk 0 read_chunk with
      | 0 -> `Eof
      | n ->
        bank t n;
        if n = read_chunk then drain () else `More
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        `More
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
      | exception Unix.Unix_error (_, _, _) -> `Eof
    in
    let status = drain () in
    let lines = take_lines t in
    match status with
    | `Eof ->
      (* Deliver what arrived before the close: a peer may send its last
         request and shut down its write side in one packet. *)
      if lines = [] then `Closed else `Lines lines
    | `More -> if lines = [] then `Nothing else `Lines lines
  end

let enqueue t line =
  if not t.closed then
    (* Reversed accumulation keeps enqueue O(1); [on_writable] restores
       order when it refills the head. *)
    t.outq <- (line ^ "\n") :: t.outq

let rec on_writable t =
  if t.closed then `Closed
  else if t.outoff >= String.length t.outhead then
    match List.rev t.outq with
    | [] -> `Ok
    | chunks ->
      t.outhead <- String.concat "" chunks;
      t.outoff <- 0;
      t.outq <- [];
      on_writable t
  else
    let len = String.length t.outhead - t.outoff in
    match
      Unix.write_substring t.fd t.outhead t.outoff len
    with
    | n ->
      t.outoff <- t.outoff + n;
      if n = len then on_writable t else `Ok
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      `Ok
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> on_writable t
    | exception Unix.Unix_error (_, _, _) -> `Closed

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end
