(* One non-blocking peer of a single-threaded poll loop: every read and
   write takes only what the kernel has ready. Reads bank bytes in [inbuf]
   and scan only the new ones for '\n', so a line arriving in pieces costs
   linear time; writes keep an offset into the head chunk, so a slow peer
   stalls only its own queue. *)

type t = {
  fd : Unix.file_descr;  (* read side *)
  wfd : Unix.file_descr;  (* write side; [fd] itself for a socket *)
  inbuf : Buffer.t;
  chunk : Bytes.t;  (* read buffer, reused by every read *)
  mutable last_nl : int;  (* offset of the last '\n' in inbuf; -1 if none *)
  mutable outq : string list;  (* reversed tail; see write *)
  mutable outhead : string;  (* chunk currently being written *)
  mutable outoff : int;  (* bytes of outhead already written *)
  mutable fin : [ `Open | `Finishing | `Shut ];  (* see finish *)
  mutable read_done : bool;  (* EOF seen or the line bound passed *)
  mutable closed : bool;
}

let read_chunk = 65536

let max_line_bytes = 16 lsl 20

let of_fds ~input ~output =
  Unix.set_nonblock input;
  Unix.set_nonblock output;
  {
    fd = input;
    wfd = output;
    inbuf = Buffer.create 256;
    chunk = Bytes.create read_chunk;
    last_nl = -1;
    outq = [];
    outhead = "";
    outoff = 0;
    fin = `Open;
    read_done = false;
    closed = false;
  }

let create fd = of_fds ~input:fd ~output:fd

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some (create fd)
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let fd t = t.fd

let write_fd t = t.wfd

let wants_write t =
  (not t.closed)
  && (t.fin = `Finishing || t.outoff < String.length t.outhead || t.outq <> [])

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
  if t.closed || t.read_done then `Closed
  else begin
    (* Read until the kernel has nothing more, so an EOF right behind the
       last bytes is seen in this call; a peer streaming faster than that
       is cut off after 16 chunks and served on the next call. *)
    let rec drain budget =
      if Buffer.length t.inbuf - t.last_nl - 1 > max_line_bytes then `Overlong
      else if budget = 0 then `More
      else
        match Unix.read t.fd t.chunk 0 read_chunk with
        | 0 -> `Eof
        | n ->
          bank t n;
          drain (budget - 1)
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          `More
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain budget
        | exception Unix.Unix_error (_, _, _) -> `Eof
    in
    let status = drain 16 in
    if status = `Eof then begin
      (* A peer may send its last request without a newline and shut down
         its write side: EOF ends that line too. *)
      Buffer.add_char t.inbuf '\n';
      t.last_nl <- Buffer.length t.inbuf - 1
    end;
    (* A finished connection reads only to see the peer's EOF. *)
    let lines = take_lines t in
    let lines = if t.fin = `Open then lines else [] in
    if status <> `More then begin
      t.read_done <- true;
      Buffer.reset t.inbuf
    end;
    match status with
    | `Overlong -> `Overlong lines
    | `Eof when lines = [] -> `Closed
    | _ -> if lines = [] then `Nothing else `Lines lines
  end

let write t s = if (not t.closed) && t.fin = `Open then t.outq <- s :: t.outq

(* Reversed accumulation keeps this O(1); [on_writable] restores order when
   it refills the head. *)
let enqueue t line =
  write t line;
  write t "\n"

let finish t = if t.fin = `Open then t.fin <- `Finishing

let rec on_writable t =
  if t.closed then `Closed
  else if t.outoff >= String.length t.outhead then begin
    match List.rev t.outq with
    | [] ->
      if t.fin = `Finishing then begin
        t.fin <- `Shut;
        try Unix.shutdown t.wfd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ()
      end;
      `Ok
    | chunks ->
      t.outhead <- String.concat "" chunks;
      t.outoff <- 0;
      t.outq <- [];
      on_writable t
  end
  else
    let len = String.length t.outhead - t.outoff in
    match Unix.write_substring t.wfd t.outhead t.outoff len with
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
    (try Unix.close t.fd with Unix.Unix_error _ -> ());
    if t.wfd <> t.fd then try Unix.close t.wfd with Unix.Unix_error _ -> ()
  end
