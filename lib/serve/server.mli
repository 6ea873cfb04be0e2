(** Protocol front ends over an {!Engine}: stdio and a Unix-domain socket,
    each one single-threaded poll loop on {!Peers}, the connection layer
    the fleet router runs on too.

    Both speak the JSON-lines protocol of {!Protocol}. Requests are
    submitted asynchronously, so one connection can pipeline: replies carry
    the request's [id] and may arrive out of order. Worker domains never
    write to a connection; they hand finished replies to the loop. When
    the engine's bounded queue is full the server answers
    [{"status":"busy"}] at once instead of buffering. A request line over
    {!Lineconn.max_line_bytes} gets one [error] reply with an empty id and
    its connection is closed after the flush. [shutdown] stops accepting
    and reading, waits for the replies still owed, flushes them (within a
    bound) and closes; the caller still owns the engine. *)

val serve_channels :
  Engine.t -> in_channel -> out_channel -> [ `Eof | `Shutdown ]
(** Serve one JSON-lines stream until end-of-input or a [shutdown] request,
    and every in-flight reply. Blank lines are ignored; malformed lines get
    an [error] reply with an empty id; a last line without a newline is
    served. The channels stay open, their descriptors in blocking mode. *)

val serve_stdio : Engine.t -> metrics_path:string option -> [ `Eof | `Shutdown ]
(** {!serve_channels} on stdin/stdout, with {!serve_unix}'s scrape
    listener at [metrics_path] on the same loop. *)

val serve_unix : ?metrics_path:string -> Engine.t -> path:string -> unit
(** Listen on a Unix-domain socket, replacing a socket file at [path], until
    a [shutdown] on any connection — idle ones do not hold it up — then
    remove the socket file. A client that disconnects mid-reply only loses
    its own connection. With [metrics_path] a second listener serves
    Prometheus scrapes ([GET /metrics], HTTP/1.0, e.g.
    [curl --unix-socket PATH http://localhost/metrics]): answered once the
    request line is in, then half-closed, then closed on the scraper's
    EOF. *)
