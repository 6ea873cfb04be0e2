(** A buffered non-blocking JSON-lines connection, as a poll loop sees one
    peer: reads bank partial lines until a newline completes them, writes
    drain an outbound queue as far as the socket allows and park the rest.
    {!create} switches the fd to non-blocking mode and takes ownership
    ({!close} closes it); {!of_fds} does the same for a read/write pair. *)

type t

val max_line_bytes : int
(** 16 MiB: the longest partial line a connection banks. *)

val create : Unix.file_descr -> t

val of_fds : input:Unix.file_descr -> output:Unix.file_descr -> t

val connect : string -> t option
(** A close-on-exec connection to the Unix-domain socket at the path. *)

val fd : t -> Unix.file_descr
(** The read side. *)

val write_fd : t -> Unix.file_descr

val on_readable :
  t -> [ `Lines of string list | `Nothing | `Closed | `Overlong of string list ]
(** Drain what the kernel has ready. [`Lines] are the complete, non-blank
    lines that became available — at EOF, an unterminated last line too,
    and the connection reports [`Closed] on the {e next} call; [`Nothing]
    means no line completed; [`Closed] means EOF or a hard error with
    nothing pending. [`Overlong] carries the lines completed before a
    partial line passed {!max_line_bytes}; that line is discarded and
    later calls report [`Closed]. *)

val write : t -> string -> unit
(** Queue raw bytes. O(1); dropped on a closed or finished connection. *)

val enqueue : t -> string -> unit
(** Queue one protocol line (newline appended). *)

val finish : t -> unit
(** Nothing more will be written: once the queue drains, the write side is
    half-closed. Input is still read, and discarded, until the peer's EOF,
    so closing then cannot turn unread bytes into a reset. *)

val on_writable : t -> [ `Ok | `Closed ]
(** Flush as much of the queue as the socket accepts without blocking. *)

val wants_write : t -> bool
(** The write-interest bit for {!Poll.set}. *)

val close : t -> unit
(** Close the fd(s). Idempotent. *)
