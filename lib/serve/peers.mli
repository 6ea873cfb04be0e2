(** The connection layer of [sufdec serve] ({!Server}) and the fleet
    router: Unix-domain listeners and a table of {!Lineconn} peers, driven
    from one thread by {!step}; {!create} ignores SIGPIPE. A peer whose
    input ends (EOF, or a line past {!Lineconn.max_line_bytes}, which gets
    one [error] reply with an empty id) is no longer read; it is closed
    once [owed] is zero and its queue has drained. A write error drops it
    at once. *)

type 'a peer = {
  id : int;  (** never reused *)
  role : 'a;  (** the front end's label *)
  conn : Lineconn.t;
  mutable reading : bool;  (** clear it to stop reading the peer *)
  mutable owed : int;  (** replies the front end still owes the peer *)
}

type 'a t

val create : unit -> 'a t

val listen : 'a t -> path:string -> 'a -> unit
(** Bind a non-blocking, close-on-exec listener at [path], replacing a
    stale socket file; the peers it accepts get the given role. *)

val stop_accepting : 'a t -> unit

val watch : 'a t -> Unix.file_descr -> (unit -> unit) -> unit
(** Run the callback whenever the fd (e.g. a wake pipe) is readable. *)

val add : 'a t -> 'a -> Lineconn.t -> unit

val drop : 'a t -> Lineconn.t -> unit
(** Forget and close a connection now, unflushed. Idempotent. *)

val reply : 'a t -> int -> Protocol.reply -> unit
(** Queue a reply for peer [id]; nothing if it is gone. *)

val iter : 'a t -> ('a peer -> unit) -> unit
(** Over a snapshot: the callback may add and drop peers. *)

val count : 'a t -> ('a peer -> bool) -> int

val step :
  'a t ->
  timeout_s:float ->
  on_lines:('a peer -> string list -> unit) ->
  on_end:('a peer -> [ `Eof | `Overlong | `Broken ] -> unit) ->
  unit
(** One round: wait up to [timeout_s]; accept, run watches, read; write
    every queue as far as it goes; close the peers that are done. [on_end]
    hears once that a peer's input ended or a write broke it (it is then
    dropped). *)

val flush_bounded : 'a t -> float -> unit
(** Write out every queue, waiting at most that many seconds. *)

val close : 'a t -> unit
(** Close every peer and listener; remove the listeners' socket files. *)
