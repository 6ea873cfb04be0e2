(** The fleet front end: a single-threaded poll loop that accepts the
    JSON-lines protocol, consistent-hashes solves across the supervised
    backends (routing on {!Sepsat_suf.Ast.digest} for cache affinity),
    answers repeat formulas from the persistent {!Disk_cache}, fans
    [stats]/[metrics]/[dump] out to every live backend and merges the
    replies, and re-dispatches in-flight solves when a backend dies — a
    SIGKILL mid-request costs latency, never an answer.

    Client-visible protocol: identical to a single server (pipelined,
    id-echoed), plus [warm] to pre-seed the persistent cache. [shutdown]
    drains in-flight work, propagates fleet-wide, reaps every backend, and
    only then answers [bye]. *)

type config = {
  rc_socket : string;  (** the fleet's public Unix-domain socket *)
  rc_cache_path : string option;
      (** persistent verdict log; [None] disables the disk tier *)
  rc_warm_limit : int;  (** max entries replayed per backend (re)start *)
  rc_poll_s : float;  (** poll timeout — the supervision cadence *)
  rc_max_attempts : int;  (** dispatch attempts per solve across failovers *)
}

val default_config :
  socket:string -> ?cache_path:string -> unit -> config
(** 4096-entry warm replay, 0.2 s poll, 3 dispatch attempts. *)

val run : config -> Supervisor.t -> unit
(** Bind the socket and serve until a [shutdown] op or SIGTERM/SIGINT
    (handled for the duration). Owns the supervisor:
    ticks it every loop iteration and stops it — reaping every backend —
    before returning. *)
