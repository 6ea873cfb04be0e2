(** Flight recorder: the post-mortem side of the {!Obs} ring.

    Servers keep {!Obs} enabled at its default capacity, so the ring
    always holds each domain's recent span completions, log lines and
    solver-progress snapshots. This module dumps that ring as JSON at any
    moment — on SIGUSR1, on crash, on per-request deadline expiry, or
    through the serve protocol's [dump] op — for debugging a wedged or
    slow server after the fact, without tracing pre-enabled. Dumps read
    the live ring; {!Obs}'s single-pointer-write discipline makes that
    safe while workers keep recording. *)

val to_json : unit -> string
(** The ring as one JSON document
    [{"schema": "sepsat-flight-1", "pid", "dumped_at", "wall", "mono",
    "dropped", "records": [...]}]; each record is
    [{"ts", "mono", "tid", "kind", "name", "rid"?, "dur_ms"?, "data"?}].
    [wall] and [mono] are one {!Clock.pair} sampled at dump time — the
    anchor {!Chrome_trace.assemble} uses to align this process's records
    with other processes' dumps. *)

val write : string -> unit
(** Write {!to_json} (plus a trailing newline) to a file. *)

val set_dump_dir : string -> unit
(** Directory for {!dump} files (default ["."]). *)

val dump : reason:string -> unit -> string
(** Write a dump file [flight-<pid>-<seq>-<reason>.json] into the dump
    directory and return its path. [reason] is sanitized to
    [[A-Za-z0-9._-]]. *)

val install_signal_dump : ?signal:int -> unit -> unit
(** Install a handler (default SIGUSR1) that writes a {!dump} with reason
    ["signal"]. *)

val install_crash_dump : unit -> unit
(** Replace the uncaught-exception handler with one that writes a dump
    with reason ["crash"] before printing the exception and backtrace. *)
