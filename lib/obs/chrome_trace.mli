(** Chrome [trace_event] JSON export of {!Obs} records — the one trace
    writer, for a local [--trace] run and for [sufdec trace]'s
    cross-process assembly alike.

    The output loads in [chrome://tracing] and {{:https://ui.perfetto.dev}
    Perfetto}: one Chrome process per {!source} (named by [src_label]),
    one lane per recording domain (named by [src_threads]). Spans become
    ["X"] complete events, instants and log lines ["i"] instants, samples
    and progress snapshots ["C"] counters; each X and i event carries an
    [args] object with the request [rid] (when it has one) and the
    record's [data] as ["data.<key>"]. Timestamps are microseconds from
    the earliest kept record. *)

type source = {
  src_label : string;  (** Chrome process name, e.g. ["router"] *)
  src_pid : int;  (** the recording process's OS pid (informational) *)
  src_wall : float;  (** wall half of a {!Clock.pair} taken in that process *)
  src_mono : float;  (** its mono half *)
  src_records : Obs.record list;
  src_threads : (int * string) list;  (** lane names by domain id *)
}
(** One process's records. For flight dumps the anchor pair is the dump
    header's [wall]/[mono]; for dumps predating it, set [src_mono =
    src_wall] and each record's [mono = ts] — alignment degrades to raw
    wall time. *)

val local : unit -> source
(** This process's {!Obs.records} and {!Obs.thread_names}, anchored now,
    labelled ["sepsat"]. *)

val assemble : ?rid:string -> source list -> string
(** Merge the sources into one trace document. Each source's anchor pair
    maps its mono timeline onto the shared wall timeline, so only
    same-process mono differences are ever taken — correct even when the
    processes' wall clocks disagree — and every domain's spans stay
    well-nested. [rid] keeps only records of that request. *)

val write : ?rid:string -> string -> source list -> unit
(** [write path sources] writes {!assemble} plus a newline to [path]
    (["-"] for stdout). *)

val write_current : string -> unit
(** [write_current path] is [write path [local ()]]: the [--trace FILE]
    export. *)
