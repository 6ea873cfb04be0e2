(** Event recording: one bounded ring of immutable records per domain.

    Spans, instants, counter samples, structured-log lines and solver
    progress ticks are all one {!record} type, recorded once into the
    calling domain's ring. The same ring backs [--trace] (exported by
    {!Chrome_trace}) and the always-on flight recorder of [serve] and
    [fleet] (dumped by {!Flight}).

    Off by default; a disabled emission costs one atomic load and a
    branch. When enabled ({!enable}), every emission goes to a ring owned
    by the emitting domain (reached through domain-local storage), so
    racing domains record without locks. Rings register themselves in one
    global list under a mutex on first use. Each record is an immutable
    block stored with a single pointer write, so a reader racing a writer
    sees either the old record or the new one, never a torn mix: dumping a
    live server is safe.

    Timestamps come from {!Clock.pair}: [ts] is wall time, [mono] the
    process-monotone clock. A span is recorded when it closes, with its
    duration measured on [mono], so its start is [mono -. dur] and every
    domain's span set is well-nested: two spans of one domain are either
    disjoint or one contains the other. *)

(** {2 Enabling} *)

val enabled : unit -> bool
(** One atomic load; every emission function returns immediately when this
    is false. *)

val enable : ?capacity:int -> unit -> unit
(** Start recording. [capacity] is the per-domain ring size in records
    (default 4096, the size servers keep always-on); it applies to rings
    created after the call. On overflow the oldest records are overwritten
    and counted in {!dropped}. *)

val trace_capacity : int
(** The larger ring size (65536) the tracing flags ([--trace], [--stats],
    [--log-level]) pass to {!enable}. *)

val disable : unit -> unit

val reset : unit -> unit
(** Drop every ring and thread name. The enabled flag and level are
    unchanged. *)

(** {2 Log levels} *)

type level = Quiet | Info | Debug

val set_level : level -> unit

val get_level : unit -> level

val level_of_string : string -> level option
(** ["quiet"], ["info"], ["debug"]. *)

val log : level -> ('a, out_channel, unit) format -> 'a
(** [log lvl fmt ...] prints one line to stderr when the current level is at
    least [lvl]. Independent of {!enabled}: logging is for humans, the
    records for exporters. *)

(** {2 Records} *)

type kind =
  | Span  (** a closed scope; [dur] is its length *)
  | Event  (** an instant *)
  | Log  (** a structured log line ({!Log.event}) *)
  | Progress  (** a solver progress snapshot ({!Progress.tick}) *)
  | Sample  (** a counter-track point; [data] is [[("value", v)]] *)

val kind_name : kind -> string
(** ["span"], ["event"], ["log"], ["progress"], ["sample"]: the [kind] of
    a flight-dump record. *)

type record = {
  ts : float;  (** wall-clock time of capture (a span's end) *)
  mono : float;  (** the same instant on {!Clock.mono_now} *)
  tid : int;  (** recording domain id *)
  rid : string;  (** request id; [""] outside any request *)
  kind : kind;
  name : string;
  dur : float;  (** span duration in seconds; [0.] for point records *)
  data : (string * string) list;  (** extra key/value payload *)
}

val record :
  ?rid:string ->
  ?dur:float ->
  ?data:(string * string) list ->
  kind ->
  string ->
  unit
(** [record kind name] appends one record, stamped now, to the calling
    domain's ring. [rid] defaults to the ambient {!Trace_ctx.rid}; [dur]
    (default [0.]) is for spans timed by the caller, e.g. the router's
    hops. No-op when disabled. *)

val span : ?cat:string -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a scope and records it as a [Span] when
    [f] returns {e or raises} (the exception is re-raised), so timeouts
    and translation blowups still leave their phase in the ring. The
    record carries the ambient rid and, in [data], [cat] (when non-empty)
    and the {!Trace_ctx} span [path] (when the span is not the root).
    Disabled mode is a single branch around a call of [f]. *)

val timed : ?cat:string -> string -> (unit -> 'a) -> 'a * float
(** Like {!span} but always measures: returns [f]'s result together with
    the elapsed {!Clock.mono_now} seconds, recording the span only when
    enabled. For callers that need the duration regardless of tracing
    (phase breakdowns in results). *)

val instant : ?cat:string -> string -> unit

val sample : string -> float -> unit
(** [sample name v] records a counter-track point, e.g.
    [sample "eij.trans_constraints" (float n)]. *)

(** {2 Thread (domain) naming} *)

val name_thread : string -> unit
(** Label the calling domain's lane in exported traces and the engine's
    live lane table — the portfolio names each racing domain after its
    method, pools suffix a generation. Last call per domain wins.
    Unconditional (not gated on {!enabled}). *)

val thread_names : unit -> (int * string) list

(** {2 Collection} *)

val records : unit -> record list
(** Every live record across all domains, sorted by [mono] (ties by
    domain id, then ring order). Safe to call while writers are recording:
    records written concurrently may be missed, never torn. *)

val dropped : unit -> int
(** Records lost to ring overwrite since the last {!reset}. *)

(** {2 Span rollup} *)

type span_stat = {
  ss_name : string;
  ss_count : int;
  ss_total : float;  (** summed duration, seconds *)
  ss_max : float;
}

val span_summary : record list -> span_stat list
(** Per-name aggregation of the [Span] records, sorted by descending total
    duration. *)

val pp_summary : Format.formatter -> record list -> unit
(** Human-readable table of {!span_summary} (the [--stats] view). *)
