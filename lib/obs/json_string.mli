(** JSON string and number literals: the one escaper and the one float
    printer every hand-written JSON emitter in the tree (logs, flight
    dumps, Chrome traces, metrics, bench rows, the serve protocol) goes
    through. *)

val add : Buffer.t -> string -> unit
(** [add buf s] appends [s] as a double-quoted JSON string literal. Quote,
    backslash and every control byte below 0x20 are escaped; all other
    bytes, including non-ASCII UTF-8, are copied unchanged. *)

val quote : string -> string
(** [quote s] is the literal {!add} would append. *)

val number : float -> string
(** [number f] is a JSON number literal that parses back to exactly [f]:
    integral values below 1e15 print without a decimal point, others with
    the shortest of [%.12g] / [%.17g] that round-trips. Non-finite values
    print as [null] (JSON has no lexeme for them). *)
