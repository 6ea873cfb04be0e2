(** JSON string literals: the one escaper every hand-written JSON emitter in
    the tree (logs, flight dumps, Chrome traces, metrics, bench rows, the
    serve protocol) goes through. *)

val add : Buffer.t -> string -> unit
(** [add buf s] appends [s] as a double-quoted JSON string literal. Quote,
    backslash and every control byte below 0x20 are escaped; all other
    bytes, including non-ASCII UTF-8, are copied unchanged. *)

val quote : string -> string
(** [quote s] is the literal {!add} would append. *)
