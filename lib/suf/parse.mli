(** Concrete s-expression syntax for SUF formulas.

    Grammar (heads are case-sensitive):

    {v
    F ::= true | false | <name>              ; symbolic Boolean constant
        | (not F) | (and F F+) | (or F F+)
        | (=> F F) | (iff F F) | (ite F F F)
        | (= T T) | (< T T) | (<= T T) | (> T T) | (>= T T)
        | (<name> T+)                        ; uninterpreted predicate
    T ::= <name>                             ; symbolic constant
        | (succ T) | (pred T)
        | (+ T <int>) | (- T <int>)          ; sugar for succ/pred chains
        | (ite F T T)
        | (<name> T+)                        ; uninterpreted function
    v}

    Comments run from [;] to end of line. The printer {!Ast.pp} emits this
    syntax, and parse/print round-trips are stable. *)

exception Error of string

val formula : Ast.ctx -> string -> Ast.formula
(** @raise Error on lexical, syntactic or arity problems. *)
