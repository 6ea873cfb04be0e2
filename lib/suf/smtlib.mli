(** SMT-LIB 2 front end for the QF_UFIDL fragment expressible in SUF.

    Accepts scripts with [set-logic]/[set-info]/[set-option],
    [declare-fun]/[declare-const] over sorts [Int] and [Bool], [assert],
    [check-sat] and [exit]. Terms may use [and]/[or]/[not]/[=>]/[xor]/[ite]/
    [let]/[distinct]/[=], the orders [<] [<=] [>] [>=], and integer-difference
    arithmetic in the shapes SUF can express:

    - offsets: [(+ t k)], [(- t k)], [(+ k t)] with a numeral [k];
    - differences under an order or equality: [(op (- x y) k)] is rewritten
      to [(op x (+ y k))].

    Absolute numerals (e.g. [(< x 3)] with no second constant) are outside
    separation logic and are rejected with a clear error, as are [push]/[pop]
    and [define-fun]. *)

exception Error of string

type script = {
  logic : string option;
  assertions : Ast.formula list;
  requested_check : bool;  (** the script contained [check-sat] *)
}

val script : Ast.ctx -> string -> script
(** @raise Error on unsupported or malformed input. *)

val goal : Ast.ctx -> script -> Ast.formula
(** The validity query answering the script: the assertions are satisfiable
    iff this formula ([¬ (∧ assertions)]) is invalid. *)

(** {1 Printing}

    Inverse of {!script}, staying inside the dialect documented above:
    [succ]/[pred] chains fold to [(+ t k)] / [(- t k)] offsets and every
    symbol of the assertions is declared up front. Printing then re-parsing
    into the same context yields the identical hash-consed formulas, and the
    printed text is a fixpoint of [parse ∘ print]. *)

val print_script : Format.formatter -> Ast.formula list -> unit
(** A complete script: declarations, one [assert] per formula, [check-sat],
    [exit]. *)

val script_to_string : Ast.formula list -> string
