(** CNF conversion into a live SAT solver.

    Each distinct formula DAG node is encoded once (sharing-preserving), so
    the clause count is linear in the DAG size. Negations reuse the
    complemented literal and cost no variables or clauses.

    The conversion is the Plaisted-Greenbaum translation: a gate's
    definition clauses are emitted only in the direction(s) its occurrence
    polarity demands, and maximal same-connective And/Or spines are
    flattened into n-ary definitions (width-capped), cutting both clause and
    variable counts versus the textbook both-direction Tseitin translation.
    Models still project correctly onto the input variables of an asserted
    root, and the clause stream is what a DRUP proof of the solver's UNSAT
    answer is checked against. *)

type t

(** The conversion, of which there is one. The type and {!create}'s
    [?mode] stay only because the benchmark driver ([sufbench/traced.ml])
    passes [~mode:Polarity], and that driver changes only together with the
    benchmark. *)
type mode =
  | Polarity  (** polarity-aware Plaisted-Greenbaum with n-ary flattening *)

val create : ?mode:mode -> Sepsat_sat.Solver.t -> t

val find_var : t -> int -> Sepsat_sat.Lit.t option
(** Solver literal standing for a formula variable index, so the caller can
    decode models: [None] means the formula variable never reached the
    solver (its value is unconstrained). *)

val assert_root : t -> Formula.t -> unit
(** Encodes the formula and asserts it. The assertion is clausal:
    conjunctive roots split into several roots and disjunctive roots become
    a single clause, so no top-level gate variables are introduced. *)

val clauses_added : t -> int
(** Total CNF clauses this encoder has pushed into the solver (the "# of CNF
    clauses" column of the paper's Fig. 2). *)
