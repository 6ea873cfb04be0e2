(** The hybrid encoding (paper §4) and its SD/EIJ degenerations.

    Encodes an application-free SUF formula (the output of
    {!Sepsat_suf.Elim}) into a propositional formula
    [F_bool = F_trans ⟹ F_bvar]:

    + symbolic constants are partitioned into independent equivalence classes;
    + ground terms are normalized;
    + per class, the method is SD when [SepCnt(V_i) > threshold], EIJ
      otherwise — so [threshold = -1] is the pure SD procedure and
      [threshold = max_int] the pure EIJ procedure;
    + p-constants fold to fixed diverse values.

    The result carries a decoder from propositional models back to integer /
    Boolean countermodels of the separation-logic formula. *)

module F = Sepsat_prop.Formula
module Ast = Sepsat_suf.Ast
module Sset = Sepsat_util.Sset
module Brute = Sepsat_sep.Brute

exception Translation_blowup
(** Re-raised from {!Eij}: the transitivity-constraint budget was exhausted
    (the paper's translation-stage timeout). *)

type config = {
  threshold : int;  (** the paper's [SEP_THOLD]; default 700 (§4.1) *)
  eij_budget : int;  (** transitivity-constraint budget *)
}

val default_threshold : int
(** 700, the value the paper's clustering procedure selects. *)

val default : config

val sd_only : config
(** Every class through SD — the paper's standalone SD method. *)

val eij_only : config
(** Every class through EIJ — the paper's standalone EIJ method. *)

val hybrid : ?threshold:int -> unit -> config

type stats = {
  n_classes : int;
  sd_classes : int;
  eij_classes : int;
  total_sep_cnt : int;  (** pre-encoding separation-predicate estimate *)
  eij_predicates : int;  (** predicate variables actually allocated *)
  trans_constraints : int;
  bool_size : int;  (** DAG size of [F_bool] *)
}

type encoded = {
  prop_ctx : F.ctx;
  f_bool : F.t;  (** valid input iff [not f_bool] is unsatisfiable *)
  stats : stats;
  decode : (int -> bool) -> Brute.assignment;
      (** countermodel of the separation-logic formula from a propositional
          model of [not f_bool] *)
}

val encode :
  ?config:config ->
  ?deadline:Sepsat_util.Deadline.t ->
  ?p_value:(string -> int) ->
  Ast.ctx ->
  p_consts:Sset.t ->
  Ast.formula ->
  encoded
(** [deadline] is polled during transitivity-constraint generation, the
    expensive translation phase. [p_value] overrides the internally computed
    maximally diverse p-constant values — component solving injects the whole
    formula's table ({!p_values}) so every component agrees on them and
    witnesses merge; injected values must be at least as diverse as the local
    ones (guaranteed when they come from a formula of which this is a
    conjunctive fragment).
    @raise Translation_blowup when EIJ translation exceeds its budget.
    @raise Sepsat_util.Deadline.Timeout when the deadline fires during
    translation.
    @raise Invalid_argument if the formula contains applications. *)

val p_values :
  Ast.ctx -> p_consts:Sset.t -> Ast.formula -> (string * int) list
(** The fixed maximally diverse p-constant values {!encode} would use for
    this formula, in {!Sset.elements} order of [p_consts]. Feed back through
    [encode ~p_value] to pin sub-formula encodings to the whole formula's
    interpretation. *)

val p_values_of :
  Sepsat_sep.Classes.t -> p_consts:Sset.t -> (string * int) list
(** Same table from an already-built class partition of the normalized
    formula — what {!p_values} computes internally. Lets callers that built
    the classes for other reasons (e.g. the component split) avoid
    re-normalizing. *)
