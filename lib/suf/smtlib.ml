exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type script = {
  logic : string option;
  assertions : Ast.formula list;
  requested_check : bool;
}

type sort = Int_sort | Bool_sort

(* A converted subterm: SMT-LIB terms are sort-overloaded, so conversion
   carries the sort in the result. *)
type value = T of Ast.term | F of Ast.formula

type env = {
  ctx : Ast.ctx;
  decls : (string, sort list * sort) Hashtbl.t;
  mutable lets : (string * value) list;  (* innermost first *)
}

let sort_of_sexp = function
  | Sexp.Atom "Int" -> Int_sort
  | Sexp.Atom "Bool" -> Bool_sort
  | Sexp.Atom s -> error "unsupported sort %S (only Int and Bool)" s
  | Sexp.List _ -> error "unsupported compound sort"

(* Negative numerals are written (- k) in SMT-LIB and handled at the
   operand level. *)
let numeral s = int_of_string_opt s

let check_symbol name =
  if String.length name = 0 then error "empty symbol";
  if String.contains name '|' then error "quoted symbols are unsupported";
  if numeral name <> None then error "numeral %S used as a symbol" name

let declared_sort env name =
  match Hashtbl.find_opt env.decls name with
  | Some ([], sort) -> Some sort
  | Some (_ :: _, _) -> error "function symbol %S used without arguments" name
  | None -> None

(* -- Term conversion ------------------------------------------------------- *)

let rec convert env (s : Sexp.t) : value =
  match s with
  | Sexp.Atom "true" -> F (Ast.tru env.ctx)
  | Sexp.Atom "false" -> F (Ast.fls env.ctx)
  | Sexp.Atom name -> (
    match numeral name with
    | Some _ ->
      error
        "bare numeral %S: absolute constants are outside separation logic \
         (use offsets like (+ x %s))"
        name name
    | None -> (
      check_symbol name;
      match List.assoc_opt name env.lets with
      | Some v -> v
      | None -> (
        match declared_sort env name with
        | Some Bool_sort -> F (Ast.bconst env.ctx name)
        | Some Int_sort | None -> T (Ast.const env.ctx name))))
  | Sexp.List (Sexp.Atom "let" :: rest) -> convert_let env rest
  | Sexp.List (Sexp.Atom head :: args) -> convert_app env head args
  | Sexp.List _ -> error "term head must be a symbol"

and convert_let env = function
  | [ Sexp.List bindings; body ] ->
    let saved = env.lets in
    let bound =
      List.map
        (fun b ->
          match b with
          | Sexp.List [ Sexp.Atom name; value ] -> (name, convert env value)
          | _ -> error "malformed let binding")
        bindings
    in
    (* SMT-LIB let is parallel: all values are converted in the outer
       environment before any binding takes effect. *)
    env.lets <- bound @ saved;
    let v = convert env body in
    env.lets <- saved;
    v
  | _ -> error "let expects a binding list and a body"

and formula env s =
  match convert env s with
  | F f -> f
  | T _ -> error "expected a Bool term"

and term env s =
  match convert env s with
  | T t -> t
  | F _ -> error "expected an Int term"

(* An order/equality operand: either an Int term, or the difference pattern
   (- x y), or a plain numeral (valid only opposite a difference). *)
and operand env (s : Sexp.t) =
  match s with
  | Sexp.Atom a when numeral a <> None -> `Num (Option.get (numeral a))
  | Sexp.List [ Sexp.Atom "-"; Sexp.Atom a ] when numeral a <> None ->
    `Num (-Option.get (numeral a))
  | Sexp.List [ Sexp.Atom "-"; x; y ] -> (
    (* could be an offset (- t k) or a difference (- x y) *)
    match y with
    | Sexp.Atom a when numeral a <> None ->
      `Term (Ast.plus env.ctx (term env x) (-Option.get (numeral a)))
    | _ -> `Diff (term env x, term env y))
  | _ -> `Term (term_arith env s)

(* Int terms including the offset sugar. *)
and term_arith env (s : Sexp.t) =
  match s with
  | Sexp.List [ Sexp.Atom "+"; x; Sexp.Atom k ] when numeral k <> None ->
    Ast.plus env.ctx (term env x) (Option.get (numeral k))
  | Sexp.List [ Sexp.Atom "+"; Sexp.Atom k; x ] when numeral k <> None ->
    Ast.plus env.ctx (term env x) (Option.get (numeral k))
  | Sexp.List [ Sexp.Atom "-"; x; Sexp.Atom k ] when numeral k <> None ->
    Ast.plus env.ctx (term env x) (-Option.get (numeral k))
  | _ -> term env s

(* Orders and equality over Int operands, with difference rewriting:
   (op (- x y) k)  <=>  (op x (+ y k)). *)
and compare_app env op_name build a b =
  compare_operands env op_name build (operand env a) (operand env b)

and convert_app env head args =
  let ctx = env.ctx in
  let formulas () = List.map (formula env) args in
  match (head, args) with
  | "not", [ a ] -> F (Ast.not_ ctx (formula env a))
  | "and", _ :: _ -> F (Ast.and_list ctx (formulas ()))
  | "or", _ :: _ -> F (Ast.or_list ctx (formulas ()))
  | "xor", [ a; b ] ->
    F (Ast.not_ ctx (Ast.iff ctx (formula env a) (formula env b)))
  | "=>", _ :: _ :: _ ->
    (* right-associative chain *)
    let rec chain = function
      | [ last ] -> formula env last
      | a :: rest -> Ast.implies ctx (formula env a) (chain rest)
      | [] -> assert false
    in
    F (chain args)
  | "ite", [ c; a; b ] -> (
    let c = formula env c in
    match (convert env a, convert env b) with
    | T t1, T t2 -> T (Ast.tite ctx c t1 t2)
    | F f1, F f2 -> F (Ast.fite ctx c f1 f2)
    | T _, F _ | F _, T _ -> error "ite branches have different sorts")
  | "=", [ a; b ] -> (
    match (convert_eq_operand env a, convert_eq_operand env b) with
    | `Formula f1, `Formula f2 -> F (Ast.iff ctx f1 f2)
    | `Operand o1, `Operand o2 ->
      F (compare_operands env "=" (Ast.eq ctx) o1 o2)
    | `Formula _, `Operand _ | `Operand _, `Formula _ ->
      error "= arguments have different sorts")
  | "distinct", _ :: _ :: _ ->
    let terms = List.map (term_arith env) args in
    let rec pairs = function
      | [] -> []
      | x :: rest ->
        List.map (fun y -> Ast.not_ ctx (Ast.eq ctx x y)) rest @ pairs rest
    in
    F (Ast.and_list ctx (pairs terms))
  | "<", [ a; b ] -> F (compare_app env "<" (Ast.lt ctx) a b)
  | "<=", [ a; b ] -> F (compare_app env "<=" (Ast.le ctx) a b)
  | ">", [ a; b ] -> F (compare_app env ">" (Ast.gt ctx) a b)
  | ">=", [ a; b ] -> F (compare_app env ">=" (Ast.ge ctx) a b)
  | ("+" | "-"), _ -> T (term_arith env (Sexp.List (Sexp.Atom head :: args)))
  | name, _ -> (
    check_symbol name;
    if args = [] then error "application of %S with no arguments" name;
    let arg_terms = List.map (term env) args in
    match Hashtbl.find_opt env.decls name with
    | Some (_, Bool_sort) -> F (Ast.papp ctx name arg_terms)
    | Some (_, Int_sort) | None -> T (Ast.app ctx name arg_terms))

and convert_eq_operand env s =
  (* = is overloaded over Bool and Int; probe for Bool first via structure *)
  match s with
  | Sexp.Atom ("true" | "false") -> `Formula (formula env s)
  | Sexp.Atom name when numeral name = None -> (
    match List.assoc_opt name env.lets with
    | Some (F f) -> `Formula f
    | Some (T t) -> `Operand (`Term t)
    | None -> (
      match declared_sort env name with
      | Some Bool_sort -> `Formula (Ast.bconst env.ctx name)
      | Some Int_sort | None -> `Operand (operand env s)))
  | Sexp.List (Sexp.Atom head :: _)
    when List.mem head
           [ "not"; "and"; "or"; "xor"; "=>"; "="; "distinct"; "<"; "<="; ">";
             ">=" ] ->
    `Formula (formula env s)
  | Sexp.List (Sexp.Atom name :: _) when Hashtbl.mem env.decls name -> (
    match Hashtbl.find env.decls name with
    | _, Bool_sort -> `Formula (formula env s)
    | _, Int_sort -> `Operand (operand env s))
  | _ -> `Operand (operand env s)

and compare_operands env op_name build o1 o2 =
  match (o1, o2) with
  | `Term t1, `Term t2 -> build t1 t2
  | `Diff (x, y), `Num k -> build x (Ast.plus env.ctx y k)
  | `Num k, `Diff (x, y) -> build (Ast.plus env.ctx y k) x
  | `Num _, `Num _ | `Num _, `Term _ | `Term _, `Num _ ->
    error
      "%s compares against an absolute constant, which is outside separation \
       logic"
      op_name
  | `Diff _, (`Term _ | `Diff _) | `Term _, `Diff _ ->
    error "%s: differences may only be compared against a numeral" op_name

(* -- Commands --------------------------------------------------------------- *)

let script ctx text =
  let env = { ctx; decls = Hashtbl.create 32; lets = [] } in
  let logic = ref None in
  let assertions = ref [] in
  let requested_check = ref false in
  let command = function
    | Sexp.List [ Sexp.Atom "set-logic"; Sexp.Atom l ] -> logic := Some l
    | Sexp.List (Sexp.Atom ("set-info" | "set-option") :: _) -> ()
    | Sexp.List [ Sexp.Atom "declare-fun"; Sexp.Atom name; Sexp.List sorts;
                  ret ] ->
      check_symbol name;
      Hashtbl.replace env.decls name (List.map sort_of_sexp sorts, sort_of_sexp ret)
    | Sexp.List [ Sexp.Atom "declare-const"; Sexp.Atom name; ret ] ->
      check_symbol name;
      Hashtbl.replace env.decls name ([], sort_of_sexp ret)
    | Sexp.List [ Sexp.Atom "assert"; t ] ->
      assertions := formula env t :: !assertions
    | Sexp.List [ Sexp.Atom "check-sat" ] -> requested_check := true
    | Sexp.List [ Sexp.Atom "exit" ] -> ()
    | Sexp.List (Sexp.Atom ("push" | "pop") :: _) ->
      error "push/pop are unsupported"
    | Sexp.List (Sexp.Atom "define-fun" :: _) ->
      error "define-fun is unsupported"
    | Sexp.List (Sexp.Atom cmd :: _) -> error "unsupported command %S" cmd
    | Sexp.List _ | Sexp.Atom _ -> error "malformed command"
  in
  (try List.iter command (Sexp.parse_all text) with
  | Sexp.Error msg -> error "%s" msg
  | Invalid_argument msg -> error "%s" msg);
  {
    logic = !logic;
    assertions = List.rev !assertions;
    requested_check = !requested_check;
  }

let goal ctx s = Ast.not_ ctx (Ast.and_list ctx s.assertions)

(* -- Printing --------------------------------------------------------------- *)

(* Collapse a succ/pred chain (homogeneous by smart-constructor cancellation)
   into an offset from its base term. *)
let rec peel_offset k (t : Ast.term) =
  match t.Ast.tnode with
  | Ast.Succ t' -> peel_offset (k + 1) t'
  | Ast.Pred t' -> peel_offset (k - 1) t'
  | Ast.Const _ | Ast.Tite _ | Ast.App _ -> (k, t)

let rec pp_term ppf (t : Ast.term) =
  let k, base = peel_offset 0 t in
  if k > 0 then Format.fprintf ppf "(+ %a %d)" pp_base base k
  else if k < 0 then Format.fprintf ppf "(- %a %d)" pp_base base (-k)
  else pp_base ppf base

and pp_base ppf (t : Ast.term) =
  match t.Ast.tnode with
  | Ast.Const c -> Format.pp_print_string ppf c
  | Ast.Tite (c, a, b) ->
    Format.fprintf ppf "@[<hv 1>(ite %a@ %a@ %a)@]" pp_formula c pp_term a
      pp_term b
  | Ast.App (f, args) ->
    Format.fprintf ppf "@[<hv 1>(%s" f;
    List.iter (fun a -> Format.fprintf ppf "@ %a" pp_term a) args;
    Format.fprintf ppf ")@]"
  | Ast.Succ _ | Ast.Pred _ -> assert false (* peeled by the caller *)

and pp_formula ppf (f : Ast.formula) =
  match f.Ast.fnode with
  | Ast.Ftrue -> Format.pp_print_string ppf "true"
  | Ast.Ffalse -> Format.pp_print_string ppf "false"
  | Ast.Not g -> Format.fprintf ppf "@[<hv 1>(not@ %a)@]" pp_formula g
  | Ast.And (a, b) ->
    Format.fprintf ppf "@[<hv 1>(and@ %a@ %a)@]" pp_formula a pp_formula b
  | Ast.Or (a, b) ->
    Format.fprintf ppf "@[<hv 1>(or@ %a@ %a)@]" pp_formula a pp_formula b
  | Ast.Eq (t1, t2) ->
    Format.fprintf ppf "@[<hv 1>(=@ %a@ %a)@]" pp_term t1 pp_term t2
  | Ast.Lt (t1, t2) ->
    Format.fprintf ppf "@[<hv 1>(<@ %a@ %a)@]" pp_term t1 pp_term t2
  | Ast.Papp (p, args) ->
    Format.fprintf ppf "@[<hv 1>(%s" p;
    List.iter (fun a -> Format.fprintf ppf "@ %a" pp_term a) args;
    Format.fprintf ppf ")@]"
  | Ast.Bconst b -> Format.pp_print_string ppf b

let print_script ppf assertions =
  let funcs = Hashtbl.create 32 and preds = Hashtbl.create 32 in
  List.iter
    (fun f ->
      List.iter (fun (n, a) -> Hashtbl.replace funcs n a) (Ast.functions f);
      List.iter (fun (n, a) -> Hashtbl.replace preds n a) (Ast.predicates f))
    assertions;
  let sorted tbl =
    Hashtbl.fold (fun n a acc -> (n, a) :: acc) tbl [] |> List.sort compare
  in
  let pp_decl ret (name, arity) =
    Format.fprintf ppf "(declare-fun %s (%s) %s)@." name
      (String.concat " " (List.init arity (fun _ -> "Int")))
      ret
  in
  Format.fprintf ppf "(set-logic QF_UFIDL)@.";
  List.iter (pp_decl "Int") (sorted funcs);
  List.iter (pp_decl "Bool") (sorted preds);
  List.iter
    (fun f -> Format.fprintf ppf "@[<hv 1>(assert@ %a)@]@." pp_formula f)
    assertions;
  Format.fprintf ppf "(check-sat)@.(exit)@."

let script_to_string assertions =
  Format.asprintf "%a" print_script assertions
