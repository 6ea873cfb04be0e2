exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type sexp = Sexp.t = Atom of string | List of Sexp.t list

(* -- Conversion ------------------------------------------------------------ *)

let reserved =
  [
    "true"; "false"; "not"; "and"; "or"; "=>"; "iff"; "ite"; "="; "<"; "<=";
    ">"; ">="; "succ"; "pred"; "+"; "-";
  ]

let check_name name =
  if List.mem name reserved then error "reserved word %S used as a symbol" name;
  match int_of_string_opt name with
  | Some _ -> error "integer literal %S: SUF has no numeric constants" name
  | None -> ()

let rec to_formula ctx s =
  match s with
  | Atom "true" -> Ast.tru ctx
  | Atom "false" -> Ast.fls ctx
  | Atom name ->
    check_name name;
    Ast.bconst ctx name
  | List [] -> error "empty list"
  | List (Atom head :: args) -> formula_app ctx head args
  | List (List _ :: _) -> error "formula head must be an atom"

and formula_app ctx head args =
  let f2 name build =
    match args with
    | [ a; b ] -> build (to_formula ctx a) (to_formula ctx b)
    | _ -> error "%s expects 2 arguments" name
  in
  let t2 name build =
    match args with
    | [ a; b ] -> build (to_term ctx a) (to_term ctx b)
    | _ -> error "%s expects 2 term arguments" name
  in
  match head with
  | "not" -> (
    match args with
    | [ a ] -> Ast.not_ ctx (to_formula ctx a)
    | _ -> error "not expects 1 argument")
  | "and" -> (
    match args with
    | [] | [ _ ] -> error "and expects >= 2 arguments"
    | _ -> Ast.and_list ctx (List.map (to_formula ctx) args))
  | "or" -> (
    match args with
    | [] | [ _ ] -> error "or expects >= 2 arguments"
    | _ -> Ast.or_list ctx (List.map (to_formula ctx) args))
  | "=>" -> f2 "=>" (Ast.implies ctx)
  | "iff" -> f2 "iff" (Ast.iff ctx)
  | "ite" -> (
    match args with
    | [ c; a; b ] ->
      Ast.fite ctx (to_formula ctx c) (to_formula ctx a) (to_formula ctx b)
    | _ -> error "ite expects 3 arguments")
  | "=" -> t2 "=" (Ast.eq ctx)
  | "<" -> t2 "<" (Ast.lt ctx)
  | "<=" -> t2 "<=" (Ast.le ctx)
  | ">" -> t2 ">" (Ast.gt ctx)
  | ">=" -> t2 ">=" (Ast.ge ctx)
  | name ->
    check_name name;
    if args = [] then error "application of %S with no arguments" name;
    Ast.papp ctx name (List.map (to_term ctx) args)

and to_term ctx s =
  match s with
  | Atom name ->
    check_name name;
    Ast.const ctx name
  | List [] -> error "empty list"
  | List (Atom head :: args) -> term_app ctx head args
  | List (List _ :: _) -> error "term head must be an atom"

and term_app ctx head args =
  match head with
  | "succ" -> (
    match args with
    | [ a ] -> Ast.succ ctx (to_term ctx a)
    | _ -> error "succ expects 1 argument")
  | "pred" -> (
    match args with
    | [ a ] -> Ast.pred ctx (to_term ctx a)
    | _ -> error "pred expects 1 argument")
  | "+" | "-" -> (
    match args with
    | [ a; Atom k ] -> (
      match int_of_string_opt k with
      | Some k ->
        let k = if head = "+" then k else -k in
        Ast.plus ctx (to_term ctx a) k
      | None -> error "%s expects an integer offset" head)
    | _ -> error "%s expects a term and an integer" head)
  | "ite" -> (
    match args with
    | [ c; a; b ] ->
      Ast.tite ctx (to_formula ctx c) (to_term ctx a) (to_term ctx b)
    | _ -> error "ite expects 3 arguments")
  | name ->
    check_name name;
    if args = [] then error "application of %S with no arguments" name;
    Ast.app ctx name (List.map (to_term ctx) args)

let formula ctx text =
  match Sexp.parse_one text with
  | exception Sexp.Error msg -> error "%s" msg
  | s -> (
    try to_formula ctx s with Invalid_argument msg -> error "%s" msg)
