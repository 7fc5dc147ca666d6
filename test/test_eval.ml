(* Expression evaluation in isolation: exhaustive Kleene truth tables,
   comparison/arithmetic NULL propagation, LIKE/IN/BETWEEN corner cases,
   and name resolution through enclosing rows. Each expression runs
   through the test suite's reference interpreter and the compiler, which
   must agree. *)
open Sqlcore
module Eval = Ldbms.Eval
module Compile = Ldbms.Compile
module Ast = Sqlfront.Ast

let value = Alcotest.testable Value.pp Value.equal

let ctx =
  { Compile.outer = None; subquery = Ref_eval.no_subquery; group = None }

(* the reference interpreter's value over no row, checked against the
   compiled closure's *)
let eval e =
  let run f = try Ok (f ()) with Eval.Type_error m -> Error m in
  let want = run (fun () -> Ref_eval.eval Ref_eval.plain (Ref_eval.env [] [||]) e) in
  let got = run (fun () -> Compile.compile ctx [] e [||]) in
  if compare want got <> 0 then
    Alcotest.failf "%s: compiled and reference results differ"
      (Sqlfront.Sql_pp.expr_to_string e);
  match want with Ok v -> v | Error m -> raise (Eval.Type_error m)

let eval_sql s = eval (Sqlfront.Parser.parse_expr s)

let t3 = Value.Bool true
let f3 = Value.Bool false
let u3 = Value.Null

let test_and_truth_table () =
  let cases =
    [ (t3, t3, t3); (t3, f3, f3); (t3, u3, u3);
      (f3, t3, f3); (f3, f3, f3); (f3, u3, f3);
      (u3, t3, u3); (u3, f3, f3); (u3, u3, u3) ]
  in
  List.iter
    (fun (a, b, expected) ->
      Alcotest.check value "and"
        expected
        (eval (Ast.Binop (Ast.And, Ast.Lit a, Ast.Lit b))))
    cases

let test_or_truth_table () =
  let cases =
    [ (t3, t3, t3); (t3, f3, t3); (t3, u3, t3);
      (f3, t3, t3); (f3, f3, f3); (f3, u3, u3);
      (u3, t3, t3); (u3, f3, u3); (u3, u3, u3) ]
  in
  List.iter
    (fun (a, b, expected) ->
      Alcotest.check value "or" expected
        (eval (Ast.Binop (Ast.Or, Ast.Lit a, Ast.Lit b))))
    cases

let test_not_truth_table () =
  Alcotest.check value "not true" f3 (eval_sql "NOT TRUE");
  Alcotest.check value "not false" t3 (eval_sql "NOT FALSE");
  Alcotest.check value "not null" u3 (eval_sql "NOT NULL")

let test_comparison_nulls () =
  List.iter
    (fun sql -> Alcotest.check value sql u3 (eval_sql sql))
    [ "1 = NULL"; "NULL = 1"; "NULL <> NULL"; "NULL < 1"; "'a' >= NULL" ]

let test_numeric_comparisons () =
  Alcotest.check value "int lt float" t3 (eval_sql "1 < 1.5");
  Alcotest.check value "float eq int" t3 (eval_sql "2.0 = 2");
  Alcotest.check value "neg" t3 (eval_sql "-3 < -2")

let test_cross_class_comparison_errors () =
  (match eval_sql "1 = 'x'" with
  | exception Eval.Type_error _ -> ()
  | _ -> Alcotest.fail "int vs string must be a type error");
  match eval_sql "TRUE > 0" with
  | exception Eval.Type_error _ -> ()
  | _ -> Alcotest.fail "bool vs int must be a type error"

let test_arithmetic () =
  Alcotest.check value "int div truncates" (Value.Int 2) (eval_sql "7 / 3");
  Alcotest.check value "mixed promotes" (Value.Float 3.5) (eval_sql "7 / 2.0");
  Alcotest.check value "mod" (Value.Int 1) (eval_sql "7 % 3");
  Alcotest.check value "null propagates" u3 (eval_sql "1 + NULL");
  Alcotest.check value "precedence" (Value.Int 7) (eval_sql "1 + 2 * 3");
  (match eval_sql "1 / 0" with
  | exception Eval.Type_error _ -> ()
  | _ -> Alcotest.fail "div by zero");
  match eval_sql "1.0 % 2.0" with
  | exception Eval.Type_error _ -> ()
  | _ -> Alcotest.fail "float mod"

let test_concat () =
  Alcotest.check value "strings" (Value.Str "ab") (eval_sql "'a' || 'b'");
  Alcotest.check value "number coerces" (Value.Str "x1") (eval_sql "'x' || 1");
  Alcotest.check value "null" u3 (eval_sql "'x' || NULL")

let test_like_cases () =
  Alcotest.check value "match" t3 (eval_sql "'sedan' LIKE 's%n'");
  Alcotest.check value "no match" f3 (eval_sql "'suv' LIKE 's%n'");
  Alcotest.check value "underscore" t3 (eval_sql "'cat' LIKE 'c_t'");
  Alcotest.check value "not like" f3 (eval_sql "'sedan' NOT LIKE 's%'");
  Alcotest.check value "null arg" u3 (eval_sql "NULL LIKE 'a%'");
  match eval_sql "1 LIKE 'a'" with
  | exception Eval.Type_error _ -> ()
  | _ -> Alcotest.fail "LIKE on int"

let test_in_matrix () =
  Alcotest.check value "hit" t3 (eval_sql "2 IN (1, 2, 3)");
  Alcotest.check value "miss" f3 (eval_sql "9 IN (1, 2, 3)");
  Alcotest.check value "miss with null" u3 (eval_sql "9 IN (1, NULL)");
  Alcotest.check value "hit despite null" t3 (eval_sql "1 IN (NULL, 1)");
  Alcotest.check value "null needle" u3 (eval_sql "NULL IN (1, 2)");
  Alcotest.check value "not in hit" f3 (eval_sql "2 NOT IN (1, 2)");
  Alcotest.check value "not in with null" u3 (eval_sql "9 NOT IN (1, NULL)")

(* Literal IN lists compile to a hashed membership test; each case must
   give the reference interpreter's value, or raise its error. *)
let test_in_literal_lists () =
  let check_value name expected sql =
    Alcotest.check value name expected (eval_sql sql)
  in
  check_value "int needle, float item" t3 "5 IN (5.0)";
  check_value "float needle, int item" t3 "5.0 IN (4, 5)";
  check_value "2^53+1 is not the double 2^53" f3
    "9007199254740993 IN (9007199254740992.0)";
  check_value "2^53 is" t3 "9007199254740992 IN (9007199254740992.0)";
  check_value "negative zero is zero" t3 "0 IN (-0.0, 7)";
  check_value "negative literal item" t3 "-3 IN (1, -3)";
  check_value "null needle" u3 "NULL IN (1, 2, 3)";
  check_value "null needle, string list" u3 "NULL IN ('a', 'b')";
  check_value "not in, miss with null" u3 "9 NOT IN (1, NULL)";
  check_value "not in, hit with null" f3 "1 NOT IN (NULL, 1)";
  check_value "all-null list" u3 "'a' IN (NULL, NULL)";
  check_value "string hit" t3 "'b' IN ('a', 'b')";
  check_value "bool miss" f3 "TRUE IN (FALSE)";
  match eval_sql "'a' IN (1, 2)" with
  | exception Eval.Type_error m ->
      Alcotest.(check string) "reference message" "cannot compare a with 1" m
  | _ -> Alcotest.fail "string needle against an int list must raise"

let test_between () =
  Alcotest.check value "inside" t3 (eval_sql "2 BETWEEN 1 AND 3");
  Alcotest.check value "boundary" t3 (eval_sql "3 BETWEEN 1 AND 3");
  Alcotest.check value "outside" f3 (eval_sql "4 BETWEEN 1 AND 3");
  Alcotest.check value "null bound unknown" u3 (eval_sql "2 BETWEEN NULL AND 3");
  Alcotest.check value "definitely out despite null" f3
    (eval_sql "9 BETWEEN NULL AND 3")

let test_is_null () =
  Alcotest.check value "null is null" t3 (eval_sql "NULL IS NULL");
  Alcotest.check value "value is not null" t3 (eval_sql "1 IS NOT NULL");
  Alcotest.check value "value is null" f3 (eval_sql "1 IS NULL")

(* a column reference compiled against [schema] under the enclosing rows
   [outer], applied to [row] *)
let lookup ?outer schema row ?qualifier name =
  Compile.compile { ctx with outer } schema (Ast.Col { qualifier; name }) row

let test_env_lookup_and_outer () =
  let inner_schema = Schema.requalify (Some "i") [ Schema.column "x" Ty.Int ] in
  let outer_schema = Schema.requalify (Some "o") [ Schema.column "y" Ty.Int ] in
  let outer = Ref_eval.env outer_schema [| Value.Int 10 |] in
  let inner = lookup ~outer inner_schema [| Value.Int 1 |] in
  Alcotest.check value "inner" (Value.Int 1) (inner "x");
  Alcotest.check value "outer fallback" (Value.Int 10) (inner "y");
  Alcotest.check value "qualified outer" (Value.Int 10) (inner ~qualifier:"o" "y");
  (match inner "z" with
  | exception Eval.Unknown_column c -> Alcotest.(check string) "name" "z" c
  | _ -> Alcotest.fail "unknown column");
  (* the error is raised by the closure, not by compiling it *)
  let (_ : Row.t -> Value.t) =
    Compile.compile { ctx with outer = Some outer } inner_schema (Ast.col "z")
  in
  (* inner shadows outer for same name *)
  let shadow_outer =
    Ref_eval.env
      (Schema.requalify (Some "o") [ Schema.column "x" Ty.Int ])
      [| Value.Int 99 |]
  in
  Alcotest.check value "shadowing" (Value.Int 1)
    (lookup ~outer:shadow_outer inner_schema [| Value.Int 1 |] "x")

let test_ambiguous_lookup () =
  let schema =
    Schema.requalify (Some "a") [ Schema.column "x" Ty.Int ]
    @ Schema.requalify (Some "b") [ Schema.column "x" Ty.Int ]
  in
  let row = [| Value.Int 1; Value.Int 2 |] in
  (match lookup schema row "x" with
  | exception Eval.Ambiguous_column c -> Alcotest.(check string) "name" "x" c
  | _ -> Alcotest.fail "ambiguity expected");
  Alcotest.check value "qualified resolves" (Value.Int 2)
    (lookup schema row ~qualifier:"b" "x");
  (* an ambiguity in an enclosing row is an error too *)
  match lookup ~outer:(Ref_eval.env schema row) [] [||] "x" with
  | exception Eval.Ambiguous_column _ -> ()
  | _ -> Alcotest.fail "outer ambiguity expected"

let test_agg_outside_context () =
  match eval (Ast.Agg { fn = Ast.Count_star; distinct = false; arg = None }) with
  | exception Eval.Type_error m ->
      Alcotest.(check string) "message" "aggregate used outside an aggregate query" m
  | _ -> Alcotest.fail "aggregate without context"

let prop_not_involutive_on_booleans =
  QCheck.Test.make ~name:"NOT . NOT = id on booleans" ~count:50
    QCheck.(make Gen.bool) (fun b ->
      eval (Ast.Unop (Ast.Not, Ast.Unop (Ast.Not, Ast.Lit (Value.Bool b))))
      = Value.Bool b)

let prop_and_commutes =
  let tv = QCheck.Gen.oneofl [ t3; f3; u3 ] in
  QCheck.Test.make ~name:"AND commutes in 3VL" ~count:100
    (QCheck.make QCheck.Gen.(pair tv tv)) (fun (a, b) ->
      eval (Ast.Binop (Ast.And, Ast.Lit a, Ast.Lit b))
      = eval (Ast.Binop (Ast.And, Ast.Lit b, Ast.Lit a)))

let prop_de_morgan =
  let tv = QCheck.Gen.oneofl [ t3; f3; u3 ] in
  QCheck.Test.make ~name:"De Morgan holds in 3VL" ~count:100
    (QCheck.make QCheck.Gen.(pair tv tv)) (fun (a, b) ->
      let nand =
        eval (Ast.Unop (Ast.Not, Ast.Binop (Ast.And, Ast.Lit a, Ast.Lit b)))
      in
      let or_nots =
        eval
          (Ast.Binop
             (Ast.Or, Ast.Unop (Ast.Not, Ast.Lit a), Ast.Unop (Ast.Not, Ast.Lit b)))
      in
      nand = or_nots)

let () =
  Alcotest.run "eval"
    [
      ( "three-valued logic",
        [
          Alcotest.test_case "AND table" `Quick test_and_truth_table;
          Alcotest.test_case "OR table" `Quick test_or_truth_table;
          Alcotest.test_case "NOT table" `Quick test_not_truth_table;
          Alcotest.test_case "comparisons with NULL" `Quick test_comparison_nulls;
          Alcotest.test_case "is null" `Quick test_is_null;
        ] );
      ( "operators",
        [
          Alcotest.test_case "numeric comparisons" `Quick test_numeric_comparisons;
          Alcotest.test_case "cross-class errors" `Quick test_cross_class_comparison_errors;
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "concat" `Quick test_concat;
          Alcotest.test_case "like" `Quick test_like_cases;
          Alcotest.test_case "in" `Quick test_in_matrix;
          Alcotest.test_case "in literal lists" `Quick test_in_literal_lists;
          Alcotest.test_case "between" `Quick test_between;
        ] );
      ( "environments",
        [
          Alcotest.test_case "lookup and outer" `Quick test_env_lookup_and_outer;
          Alcotest.test_case "ambiguity" `Quick test_ambiguous_lookup;
          Alcotest.test_case "agg context" `Quick test_agg_outside_context;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_not_involutive_on_booleans; prop_and_commutes; prop_de_morgan ] );
    ]
