module Ast = Sqlfront.Ast
module Parser = Sqlfront.Parser
module Sql_pp = Sqlfront.Sql_pp
module Lexer = Sqlfront.Lexer
module Token = Sqlfront.Token

(* ---- lexer --------------------------------------------------------------- *)

let toks s = List.map (fun l -> l.Token.tok) (Lexer.tokenize s)

let test_lexer_basic () =
  Alcotest.(check int) "count" 5 (List.length (toks "SELECT a FROM t"));
  (match toks "x <= 3.5 <> 'a''b'" with
  | [ Token.Ident "x"; Token.Sym "<="; Token.Float 3.5; Token.Sym "<>";
      Token.Str "a'b"; Token.Eof ] ->
      ()
  | _ -> Alcotest.fail "unexpected tokens");
  match toks "a!=b||c" with
  | [ Token.Ident "a"; Token.Sym "<>"; Token.Ident "b"; Token.Sym "||";
      Token.Ident "c"; Token.Eof ] ->
      ()
  | _ -> Alcotest.fail "!= and || lexing"

(* regression: 1e+15 used to lex as Int 1, Ident e, +, 15 *)
let test_lexer_exponent () =
  (match toks "1e+15 2.5E-3 3e5 7 e" with
  | [ Token.Float a; Token.Float b; Token.Float c; Token.Int 7; Token.Ident "e";
      Token.Eof ] ->
      Alcotest.(check (list (float 0.0))) "values" [ 1e15; 2.5e-3; 3e5 ] [ a; b; c ]
  | _ -> Alcotest.fail "exponent lexing");
  (* an 'e' not followed by digits is not an exponent *)
  match toks "1 + e1" with
  | [ Token.Int 1; Token.Sym "+"; Token.Ident "e1"; Token.Eof ] -> ()
  | _ -> Alcotest.fail "identifier after a number"

let test_lexer_comments () =
  Alcotest.(check int) "line comment" 2 (List.length (toks "a -- b c d"));
  Alcotest.(check int) "block comment" 3 (List.length (toks "a /* x */ b"))

let test_lexer_error () =
  match toks "a @ b" with
  | exception Lexer.Error (_, 1, 3) -> ()
  | exception Lexer.Error (_, l, c) ->
      Alcotest.failf "wrong position %d:%d" l c
  | _ -> Alcotest.fail "expected lexer error"

(* a [{ ... }] block is one token; braces nest, and a quoted literal's
   braces and doubled quotes are copied, not counted *)
let test_lexer_block () =
  match toks "x { a {b} 'c}' 'd''{' } y" with
  | [ Token.Ident "x"; Token.Block "a {b} 'c}' 'd''{'"; Token.Ident "y"; Token.Eof ] -> ()
  | ts -> Alcotest.failf "block lexing: %s" (String.concat " " (List.map Token.to_string ts))

(* ---- parser -------------------------------------------------------------- *)

let roundtrips s =
  let ast = Parser.parse_stmt s in
  let printed = Sql_pp.stmt_to_string ast in
  let ast2 = Parser.parse_stmt printed in
  Alcotest.(check bool) (Printf.sprintf "roundtrip: %s" s) true (Ast.equal_stmt ast ast2)

let test_roundtrip_corpus () =
  List.iter roundtrips
    [
      "SELECT code, cartype, rate FROM cars WHERE carst = 'available'";
      "SELECT DISTINCT a FROM t ORDER BY a DESC, b ASC";
      "SELECT c.code, v.vcode FROM cars c, vehicle v WHERE c.code = v.vcode";
      "SELECT * FROM t WHERE a LIKE 'x%' AND b NOT LIKE '_y'";
      "SELECT * FROM t WHERE a IN (1, 2, 3) OR b NOT IN (SELECT x FROM u)";
      "SELECT * FROM t WHERE a BETWEEN 1 AND 10 AND b NOT BETWEEN 2 AND 3";
      "SELECT * FROM t WHERE a IS NULL AND b IS NOT NULL";
      "SELECT * FROM t WHERE EXISTS (SELECT * FROM u WHERE u.x = t.x)";
      "SELECT cartype, COUNT(*), SUM(rate), AVG(rate), MIN(rate), MAX(rate) \
       FROM cars GROUP BY cartype HAVING COUNT(*) > 1";
      "SELECT COUNT(DISTINCT cartype) FROM cars";
      "SELECT a + b * c - d / e FROM t";
      "SELECT -a, a || b FROM t";
      "SELECT t.* FROM t, u";
      "SELECT a AS alpha, b beta FROM t";
      "INSERT INTO t VALUES (1, 'x', NULL)";
      "INSERT INTO t (a, b) VALUES (1, 2), (3, 4)";
      "INSERT INTO t SELECT a, b FROM u WHERE a > 0";
      "UPDATE t SET a = a + 1, b = 'x' WHERE c < 0";
      "UPDATE f SET s = 'TAKEN' WHERE n = (SELECT MIN(n) FROM f WHERE s = 'FREE')";
      "DELETE FROM t WHERE a NOT IN (SELECT b FROM u)";
      "DELETE FROM t";
      "CREATE TABLE t (a INT, b CHAR(30), c FLOAT, d BOOL)";
      "DROP TABLE t";
      "CREATE VIEW v AS SELECT a, b FROM t WHERE a > 0";
      "DROP VIEW v";
      "CREATE INDEX i ON t (a)";
      "DROP INDEX i";
      "CREATE TABLE k (id INT NOT NULL UNIQUE, tag CHAR(8) UNIQUE, v FLOAT NOT NULL)";
      "BEGIN"; "COMMIT"; "ROLLBACK"; "PREPARE";
    ]

let test_precedence () =
  (* a + b * c parses as a + (b * c) *)
  match Parser.parse_expr "a + b * c" with
  | Ast.Binop (Ast.Add, Ast.Col _, Ast.Binop (Ast.Mul, _, _)) -> ()
  | _ -> Alcotest.fail "precedence of * over +"

let test_and_or_precedence () =
  match Parser.parse_expr "a = 1 OR b = 2 AND c = 3" with
  | Ast.Binop (Ast.Or, _, Ast.Binop (Ast.And, _, _)) -> ()
  | _ -> Alcotest.fail "AND binds tighter than OR"

let test_not_precedence () =
  match Parser.parse_expr "NOT a = 1 AND b = 2" with
  | Ast.Binop (Ast.And, Ast.Unop (Ast.Not, _), _) -> ()
  | _ -> Alcotest.fail "NOT binds tighter than AND"

let test_parse_errors () =
  let expect_error s =
    match Parser.parse_stmt s with
    | exception Parser.Error _ -> ()
    | _ -> Alcotest.failf "expected parse error: %s" s
  in
  expect_error "SELECT";
  expect_error "SELECT a FROM";
  expect_error "SELECT a FROM t WHERE";
  expect_error "INSERT INTO t";
  expect_error "UPDATE t SET";
  expect_error "SELECT a FROM t GROUP a";
  expect_error "SELECT a FROM t trailing garbage (";
  expect_error "FOO BAR"

(* SQL, MSQL and DOL share one lexer and one syntax error: each
   language's lexical and grammar errors raise [Sqlcore.Scan.Error], with
   these pinned messages and positions. *)
let test_one_syntax_error () =
  let sql s = ignore (Parser.parse_script s) in
  let msql s = ignore (Msql.Mparser.parse_script s) in
  let dol s = ignore (Narada.Dol_parser.parse s) in
  let expect name parse text (msg, line, col) =
    match parse text with
    | exception Sqlcore.Scan.Error (m, l, c) ->
        Alcotest.(check (triple string int int)) name (msg, line, col) (m, l, c)
    | () -> Alcotest.failf "%s: expected a syntax error" name
  in
  expect "sql unterminated string" sql "SELECT a FROM t WHERE b = 'abc"
    ("unterminated string literal", 1, 31);
  expect "sql bad character" sql "a @ b" ("unexpected character '@'", 1, 3);
  expect "sql grammar" sql "SELECT a FROM\n  t WHERE"
    ("unexpected token <eof> (at <eof>)", 2, 10);
  expect "sql trailing" sql "SELECT a FROM t extra junk"
    ("expected a statement (at junk)", 1, 23);
  expect "msql unterminated string" msql
    "USE avis SELECT code FROM cars WHERE x = 'abc"
    ("unterminated string literal", 1, 46);
  expect "msql bare ~" msql "USE avis\nSELECT ~ FROM cars"
    ("expected identifier after ~", 2, 9);
  expect "msql grammar" msql "UPDATE cars SET x = 1"
    ( "expected USE, BEGIN MULTITRANSACTION, INCORPORATE, IMPORT or \
       CREATE/DROP TRIGGER (at UPDATE)",
      1, 1 );
  expect "dol unterminated block" dol
    "DOLBEGIN\nTASK t1 FOR aa { UPDATE t SET x = 1 ENDTASK;\nDOLEND"
    ("unterminated { block", 3, 7);
  expect "dol grammar" dol "DOLBEGIN\n  FOO;\nDOLEND"
    ("expected a DOL statement (at FOO)", 2, 3);
  expect "dol trailing" dol "DOLBEGIN DOLSTATUS = 1; DOLEND x"
    ("trailing input after DOLEND: x (at x)", 1, 32)

let test_db_qualified_table () =
  match Parser.parse_stmt "SELECT a FROM avis.cars c" with
  | Ast.Select { from = [ { table = "avis.cars"; alias = Some "c" } ]; _ } -> ()
  | _ -> Alcotest.fail "db-qualified table ref"

let test_script () =
  let stmts = Parser.parse_script "SELECT a FROM t; UPDATE t SET a = 1;; COMMIT" in
  Alcotest.(check int) "three statements" 3 (List.length stmts)

let test_keyword_case_insensitive () =
  roundtrips "select A from T where B = 'x' order by A desc"

let test_keywordish_column_names () =
  (* the paper's AVIS schema has columns named from/to *)
  roundtrips "UPDATE cars SET from = '07-04-64', to = '04-16-92' WHERE code = 1";
  roundtrips "SELECT from, to FROM cars WHERE from IS NOT NULL"

(* ---- aggregate detection --------------------------------------------------- *)

let test_is_aggregate () =
  let is_agg s =
    match Parser.parse_stmt s with
    | Ast.Select sel -> Ast.is_aggregate_query sel
    | _ -> false
  in
  Alcotest.(check bool) "count" true (is_agg "SELECT COUNT(*) FROM t");
  Alcotest.(check bool) "group" true (is_agg "SELECT a FROM t GROUP BY a");
  Alcotest.(check bool) "plain" false (is_agg "SELECT a FROM t");
  Alcotest.(check bool) "having alone" true (is_agg "SELECT a FROM t HAVING 1 = 0");
  Alcotest.(check bool) "subquery agg does not leak" false
    (is_agg "SELECT a FROM t WHERE a = (SELECT MAX(b) FROM u)")

let test_tables_of_stmt () =
  let tables s = Ast.tables_of_stmt (Parser.parse_stmt s) in
  Alcotest.(check (list string)) "select" [ "t"; "u" ]
    (tables "SELECT a FROM t WHERE a IN (SELECT b FROM u)");
  Alcotest.(check (list string)) "update" [ "t"; "u" ]
    (tables "UPDATE t SET a = 1 WHERE b = (SELECT MAX(c) FROM u)")

(* ---- random expression roundtrip ------------------------------------------- *)

let gen_expr =
  let open QCheck.Gen in
  let ident = oneofl [ "a"; "b"; "c"; "rate" ] in
  let leaf =
    oneof
      [
        map (fun i -> Ast.Lit (Sqlcore.Value.Int i)) small_nat;
        (* any non-negative finite float: the literal must read back exactly *)
        map
          (fun f ->
            Ast.Lit (Sqlcore.Value.Float (if Float.is_finite f then Float.abs f else 0.5)))
          float;
        map (fun s -> Ast.Lit (Sqlcore.Value.Str s)) (oneofl [ "x"; "it's" ]);
        map (fun n -> Ast.col n) ident;
        map (fun n -> Ast.col ~qualifier:"t" n) ident;
        return (Ast.Lit Sqlcore.Value.Null);
      ]
  in
  let rec expr n =
    if n = 0 then leaf
    else
      oneof
        [
          leaf;
          map2
            (fun op (a, b) -> Ast.Binop (op, a, b))
            (oneofl Ast.[ Add; Sub; Mul; Concat ])
            (pair (expr (n - 1)) (expr (n - 1)));
          map2
            (fun op (a, b) ->
              Ast.Binop (Ast.Or, Ast.Binop (op, a, b), Ast.Binop (op, b, a)))
            (oneofl Ast.[ Eq; Neq; Lt; Le; Gt; Ge ])
            (pair (expr (n - 1)) (expr (n - 1)));
          map (fun a -> Ast.Unop (Ast.Neg, a)) (expr (n - 1));
          map (fun a -> Ast.Is_null { arg = a; negated = false }) (expr (n - 1));
          map
            (fun (a, items) -> Ast.In_list { arg = a; items; negated = true })
            (pair (expr (n - 1)) (list_size (1 -- 3) (expr (n - 1))));
        ]
  in
  expr 3

let prop_expr_roundtrip =
  QCheck.Test.make ~name:"expression print/parse roundtrip" ~count:300
    (QCheck.make gen_expr) (fun e ->
      let s = "SELECT a FROM t WHERE " ^ Sql_pp.expr_to_string (Ast.Is_null { arg = e; negated = false }) in
      match Parser.parse_stmt s with
      | Ast.Select { where = Some (Ast.Is_null { arg = e2; negated = false }); _ } ->
          Ast.equal_stmt
            (Ast.Update { table = "t"; assignments = [ ("x", e) ]; where = None })
            (Ast.Update { table = "t"; assignments = [ ("x", e2) ]; where = None })
      | _ -> false)

let () =
  Alcotest.run "sqlfront"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_lexer_basic;
          Alcotest.test_case "exponent" `Quick test_lexer_exponent;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "error position" `Quick test_lexer_error;
          Alcotest.test_case "block" `Quick test_lexer_block;
        ] );
      ( "parser",
        [
          Alcotest.test_case "roundtrip corpus" `Quick test_roundtrip_corpus;
          Alcotest.test_case "arith precedence" `Quick test_precedence;
          Alcotest.test_case "and/or precedence" `Quick test_and_or_precedence;
          Alcotest.test_case "not precedence" `Quick test_not_precedence;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "one syntax error" `Quick test_one_syntax_error;
          Alcotest.test_case "db-qualified table" `Quick test_db_qualified_table;
          Alcotest.test_case "script" `Quick test_script;
          Alcotest.test_case "keyword case" `Quick test_keyword_case_insensitive;
          Alcotest.test_case "from/to columns" `Quick test_keywordish_column_names;
        ] );
      ( "ast",
        [
          Alcotest.test_case "is_aggregate" `Quick test_is_aggregate;
          Alcotest.test_case "tables_of_stmt" `Quick test_tables_of_stmt;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_expr_roundtrip ] );
    ]
