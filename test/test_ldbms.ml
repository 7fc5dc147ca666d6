open Sqlcore
module Session = Ldbms.Session
module Caps = Ldbms.Capabilities
module Inject = Ldbms.Failure_injector

let value = Alcotest.testable Value.pp Value.equal

(* ---- shared fixture -------------------------------------------------------- *)

let cars_schema =
  [ Schema.column "code" Ty.Int; Schema.column "cartype" Ty.Str;
    Schema.column "rate" Ty.Float; Schema.column "carst" Ty.Str ]

let fresh_db () =
  let db = Ldbms.Database.create "avis" in
  Ldbms.Database.load db ~name:"cars" cars_schema
    [
      [| Value.Int 1; Value.Str "sedan"; Value.Float 45.0; Value.Str "available" |];
      [| Value.Int 2; Value.Str "suv"; Value.Float 65.0; Value.Str "rented" |];
      [| Value.Int 3; Value.Str "compact"; Value.Null; Value.Str "available" |];
    ];
  db

let connect ?(caps = Caps.ingres_like) () = Session.connect (fresh_db ()) caps

let rows_of = function
  | Ok (Session.Rows r) -> Relation.rows r
  | Ok _ -> Alcotest.fail "expected rows"
  | Error m -> Alcotest.fail ("error: " ^ m)

let affected = function
  | Ok (Session.Affected n) -> n
  | Ok _ -> Alcotest.fail "expected affected count"
  | Error m -> Alcotest.fail ("error: " ^ m)

let expect_error = function
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an error"

let q s sql = Result.map_error Session.error_to_string (Session.exec_sql s sql)

let ok_txn = function
  | Ok () -> ()
  | Error e -> Alcotest.fail (Session.error_to_string e)

let scalar s sql = match rows_of (q s sql) with
  | [ [| v |] ] -> v
  | _ -> Alcotest.fail "expected a single scalar"

let expect_message s sql expected =
  match q s sql with
  | Error m -> Alcotest.(check string) sql expected m
  | Ok _ -> Alcotest.failf "%s: expected the error %S" sql expected

let ok s sql =
  match q s sql with Ok _ -> () | Error m -> Alcotest.fail (sql ^ ": " ^ m)

let codes rows =
  List.map (function [| Value.Int n |] -> n | _ -> Alcotest.fail "code row") rows

(* ---- SELECT ---------------------------------------------------------------- *)

let test_select_where () =
  let s = connect () in
  Alcotest.(check int) "two available" 2
    (List.length (rows_of (q s "SELECT code FROM cars WHERE carst = 'available'")))

let test_select_null_semantics () =
  let s = connect () in
  (* NULL rate must not satisfy rate > 0, nor rate <= 0 *)
  Alcotest.(check int) "gt" 2 (List.length (rows_of (q s "SELECT code FROM cars WHERE rate > 0")));
  Alcotest.(check int) "le" 0 (List.length (rows_of (q s "SELECT code FROM cars WHERE rate <= 0")));
  Alcotest.(check int) "is null" 1
    (List.length (rows_of (q s "SELECT code FROM cars WHERE rate IS NULL")));
  (* NOT (NULL comparison) stays unknown *)
  Alcotest.(check int) "not of unknown" 0
    (List.length (rows_of (q s "SELECT code FROM cars WHERE NOT rate > 0")))

let test_select_in_and_between () =
  let s = connect () in
  Alcotest.(check int) "in list" 2
    (List.length (rows_of (q s "SELECT code FROM cars WHERE code IN (1, 2, 9)")));
  Alcotest.(check int) "between" 2
    (List.length (rows_of (q s "SELECT code FROM cars WHERE code BETWEEN 1 AND 2")));
  (* x NOT IN (... NULL ...) is never true when no match *)
  Alcotest.(check int) "not in with null" 0
    (List.length (rows_of (q s "SELECT code FROM cars WHERE code NOT IN (9, NULL)")));
  (* literal lists take the hashed membership path: numeric equality
     crosses Int/Float, and a string needle against numbers is the
     interpreter's type error *)
  Alcotest.(check int) "float items match int column" 2
    (List.length (rows_of (q s "SELECT code FROM cars WHERE code IN (1.0, 3, NULL)")));
  Alcotest.(check int) "string list" 2
    (List.length
       (rows_of (q s "SELECT code FROM cars WHERE cartype IN ('suv', 'sedan')")));
  Alcotest.(check int) "null rate is unknown, not a miss" 1
    (List.length (rows_of (q s "SELECT code FROM cars WHERE rate NOT IN (45.0)")));
  expect_error (q s "SELECT code FROM cars WHERE carst IN (1, 2)")

let test_select_like () =
  let s = connect () in
  Alcotest.(check int) "like s%" 2
    (List.length (rows_of (q s "SELECT code FROM cars WHERE cartype LIKE 's%'")))

let test_select_order_distinct () =
  let s = connect () in
  (match rows_of (q s "SELECT code FROM cars ORDER BY code DESC") with
  | [| Value.Int 3 |] :: _ -> ()
  | _ -> Alcotest.fail "desc order");
  Alcotest.(check int) "distinct status" 2
    (List.length (rows_of (q s "SELECT DISTINCT carst FROM cars")))

let test_select_aggregates () =
  let s = connect () in
  Alcotest.check value "count star" (Value.Int 3) (scalar s "SELECT COUNT(*) FROM cars");
  Alcotest.check value "count rate skips null" (Value.Int 2)
    (scalar s "SELECT COUNT(rate) FROM cars");
  Alcotest.check value "sum" (Value.Float 110.0) (scalar s "SELECT SUM(rate) FROM cars");
  Alcotest.check value "avg" (Value.Float 55.0) (scalar s "SELECT AVG(rate) FROM cars");
  Alcotest.check value "min" (Value.Float 45.0) (scalar s "SELECT MIN(rate) FROM cars");
  Alcotest.check value "max over empty is null" Value.Null
    (scalar s "SELECT MAX(rate) FROM cars WHERE code > 99")

let test_group_by_having () =
  let s = connect () in
  let rows = rows_of (q s "SELECT carst, COUNT(*) FROM cars GROUP BY carst HAVING COUNT(*) > 1") in
  (match rows with
  | [ [| Value.Str "available"; Value.Int 2 |] ] -> ()
  | _ -> Alcotest.fail "group/having result")

(* A HAVING without GROUP BY makes the whole input one group, even when
   no aggregate appears anywhere. *)
let test_having_without_group_by () =
  let s = connect () in
  Alcotest.(check int) "false HAVING keeps no group" 0
    (List.length (rows_of (q s "SELECT 1 FROM cars HAVING 1 = 0")));
  Alcotest.(check int) "true HAVING keeps the one group" 1
    (List.length (rows_of (q s "SELECT 1 FROM cars HAVING 1 = 1")))

(* Over zero input rows an ungrouped aggregate still yields its one row;
   a grouped one yields none. *)
let test_aggregates_over_no_rows () =
  let s = connect () in
  (match rows_of (q s "SELECT COUNT(*), SUM(rate) FROM cars WHERE code > 99") with
  | [ [| c; sum |] ] ->
      Alcotest.check value "count" (Value.Int 0) c;
      Alcotest.check value "sum" Value.Null sum
  | _ -> Alcotest.fail "one row expected");
  Alcotest.(check int) "grouped: no groups" 0
    (List.length
       (rows_of
          (q s "SELECT carst, COUNT(*) FROM cars WHERE code > 99 GROUP BY carst")))

let test_order_by_keys () =
  let s = connect () in
  ok s
    "INSERT INTO cars VALUES (4, 'van', 45.0, 'available'), (5, 'bus', 65.0, \
     'rented'), (6, 'cab', 50.0, 'available')";
  (* ties on every key keep input order: 1 before 4, 2 before 5 *)
  Alcotest.(check (list int)) "mixed directions, stable" [ 6; 1; 4; 2; 5 ]
    (codes
       (rows_of
          (q s
             "SELECT code FROM cars WHERE rate IS NOT NULL ORDER BY carst, \
              rate DESC")));
  match
    rows_of
      (q s "SELECT carst, COUNT(*) FROM cars GROUP BY carst ORDER BY COUNT(*)")
  with
  | [ [| Value.Str "rented"; Value.Int 2 |];
      [| Value.Str "available"; Value.Int 4 |] ] -> ()
  | _ -> Alcotest.fail "groups ordered by their count"

let test_join_product () =
  let s = connect () in
  Alcotest.(check int) "self product" 9
    (List.length (rows_of (q s "SELECT a.code FROM cars a, cars b")));
  Alcotest.(check int) "self join" 3
    (List.length (rows_of (q s "SELECT a.code FROM cars a, cars b WHERE a.code = b.code")))

let test_subqueries () =
  let s = connect () in
  Alcotest.check value "scalar min" (Value.Int 1)
    (scalar s "SELECT code FROM cars WHERE code = (SELECT MIN(code) FROM cars)");
  Alcotest.(check int) "correlated exists" 3
    (List.length
       (rows_of (q s "SELECT code FROM cars c WHERE EXISTS (SELECT * FROM cars d WHERE d.code = c.code)")));
  expect_error (q s "SELECT code FROM cars WHERE code = (SELECT code FROM cars)")

let test_ambiguous_column () =
  let s = connect () in
  expect_error (q s "SELECT code FROM cars a, cars b")

let test_unknown_objects () =
  let s = connect () in
  expect_error (q s "SELECT nope FROM cars");
  expect_error (q s "SELECT code FROM nope")

(* ---- evaluation sites: exact messages ------------------------------------

   Every clause an expression can appear in resolves names, rejects
   aggregates and checks subquery shapes the same way, and reports the
   same message. A name error surfaces only when the expression is
   evaluated: over zero rows there is none. *)

let test_unknown_column_sites () =
  let s = connect () in
  List.iter
    (fun sql -> expect_message s sql "unknown column: nosuch")
    [
      "UPDATE cars SET rate = nosuch";
      "DELETE FROM cars WHERE nosuch = 1";
      "SELECT COUNT(*) FROM cars GROUP BY nosuch";
      "SELECT carst FROM cars GROUP BY carst HAVING nosuch > 1";
      "SELECT code FROM cars ORDER BY nosuch";
      "SELECT carst FROM cars GROUP BY carst ORDER BY nosuch";
      "INSERT INTO cars VALUES (nosuch, 'van', 1.0, 'available')";
    ];
  expect_message s "SELECT code FROM cars c1, cars c2" "ambiguous column: code";
  expect_message s "SELECT code FROM cars WHERE COUNT(*) > 1"
    "type error: aggregate used outside an aggregate query";
  expect_message s "SELECT code FROM cars WHERE code = (SELECT code FROM cars)"
    "type error: scalar subquery returned more than one row"

let test_correlated_lookups () =
  let s = connect () in
  (* an unqualified [code] inside the subquery is the inner one *)
  Alcotest.(check (list int)) "inner shadows outer" [ 1; 2; 3 ]
    (codes
       (rows_of
          (q s
             "SELECT code FROM cars c WHERE (SELECT COUNT(*) FROM cars d \
              WHERE code = 2) = 1")));
  Alcotest.(check (list int)) "qualified outer reference" [ 1 ]
    (codes
       (rows_of
          (q s
             "SELECT code FROM cars c WHERE EXISTS (SELECT * FROM cars d \
              WHERE d.rate > c.rate)")));
  ok s "CREATE TABLE t (k INT)";
  ok s "INSERT INTO t VALUES (1)";
  expect_message s
    "SELECT a.code FROM cars a, cars b WHERE EXISTS (SELECT * FROM t WHERE k = code)"
    "ambiguous column: code"

let test_name_errors_are_lazy () =
  let s = connect () in
  ok s "CREATE TABLE e (rate FLOAT)";
  Alcotest.(check int) "select over no rows" 0
    (List.length (rows_of (q s "SELECT nosuch FROM e")));
  Alcotest.(check int) "update of no rows" 0
    (affected (q s "UPDATE e SET rate = nosuch"))

(* ---- exact keys ------------------------------------------------------------

   Regression: DISTINCT, GROUP BY, COUNT(DISTINCT) and UNIQUE keyed values
   by their %g rendering, merging floats that differ after the sixth
   significant digit. *)

let close_floats_db () =
  let db = Ldbms.Database.create "lab" in
  Ldbms.Database.load db ~name:"m"
    [ Schema.column "x" Ty.Float; Schema.column "n" Ty.Int ]
    (List.map
       (fun (x, n) -> [| Value.Float x; Value.Int n |])
       [ (0.1234561, 1); (0.1234562, 2); (1e15, 3); (1e15 +. 1., 4);
         (0.1234561, 5) ]);
  Session.connect db Caps.ingres_like

let test_exact_distinct_group () =
  let s = close_floats_db () in
  Alcotest.(check int) "DISTINCT keeps four floats" 4
    (List.length (rows_of (q s "SELECT DISTINCT x FROM m")));
  Alcotest.(check int) "GROUP BY makes four groups" 4
    (List.length (rows_of (q s "SELECT x, COUNT(*) FROM m GROUP BY x")));
  Alcotest.check value "COUNT(DISTINCT x)" (Value.Int 4)
    (scalar s "SELECT COUNT(DISTINCT x) FROM m");
  Alcotest.check value "SUM over the repeated float's group only" (Value.Int 6)
    (scalar s "SELECT SUM(n) FROM m WHERE x < 0.2 GROUP BY x HAVING COUNT(*) = 2")

let test_exact_unique () =
  let s = connect () in
  (match q s "CREATE TABLE u (x FLOAT UNIQUE)" with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check int) "close floats are not duplicates" 2
    (affected (q s "INSERT INTO u VALUES (0.1234561), (0.1234562)"));
  expect_error (q s "INSERT INTO u VALUES (0.1234561)")

(* ---- DML -------------------------------------------------------------------- *)

let test_insert_variants () =
  let s = connect () in
  Alcotest.(check int) "plain" 1
    (affected (q s "INSERT INTO cars VALUES (4, 'van', 80.0, 'available')"));
  Alcotest.(check int) "columns reordered" 1
    (affected (q s "INSERT INTO cars (carst, code, cartype) VALUES ('rented', 5, 'bus')"));
  Alcotest.check value "missing column null" Value.Null
    (scalar s "SELECT rate FROM cars WHERE code = 5");
  Alcotest.(check int) "insert select" 5
    (affected (q s "INSERT INTO cars SELECT code + 100, cartype, rate, carst FROM cars"));
  Alcotest.check value "total" (Value.Int 10) (scalar s "SELECT COUNT(*) FROM cars")

let test_insert_type_checking () =
  let s = connect () in
  expect_error (q s "INSERT INTO cars VALUES ('x', 'y', 1.0, 'z')");
  (* int coerces into float column *)
  Alcotest.(check int) "int to float" 1
    (affected (q s "INSERT INTO cars VALUES (9, 'van', 80, 'free')"));
  Alcotest.check value "coerced" (Value.Float 80.0)
    (scalar s "SELECT rate FROM cars WHERE code = 9")

let test_update_delete () =
  let s = connect () in
  Alcotest.(check int) "update" 2
    (affected (q s "UPDATE cars SET rate = rate * 2 WHERE rate IS NOT NULL"));
  Alcotest.check value "doubled" (Value.Float 90.0)
    (scalar s "SELECT rate FROM cars WHERE code = 1");
  Alcotest.(check int) "delete" 1 (affected (q s "DELETE FROM cars WHERE code = 2"));
  Alcotest.check value "left" (Value.Int 2) (scalar s "SELECT COUNT(*) FROM cars")

let test_update_uses_pre_state () =
  (* the paper's seat reservation: subquery in WHERE sees the pre-update state *)
  let s = connect () in
  Alcotest.(check int) "reserve one" 1
    (affected
       (q s "UPDATE cars SET carst = 'TAKEN' WHERE code = (SELECT MIN(code) FROM cars WHERE carst = 'available')"));
  Alcotest.check value "car 1 taken" (Value.Str "TAKEN")
    (scalar s "SELECT carst FROM cars WHERE code = 1");
  Alcotest.check value "car 3 untouched" (Value.Str "available")
    (scalar s "SELECT carst FROM cars WHERE code = 3")

let test_create_drop () =
  let s = connect () in
  (match q s "CREATE TABLE extras (id INT, note CHAR(40))" with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check int) "insert into new" 1
    (affected (q s "INSERT INTO extras VALUES (1, 'hi')"));
  (match q s "DROP TABLE extras" with Ok _ -> () | Error m -> Alcotest.fail m);
  expect_error (q s "SELECT * FROM extras");
  expect_error (q s "DROP TABLE extras")

(* ---- statement cache -------------------------------------------------------

   Each database parses a distinct text once, whichever session submits
   it. The cache holds syntax only: names resolve on every execution. *)

let test_cache_same_parse () =
  let db = fresh_db () in
  let sql = "SELECT code FROM cars WHERE cartype = 'sedan'" in
  let a = Ldbms.Database.parse_stmt db sql in
  Alcotest.(check bool) "statement parsed once" true
    (a == Ldbms.Database.parse_stmt db sql);
  let script = "UPDATE cars SET rate = 1 WHERE code = 1; " ^ sql in
  let b = Ldbms.Database.parse_script db script in
  Alcotest.(check bool) "script parsed once" true
    (b == Ldbms.Database.parse_script db script);
  (* two sessions over one database share the entry *)
  let s1 = Session.connect db Caps.ingres_like in
  let s2 = Session.connect db Caps.ingres_like in
  Alcotest.(check (list int)) "first session" [ 1 ] (codes (rows_of (q s1 sql)));
  Alcotest.(check (list int)) "second session" [ 1 ] (codes (rows_of (q s2 sql)));
  Alcotest.(check int) "one entry per text and entry point" 2
    (Ldbms.Database.cached_statements db)

let test_cache_parse_error () =
  let db = fresh_db () in
  let s = Session.connect db Caps.ingres_like in
  let bad = "SELECT code FROM cars WHERE" in
  let expected =
    match Sqlfront.Parser.parse_stmt bad with
    | exception Sqlfront.Parser.Error (m, l, c) ->
        Printf.sprintf "parse error at %d:%d: %s" l c m
    | _ -> Alcotest.fail "expected a parse error"
  in
  expect_message s bad expected;
  expect_message s bad expected;
  (match Session.exec_script s bad with
  | Error m ->
      Alcotest.(check string) "script reports it too" expected
        (Session.error_to_string m)
  | Ok _ -> Alcotest.fail "expected a parse error");
  Alcotest.(check int) "nothing stored" 0 (Ldbms.Database.cached_statements db);
  (* a one-statement script is not always a statement: the cached script
     parse must not let exec_sql accept what it rejects *)
  let lead = ";SELECT code FROM cars WHERE code = 1" in
  (match Session.exec_script s lead with
  | Ok [ Session.Rows _ ] -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected one result");
  expect_error (q s lead);
  expect_error (q s lead);
  Alcotest.(check int) "only the script stored" 1
    (Ldbms.Database.cached_statements db)

let test_cache_holds_syntax_only () =
  let db = fresh_db () in
  let s = Session.connect db Caps.ingres_like in
  ok s "CREATE TABLE t (a INT)";
  ok s "INSERT INTO t VALUES (7)";
  let sql = "SELECT * FROM t" in
  (match q s sql with
  | Ok (Session.Rows r) ->
      Alcotest.(check (list string)) "old columns" [ "a" ]
        (Schema.names (Relation.schema r));
      Alcotest.(check int) "old rows" 1 (List.length (Relation.rows r))
  | _ -> Alcotest.fail "expected rows");
  ok s "DROP TABLE t";
  ok s "CREATE TABLE t (b CHAR(10), c INT)";
  ok s "INSERT INTO t VALUES ('x', 1)";
  ok s "INSERT INTO t VALUES ('y', 2)";
  let before = Ldbms.Database.cached_statements db in
  (match q s sql with
  | Ok (Session.Rows r) ->
      Alcotest.(check (list string)) "new columns" [ "b"; "c" ]
        (Schema.names (Relation.schema r));
      Alcotest.(check int) "new rows" 2 (List.length (Relation.rows r))
  | _ -> Alcotest.fail "expected rows");
  Alcotest.(check int) "the second run was a hit" before
    (Ldbms.Database.cached_statements db)

(* ---- transactions ------------------------------------------------------------ *)

let test_rollback_restores () =
  let s = connect () in
  ignore (affected (q s "UPDATE cars SET rate = 0 WHERE code = 1"));
  ignore (affected (q s "DELETE FROM cars WHERE code = 2"));
  ok_txn (Session.rollback s);
  Alcotest.check value "rate restored" (Value.Float 45.0)
    (scalar s "SELECT rate FROM cars WHERE code = 1");
  Alcotest.check value "row restored" (Value.Int 3) (scalar s "SELECT COUNT(*) FROM cars")

let test_commit_makes_durable () =
  let s = connect () in
  ignore (affected (q s "UPDATE cars SET rate = 0 WHERE code = 1"));
  ok_txn (Session.commit s);
  ok_txn (Session.rollback s);
  Alcotest.check value "still zero" (Value.Float 0.0)
    (scalar s "SELECT rate FROM cars WHERE code = 1")

let test_prepare_then_commit () =
  let s = connect () in
  ignore (affected (q s "UPDATE cars SET rate = 1 WHERE code = 1"));
  ok_txn (Session.prepare s);
  Alcotest.(check bool) "prepared" true (Session.txn_state s = Some Ldbms.Txn.Prepared);
  (* no statements allowed while prepared; the transaction survives,
     since its fate belongs to the coordinator *)
  expect_error (q s "UPDATE cars SET rate = 2 WHERE code = 1");
  Alcotest.(check bool) "still prepared" true
    (Session.txn_state s = Some Ldbms.Txn.Prepared);
  ok_txn (Session.commit s);
  Alcotest.check value "committed" (Value.Float 1.0)
    (scalar s "SELECT rate FROM cars WHERE code = 1")

let test_prepare_rollback () =
  let s = connect () in
  ignore (affected (q s "UPDATE cars SET rate = 1 WHERE code = 1"));
  ok_txn (Session.prepare s);
  ok_txn (Session.rollback s);
  Alcotest.check value "restored" (Value.Float 45.0)
    (scalar s "SELECT rate FROM cars WHERE code = 1")

let test_ddl_rollback_ingres_like () =
  let s = connect () in
  (* Ingres-like: DDL joins the transaction *)
  (match q s "CREATE TABLE tmp (a INT)" with Ok _ -> () | Error m -> Alcotest.fail m);
  ok_txn (Session.rollback s);
  expect_error (q s "SELECT * FROM tmp")

let test_ddl_autocommit_oracle_like () =
  let s = connect ~caps:Caps.oracle_like () in
  (* the paper's trap: DDL commits all previously issued uncommitted work *)
  ignore (affected (q s "UPDATE cars SET rate = 0 WHERE code = 1"));
  (match q s "CREATE TABLE tmp (a INT)" with Ok _ -> () | Error m -> Alcotest.fail m);
  ok_txn (Session.rollback s);
  (* rollback had nothing to undo: the CREATE committed the UPDATE *)
  Alcotest.check value "update survived rollback" (Value.Float 0.0)
    (scalar s "SELECT rate FROM cars WHERE code = 1");
  Alcotest.check value "table survived" (Value.Int 0) (scalar s "SELECT COUNT(*) FROM tmp")

(* the DDL's implicit commit can lose a first-committer-wins race; the
   statement must then report that loss and not run, or the transaction's
   earlier writes vanish behind an Ok *)
let test_ddl_implicit_commit_conflict_oracle_like () =
  let db = fresh_db () in
  let a = Session.connect db Caps.oracle_like in
  let b = Session.connect db Caps.oracle_like in
  ok a "BEGIN";
  ok a "UPDATE cars SET rate = 99.0 WHERE code = 1";
  ok b "UPDATE cars SET rate = 10.0 WHERE code = 1";
  ok_txn (Session.commit b);
  (match Session.exec_sql a "CREATE TABLE t2 (x INT)" with
  | Error (Session.Conflict { table = "cars"; op = "commit" }) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Session.error_to_string e)
  | Ok _ -> Alcotest.fail "DDL ran after its implicit commit failed");
  Alcotest.(check bool) "victim rolled back" false (Session.in_transaction a);
  expect_error (q a "SELECT * FROM t2");
  ok_txn (Session.commit a);
  Alcotest.check value "the rival's write stands" (Value.Float 10.0)
    (scalar a "SELECT rate FROM cars WHERE code = 1")

let test_autocommit_engine () =
  let s = connect ~caps:Caps.sybase_like () in
  ignore (affected (q s "UPDATE cars SET rate = 0 WHERE code = 1"));
  (* autocommit: a later rollback is a no-op *)
  ok_txn (Session.rollback s);
  Alcotest.check value "committed at once" (Value.Float 0.0)
    (scalar s "SELECT rate FROM cars WHERE code = 1");
  expect_error (Session.prepare s |> Result.map (fun () -> Session.Done));
  expect_error (q s "BEGIN")

let test_semantic_error_aborts_txn () =
  let s = connect () in
  ignore (affected (q s "UPDATE cars SET rate = 0 WHERE code = 1"));
  expect_error (q s "UPDATE cars SET nonexistent = 1");
  (* the error rolled back the whole transaction *)
  Alcotest.check value "first update undone" (Value.Float 45.0)
    (scalar s "SELECT rate FROM cars WHERE code = 1")

let test_constraints () =
  let s = connect () in
  (match
     q s "CREATE TABLE keyed (id INT NOT NULL UNIQUE, label CHAR(10) NOT NULL)"
   with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check int) "first row" 1
    (affected (q s "INSERT INTO keyed VALUES (1, 'a')"));
  ok_txn (Session.commit s);
  (* NULL into NOT NULL *)
  expect_error (q s "INSERT INTO keyed VALUES (NULL, 'b')");
  expect_error (q s "INSERT INTO keyed (id) VALUES (2)");
  (* duplicate key *)
  expect_error (q s "INSERT INTO keyed VALUES (1, 'dup')");
  (* duplicate within one batch *)
  expect_error (q s "INSERT INTO keyed VALUES (7, 'x'), (7, 'y')");
  (* update into violation *)
  Alcotest.(check int) "second row" 1
    (affected (q s "INSERT INTO keyed VALUES (2, 'b')"));
  ok_txn (Session.commit s);
  expect_error (q s "UPDATE keyed SET id = 1 WHERE id = 2");
  expect_error (q s "UPDATE keyed SET label = NULL WHERE id = 1");
  (* legal update still fine, and failed attempts rolled back cleanly *)
  Alcotest.(check int) "rename ok" 1
    (affected (q s "UPDATE keyed SET id = 3 WHERE id = 2"));
  Alcotest.check value "intact" (Value.Int 2) (scalar s "SELECT COUNT(*) FROM keyed")

let test_constraint_roundtrip_in_ddl () =
  let s = connect () in
  (match q s "CREATE TABLE c (a INT NOT NULL, b CHAR(4) UNIQUE)" with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let tbl = Ldbms.Database.find_table (Session.database s) "c" in
  match Ldbms.Table.schema tbl with
  | [ a; b ] ->
      Alcotest.(check bool) "a not null" true a.Schema.not_null;
      Alcotest.(check bool) "a not unique" false a.Schema.unique;
      Alcotest.(check bool) "b unique" true b.Schema.unique
  | _ -> Alcotest.fail "schema shape"

(* ---- failure injection --------------------------------------------------------- *)

let test_inject_execute () =
  let s = connect () in
  Inject.fail_next (Session.injector s) Inject.At_execute;
  expect_error (q s "UPDATE cars SET rate = 0 WHERE code = 1");
  Alcotest.check value "nothing applied" (Value.Float 45.0)
    (scalar s "SELECT rate FROM cars WHERE code = 1");
  (* one-shot: next statement is fine *)
  Alcotest.(check int) "recovered" 1 (affected (q s "UPDATE cars SET rate = 0 WHERE code = 1"))

let test_inject_prepare () =
  let s = connect () in
  ignore (affected (q s "UPDATE cars SET rate = 0 WHERE code = 1"));
  Inject.fail_next (Session.injector s) Inject.At_prepare;
  expect_error (Session.prepare s |> Result.map (fun () -> Session.Done));
  Alcotest.check value "rolled back" (Value.Float 45.0)
    (scalar s "SELECT rate FROM cars WHERE code = 1")

let test_inject_commit () =
  let s = connect () in
  ignore (affected (q s "UPDATE cars SET rate = 0 WHERE code = 1"));
  ok_txn (Session.prepare s);
  Inject.fail_next (Session.injector s) Inject.At_commit;
  expect_error (Session.commit s |> Result.map (fun () -> Session.Done));
  Alcotest.check value "rolled back at commit" (Value.Float 45.0)
    (scalar s "SELECT rate FROM cars WHERE code = 1")

(* ---- join access paths: probing a larger table's lookup map ------------- *)

(* A catalogue as the benchmark's: [n] parts, prices 0..99, and [k]
   shipped orders whose part ids spread over it. *)
let join_db ?(extra = []) ~n ~k () =
  let db = Ldbms.Database.create "hub" in
  Ldbms.Database.load db ~name:"catalogue"
    [ Schema.column "rid" Ty.Int; Schema.column "rname" Ty.Str;
      Schema.column "price" Ty.Float ]
    (List.init n (fun i ->
         [| Value.Int i; Value.Str (Printf.sprintf "part-%05d" i);
            Value.Float (float_of_int (i * 13 mod 100)) |])
    @ extra);
  Ldbms.Database.load db ~name:"shipped"
    [ Schema.column "sid" Ty.Int; Schema.column "part_id" Ty.Int;
      Schema.column "qty" Ty.Int ]
    (List.init k (fun i -> [| Value.Int i; Value.Int (i * 7 mod n); Value.Int (i mod 9) |]));
  db

let shipped_join =
  "SELECT s.sid, r.rname FROM shipped s, catalogue r WHERE s.part_id = r.rid \
   AND r.price < 50.0"

let run db sql = Ldbms.Exec.run_select db (Sqlfront.Parser.parse_select sql)
let catalogue db = Ldbms.Database.find_table db "catalogue"

let sorted_rows r = List.sort Row.compare (Relation.rows r)

(* Each of these conjuncts can raise on a catalogue row no order joins,
   so it must run on every row, whichever path the join takes: an
   arithmetic one always, a comparison when [Database.load] stored a
   string in the FLOAT column. *)
let test_probe_keeps_errors () =
  let fails what db sql =
    for _ = 1 to 3 do
      match run db sql with
      | exception Ldbms.Exec.Error _ -> ()
      | _ -> Alcotest.failf "%s: the join succeeded" what
    done
  in
  (* only rid 23 has price 99, and no order names it *)
  fails "division by zero"
    (join_db ~n:100 ~k:5 ())
    (shipped_join ^ " AND 10 / (r.price - 99.0) > 0.0");
  let stray = [| Value.Int 5000; Value.Str "stray"; Value.Str "cheap" |] in
  let db = join_db ~extra:[ stray ] ~n:100 ~k:5 () in
  fails "string in a FLOAT column" db shipped_join;
  (* the same comparison is total over a column of one class, so there
     it is deferred and the map is probed *)
  let db = join_db ~n:100 ~k:5 () in
  for _ = 1 to 3 do ignore (run db shipped_join) done;
  Alcotest.(check bool) "a total filter lets the join probe" true
    (Ldbms.Table.lookup_built (catalogue db) ~col:0)

(* The map describes the current version only: a reader whose snapshot
   predates the last commit joins the rows it saw, and a change between
   two joins is seen by the second. *)
let test_probe_versions () =
  let db = join_db ~n:200 ~k:20 () in
  let names s =
    List.sort compare
      (List.map (function [| _; Value.Str n |] -> n | _ -> Alcotest.fail "row")
         (rows_of (q s shipped_join)))
  in
  let reader = Session.connect db Caps.ingres_like in
  let writer = Session.connect db Caps.ingres_like in
  ok reader "BEGIN";
  let before = names reader in
  (* the second join at this version builds its map *)
  Alcotest.(check (list string)) "the map answers as the scan" before (names reader);
  Alcotest.(check bool) "the old version's map is built" true
    (Ldbms.Table.lookup_built (catalogue db) ~col:0);
  ok writer "UPDATE catalogue SET rname = 'renamed' WHERE rid < 100";
  ok_txn (Session.commit writer);
  (* build the map of the new version, then read at the old snapshot *)
  let after = names writer in
  Alcotest.(check (list string)) "the second join sees the UPDATE" after (names writer);
  Alcotest.(check bool) "the map is built" true
    (Ldbms.Table.lookup_built (catalogue db) ~col:0);
  Alcotest.(check bool) "the UPDATE shows" true (List.mem "renamed" after);
  Alcotest.(check (list string)) "an older snapshot joins the old rows" before
    (names reader);
  ok_txn (Session.commit reader);
  ok_txn (Session.commit writer);
  (* DROP and CREATE between two joins: the new table is seen *)
  ok writer "DROP TABLE catalogue";
  ok writer "CREATE TABLE catalogue (rid INT, rname CHAR(16), price FLOAT)";
  ok writer "INSERT INTO catalogue VALUES (0, 'only', 1.0)";
  ok_txn (Session.commit writer);
  for _ = 1 to 2 do
    Alcotest.(check (list string)) "the re-created table joins" [ "only" ]
      (names writer)
  done

(* Allocation guard for the coordinator join: 250 shipped rows against
   an 8,000-row catalogue, as the benchmark's Q' runs it, once the map is
   built. Copying, filtering and hash-joining the whole catalogue cost
   about 54,000 words, 6.8 per catalogue row; probing it costs about
   10,500, nearly all of it per shipped or joined row. *)
let test_probe_allocation_bound () =
  let db = join_db ~n:8000 ~k:250 () in
  let sel = Sqlfront.Parser.parse_select shipped_join in
  let want = sorted_rows (Ldbms.Exec.run_select db sel) in
  ignore (Ldbms.Exec.run_select db sel);
  let w0 = Gc.minor_words () in
  let r = Ldbms.Exec.run_select db sel in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "same rows" true (List.equal Row.equal want (sorted_rows r));
  if words >= 16000. then
    Alcotest.failf "the join allocates %.0f words (%.1f per catalogue row)" words
      (words /. 8000.)

(* ---- properties ------------------------------------------------------------------ *)

let prop_update_rollback_identity =
  (* any UPDATE followed by ROLLBACK leaves the table unchanged *)
  let gen = QCheck.Gen.(pair (int_range 0 4) (int_range (-10) 10)) in
  QCheck.Test.make ~name:"update+rollback is identity" ~count:100 (QCheck.make gen)
    (fun (code, delta) ->
      let s = connect () in
      let before = rows_of (q s "SELECT * FROM cars") in
      let sql =
        Printf.sprintf "UPDATE cars SET rate = rate + %d WHERE code = %d" delta code
      in
      ignore (q s sql);
      ignore (Session.rollback s);
      let after = rows_of (q s "SELECT * FROM cars") in
      List.length before = List.length after
      && List.for_all2 Row.equal before after)

let prop_delete_then_count =
  let gen = QCheck.Gen.int_range 0 5 in
  QCheck.Test.make ~name:"delete count consistent" ~count:100 (QCheck.make gen)
    (fun code ->
      let s = connect () in
      let total = match scalar s "SELECT COUNT(*) FROM cars" with
        | Value.Int n -> n | _ -> 0
      in
      let deleted =
        affected (q s (Printf.sprintf "DELETE FROM cars WHERE code = %d" code))
      in
      let left = match scalar s "SELECT COUNT(*) FROM cars" with
        | Value.Int n -> n | _ -> -1
      in
      total = deleted + left)

let () =
  Alcotest.run "ldbms"
    [
      ( "select",
        [
          Alcotest.test_case "where" `Quick test_select_where;
          Alcotest.test_case "null 3vl" `Quick test_select_null_semantics;
          Alcotest.test_case "in/between" `Quick test_select_in_and_between;
          Alcotest.test_case "like" `Quick test_select_like;
          Alcotest.test_case "order/distinct" `Quick test_select_order_distinct;
          Alcotest.test_case "aggregates" `Quick test_select_aggregates;
          Alcotest.test_case "group by/having" `Quick test_group_by_having;
          Alcotest.test_case "having without group by" `Quick
            test_having_without_group_by;
          Alcotest.test_case "aggregates over no rows" `Quick
            test_aggregates_over_no_rows;
          Alcotest.test_case "order by keys" `Quick test_order_by_keys;
          Alcotest.test_case "joins" `Quick test_join_product;
          Alcotest.test_case "subqueries" `Quick test_subqueries;
          Alcotest.test_case "ambiguity" `Quick test_ambiguous_column;
          Alcotest.test_case "unknown objects" `Quick test_unknown_objects;
          Alcotest.test_case "unknown column at every site" `Quick
            test_unknown_column_sites;
          Alcotest.test_case "correlated lookups" `Quick test_correlated_lookups;
          Alcotest.test_case "name errors are lazy" `Quick test_name_errors_are_lazy;
        ] );
      ( "exact keys",
        [
          Alcotest.test_case "distinct and group by floats" `Quick
            test_exact_distinct_group;
          Alcotest.test_case "unique floats" `Quick test_exact_unique;
        ] );
      ( "dml",
        [
          Alcotest.test_case "insert" `Quick test_insert_variants;
          Alcotest.test_case "insert types" `Quick test_insert_type_checking;
          Alcotest.test_case "update/delete" `Quick test_update_delete;
          Alcotest.test_case "update pre-state" `Quick test_update_uses_pre_state;
          Alcotest.test_case "create/drop" `Quick test_create_drop;
          Alcotest.test_case "constraints" `Quick test_constraints;
          Alcotest.test_case "constraint ddl" `Quick test_constraint_roundtrip_in_ddl;
        ] );
      ( "statement cache",
        [
          Alcotest.test_case "same text, same parse" `Quick test_cache_same_parse;
          Alcotest.test_case "parse errors never stored" `Quick
            test_cache_parse_error;
          Alcotest.test_case "drop and re-create answers anew" `Quick
            test_cache_holds_syntax_only;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "rollback restores" `Quick test_rollback_restores;
          Alcotest.test_case "commit durable" `Quick test_commit_makes_durable;
          Alcotest.test_case "prepared blocks dml" `Quick test_prepare_then_commit;
          Alcotest.test_case "prepare rollback" `Quick test_prepare_rollback;
          Alcotest.test_case "ddl rollback (ingres)" `Quick test_ddl_rollback_ingres_like;
          Alcotest.test_case "ddl autocommit (oracle)" `Quick test_ddl_autocommit_oracle_like;
          Alcotest.test_case "ddl implicit commit conflict (oracle)" `Quick
            test_ddl_implicit_commit_conflict_oracle_like;
          Alcotest.test_case "autocommit engine" `Quick test_autocommit_engine;
          Alcotest.test_case "error aborts txn" `Quick test_semantic_error_aborts_txn;
        ] );
      ( "join access paths",
        [
          Alcotest.test_case "raising filters stay eager" `Quick test_probe_keeps_errors;
          Alcotest.test_case "map follows versions" `Quick test_probe_versions;
          Alcotest.test_case "allocation bound" `Quick test_probe_allocation_bound;
        ] );
      ( "failure injection",
        [
          Alcotest.test_case "at execute" `Quick test_inject_execute;
          Alcotest.test_case "at prepare" `Quick test_inject_prepare;
          Alcotest.test_case "at commit" `Quick test_inject_commit;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_update_rollback_identity; prop_delete_then_count ] );
    ]
