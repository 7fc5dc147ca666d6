(* Local views: CREATE/DROP VIEW in the LDBMS, expansion in FROM clauses,
   transactional behaviour, and the IMPORT ... VIEW path of §3.1. *)
open Sqlcore
module Session = Ldbms.Session
module Caps = Ldbms.Capabilities
module F = Msql.Fixtures
module M = Msql.Msession

let value = Alcotest.testable Value.pp Value.equal

let fresh () =
  let db = Ldbms.Database.create "shop" in
  Ldbms.Database.load db ~name:"items"
    [ Schema.column "id" Ty.Int; Schema.column "price" Ty.Float;
      Schema.column "kind" Ty.Str ]
    [
      [| Value.Int 1; Value.Float 5.0; Value.Str "food" |];
      [| Value.Int 2; Value.Float 50.0; Value.Str "tool" |];
      [| Value.Int 3; Value.Float 7.5; Value.Str "food" |];
    ];
  db

let connect ?(caps = Caps.ingres_like) () = Session.connect (fresh ()) caps
let q s sql = Result.map_error Session.error_to_string (Session.exec_sql s sql)

let ok_txn = function
  | Ok () -> ()
  | Error e -> Alcotest.fail (Session.error_to_string e)

let rows_of = function
  | Ok (Session.Rows r) -> Relation.rows r
  | Ok _ -> Alcotest.fail "expected rows"
  | Error m -> Alcotest.fail ("error: " ^ m)

let expect_error = function
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an error"

let test_create_and_select () =
  let s = connect () in
  (match q s "CREATE VIEW cheap AS SELECT id, price FROM items WHERE price < 10" with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check int) "two cheap items" 2
    (List.length (rows_of (q s "SELECT id FROM cheap")));
  (* views reflect base-table changes *)
  ignore (q s "UPDATE items SET price = 3 WHERE id = 2");
  Alcotest.(check int) "three now" 3
    (List.length (rows_of (q s "SELECT id FROM cheap")))

let test_view_with_alias_and_join () =
  let s = connect () in
  ignore (q s "CREATE VIEW food AS SELECT id, price FROM items WHERE kind = 'food'");
  Alcotest.(check int) "self join through view" 2
    (List.length
       (rows_of (q s "SELECT f.id FROM food f, items i WHERE f.id = i.id")))

let test_view_over_view () =
  let s = connect () in
  ignore (q s "CREATE VIEW cheap AS SELECT id, price, kind FROM items WHERE price < 10");
  ignore (q s "CREATE VIEW cheap_food AS SELECT id FROM cheap WHERE kind = 'food'");
  Alcotest.(check int) "stacked views" 2
    (List.length (rows_of (q s "SELECT id FROM cheap_food")))

let test_name_collisions () =
  let s = connect () in
  expect_error (q s "CREATE VIEW items AS SELECT id FROM items");
  ignore (q s "CREATE VIEW v AS SELECT id FROM items");
  (* commit: the engine aborts the whole transaction on a failed statement,
     which would otherwise undo the CREATE VIEW too *)
  ok_txn (Session.commit s);
  expect_error (q s "CREATE VIEW v AS SELECT id FROM items");
  expect_error (q s "CREATE TABLE v (a INT)")

let test_invalid_definition_rejected () =
  let s = connect () in
  expect_error (q s "CREATE VIEW broken AS SELECT nonexistent FROM items");
  expect_error (q s "SELECT * FROM broken")

let test_drop_view () =
  let s = connect () in
  ignore (q s "CREATE VIEW v AS SELECT id FROM items");
  (match q s "DROP VIEW v" with Ok _ -> () | Error m -> Alcotest.fail m);
  expect_error (q s "SELECT * FROM v");
  expect_error (q s "DROP VIEW v")

let test_view_ddl_rollback () =
  let s = connect () in
  ignore (q s "CREATE VIEW v AS SELECT id FROM items");
  ok_txn (Session.rollback s);
  (* ingres-like: the CREATE VIEW was rolled back *)
  expect_error (q s "SELECT * FROM v")

let test_view_ddl_autocommit () =
  let s = connect ~caps:Caps.oracle_like () in
  ignore (q s "CREATE VIEW v AS SELECT id FROM items");
  ok_txn (Session.rollback s);
  Alcotest.(check int) "view survived" 3
    (List.length (rows_of (q s "SELECT * FROM v")))

let test_update_through_view_rejected () =
  let s = connect () in
  ignore (q s "CREATE VIEW v AS SELECT id FROM items");
  (* views are not updatable in this engine *)
  expect_error (q s "UPDATE v SET id = 9");
  expect_error (q s "INSERT INTO v VALUES (9)")

(* ---- IMPORT ... VIEW through MSQL -------------------------------------------- *)

let test_import_view_and_query () =
  let fx = F.make () in
  (* define a view locally at avis, as the DBA of the autonomous LDBS *)
  let avis = F.database fx "avis" in
  let session = Ldbms.Session.connect avis Caps.ingres_like in
  (match
     Ldbms.Session.exec_sql session
       "CREATE VIEW fleet AS SELECT code, cartype FROM cars WHERE carst = 'available'"
   with
  | Ok _ -> ()
  | Error m -> Alcotest.fail (Session.error_to_string m));
  ok_txn (Ldbms.Session.commit session);
  (* export it to the multidatabase level *)
  (match M.exec fx.F.session "IMPORT DATABASE avis FROM SERVICE avis VIEW fleet" with
  | Ok (M.Info _) -> ()
  | Ok _ -> Alcotest.fail "expected info"
  | Error m -> Alcotest.fail m);
  (match Msql.Gdd.find_table (M.gdd fx.F.session) ~db:"avis" "fleet" with
  | Some schema ->
      Alcotest.(check (list string)) "schema" [ "code"; "cartype" ]
        (Schema.names schema)
  | None -> Alcotest.fail "fleet not imported");
  (* and query it through MSQL like any table *)
  match M.exec fx.F.session "USE avis SELECT code FROM fleet" with
  | Ok (M.Multitable mt) ->
      let rel = Option.get (Msql.Multitable.find mt "avis") in
      Alcotest.(check int) "three available" 3 (Relation.cardinality rel)
  | Ok r -> Alcotest.fail (M.result_to_string r)
  | Error m -> Alcotest.fail m

let test_view_rows_values () =
  let s = connect () in
  ignore (q s "CREATE VIEW total AS SELECT kind, SUM(price) FROM items GROUP BY kind");
  match rows_of (q s "SELECT * FROM total ORDER BY kind") with
  | [ [| Value.Str "food"; food |]; [| Value.Str "tool"; tool |] ] ->
      Alcotest.check value "food sum" (Value.Float 12.5) food;
      Alcotest.check value "tool sum" (Value.Float 50.0) tool
  | _ -> Alcotest.fail "unexpected view contents"

let () =
  Alcotest.run "views"
    [
      ( "local",
        [
          Alcotest.test_case "create/select" `Quick test_create_and_select;
          Alcotest.test_case "alias and join" `Quick test_view_with_alias_and_join;
          Alcotest.test_case "view over view" `Quick test_view_over_view;
          Alcotest.test_case "name collisions" `Quick test_name_collisions;
          Alcotest.test_case "invalid definition" `Quick test_invalid_definition_rejected;
          Alcotest.test_case "drop" `Quick test_drop_view;
          Alcotest.test_case "ddl rollback" `Quick test_view_ddl_rollback;
          Alcotest.test_case "ddl autocommit" `Quick test_view_ddl_autocommit;
          Alcotest.test_case "not updatable" `Quick test_update_through_view_rejected;
          Alcotest.test_case "aggregate view" `Quick test_view_rows_values;
        ] );
      ( "import",
        [ Alcotest.test_case "import view via MSQL" `Quick test_import_view_and_query ] );
    ]
