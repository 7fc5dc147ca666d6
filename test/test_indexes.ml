(* Declared indexes: catalog entries with DDL behaviour (lifecycle, drop
   with their table, rollback) that no query reads, so a SELECT on an
   indexed column equals a scan and builds no lookup map; and the table
   lookup maps the join planner probes. *)
open Sqlcore
module Session = Ldbms.Session
module Caps = Ldbms.Capabilities

let big_db n =
  let db = Ldbms.Database.create "warehouse" in
  Ldbms.Database.load db ~name:"stock"
    [ Schema.column "sku" Ty.Int; Schema.column "bin" Ty.Str;
      Schema.column "qty" Ty.Int ]
    (List.init n (fun i ->
         [| Value.Int i; Value.Str (Printf.sprintf "bin%d" (i mod 17));
            Value.Int (i mod 5) |]));
  db

let connect ?(n = 500) () = Session.connect (big_db n) Caps.ingres_like
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

let test_lifecycle () =
  let s = connect () in
  (match q s "CREATE INDEX by_sku ON stock (sku)" with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  (* commit: a failed statement aborts the transaction, which would undo
     the CREATE INDEX too *)
  ok_txn (Session.commit s);
  expect_error (q s "CREATE INDEX by_sku ON stock (bin)");
  expect_error (q s "CREATE INDEX broken ON stock (nonexistent)");
  expect_error (q s "CREATE INDEX broken ON nonexistent (sku)");
  (match q s "DROP INDEX by_sku" with Ok _ -> () | Error m -> Alcotest.fail m);
  expect_error (q s "DROP INDEX by_sku")

let test_lookup_correctness () =
  (* indexed and unindexed runs must agree, including after updates *)
  let s_idx = connect () in
  ignore (q s_idx "CREATE INDEX by_bin ON stock (bin)");
  let s_plain = connect () in
  let compare_on sql =
    let a = rows_of (q s_idx sql) and b = rows_of (q s_plain sql) in
    Alcotest.(check int) ("cardinality: " ^ sql) (List.length b) (List.length a);
    List.iter2
      (fun x y -> Alcotest.(check bool) "row" true (Row.equal x y))
      a b
  in
  compare_on "SELECT sku FROM stock WHERE bin = 'bin3'";
  compare_on "SELECT sku FROM stock WHERE bin = 'bin3' AND qty > 2";
  compare_on "SELECT sku FROM stock WHERE 'bin3' = bin ORDER BY sku DESC";
  compare_on "SELECT COUNT(*) FROM stock WHERE bin = 'nope'";
  (* mutate both identically; caches must refresh *)
  ignore (q s_idx "UPDATE stock SET bin = 'bin3' WHERE sku = 1");
  ignore (q s_plain "UPDATE stock SET bin = 'bin3' WHERE sku = 1");
  compare_on "SELECT sku FROM stock WHERE bin = 'bin3'";
  ignore (q s_idx "DELETE FROM stock WHERE bin = 'bin3'");
  ignore (q s_plain "DELETE FROM stock WHERE bin = 'bin3'");
  compare_on "SELECT sku FROM stock WHERE bin = 'bin3'"

let test_alias_and_qualified () =
  let s = connect () in
  ignore (q s "CREATE INDEX by_bin ON stock (bin)");
  Alcotest.(check int) "qualified through alias"
    (List.length (rows_of (q s "SELECT sku FROM stock WHERE bin = 'bin1'")))
    (List.length (rows_of (q s "SELECT t.sku FROM stock t WHERE t.bin = 'bin1'")))

let test_index_does_not_match_null () =
  let s = connect ~n:3 () in
  ignore (q s "INSERT INTO stock VALUES (99, NULL, 1)");
  ignore (q s "CREATE INDEX by_bin ON stock (bin)");
  Alcotest.(check int) "NULL = NULL never matches" 0
    (List.length (rows_of (q s "SELECT sku FROM stock WHERE bin = NULL")))

let test_create_index_rollback () =
  let s = connect () in
  ignore (q s "CREATE INDEX by_bin ON stock (bin)");
  ok_txn (Session.rollback s);
  (* ingres-like: rolled back; creating it again must succeed *)
  match q s "CREATE INDEX by_bin ON stock (bin)" with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m

(* DROP TABLE takes its index entries with it: a re-created table can be
   indexed under the old name, and a rolled-back DROP TABLE brings the
   entries back *)
let test_drop_table_drops_indexes () =
  let s = connect ~n:3 () in
  let run sql =
    (match q s sql with Ok _ -> () | Error m -> Alcotest.fail (sql ^ ": " ^ m));
    ok_txn (Session.commit s)
  in
  run "CREATE INDEX by_sku ON stock (sku)";
  run "DROP TABLE stock";
  run "CREATE TABLE stock (sku INT, bin CHAR(8))";
  run "CREATE INDEX by_sku ON stock (sku)";
  run "DROP TABLE stock";
  expect_error (q s "DROP INDEX by_sku");
  (* ingres-like: a rolled-back DROP TABLE restores the table and its
     index, so the name is taken again *)
  run "CREATE TABLE stock (sku INT, bin CHAR(8))";
  run "CREATE INDEX by_sku ON stock (sku)";
  (match q s "DROP TABLE stock" with Ok _ -> () | Error m -> Alcotest.fail m);
  ok_txn (Session.rollback s);
  expect_error (q s "CREATE INDEX by_sku ON stock (sku)");
  Alcotest.(check int) "table restored" 0
    (List.length (rows_of (q s "SELECT sku FROM stock")))

(* Database.load replaces a table whole, index entries included: the
   index name is free again, and the old entry cannot be dropped *)
let test_load_replaces_indexes () =
  let db = big_db 3 in
  let s = Session.connect db Caps.ingres_like in
  let run sql =
    (match q s sql with Ok _ -> () | Error m -> Alcotest.fail (sql ^ ": " ^ m));
    ok_txn (Session.commit s)
  in
  run "CREATE INDEX by_sku ON stock (sku)";
  Ldbms.Database.load db ~name:"stock"
    [ Schema.column "code" Ty.Int ]
    [ [| Value.Int 1 |] ];
  expect_error (q s "DROP INDEX by_sku");
  ok_txn (Session.rollback s);
  run "CREATE INDEX by_sku ON stock (code)";
  run "DROP INDEX by_sku"

(* a declared index is a catalog entry only: a SELECT on its column scans
   and builds no lookup map, however often it runs *)
let test_index_builds_no_map () =
  let db = big_db 50 in
  let s = Session.connect db Caps.ingres_like in
  ignore (q s "CREATE INDEX by_bin ON stock (bin)");
  for _ = 1 to 2 do
    Alcotest.(check int) "bin3 rows" 3
      (List.length (rows_of (q s "SELECT sku FROM stock WHERE bin = 'bin3'")))
  done;
  Alcotest.(check bool) "no lookup map" false
    (Ldbms.Table.lookup_built (Ldbms.Database.find_table db "stock") ~col:1)

let test_lookup_eq_directly () =
  let db = big_db 50 in
  let tbl = Ldbms.Database.find_table db "stock" in
  let hits = Ldbms.Table.lookup_eq tbl ~col:1 (Value.Str "bin4") in
  Alcotest.(check int) "hash hits" 3 (List.length hits);
  (* preserves insertion order *)
  (match hits with
  | [| Value.Int a; _; _ |] :: [| Value.Int b; _; _ |] :: _ ->
      Alcotest.(check bool) "ascending skus" true (a < b)
  | _ -> Alcotest.fail "shape");
  Alcotest.(check int) "null never matches" 0
    (List.length (Ldbms.Table.lookup_eq tbl ~col:1 Value.Null))

(* regression: index keys were %g renderings, so floats differing after
   the sixth digit shared a bucket and an Int probe missed the Float 5.0
   it equals *)
let test_lookup_eq_exact_floats () =
  let db = Ldbms.Database.create "prices" in
  Ldbms.Database.load db ~name:"items"
    [ Schema.column "id" Ty.Int; Schema.column "price" Ty.Float ]
    [ [| Value.Int 1; Value.Float 0.1234561 |];
      [| Value.Int 2; Value.Float 0.1234562 |];
      [| Value.Int 3; Value.Float 5.0 |] ];
  let tbl = Ldbms.Database.find_table db "items" in
  Alcotest.(check int) "one row per distinct float" 1
    (List.length (Ldbms.Table.lookup_eq tbl ~col:1 (Value.Float 0.1234561)));
  Alcotest.(check int) "Int 5 finds Float 5.0" 1
    (List.length (Ldbms.Table.lookup_eq tbl ~col:1 (Value.Int 5)));
  (* the same through a SELECT on an indexed column, which scans *)
  let s = Session.connect db Caps.ingres_like in
  ignore (q s "CREATE INDEX by_price ON items (price)");
  Alcotest.(check int) "indexed WHERE price = 5" 1
    (List.length (rows_of (q s "SELECT id FROM items WHERE price = 5")))

let prop_indexed_equals_scan =
  let gen = QCheck.Gen.(pair (int_bound 20) (int_bound 6)) in
  QCheck.Test.make ~name:"indexed select equals scan" ~count:100
    (QCheck.make gen) (fun (bin, qty) ->
      let sql =
        Printf.sprintf
          "SELECT sku FROM stock WHERE bin = 'bin%d' AND qty <> %d" bin qty
      in
      let s1 = connect ~n:120 () in
      ignore (q s1 "CREATE INDEX i ON stock (bin)");
      let s2 = connect ~n:120 () in
      rows_of (q s1 sql) = rows_of (q s2 sql))

let () =
  Alcotest.run "indexes"
    [
      ( "index",
        [
          Alcotest.test_case "lifecycle" `Quick test_lifecycle;
          Alcotest.test_case "correctness" `Quick test_lookup_correctness;
          Alcotest.test_case "alias" `Quick test_alias_and_qualified;
          Alcotest.test_case "null" `Quick test_index_does_not_match_null;
          Alcotest.test_case "rollback" `Quick test_create_index_rollback;
          Alcotest.test_case "lookup_eq" `Quick test_lookup_eq_directly;
          Alcotest.test_case "lookup_eq exact floats" `Quick
            test_lookup_eq_exact_floats;
          Alcotest.test_case "drop table drops its indexes" `Quick
            test_drop_table_drops_indexes;
          Alcotest.test_case "declared index builds no lookup map" `Quick
            test_index_builds_no_map;
          Alcotest.test_case "load replaces a table's indexes" `Quick
            test_load_replaces_indexes;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_indexed_equals_scan ] );
    ]
