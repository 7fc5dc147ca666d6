(* Dictionary-epoch invalidation of the shipped-result cache: a bump of
   the GDD/AD version (a re-IMPORT simulating a local ALTER at a member
   database) must drop cached shipped relations. Local DDL that changes a
   table's shape must never let a statement run against the old shape:
   predicates compile per statement, against the schema they read. *)
open Sqlcore
module M = Msql.Msession

let col = Schema.column
let s x = Value.Str x
let i x = Value.Int x
let f x = Value.Float x

let sales_schema = [ col "sid" Ty.Int; col "part_id" Ty.Int; col "qty" Ty.Int ]

let parts_schema =
  [ col "pid" Ty.Int; col ~width:16 "pname" Ty.Str; col "price" Ty.Float ]

let make_fed2 () =
  let world = Netsim.World.create () in
  let directory = Narada.Directory.create () in
  let session = M.create ~world ~directory () in
  (* the shipped-result cache is an opt-in reuse mechanism (see the P10
     ablations); epoch staleness is only observable with it enabled *)
  M.set_result_cache session true;
  let sales = List.init 12 (fun k -> [| i k; i (k mod 6); i (k + 1) |]) in
  let parts =
    List.init 60 (fun k -> [| i k; s (Printf.sprintf "part%d" k); f 9.5 |])
  in
  List.iter
    (fun (name, site, tname, schema, rows) ->
      Netsim.World.add_site world (Netsim.Site.make site);
      let db = Ldbms.Database.create name in
      Ldbms.Database.load db ~name:tname schema rows;
      Narada.Directory.register directory
        (Narada.Service.make ~site ~caps:Ldbms.Capabilities.ingres_like db);
      (match M.incorporate_auto session ~service:name with
      | Ok () -> ()
      | Error m -> failwith m);
      match M.import_all session ~service:name with
      | Ok () -> ()
      | Error m -> failwith m)
    [
      ("market", "msite", "sales", sales_schema, sales);
      ("store", "ssite", "parts", parts_schema, parts);
    ];
  (session, world)

let join2 =
  "USE market store SELECT s.sid, p.pname FROM market.sales s, \
   store.parts p WHERE s.part_id = p.pid AND p.price < 100"

(* the shipped-result cache is epoch-stamped: the warm re-run is a result
   hit, the post-IMPORT run drops the stale entry and ships again *)
let test_epoch_bump_drops_shipped_results () =
  let session, _world = make_fed2 () in
  (match M.exec session join2 with Ok _ -> () | Error m -> Alcotest.fail m);
  (match M.exec session join2 with Ok _ -> () | Error m -> Alcotest.fail m);
  let cs = M.cache_stats session in
  Alcotest.(check bool) "warm re-run served from the shipped cache" true
    (cs.M.result_hits > 0);
  let hits_before = cs.M.result_hits and misses_before = cs.M.result_misses in
  (match M.import_all session ~service:"store" with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (match M.exec session join2 with Ok _ -> () | Error m -> Alcotest.fail m);
  let cs = M.cache_stats session in
  Alcotest.(check int) "stale entry was not served" hits_before
    cs.M.result_hits;
  Alcotest.(check bool) "stale entry dropped and reshipped" true
    (cs.M.result_misses > misses_before)

(* the same SELECT text before and after DROP TABLE / CREATE TABLE with
   the columns reordered: each run must resolve its columns against the
   table as it is now *)
let test_recreated_table_reordered_columns () =
  let db = Ldbms.Database.create "w" in
  let session = Ldbms.Session.connect db Ldbms.Capabilities.ingres_like in
  let exec sql =
    match Ldbms.Session.exec_sql session sql with
    | Ok r -> r
    | Error m -> Alcotest.fail (sql ^ ": " ^ Ldbms.Session.error_to_string m)
  in
  let commit () =
    match Ldbms.Session.commit session with
    | Ok () -> ()
    | Error m -> Alcotest.fail (Ldbms.Session.error_to_string m)
  in
  let q = "SELECT sku, bin FROM stock WHERE bin = 'b1' AND sku > 2 ORDER BY sku" in
  let rows () =
    match exec q with
    | Ldbms.Session.Rows rel -> Relation.rows rel
    | _ -> Alcotest.fail "SELECT did not produce rows"
  in
  let check msg want =
    Alcotest.(check bool) msg true (List.equal Row.equal want (rows ()))
  in
  ignore (exec "CREATE TABLE stock (sku INT, bin CHAR(8))");
  List.iter
    (fun (k, b) ->
      ignore (exec (Printf.sprintf "INSERT INTO stock VALUES (%d, '%s')" k b)))
    [ (1, "b1"); (3, "b1"); (4, "b2"); (5, "b1") ];
  commit ();
  check "rows of the original table" [ [| i 3; s "b1" |]; [| i 5; s "b1" |] ];
  ignore (exec "DROP TABLE stock");
  ignore (exec "CREATE TABLE stock (bin CHAR(8), sku INT)");
  List.iter
    (fun (b, k) ->
      ignore (exec (Printf.sprintf "INSERT INTO stock VALUES ('%s', %d)" b k)))
    [ ("b1", 7); ("b2", 8); ("b1", 2); ("b1", 9) ];
  commit ();
  check "rows of the recreated table" [ [| i 7; s "b1" |]; [| i 9; s "b1" |] ]

let () =
  Alcotest.run "epoch"
    [
      ( "dictionary epoch",
        [
          Alcotest.test_case "bump drops shipped results" `Quick
            test_epoch_bump_drops_shipped_results;
        ] );
      ( "local DDL",
        [
          Alcotest.test_case "recreated table with reordered columns" `Quick
            test_recreated_table_reordered_columns;
        ] );
    ]
