(* Site autonomy and the shipped-result cache: a member database may be
   written or re-created by a local application at any time, behind the
   federation's back, and a cached shipped relation must never outlive
   the source data it was shipped from. Local DDL that changes a table's
   shape must never let a statement run against the old shape: predicates
   compile per statement, against the schema they read. *)
open Sqlcore
module M = Msql.Msession

let col = Schema.column
let s x = Value.Str x
let i x = Value.Int x
let f x = Value.Float x

let sales_schema = [ col "sid" Ty.Int; col "part_id" Ty.Int; col "qty" Ty.Int ]

let parts_schema =
  [ col "pid" Ty.Int; col ~width:16 "pname" Ty.Str; col "price" Ty.Float ]

let make_fed2 ?(result_cache = true) () =
  let world = Netsim.World.create () in
  let directory = Narada.Directory.create () in
  let session = M.create ~world ~directory () in
  (* the shipped-result cache is an opt-in reuse mechanism (see the P10
     ablations); staleness is only observable with it enabled *)
  M.set_result_cache session result_cache;
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

let rel session q =
  match M.exec session q with
  | Ok (M.Multitable mt) -> Option.get (Msql.Multitable.flatten mt)
  | Ok r -> Alcotest.fail ("expected rows, got " ^ M.result_to_string r)
  | Error m -> Alcotest.fail m

let rows session q = Relation.rows (rel session q)

(* a local application's script, committed through a plain LDBMS session
   at a member database: the federation is not told *)
let local_commit session ~db stmts =
  let database =
    (Option.get (Narada.Directory.find_opt (M.directory session) db))
      .Narada.Service.database
  in
  let local = Ldbms.Session.connect database Ldbms.Capabilities.ingres_like in
  List.iter
    (fun sql ->
      match Ldbms.Session.exec_sql local sql with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (sql ^ ": " ^ Ldbms.Session.error_to_string e))
    stmts;
  match Ldbms.Session.commit local with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Ldbms.Session.error_to_string e)

(* the warm run is served from the shipped sales relation; an autonomous
   UPDATE at market then moves market's change stamp, so the next run
   re-ships and answers what the cache-off federation answers *)
let test_autonomous_write_not_served_stale () =
  let q = join2 ^ " AND s.sid = 0" in
  let run ~result_cache =
    let session, _world = make_fed2 ~result_cache () in
    let first = rows session q in
    ignore (rows session q);
    let cs = M.cache_stats session in
    local_commit session ~db:"market"
      [ "UPDATE sales SET part_id = 59 WHERE sid = 0" ];
    let after = rows session q in
    let cs' = M.cache_stats session in
    (cs, cs', first, after)
  in
  let cs, cs', first, after = run ~result_cache:true in
  Alcotest.(check bool) "warm run served from the shipped cache" true
    (cs.M.result_hits > 0);
  Alcotest.(check bool) "before the write: part0" true
    (List.equal Row.equal [ [| i 0; s "part0" |] ] first);
  Alcotest.(check bool) "after the write: part59" true
    (List.equal Row.equal [ [| i 0; s "part59" |] ] after);
  Alcotest.(check int) "the stale entry was not served" cs.M.result_hits
    cs'.M.result_hits;
  Alcotest.(check int) "one more miss" (cs.M.result_misses + 1)
    cs'.M.result_misses;
  let _, _, _, cold = run ~result_cache:false in
  Alcotest.(check bool) "cache on answers as cache off" true
    (List.equal Row.equal cold after)

(* a local ALTER at a member database — a table dropped and re-created
   with other rows by a local application — then the re-IMPORT that tells
   the dictionary. join2 ships market's sales to store unreduced, so the
   shipped text does not depend on store: after parts is re-created the
   warm entry is still valid and the join reads the new parts. After
   sales is re-created the entry must not be served, and the run ships
   again. The IMPORT itself invalidates nothing: it changes no member's
   data. *)
let test_local_alter_drops_shipped_results () =
  let session, _world = make_fed2 () in
  ignore (rows session join2);
  ignore (rows session join2);
  Alcotest.(check bool) "warm re-run served from the shipped cache" true
    ((M.cache_stats session).M.result_hits > 0);
  let recreate ~db ~table ~columns values =
    local_commit session ~db
      ([ "DROP TABLE " ^ table;
         Printf.sprintf "CREATE TABLE %s (%s)" table columns ]
      @ List.map
          (Printf.sprintf "INSERT INTO %s VALUES (%s)" table)
          values);
    match M.import_all session ~service:db with
    | Ok () -> ()
    | Error m -> Alcotest.fail m
  in
  let check_rows msg ~part_of =
    let got = rel session join2 in
    (* only even parts are under 100 *)
    let want =
      List.filter_map
        (fun k ->
          let p = part_of k in
          if p mod 2 = 0 then Some [| i k; s (Printf.sprintf "new%d" p) |]
          else None)
        (List.init 12 Fun.id)
    in
    Alcotest.(check bool) msg true
      (Relation.equal_unordered got (Relation.make (Relation.schema got) want))
  in
  let warm = M.cache_stats session in
  recreate ~db:"store" ~table:"parts"
    ~columns:"pid INT, pname CHAR(16), price FLOAT"
    (List.init 60 (fun k ->
         Printf.sprintf "%d, 'new%d', %s" k k
           (if k mod 2 = 0 then "9.5" else "250.0")));
  check_rows "the join reads the re-created parts" ~part_of:(fun k -> k mod 6);
  let cs = M.cache_stats session in
  Alcotest.(check int) "the unchanged sales are still served"
    (warm.M.result_hits + 1) cs.M.result_hits;
  let hits_before = cs.M.result_hits and misses_before = cs.M.result_misses in
  recreate ~db:"market" ~table:"sales" ~columns:"sid INT, part_id INT, qty INT"
    (List.init 12 (fun k -> Printf.sprintf "%d, %d, 1" k (k mod 4)));
  check_rows "the join reads the re-created sales" ~part_of:(fun k -> k mod 4);
  let cs = M.cache_stats session in
  Alcotest.(check int) "stale entry was not served" hits_before
    cs.M.result_hits;
  Alcotest.(check bool) "stale entry dropped and reshipped" true
    (cs.M.result_misses > misses_before)

(* airline2 is the source of the (airline1, airline2) join's shipped
   entry and the destination of the (airline2, airline3) join's MOVE
   (names tie-break the coordinator over equal tables). A MOVE lands in
   the receiving connection and its t_clean drops it there, so neither
   moves airline2's change stamp: the entry is served again *)
let test_destination_keeps_its_shipped_entry () =
  let fx = Msql.Fixtures.airline_fleet ~flights_per_db:20 ~n:3 () in
  let session = fx.Msql.Fixtures.session in
  M.set_result_cache session true;
  let join a b =
    Printf.sprintf
      "USE airline%d airline%d SELECT x.flnu, y.flnu FROM airline%d.flights \
       x, airline%d.flights y WHERE x.source = y.source"
      a b a b
  in
  let airline2 = Msql.Fixtures.database fx "airline2" in
  let first = rows session (join 1 2) in
  let stamp = Ldbms.Database.change_stamp airline2 in
  ignore (rows session (join 2 3));
  Alcotest.(check int) "a MOVE into airline2 leaves its stamp" stamp
    (Ldbms.Database.change_stamp airline2);
  let cs = M.cache_stats session in
  let again = rows session (join 1 2) in
  let cs' = M.cache_stats session in
  Alcotest.(check int) "the shipped entry is served" (cs.M.result_hits + 1)
    cs'.M.result_hits;
  Alcotest.(check int) "no miss" cs.M.result_misses cs'.M.result_misses;
  Alcotest.(check bool) "same answer" true (List.equal Row.equal first again)

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
            test_local_alter_drops_shipped_results;
        ] );
      ( "site autonomy",
        [
          Alcotest.test_case "autonomous write is not served stale" `Quick
            test_autonomous_write_not_served_stale;
          Alcotest.test_case "destination that is also a cached source" `Quick
            test_destination_keeps_its_shipped_entry;
        ] );
      ( "local DDL",
        [
          Alcotest.test_case "recreated table with reordered columns" `Quick
            test_recreated_table_reordered_columns;
        ] );
    ]
