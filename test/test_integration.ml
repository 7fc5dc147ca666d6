(* F1/F2 integration: the full Figure-1 pipeline and the Figure-2 schema
   architecture (INCORPORATE / IMPORT), plus cross-database join
   correctness against a locally computed reference. *)
open Sqlcore
module F = Msql.Fixtures
module M = Msql.Msession

let exec fx sql =
  match M.exec fx.F.session sql with
  | Ok r -> r
  | Error m -> Alcotest.fail ("MSQL error: " ^ m)

(* ---- F2: dictionary round trips -------------------------------------------- *)

let test_incorporate_statement () =
  let fx = F.make () in
  let r =
    exec fx
      "INCORPORATE SERVICE avis SITE site4 CONNECTMODE CONNECT COMMITMODE \
       NOCOMMIT CREATE NOCOMMIT INSERT NOCOMMIT DROP NOCOMMIT"
  in
  (match r with
  | M.Info _ -> ()
  | _ -> Alcotest.fail "expected info");
  match Msql.Ad.find (M.ad fx.F.session) "avis" with
  | Some e ->
      Alcotest.(check bool) "2pc" true (Msql.Ad.supports_2pc e);
      Alcotest.(check (option string)) "site" (Some "site4") e.Msql.Ad.site
  | None -> Alcotest.fail "no AD entry"

let test_incorporate_lying_about_2pc_rejected () =
  (* united really is 2PC; redeclare it truthfully as autocommit is fine,
     but an autocommit engine cannot be declared 2PC *)
  let caps = [ ("united", Ldbms.Capabilities.sybase_like) ] in
  let fx = F.make ~caps () in
  match
    M.exec fx.F.session
      "INCORPORATE SERVICE united CONNECTMODE CONNECT COMMITMODE NOCOMMIT"
  with
  | Error m -> Alcotest.(check bool) "explains" true
      (Astring_contains.contains m "autocommit")
  | Ok _ -> Alcotest.fail "expected rejection"

let test_incorporate_downgrade_allowed () =
  let fx = F.make () in
  (* declaring a 2PC engine as autocommit-only is allowed (capability
     under-use); subsequent vital queries must then be refused *)
  (match
     M.exec fx.F.session
       "INCORPORATE SERVICE continental CONNECTMODE CONNECT COMMITMODE COMMIT"
   with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  (match
     M.exec fx.F.session
       "INCORPORATE SERVICE united CONNECTMODE CONNECT COMMITMODE COMMIT"
   with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  match
    M.exec fx.F.session
      {|USE continental VITAL united VITAL
        UPDATE flight% SET rate% = rate% * 1.1|}
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "vital update on declared-autocommit dbs must be refused"

let test_import_statement () =
  let fx = F.make () in
  let g = M.gdd fx.F.session in
  Msql.Gdd.forget_database g "avis";
  Alcotest.(check bool) "gone" false (Msql.Gdd.has_database g "avis");
  (match exec fx "IMPORT DATABASE avis FROM SERVICE avis" with
  | M.Info _ -> ()
  | _ -> Alcotest.fail "expected info");
  Alcotest.(check bool) "back" true (Msql.Gdd.has_database g "avis");
  match Msql.Gdd.find_table g ~db:"avis" "cars" with
  | Some schema -> Alcotest.(check int) "columns" 7 (Schema.arity schema)
  | None -> Alcotest.fail "cars missing"

let test_import_partial_columns () =
  let fx = F.make () in
  let g = M.gdd fx.F.session in
  Msql.Gdd.forget_database g "avis";
  (match exec fx "IMPORT DATABASE avis FROM SERVICE avis TABLE cars COLUMN code rate" with
  | M.Info _ -> ()
  | _ -> Alcotest.fail "expected info");
  (match Msql.Gdd.find_table g ~db:"avis" "cars" with
  | Some schema ->
      Alcotest.(check (list string)) "partial" [ "code"; "rate" ] (Schema.names schema)
  | None -> Alcotest.fail "cars missing");
  (* importing again replaces the definition *)
  (match exec fx "IMPORT DATABASE avis FROM SERVICE avis" with
  | M.Info _ -> ()
  | _ -> Alcotest.fail "expected info");
  match Msql.Gdd.find_table g ~db:"avis" "cars" with
  | Some schema -> Alcotest.(check int) "full again" 7 (Schema.arity schema)
  | None -> Alcotest.fail "cars missing"

let test_import_errors () =
  let fx = F.make () in
  (match M.exec fx.F.session "IMPORT DATABASE avis FROM SERVICE hertz" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown service");
  (match M.exec fx.F.session "IMPORT DATABASE hertz FROM SERVICE avis" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "db/service mismatch");
  match M.exec fx.F.session "IMPORT DATABASE avis FROM SERVICE avis TABLE nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown table"

let test_query_without_import_fails () =
  let fx = F.make () in
  Msql.Gdd.forget_database (M.gdd fx.F.session) "avis";
  match M.exec fx.F.session "USE avis SELECT code FROM cars" with
  | Error m -> Alcotest.(check bool) "mentions import" true
      (Astring_contains.contains m "IMPORT")
  | Ok _ -> Alcotest.fail "expected error"

(* ---- F1: end-to-end pipeline -------------------------------------------------- *)

let test_script_pipeline () =
  let fx = F.make () in
  match
    M.exec_script fx.F.session
      {|
IMPORT DATABASE avis FROM SERVICE avis;
USE avis SELECT code FROM cars WHERE carst = 'available';
USE avis UPDATE cars SET carst = 'gone' WHERE code = 1;
USE avis SELECT code FROM cars WHERE carst = 'available';
|}
  with
  | Error m -> Alcotest.fail m
  | Ok results -> (
      Alcotest.(check int) "four results" 4 (List.length results);
      match results with
      | [ _; M.Multitable before; M.Update_report _; M.Multitable after ] ->
          let count mt =
            Relation.cardinality (Option.get (Msql.Multitable.find mt "avis"))
          in
          Alcotest.(check int) "before" 3 (count before);
          Alcotest.(check int) "after" 2 (count after)
      | _ -> Alcotest.fail "unexpected result shapes")

(* ---- cross-database join vs local reference ------------------------------------- *)

let test_global_join_matches_reference () =
  let fx = F.make () in
  let joined =
    match
      exec fx
        {|USE avis national
          SELECT c.code, v.vcode
          FROM avis.cars c, national.vehicle v
          WHERE c.cartype = v.vty|}
    with
    | M.Multitable mt -> Option.get (Msql.Multitable.flatten mt)
    | r -> Alcotest.fail ("expected multitable, got " ^ M.result_to_string r)
  in
  (* reference: compute the join locally over direct table scans *)
  let cars = F.scan fx ~db:"avis" ~table:"cars" in
  let vehicles = F.scan fx ~db:"national" ~table:"vehicle" in
  let expected =
    List.concat_map
      (fun c ->
        List.filter_map
          (fun v -> if Value.equal c.(1) v.(1) then Some [| c.(0); v.(0) |] else None)
          (Relation.rows vehicles))
      (Relation.rows cars)
  in
  Alcotest.(check int) "cardinality" (List.length expected)
    (Relation.cardinality joined);
  let sort rows = List.sort Row.compare rows in
  List.iter2
    (fun a b -> Alcotest.(check bool) "row" true (Row.equal a b))
    (sort expected)
    (sort (Relation.rows joined))

let test_global_join_with_aggregates () =
  let fx = F.make () in
  match
    exec fx
      {|USE avis national
        SELECT v.vty, COUNT(*)
        FROM avis.cars c, national.vehicle v
        WHERE c.cartype = v.vty
        GROUP BY v.vty
        ORDER BY v.vty|}
  with
  | M.Multitable mt -> (
      let rel = Option.get (Msql.Multitable.flatten mt) in
      match Relation.rows rel with
      | [ [| Value.Str "compact"; Value.Int 1 |]; [| Value.Str "sedan"; Value.Int 2 |] ]
        ->
          ()
      | rows ->
          Alcotest.failf "unexpected rows: %s"
            (String.concat ";" (List.map (Format.asprintf "%a" Row.pp) rows)))
  | r -> Alcotest.fail ("expected multitable, got " ^ M.result_to_string r)

let test_global_join_cleans_temporaries () =
  let fx = F.make () in
  ignore
    (exec fx
       {|USE avis national
         SELECT c.code, v.vcode FROM avis.cars c, national.vehicle v
         WHERE c.cartype = v.vty|});
  (* temporary tables dropped at the coordinator *)
  let db = F.database fx "avis" in
  List.iter
    (fun t ->
      Alcotest.(check bool) "no msql_tmp left" false
        (Astring_contains.contains t "msql_tmp"))
    (Ldbms.Database.table_names db);
  let db2 = F.database fx "national" in
  List.iter
    (fun t ->
      Alcotest.(check bool) "no msql_tmp left" false
        (Astring_contains.contains t "msql_tmp"))
    (Ldbms.Database.table_names db2)

let test_message_accounting () =
  let fx = F.make () in
  Netsim.World.reset_stats fx.F.world;
  ignore (exec fx "USE avis national SELECT %code FROM %");
  let st = Netsim.World.stats fx.F.world in
  Alcotest.(check bool) "messages flowed" true (st.Netsim.World.messages > 0);
  Alcotest.(check bool) "bytes moved" true (st.Netsim.World.bytes_moved > 0)

let test_create_table_in_multiple_databases () =
  let fx = F.make () in
  (match exec fx "USE avis national CREATE TABLE audit (id INT, note CHAR(20))" with
  | M.Update_report { outcome = M.Success; _ } -> ()
  | r -> Alcotest.fail (M.result_to_string r));
  Alcotest.(check bool) "avis has audit" true
    (Ldbms.Database.find_table_opt (F.database fx "avis") "audit" <> None);
  Alcotest.(check bool) "national has audit" true
    (Ldbms.Database.find_table_opt (F.database fx "national") "audit" <> None)

let test_insert_through_msql () =
  let fx = F.make () in
  (match
     exec fx
       "USE avis INSERT INTO cars VALUES (9, 'limo', 120.0, 'available', NULL, NULL, NULL)"
   with
  | M.Update_report { outcome = M.Success; _ } -> ()
  | r -> Alcotest.fail (M.result_to_string r));
  let cars = F.scan fx ~db:"avis" ~table:"cars" in
  Alcotest.(check int) "five cars" 5 (Relation.cardinality cars)

let test_delete_through_msql () =
  let fx = F.make () in
  (match exec fx "USE avis DELETE FROM cars WHERE carst = 'rented'" with
  | M.Update_report { outcome = M.Success; details; _ } ->
      Alcotest.(check (option int)) "one deleted" (Some 1)
        (List.hd details).M.raffected
  | r -> Alcotest.fail (M.result_to_string r));
  let cars = F.scan fx ~db:"avis" ~table:"cars" in
  Alcotest.(check int) "three left" 3 (Relation.cardinality cars)

let test_use_current_scope () =
  let fx = F.make () in
  let s = fx.F.session in
  (match M.exec s "USE avis SELECT code FROM cars" with
  | Ok (M.Multitable _) -> ()
  | _ -> Alcotest.fail "seed scope");
  Alcotest.(check int) "one db" 1 (List.length (M.current_scope s));
  (* extend with national: both partial results now *)
  (match M.exec s "USE CURRENT national SELECT %code FROM %" with
  | Ok (M.Multitable mt) ->
      Alcotest.(check (list string)) "both" [ "avis"; "national" ]
        (Msql.Multitable.databases mt)
  | Ok _ | Error _ -> Alcotest.fail "use current extend");
  Alcotest.(check int) "two dbs" 2 (List.length (M.current_scope s));
  (* a plain USE replaces the scope *)
  (match M.exec s "USE national SELECT vcode FROM vehicle" with
  | Ok (M.Multitable mt) ->
      Alcotest.(check (list string)) "replaced" [ "national" ]
        (Msql.Multitable.databases mt)
  | Ok _ | Error _ -> Alcotest.fail "plain use");
  Alcotest.(check int) "one again" 1 (List.length (M.current_scope s));
  (* USE CURRENT with an empty session scope on a fresh session errors *)
  let fx2 = F.make () in
  match M.exec fx2.F.session "USE CURRENT SELECT code FROM cars" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty current scope must error"

(* a statement that fails before a plan exists must not disturb the
   session's current scope: USE names an unimported database, planning
   fails, and the previous scope still answers USE CURRENT *)
let test_failed_plan_leaves_scope_intact () =
  let fx = F.make () in
  let s = fx.F.session in
  (match M.exec s "USE avis SELECT code FROM cars" with
  | Ok (M.Multitable _) -> ()
  | _ -> Alcotest.fail "seed scope");
  let before = List.map (fun u -> u.Msql.Ast.db) (M.current_scope s) in
  Alcotest.(check (list string)) "seeded" [ "avis" ] before;
  (match M.exec s "USE ghostdb SELECT x FROM ghostdb.t" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unimported database must fail to plan");
  Alcotest.(check (list string)) "scope untouched" [ "avis" ]
    (List.map (fun u -> u.Msql.Ast.db) (M.current_scope s));
  (* and USE CURRENT still resolves against the surviving scope *)
  match M.exec s "USE CURRENT SELECT code FROM cars" with
  | Ok (M.Multitable _) -> ()
  | Ok r -> Alcotest.fail (M.result_to_string r)
  | Error m -> Alcotest.fail m

let test_data_transfer_insert_select () =
  let fx = F.make () in
  (* copy national's available vehicles into avis's cars fleet (§2: data
     transfer between databases) *)
  (match
     M.exec fx.F.session
       {|USE avis national
         INSERT INTO avis.cars (code, cartype, carst)
         SELECT v.vcode, v.vty, v.vstat
         FROM national.vehicle v
         WHERE v.vstat = 'available'|}
   with
  | Ok (M.Update_report { outcome = M.Success; details; _ }) ->
      Alcotest.(check (option int)) "two transferred" (Some 2)
        (List.find (fun r -> r.M.rdb = "avis") details).M.raffected
  | Ok r -> Alcotest.fail (M.result_to_string r)
  | Error m -> Alcotest.fail m);
  let cars = F.scan fx ~db:"avis" ~table:"cars" in
  Alcotest.(check int) "fleet grew" 6 (Relation.cardinality cars);
  (* transferred rows carry national's codes; unnamed columns are NULL *)
  Alcotest.(check bool) "vcode 11 present" true
    (List.exists
       (fun row -> Sqlcore.Value.equal row.(0) (Sqlcore.Value.Int 11))
       (Relation.rows cars));
  (* the transfer staging table is cleaned up *)
  List.iter
    (fun db ->
      List.iter
        (fun t ->
          Alcotest.(check bool) "no staging left" false
            (Astring_contains.contains t "msql_xfer"))
        (Ldbms.Database.table_names (F.database fx db)))
    [ "avis"; "national" ]

let test_data_transfer_with_join_source () =
  let fx = F.make () in
  (* source is itself a cross-database join *)
  match
    M.exec fx.F.session
      {|USE avis national continental
        INSERT INTO continental.f838 (seatnu, seatstatus)
        SELECT c.code, v.vstat
        FROM avis.cars c, national.vehicle v
        WHERE c.cartype = v.vty|}
  with
  | Ok (M.Update_report { outcome = M.Success; details; _ }) ->
      let n =
        (List.find (fun r -> r.M.rdb = "continental") details).M.raffected
      in
      Alcotest.(check (option int)) "joined rows inserted" (Some 3) n
  | Ok r -> Alcotest.fail (M.result_to_string r)
  | Error m -> Alcotest.fail m

let test_data_transfer_local_degenerate () =
  let fx = F.make () in
  (* source and target in the same database: a local INSERT ... SELECT *)
  match
    M.exec fx.F.session
      {|USE avis
        INSERT INTO avis.cars (code, cartype)
        SELECT c.code + 100, c.cartype FROM avis.cars c|}
  with
  | Ok (M.Update_report { outcome = M.Success; _ }) ->
      let cars = F.scan fx ~db:"avis" ~table:"cars" in
      Alcotest.(check int) "doubled" 8 (Relation.cardinality cars)
  | Ok r -> Alcotest.fail (M.result_to_string r)
  | Error m -> Alcotest.fail m

(* INSERT ... SELECT whose target database is also the coordinator of its
   source join: the join result is inserted in place, not shipped from the
   coordinator to itself into a staging table first *)
let test_data_transfer_into_coordinator () =
  let fleet () = F.airline_fleet ~flights_per_db:20 ~n:3 () in
  let fx = fleet () in
  Netsim.World.reset_stats fx.F.world;
  (match
     M.exec fx.F.session
       {|USE airline1 airline2
         INSERT INTO airline1.flights (flnu, source, destination, rate)
         SELECT f.flnu + 1000, f.source, f.destination, g.rate
         FROM airline1.flights f, airline2.flights g
         WHERE f.source = g.source AND f.destination = g.destination
           AND g.rate < 200|}
   with
  | Ok (M.Update_report { outcome = M.Success; elapsed_ms; _ }) ->
      Alcotest.(check (float 0.005)) "virtual ms" 75.16 elapsed_ms
  | Ok r -> Alcotest.fail (M.result_to_string r)
  | Error m -> Alcotest.fail m);
  Alcotest.(check int) "messages" 16
    (Netsim.World.stats fx.F.world).Netsim.World.messages;
  (* reference: the same statement on one database holding both tables *)
  let local = fleet () in
  let db = F.database local "airline1" in
  let g = F.scan local ~db:"airline2" ~table:"flights" in
  Ldbms.Database.load db ~name:"flights2" (Relation.schema g)
    (Relation.rows g);
  let s = Ldbms.Session.connect db Ldbms.Capabilities.ingres_like in
  (match
     Ldbms.Session.exec_sql s
       "INSERT INTO flights (flnu, source, destination, rate) SELECT f.flnu \
        + 1000, f.source, f.destination, g.rate FROM flights f, flights2 g \
        WHERE f.source = g.source AND f.destination = g.destination AND \
        g.rate < 200"
   with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  (match Ldbms.Session.commit s with Ok () -> () | Error m -> Alcotest.fail m);
  let got = F.scan fx ~db:"airline1" ~table:"flights"
  and want = F.scan local ~db:"airline1" ~table:"flights" in
  Alcotest.(check int) "eight rows inserted" 28 (Relation.cardinality want);
  Alcotest.(check bool) "same rows as the local insert" true
    (Relation.equal_unordered got want);
  Alcotest.(check (list string)) "no temporary left" [ "flights" ]
    (Ldbms.Database.table_names (F.database fx "airline1"))

let test_explain_returns_plan () =
  let fx = F.make () in
  match
    M.exec fx.F.session
      "EXPLAIN USE continental VITAL united VITAL UPDATE flight% SET rate% = rate% * 1.1"
  with
  | Ok (M.Info text) ->
      Alcotest.(check bool) "is DOL" true
        (Astring_contains.contains text "DOLBEGIN");
      Alcotest.(check bool) "has tasks" true
        (Astring_contains.contains text "NOCOMMIT");
      (* nothing was executed *)
      let flights = F.scan fx ~db:"continental" ~table:"flights" in
      List.iter
        (fun row ->
          Alcotest.(check bool) "rates untouched" false
            (Sqlcore.Value.equal row.(6) (Sqlcore.Value.Float 110.0)))
        (Relation.rows flights)
  | Ok r -> Alcotest.fail (M.result_to_string r)
  | Error m -> Alcotest.fail m

(* USE CURRENT naming a multidatabase whose member is already in the
   session scope: the member is shadowed, not opened twice, and the
   persisted scope stays usable by the next USE CURRENT *)
let test_use_current_over_multidatabase () =
  let fx = F.make () in
  let s = fx.F.session in
  ignore (exec fx "CREATE MULTIDATABASE air AS continental delta");
  ignore (exec fx "USE continental SELECT flnu FROM flights");
  (match M.exec s "USE CURRENT air SELECT % FROM fl%" with
  | Ok (M.Multitable mt) ->
      Alcotest.(check (list string)) "both members" [ "continental"; "delta" ]
        (Msql.Multitable.databases mt)
  | Ok r -> Alcotest.fail (M.result_to_string r)
  | Error m -> Alcotest.fail m);
  Alcotest.(check (list string)) "scope without duplicates"
    [ "continental"; "delta" ]
    (List.map (fun u -> u.Msql.Ast.db) (M.current_scope s));
  match M.exec s "USE CURRENT united SELECT % FROM fl%" with
  | Ok (M.Multitable mt) ->
      Alcotest.(check (list string)) "extended"
        [ "continental"; "delta"; "united" ]
        (Msql.Multitable.databases mt)
  | Ok r -> Alcotest.fail (M.result_to_string r)
  | Error m -> Alcotest.fail m

let test_virtual_databases () =
  let fx = F.make () in
  let s = fx.F.session in
  (match M.exec s "CREATE MULTIDATABASE rentals AS avis national" with
  | Ok (M.Info _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "create multidatabase");
  (* USE of the virtual database expands to its members *)
  (match M.exec s "USE rentals SELECT %code FROM %" with
  | Ok (M.Multitable mt) ->
      Alcotest.(check (list string)) "expanded" [ "avis"; "national" ]
        (Msql.Multitable.databases mt)
  | Ok _ | Error _ -> Alcotest.fail "use virtual db");
  (* VITAL on the virtual database distributes to the members *)
  (match
     M.exec s
       {|USE rentals VITAL
         LET cartab.cstat BE cars.carst vehicle.vstat
         UPDATE cartab SET cstat = cstat|}
   with
  | Ok (M.Update_report { details; _ }) ->
      Alcotest.(check int) "two members" 2 (List.length details);
      List.iter
        (fun r -> Alcotest.(check bool) "vital" true (r.M.rvital = Msql.Ast.Vital))
        details
  | Ok _ | Error _ -> Alcotest.fail "vital distribution");
  (* nested virtual databases expand transitively *)
  (match M.exec s "CREATE MULTIDATABASE everything AS rentals continental" with
  | Ok (M.Info _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "nested create");
  (match M.exec s "USE everything SELECT % FROM %" with
  | Ok (M.Multitable mt) ->
      Alcotest.(check bool) "three dbs" true
        (List.length (Msql.Multitable.databases mt) = 3)
  | Ok _ -> Alcotest.fail "nested use: wrong result"
  | Error m -> Alcotest.fail ("nested use: " ^ m));
  (* lifecycle errors *)
  (match M.exec s "CREATE MULTIDATABASE rentals AS avis" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate must fail");
  (match M.exec s "CREATE MULTIDATABASE avis AS national" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "shadowing an imported db must fail");
  (match M.exec s "CREATE MULTIDATABASE bad AS nosuchdb" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown member must fail");
  (match M.exec s "DROP MULTIDATABASE rentals" with
  | Ok (M.Info _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "drop");
  match M.exec s "DROP MULTIDATABASE rentals" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "double drop must fail"

let () =
  Alcotest.run "integration"
    [
      ( "F2 dictionaries",
        [
          Alcotest.test_case "incorporate" `Quick test_incorporate_statement;
          Alcotest.test_case "lying incorporate" `Quick test_incorporate_lying_about_2pc_rejected;
          Alcotest.test_case "downgrade" `Quick test_incorporate_downgrade_allowed;
          Alcotest.test_case "import" `Quick test_import_statement;
          Alcotest.test_case "partial import" `Quick test_import_partial_columns;
          Alcotest.test_case "import errors" `Quick test_import_errors;
          Alcotest.test_case "query needs import" `Quick test_query_without_import_fails;
        ] );
      ( "F1 pipeline",
        [
          Alcotest.test_case "script" `Quick test_script_pipeline;
          Alcotest.test_case "message accounting" `Quick test_message_accounting;
          Alcotest.test_case "create in many dbs" `Quick test_create_table_in_multiple_databases;
          Alcotest.test_case "insert" `Quick test_insert_through_msql;
          Alcotest.test_case "delete" `Quick test_delete_through_msql;
          Alcotest.test_case "use current" `Quick test_use_current_scope;
          Alcotest.test_case "failed plan keeps scope" `Quick
            test_failed_plan_leaves_scope_intact;
          Alcotest.test_case "virtual databases" `Quick test_virtual_databases;
          Alcotest.test_case "use current over multidatabase" `Quick
            test_use_current_over_multidatabase;
          Alcotest.test_case "explain" `Quick test_explain_returns_plan;
          Alcotest.test_case "data transfer" `Quick test_data_transfer_insert_select;
          Alcotest.test_case "transfer join source" `Quick test_data_transfer_with_join_source;
          Alcotest.test_case "transfer local" `Quick test_data_transfer_local_degenerate;
          Alcotest.test_case "transfer into coordinator" `Quick
            test_data_transfer_into_coordinator;
        ] );
      ( "global join",
        [
          Alcotest.test_case "matches reference" `Quick test_global_join_matches_reference;
          Alcotest.test_case "aggregates" `Quick test_global_join_with_aggregates;
          Alcotest.test_case "cleans temporaries" `Quick test_global_join_cleans_temporaries;
        ] );
    ]
