module A = Msql.Ast
module E = Msql.Expand
module G = Msql.Gdd
module S = Sqlfront.Ast
open Sqlcore

(* a GDD mirroring the paper's appendix, built directly (no live DBs) *)
let gdd () =
  let g = G.create () in
  let col = Schema.column in
  G.import_database g ~db:"avis"
    [ ("cars",
       [ col "code" Ty.Int; col "cartype" Ty.Str; col "rate" Ty.Float;
         col "carst" Ty.Str ]) ];
  G.import_database g ~db:"national"
    [ ("vehicle", [ col "vcode" Ty.Int; col "vty" Ty.Str; col "vstat" Ty.Str ]) ];
  G.import_database g ~db:"continental"
    [ ("flights",
       [ col "flnu" Ty.Int; col "source" Ty.Str; col "destination" Ty.Str;
         col "rate" Ty.Float ]);
      ("f838", [ col "seatnu" Ty.Int; col "seatstatus" Ty.Str ]) ];
  G.import_database g ~db:"united"
    [ ("flight",
       [ col "fn" Ty.Int; col "sour" Ty.Str; col "dest" Ty.Str;
         col "rates" Ty.Float ]) ];
  g

let q s = Msql.Mparser.parse_query s

let expand s = E.expand (gdd ()) (q s)

let elems s =
  match expand s with
  | E.Replicated es -> es
  | E.Global _ | E.Transfer _ -> Alcotest.fail "expected replicated expansion"

let sql_of (e : E.elementary) =
  String.concat "; " (List.map Sqlfront.Sql_pp.stmt_to_string e.E.stmts)

let find_db es db =
  match List.find_opt (fun (e : E.elementary) -> e.E.edb = db) es with
  | Some e -> e
  | None -> Alcotest.failf "no elementary query for %s" db

(* ---- explicit semantic variables (LET) ------------------------------------- *)

let test_let_substitution () =
  let es =
    elems
      "USE avis national LET car.type.status BE cars.cartype.carst \
       vehicle.vty.vstat SELECT type FROM car WHERE status = 'available'"
  in
  Alcotest.(check int) "both pertinent" 2 (List.length es);
  Alcotest.(check string) "avis" "SELECT cartype FROM cars WHERE (carst = 'available')"
    (sql_of (find_db es "avis"));
  Alcotest.(check string) "national" "SELECT vty FROM vehicle WHERE (vstat = 'available')"
    (sql_of (find_db es "national"))

let test_let_ambiguous_binding () =
  (* both bindings resolve in avis: ambiguous *)
  let g = gdd () in
  G.import_table g ~db:"avis" ~table:"vehicle"
    [ Schema.column "vty" Ty.Str ];
  match
    E.expand g
      (q "USE avis LET car.type BE cars.cartype vehicle.vty SELECT type FROM car")
  with
  | exception E.Error _ -> ()
  | _ -> Alcotest.fail "expected ambiguity error"

let test_let_bad_column () =
  match
    expand "USE avis LET car.type BE cars.nonexistent SELECT type FROM car"
  with
  | exception E.Error _ -> ()
  | _ -> Alcotest.fail "expected bad-column error"

(* ---- implicit semantic variables (%) ----------------------------------------- *)

let test_implicit_column_pattern () =
  let es =
    elems "USE avis national SELECT %code FROM %"
  in
  Alcotest.(check string) "avis code" "SELECT code FROM cars"
    (sql_of (find_db es "avis"));
  Alcotest.(check string) "national vcode" "SELECT vcode FROM vehicle"
    (sql_of (find_db es "national"))

let test_table_pattern_update () =
  let es =
    elems
      "USE continental united UPDATE flight% SET rate% = rate% * 1.1 WHERE \
       sour% = 'Houston'"
  in
  Alcotest.(check string) "continental"
    "UPDATE flights SET rate = (rate * 1.1) WHERE (source = 'Houston')"
    (sql_of (find_db es "continental"));
  Alcotest.(check string) "united"
    "UPDATE flight SET rates = (rates * 1.1) WHERE (sour = 'Houston')"
    (sql_of (find_db es "united"))

let test_disambiguation_discards () =
  (* 'vehicle' only exists in national; avis is non-pertinent *)
  let es = elems "USE avis national SELECT vcode FROM vehicle" in
  Alcotest.(check int) "one db" 1 (List.length es);
  Alcotest.(check string) "national only" "national" (List.hd es).E.edb

(* the error names what failed to resolve, in scope order *)
let check_not_pertinent sql reasons () =
  match expand sql with
  | exception E.Error m ->
      Alcotest.(check string) "message"
        ("query is not pertinent for any database in its scope: " ^ reasons)
        m
  | _ -> Alcotest.fail "expected error"

let test_pattern_multiple_tables_same_db () =
  (* f% matches both flights and f838 in continental: two statements *)
  let es = elems "USE continental SELECT %nu FROM f%" in
  let c = find_db es "continental" in
  Alcotest.(check int) "two alternatives" 2 (List.length c.E.stmts)

let test_ambiguous_pattern_in_predicate () =
  (* %e matches both cartype and rate... in a predicate it must be unique *)
  match expand "USE avis SELECT code FROM cars WHERE %t% = 'x'" with
  | exception E.Error _ -> ()
  | _ -> Alcotest.fail "expected ambiguity error"

let test_pattern_expands_in_projection () =
  (* %t% matches cartype, rate and carst: all are projected *)
  let es = elems "USE avis SELECT %t% FROM cars" in
  Alcotest.(check string) "expanded" "SELECT cartype, rate, carst FROM cars"
    (sql_of (find_db es "avis"))

(* ---- optional columns (~) ----------------------------------------------------- *)

let test_optional_column_dropped () =
  let es =
    elems
      "USE avis national LET car.status BE cars.carst vehicle.vstat \
       SELECT %code, ~rate FROM car"
  in
  Alcotest.(check string) "avis keeps rate" "SELECT code, rate FROM cars"
    (sql_of (find_db es "avis"));
  Alcotest.(check string) "national drops rate" "SELECT vcode FROM vehicle"
    (sql_of (find_db es "national"))

let test_optional_outside_projection_rejected () =
  match expand "USE avis SELECT code FROM cars WHERE ~rate = 1" with
  | exception E.Error _ -> ()
  | _ -> Alcotest.fail "expected error for ~ in predicate"

let test_all_projections_optional_and_missing () =
  (* national has no rate; the lone optional projection vanishes -> not pertinent *)
  let es =
    elems "USE avis national SELECT ~rate FROM %"
  in
  Alcotest.(check int) "only avis" 1 (List.length es);
  Alcotest.(check string) "avis" "avis" (List.hd es).E.edb

(* ---- subqueries ----------------------------------------------------------------- *)

let test_subquery_rewritten () =
  let es =
    elems
      "USE continental UPDATE f838 SET seatstatus = 'TAKEN' WHERE seatnu = \
       (SELECT MIN(seatnu) FROM f838 WHERE seatstatus = 'FREE')"
  in
  Alcotest.(check string) "subquery"
    "UPDATE f838 SET seatstatus = 'TAKEN' WHERE (seatnu = (SELECT MIN(seatnu) \
     FROM f838 WHERE (seatstatus = 'FREE')))"
    (sql_of (find_db es "continental"))

(* ---- create/drop ------------------------------------------------------------------ *)

let test_create_table_replicates () =
  let es = elems "USE avis national CREATE TABLE log (id INT, note CHAR(10))" in
  Alcotest.(check int) "both dbs" 2 (List.length es)

let test_drop_pattern () =
  let es = elems "USE continental DROP TABLE f8%" in
  Alcotest.(check string) "drops f838" "DROP TABLE f838"
    (sql_of (find_db es "continental"))

(* ---- global (db-qualified) -------------------------------------------------------- *)

let test_global_detected () =
  match
    expand
      "USE avis national SELECT c.code, v.vcode FROM avis.cars c, \
       national.vehicle v WHERE c.cartype = v.vty"
  with
  | E.Global { grefs; _ } ->
      Alcotest.(check (list string)) "dbs" [ "avis"; "national" ]
        (List.map (fun g -> g.E.gdb) grefs)
  | E.Replicated _ | E.Transfer _ -> Alcotest.fail "expected global"

let test_global_unqualified_unique () =
  match expand "USE avis national SELECT code FROM cars, national.vehicle" with
  | E.Global { grefs; _ } ->
      Alcotest.(check string) "cars found in avis" "avis" (List.hd grefs).E.gdb
  | E.Replicated _ | E.Transfer _ -> Alcotest.fail "expected global"

let test_global_scope_violation () =
  match expand "USE avis SELECT v.vcode FROM avis.cars c, national.vehicle v" with
  | exception E.Error _ -> ()
  | _ -> Alcotest.fail "national not in scope"

let test_global_rejects_patterns () =
  match expand "USE avis national SELECT %code FROM avis.car%" with
  | exception E.Error _ -> ()
  | _ -> Alcotest.fail "patterns with qualified tables"

let test_db_qualified_dml () =
  match expand "USE avis national UPDATE avis.cars SET rate = 0" with
  | E.Replicated [ e ] ->
      Alcotest.(check string) "only avis" "avis" e.E.edb;
      Alcotest.(check string) "stmt" "UPDATE cars SET rate = 0" (sql_of e)
  | _ -> Alcotest.fail "expected single-db dml"

(* ---- substitution_for --------------------------------------------------------------- *)

let test_substitution_for () =
  let subst =
    E.substitution_for (gdd ()) ~db:"national"
      [ { A.var_path = [ "car"; "type" ]; bindings = [ [ "cars"; "cartype" ]; [ "vehicle"; "vty" ] ] } ]
  in
  Alcotest.(check (option string)) "car" (Some "vehicle") (List.assoc_opt "car" subst);
  Alcotest.(check (option string)) "type" (Some "vty") (List.assoc_opt "type" subst)

let test_unknown_db_in_scope () =
  match expand "USE nowhere SELECT a FROM t" with
  | exception E.Error _ -> ()
  | _ -> Alcotest.fail "expected unknown-db error"

(* ---- property: elementary statements are executable ------------------------- *)

(* Random multiple queries over a random federation: whenever expansion
   succeeds, every elementary statement must run without semantic errors
   against an empty materialization of its database's schema — i.e.
   disambiguation really did discard everything non-pertinent. *)
let table_pool = [ "cars"; "carts"; "vehicle"; "flights" ]
let column_pool = [ "code"; "vcode"; "rate"; "rates"; "name" ]

let gen_federation =
  QCheck.Gen.(
    let gen_table =
      pair (oneofl table_pool)
        (map
           (fun cols -> List.sort_uniq compare cols)
           (list_size (1 -- 4) (oneofl column_pool)))
    in
    list_size (1 -- 3) (list_size (1 -- 3) gen_table))

let gen_pattern =
  QCheck.Gen.(
    oneof
      [
        oneofl table_pool;
        oneofl column_pool;
        map (fun s -> String.sub s 0 (min 2 (String.length s)) ^ "%")
          (oneofl (table_pool @ column_pool));
        map (fun s -> "%" ^ String.sub s 1 (String.length s - 1))
          (oneofl column_pool);
      ])

let gen_query_parts =
  QCheck.Gen.(pair gen_pattern (pair gen_pattern (opt gen_pattern)))

let prop_elementaries_are_executable =
  let gen = QCheck.Gen.pair gen_federation gen_query_parts in
  QCheck.Test.make ~name:"elementary statements execute on their db" ~count:300
    (QCheck.make gen)
    (fun (fed, (table_pat, (proj_pat, where_pat))) ->
      let gdd = G.create () in
      let dbs =
        List.mapi
          (fun i tables ->
            let db = Printf.sprintf "db%d" (i + 1) in
            List.iter
              (fun (tname, cols) ->
                G.import_table gdd ~db ~table:tname
                  (List.map (fun c -> Schema.column c Ty.Int) cols))
              tables;
            (db, tables))
          fed
      in
      let sql =
        Printf.sprintf "USE %s SELECT %s FROM %s%s"
          (String.concat " " (List.map fst dbs))
          proj_pat table_pat
          (match where_pat with
          | Some w -> Printf.sprintf " WHERE %s = 1" w
          | None -> "")
      in
      match E.expand gdd (Msql.Mparser.parse_query sql) with
      | exception E.Error _ -> true (* refusal is always acceptable *)
      | E.Global _ | E.Transfer _ -> true
      | E.Replicated elems ->
          List.for_all
            (fun (el : E.elementary) ->
              (* materialize the db with empty tables and run each stmt *)
              let db = Ldbms.Database.create el.E.edb in
              List.iter
                (fun (tname, schema) ->
                  Ldbms.Database.load db ~name:tname schema [])
                (G.tables gdd ~db:el.E.edb);
              List.for_all
                (fun stmt ->
                  match stmt with
                  | S.Select sel -> (
                      match Ldbms.Exec.run_select db sel with
                      | _ -> true
                      | exception Ldbms.Exec.Error _ -> false)
                  | _ -> true)
                el.E.stmts)
            elems)

let prop_expansion_deterministic =
  let gen = QCheck.Gen.pair gen_federation gen_query_parts in
  QCheck.Test.make ~name:"expansion is deterministic" ~count:100
    (QCheck.make gen)
    (fun (fed, (table_pat, (proj_pat, where_pat))) ->
      let build () =
        let gdd = G.create () in
        let dbs =
          List.mapi
            (fun i tables ->
              let db = Printf.sprintf "db%d" (i + 1) in
              List.iter
                (fun (tname, cols) ->
                  G.import_table gdd ~db ~table:tname
                    (List.map (fun c -> Schema.column c Ty.Int) cols))
                tables;
              db)
            fed
        in
        let sql =
          Printf.sprintf "USE %s SELECT %s FROM %s%s" (String.concat " " dbs)
            proj_pat table_pat
            (match where_pat with
            | Some w -> Printf.sprintf " WHERE %s = 1" w
            | None -> "")
        in
        match E.expand gdd (Msql.Mparser.parse_query sql) with
        | exception E.Error m -> Error m
        | E.Global _ | E.Transfer _ -> Ok []
        | E.Replicated elems ->
            Ok
              (List.map
                 (fun (el : E.elementary) ->
                   (el.E.edb, List.map Sqlfront.Sql_pp.stmt_to_string el.E.stmts))
                 elems)
      in
      build () = build ())

let () =
  Alcotest.run "expand"
    [
      ( "let",
        [
          Alcotest.test_case "substitution" `Quick test_let_substitution;
          Alcotest.test_case "ambiguous binding" `Quick test_let_ambiguous_binding;
          Alcotest.test_case "bad column" `Quick test_let_bad_column;
          Alcotest.test_case "substitution_for" `Quick test_substitution_for;
        ] );
      ( "patterns",
        [
          Alcotest.test_case "implicit column" `Quick test_implicit_column_pattern;
          Alcotest.test_case "table pattern update" `Quick test_table_pattern_update;
          Alcotest.test_case "discard non-pertinent" `Quick test_disambiguation_discards;
          Alcotest.test_case "no pertinent db" `Quick
            (check_not_pertinent "USE avis national SELECT x FROM nonexistent"
               "no table matching nonexistent in avis; no table matching \
                nonexistent in national");
          Alcotest.test_case "no pertinent db names the column" `Quick
            (check_not_pertinent "USE avis SELECT nosuchcol FROM cars"
               "column nosuchcol not present in avis");
          Alcotest.test_case "multi-table pattern" `Quick test_pattern_multiple_tables_same_db;
          Alcotest.test_case "ambiguous predicate" `Quick test_ambiguous_pattern_in_predicate;
          Alcotest.test_case "projection expansion" `Quick test_pattern_expands_in_projection;
        ] );
      ( "optional",
        [
          Alcotest.test_case "dropped when missing" `Quick test_optional_column_dropped;
          Alcotest.test_case "rejected in predicate" `Quick test_optional_outside_projection_rejected;
          Alcotest.test_case "all optional missing" `Quick test_all_projections_optional_and_missing;
        ] );
      ( "statements",
        [
          Alcotest.test_case "subquery" `Quick test_subquery_rewritten;
          Alcotest.test_case "create replicates" `Quick test_create_table_replicates;
          Alcotest.test_case "drop pattern" `Quick test_drop_pattern;
          Alcotest.test_case "db-qualified dml" `Quick test_db_qualified_dml;
        ] );
      ( "global",
        [
          Alcotest.test_case "detected" `Quick test_global_detected;
          Alcotest.test_case "unqualified unique" `Quick test_global_unqualified_unique;
          Alcotest.test_case "scope violation" `Quick test_global_scope_violation;
          Alcotest.test_case "rejects patterns" `Quick test_global_rejects_patterns;
        ] );
      ( "errors",
        [ Alcotest.test_case "unknown db" `Quick test_unknown_db_in_scope ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_elementaries_are_executable; prop_expansion_deterministic ] );
    ]
