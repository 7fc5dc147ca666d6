module E = Msql.Expand
module Dc = Msql.Decompose
module G = Msql.Gdd
module S = Sqlfront.Ast
open Sqlcore

let gdd () =
  let g = G.create () in
  let col = Schema.column in
  G.import_database g ~db:"avis"
    [ ("cars",
       [ col "code" Ty.Int; col "cartype" Ty.Str; col "rate" Ty.Float;
         col "carst" Ty.Str ]) ];
  G.import_database g ~db:"national"
    [ ("vehicle", [ col "vcode" Ty.Int; col "vty" Ty.Str; col "vstat" Ty.Str ]) ];
  G.import_database g ~db:"hertz"
    [ ("autos", [ col "aid" Ty.Int; col "aty" Ty.Str ]);
      ("branches", [ col "bid" Ty.Int; col "city" Ty.Str ]) ];
  g

let global_of ?(g = gdd ()) sql =
  match E.expand g (Msql.Mparser.parse_query sql) with
  | E.Global { gselect; grefs } -> (gselect, grefs)
  | E.Replicated _ | E.Transfer _ -> Alcotest.fail "expected global query"

let plan_of ?g sql =
  let gselect, grefs = global_of ?g sql in
  Dc.decompose ~semijoin:true ~gselect ~grefs

let select_str s = Sqlfront.Sql_pp.select_to_string s

(* No cardinalities are imported here, so every table is priced at the
   default row count: shipping hertz's two-table subquery (a product of
   two default counts) costs far more than shipping avis.cars, and hertz
   coordinates. *)
let test_coordinator_priced () =
  let p =
    plan_of
      "USE avis national hertz SELECT a.aid FROM hertz.autos a, \
       hertz.branches b, avis.cars c WHERE a.aid = b.bid AND c.code = a.aid"
  in
  Alcotest.(check string) "hertz coordinates" "hertz" p.Dc.coordinator;
  Alcotest.(check int) "one shipped" 1 (List.length p.Dc.shipped);
  (* one alternative per coordinator: without statistics no reduction is
     priced; cheapest first, and the head is the plan *)
  Alcotest.(check (list string)) "alternatives, cheapest first"
    [ "hertz"; "avis" ]
    (List.map (fun a -> a.Dc.alt_coordinator) p.Dc.alternatives);
  match p.Dc.shipped with
  | [ s ] ->
      Alcotest.(check bool) "no statistics, no reduction" true
        (s.Dc.sj_gate = Dc.Sj_no_stats)
  | _ -> Alcotest.fail "one shipped expected"

(* with cardinalities the larger side coordinates, in either FROM order,
   and the result keeps the first FROM database's label *)
let test_coordinator_independent_of_from_order () =
  let g = gdd () in
  G.set_cardinality g ~db:"avis" ~table:"cars" 10;
  G.set_cardinality g ~db:"national" ~table:"vehicle" 5000;
  List.iter
    (fun (from, label) ->
      let p =
        plan_of ~g
          ("USE avis national SELECT c.code, v.vty FROM " ^ from
         ^ " WHERE c.code = v.vcode")
      in
      Alcotest.(check string) (from ^ ": national coordinates") "national"
        p.Dc.coordinator;
      Alcotest.(check string) (from ^ ": result label") label p.Dc.result_db)
    [
      ("avis.cars c, national.vehicle v", "avis");
      ("national.vehicle v, avis.cars c", "national");
    ]

(* the cost model reads each database's site: a slow site is a bad
   coordinator even when it holds the larger table *)
let test_slow_site_does_not_coordinate () =
  let g = gdd () in
  G.set_cardinality g ~db:"avis" ~table:"cars" 10;
  G.set_cardinality g ~db:"national" ~table:"vehicle" 5000;
  let gselect, grefs =
    global_of ~g
      "USE avis national SELECT c.code, v.vty FROM avis.cars c, \
       national.vehicle v WHERE c.code = v.vcode"
  in
  let site db =
    if db = "national" then Netsim.Site.make ~latency_ms:200.0 db
    else Netsim.Site.make db
  in
  let p = Dc.decompose_with ~site ~semijoin:true ~gselect ~grefs () in
  Alcotest.(check string) "avis coordinates" "avis" p.Dc.coordinator

(* an INSERT ... SELECT coordinated away from its target pays a MOVE of
   the result: of two near-equal sides, the target coordinates *)
let test_transfer_target_coordinates () =
  let g = gdd () in
  G.set_cardinality g ~db:"avis" ~table:"cars" 100;
  G.set_cardinality g ~db:"national" ~table:"vehicle" 100;
  let gselect, grefs =
    global_of ~g
      "USE avis national SELECT c.code FROM avis.cars c, national.vehicle \
       v WHERE c.code = v.vcode"
  in
  let coordinator target =
    (Dc.decompose_with ?target ~semijoin:true ~gselect ~grefs ()).Dc.coordinator
  in
  Alcotest.(check string) "no target: shipping cars is cheaper" "national"
    (coordinator None);
  Alcotest.(check string) "target avis" "avis" (coordinator (Some "avis"));
  Alcotest.(check string) "target national" "national"
    (coordinator (Some "national"))

let test_local_conjuncts_pushed () =
  let p =
    plan_of
      "USE avis national SELECT c.code, v.vcode FROM avis.cars c, \
       national.vehicle v WHERE c.carst = 'available' AND v.vstat = 'free' \
       AND c.cartype = v.vty"
  in
  (* equal sides tie on latency and bytes, and avis sorts first: national's
     subquery carries its local filter *)
  Alcotest.(check string) "coordinator" "avis" p.Dc.coordinator;
  (match p.Dc.shipped with
  | [ s ] ->
      Alcotest.(check string) "shipped db" "national" s.Dc.sdb;
      let sub = select_str s.Dc.subquery in
      Alcotest.(check bool) "local filter shipped" true
        (Astring_contains.contains sub "vstat");
      Alcotest.(check bool) "cross filter not shipped" false
        (Astring_contains.contains sub "cartype")
  | _ -> Alcotest.fail "one shipped expected");
  (* modified query applies the cross-database join and the coordinator filter *)
  let q' = select_str p.Dc.modified in
  Alcotest.(check bool) "join in Q'" true (Astring_contains.contains q' "v__vty");
  Alcotest.(check bool) "coord filter in Q'" true
    (Astring_contains.contains q' "carst");
  Alcotest.(check bool) "shipped filter gone from Q'" false
    (Astring_contains.contains q' "vstat")

let test_shipped_projects_only_used_columns () =
  let p =
    plan_of
      "USE avis national SELECT c.code FROM avis.cars c, national.vehicle v \
       WHERE c.cartype = v.vty"
  in
  match p.Dc.shipped with
  | [ s ] -> (
      match s.Dc.subquery.S.projections with
      | [ S.Proj_expr (S.Col { name = "vty"; _ }, Some "v__vty") ] -> ()
      | _ -> Alcotest.fail "only vty should ship")
  | _ -> Alcotest.fail "one shipped expected"

let test_unused_table_ships_constant () =
  let p =
    plan_of "USE avis national SELECT c.code FROM avis.cars c, national.vehicle v"
  in
  match p.Dc.shipped with
  | [ s ] -> (
      match s.Dc.subquery.S.projections with
      | [ S.Proj_expr (S.Lit (Value.Int 1), Some _) ] -> ()
      | _ -> Alcotest.fail "constant column expected")
  | _ -> Alcotest.fail "one shipped expected"

let test_single_db_no_shipping () =
  let p = plan_of "USE avis SELECT c.code FROM avis.cars c WHERE c.rate > 1" in
  Alcotest.(check int) "nothing shipped" 0 (List.length p.Dc.shipped);
  Alcotest.(check (list string)) "no cleanup" [] p.Dc.cleanup

let test_star_expansion () =
  let p =
    plan_of "USE avis national SELECT * FROM avis.cars c, national.vehicle v"
  in
  Alcotest.(check int) "all columns projected" 7
    (List.length p.Dc.modified.S.projections)

let test_subquery_rejected () =
  match
    plan_of
      "USE avis national SELECT c.code FROM avis.cars c, national.vehicle v \
       WHERE c.code = (SELECT MIN(vcode) FROM vehicle)"
  with
  | exception Dc.Error _ -> ()
  | _ -> Alcotest.fail "nested subquery must be rejected"

let test_duplicate_labels_rejected () =
  match
    plan_of "USE avis national SELECT x.code FROM avis.cars x, national.vehicle x"
  with
  | exception Dc.Error _ -> ()
  | _ -> Alcotest.fail "duplicate labels"

let test_ambiguous_column_rejected () =
  let g = gdd () in
  G.import_table g ~db:"national" ~table:"cars2"
    [ Schema.column "code" Ty.Int ];
  match
    (match
       E.expand g
         (Msql.Mparser.parse_query
            "USE avis national SELECT code FROM avis.cars, national.cars2")
     with
    | E.Global { gselect; grefs } -> Dc.decompose ~semijoin:true ~gselect ~grefs
    | E.Replicated _ | E.Transfer _ -> Alcotest.fail "expected global")
  with
  | exception Dc.Error _ -> ()
  | _ -> Alcotest.fail "ambiguous unqualified column"

let test_cleanup_lists_tmp_tables () =
  let p =
    plan_of
      "USE avis national hertz SELECT c.code FROM avis.cars c, \
       national.vehicle v, hertz.autos a WHERE c.code = v.vcode AND \
       v.vcode = a.aid"
  in
  Alcotest.(check int) "two temporaries" 2 (List.length p.Dc.cleanup)

let () =
  Alcotest.run "decompose"
    [
      ( "plans",
        [
          Alcotest.test_case "coordinator choice" `Quick test_coordinator_priced;
          Alcotest.test_case "independent of FROM order" `Quick
            test_coordinator_independent_of_from_order;
          Alcotest.test_case "slow site" `Quick test_slow_site_does_not_coordinate;
          Alcotest.test_case "transfer target" `Quick test_transfer_target_coordinates;
          Alcotest.test_case "conjunct placement" `Quick test_local_conjuncts_pushed;
          Alcotest.test_case "needed columns only" `Quick test_shipped_projects_only_used_columns;
          Alcotest.test_case "unused table constant" `Quick test_unused_table_ships_constant;
          Alcotest.test_case "single db" `Quick test_single_db_no_shipping;
          Alcotest.test_case "star expansion" `Quick test_star_expansion;
          Alcotest.test_case "cleanup" `Quick test_cleanup_lists_tmp_tables;
        ] );
      ( "errors",
        [
          Alcotest.test_case "subquery rejected" `Quick test_subquery_rejected;
          Alcotest.test_case "duplicate labels" `Quick test_duplicate_labels_rejected;
          Alcotest.test_case "ambiguous column" `Quick test_ambiguous_column_rejected;
        ] );
    ]
