(* Reproduction of every worked example in the paper, with data assertions.
   Experiment ids E1..E6 refer to DESIGN.md's experiment index. *)
open Sqlcore
module F = Msql.Fixtures
module M = Msql.Msession
module D = Narada.Dol_ast

let value = Alcotest.testable Value.pp Value.equal

let exec fx sql =
  match M.exec fx.F.session sql with
  | Ok r -> r
  | Error m -> Alcotest.fail ("MSQL error: " ^ m)

let scan fx db table = F.scan fx ~db ~table

(* virtual ms ("%.2f"), messages and bytes of one statement on a fresh
   federation *)
let traffic ?caps sql =
  let fx = F.make ?caps () in
  Netsim.World.reset_stats fx.F.world;
  Netsim.World.reset_clock fx.F.world;
  ignore (exec fx sql);
  let st = Netsim.World.stats fx.F.world in
  ( Printf.sprintf "%.2f" (Netsim.World.now_ms fx.F.world),
    st.Netsim.World.messages,
    st.Netsim.World.bytes_moved )

let check_traffic ?caps expected sql () =
  Alcotest.(check (triple string int int)) "virt ms, msgs, bytes" expected
    (traffic ?caps sql)

let column rel name =
  let idx =
    match Schema.find_index (Relation.schema rel) name with
    | Some i -> i
    | None -> Alcotest.failf "no column %s" name
  in
  List.map (fun row -> row.(idx)) (Relation.rows rel)

(* ---- E1: §2 multiple SELECT ------------------------------------------------- *)

let e1_query = {|
USE avis national
LET car.type.status BE cars.cartype.carst vehicle.vty.vstat
SELECT %code, type, ~rate
FROM car
WHERE status = 'available'
|}

let test_e1_multitable_shape () =
  let fx = F.make () in
  match exec fx e1_query with
  | M.Multitable mt ->
      Alcotest.(check (list string)) "two parts" [ "avis"; "national" ]
        (Msql.Multitable.databases mt);
      let avis = Option.get (Msql.Multitable.find mt "avis") in
      let national = Option.get (Msql.Multitable.find mt "national") in
      (* avis part has the optional rate column, national's does not *)
      Alcotest.(check (list string)) "avis columns" [ "code"; "cartype"; "rate" ]
        (Schema.names (Relation.schema avis));
      Alcotest.(check (list string)) "national columns" [ "vcode"; "vty" ]
        (Schema.names (Relation.schema national));
      Alcotest.(check int) "avis rows" 3 (Relation.cardinality avis);
      Alcotest.(check int) "national rows" 2 (Relation.cardinality national)
  | _ -> Alcotest.fail "expected a multitable"

let test_e1_only_available_cars () =
  let fx = F.make () in
  match exec fx e1_query with
  | M.Multitable mt ->
      let avis = Option.get (Msql.Multitable.find mt "avis") in
      List.iter
        (fun code ->
          Alcotest.(check bool) "available only" true
            (List.mem code [ Value.Int 1; Value.Int 3; Value.Int 4 ]))
        (column avis "code")
  | _ -> Alcotest.fail "expected a multitable"

(* ---- E2: §3.2 multiple update ------------------------------------------------ *)

let e2_query = {|
USE continental delta united
UPDATE flight%
SET rate% = rate% * 1.1
WHERE sour% = 'Houston' AND dest% = 'San Antonio'
|}

let test_e2_updates_all_three () =
  let fx = F.make () in
  (match exec fx e2_query with
  | M.Update_report { outcome = M.Success; details; dolstatus = 0; _ } ->
      Alcotest.(check int) "three dbs" 3 (List.length details);
      List.iter
        (fun r -> Alcotest.(check int) "two rows each" 2 (Option.get r.M.raffected))
        details
  | M.Update_report _ -> Alcotest.fail "expected success"
  | _ -> Alcotest.fail "expected an update report");
  (* continental flight 101 Houston->San Antonio was 100.0 *)
  let flights = scan fx "continental" "flights" in
  let rate_of n =
    List.find_map
      (fun row -> if Value.equal row.(0) (Value.Int n) then Some row.(6) else None)
      (Relation.rows flights)
    |> Option.get
  in
  (match rate_of 101 with
  | Value.Float f -> Alcotest.(check (float 1e-6)) "raised 10%" 110.0 f
  | _ -> Alcotest.fail "rate type");
  (* Houston->Dallas untouched *)
  (match rate_of 103 with
  | Value.Float f -> Alcotest.(check (float 1e-6)) "untouched" 80.0 f
  | _ -> Alcotest.fail "rate type");
  (* united's differently-named rates column also updated: flight 301 was 95 *)
  let uflights = scan fx "united" "flight" in
  match
    List.find_map
      (fun row -> if Value.equal row.(0) (Value.Int 301) then Some row.(6) else None)
      (Relation.rows uflights)
  with
  | Some (Value.Float f) -> Alcotest.(check (float 1e-6)) "united raised" 104.5 f
  | _ -> Alcotest.fail "united flight missing"

(* ---- E3: §3.2.1 vital update --------------------------------------------------- *)

let e3_query = {|
USE continental VITAL delta united VITAL
UPDATE flight%
SET rate% = rate% * 1.1
WHERE sour% = 'Houston' AND dest% = 'San Antonio'
|}

let test_e3_success_path () =
  let fx = F.make () in
  match exec fx e3_query with
  | M.Update_report { outcome = M.Success; details; _ } ->
      List.iter
        (fun r ->
          Alcotest.(check bool) "all committed" true (r.M.rstatus = D.C))
        details
  | _ -> Alcotest.fail "expected success"

(* ---- E6: §4.3 generated DOL program --------------------------------------------- *)

let test_e6_translator_output () =
  let fx = F.make () in
  (* golden text checks the paper-shaped §4.3 program; the dataflow scheduler
     would regroup the opens into an extra PARBEGIN wave *)
  M.set_dataflow fx.F.session false;
  match M.translate fx.F.session e3_query with
  | Error m -> Alcotest.fail m
  | Ok prog ->
      let expected = "DOLBEGIN\n\
                      \  OPEN continental AT site1 AS continental;\n\
                      \  OPEN delta AT site2 AS delta;\n\
                      \  OPEN united AT site3 AS united;\n\
                      \  PARBEGIN\n\
                      \    TASK t_continental NOCOMMIT FOR continental\n\
                      \      { UPDATE flights SET rate = (rate * 1.1) WHERE ((source = 'Houston') AND (destination = 'San Antonio')) }\n\
                      \    ENDTASK;\n\
                      \    TASK t_delta FOR delta\n\
                      \      { UPDATE flight SET rate = (rate * 1.1) WHERE ((source = 'Houston') AND (dest = 'San Antonio')) }\n\
                      \    ENDTASK;\n\
                      \    TASK t_united NOCOMMIT FOR united\n\
                      \      { UPDATE flight SET rates = (rates * 1.1) WHERE ((sour = 'Houston') AND (dest = 'San Antonio')) }\n\
                      \    ENDTASK;\n\
                      \  PAREND;\n\
                      \  IF (t_continental=P) AND (t_united=P) THEN\n\
                      \  BEGIN\n\
                      \    COMMIT t_continental, t_united;\n\
                      \    DOLSTATUS = 0; -- return code\n\
                      \  END;\n\
                      \  ELSE\n\
                      \  BEGIN\n\
                      \    ABORT t_continental, t_united;\n\
                      \    DOLSTATUS = 1; -- return code\n\
                      \  END;\n\
                      \  CLOSE continental delta united;\n\
                      DOLEND\n"
      in
      Alcotest.(check string) "golden DOL program" expected
        (Narada.Dol_pp.program_to_string prog);
      (* and the printed program must itself parse *)
      ignore (Narada.Dol_parser.parse (Narada.Dol_pp.program_to_string prog))

(* ---- E4: §3.3 compensation ------------------------------------------------------- *)

let e4_query = {|
USE continental VITAL delta united VITAL
UPDATE flight%
SET rate% = rate% * 1.1
WHERE sour% = 'Houston' AND dest% = 'San Antonio'
COMP continental
UPDATE flights
SET rate = rate / 1.1
WHERE source = 'Houston' AND destination = 'San Antonio'
|}

let autocommit_continental =
  [ ("continental", Ldbms.Capabilities.sybase_like) ]

let test_e4_requires_comp () =
  let fx = F.make ~caps:autocommit_continental () in
  (* without COMP, the prototype refuses the query (§3.3) *)
  match M.exec fx.F.session e3_query with
  | Error m ->
      Alcotest.(check bool) "mentions COMP" true
        (Astring_contains.contains m "COMP")
  | Ok _ -> Alcotest.fail "expected refusal"

let test_e4_comp_allows_query () =
  let fx = F.make ~caps:autocommit_continental () in
  match exec fx e4_query with
  | M.Update_report { outcome = M.Success; _ } -> ()
  | r -> Alcotest.fail ("expected success, got " ^ M.result_to_string r)

(* ---- E5: §3.4 travel-agent multitransaction ---------------------------------------- *)

let e5_mtx = {|
BEGIN MULTITRANSACTION
  USE continental delta
  LET fltab.snu.sstat.clname BE
    f838.seatnu.seatstatus.clientname
    f747.snu.sstat.passname
  UPDATE fltab
  SET sstat = 'TAKEN', clname = 'wenders'
  WHERE snu = ( SELECT MIN(snu) FROM fltab WHERE sstat = 'FREE');
  USE avis national
  LET cartab.ccode.cstat BE
    cars.code.carst
    vehicle.vcode.vstat
  UPDATE cartab
  SET cstat = 'TAKEN', from = '07-04-64', to = '04-16-92', client = 'wenders'
  WHERE ccode = ( SELECT MIN(ccode) FROM cartab WHERE cstat = 'available');
COMMIT
  continental AND national
  delta AND avis
END MULTITRANSACTION
|}

let test_e5_first_state_preferred () =
  let fx = F.make () in
  (match exec fx e5_mtx with
  | M.Mtx_report { chosen = Some 0; incorrect = false; _ } -> ()
  | r -> Alcotest.fail ("expected first state, got " ^ M.result_to_string r));
  (* continental seat 2 (lowest FREE) now TAKEN by wenders *)
  let seats = scan fx "continental" "f838" in
  (match
     List.find_opt (fun r -> Value.equal r.(0) (Value.Int 2)) (Relation.rows seats)
   with
  | Some row ->
      Alcotest.check value "taken" (Value.Str "TAKEN") row.(2);
      Alcotest.check value "client" (Value.Str "wenders") row.(3)
  | None -> Alcotest.fail "seat 2 missing");
  (* delta seat 1 rolled back to FREE *)
  let dseats = scan fx "delta" "f747" in
  (match
     List.find_opt (fun r -> Value.equal r.(0) (Value.Int 1)) (Relation.rows dseats)
   with
  | Some row -> Alcotest.check value "delta rolled back" (Value.Str "FREE") row.(2)
  | None -> Alcotest.fail "delta seat missing");
  (* national vehicle 11 TAKEN, avis car 1 rolled back *)
  let vehicles = scan fx "national" "vehicle" in
  (match
     List.find_opt (fun r -> Value.equal r.(0) (Value.Int 11)) (Relation.rows vehicles)
   with
  | Some row -> Alcotest.check value "national taken" (Value.Str "TAKEN") row.(2)
  | None -> Alcotest.fail "vehicle 11 missing");
  let cars = scan fx "avis" "cars" in
  match
    List.find_opt (fun r -> Value.equal r.(0) (Value.Int 1)) (Relation.rows cars)
  with
  | Some row -> Alcotest.check value "avis rolled back" (Value.Str "available") row.(3)
  | None -> Alcotest.fail "car 1 missing"

let test_e5_falls_back_to_second_state () =
  let fx = F.make () in
  (* make continental's subquery fail: its site goes down *)
  Netsim.World.set_down fx.F.world "site1" true;
  match exec fx e5_mtx with
  | M.Mtx_report { chosen = Some 1; incorrect = false; details; _ } ->
      (* delta AND avis committed; national rolled back *)
      let status db =
        (List.find (fun r -> r.M.rdb = db) details).M.rstatus
      in
      Alcotest.(check bool) "delta committed" true (status "delta" = D.C);
      Alcotest.(check bool) "avis committed" true (status "avis" = D.C);
      Alcotest.(check bool) "national undone" true (status "national" = D.A)
  | r -> Alcotest.fail ("expected second state, got " ^ M.result_to_string r)

let test_e5_total_failure_aborts_all () =
  let fx = F.make () in
  Netsim.World.set_down fx.F.world "site1" true;
  (* continental down *)
  Netsim.World.set_down fx.F.world "site2" true;
  (* delta down: no acceptable state reachable *)
  (match exec fx e5_mtx with
  | M.Mtx_report { chosen = None; incorrect = false; _ } -> ()
  | r -> Alcotest.fail ("expected failure, got " ^ M.result_to_string r));
  (* nothing committed anywhere *)
  let cars = scan fx "avis" "cars" in
  List.iter
    (fun row ->
      Alcotest.(check bool) "no wenders" false
        (Value.equal row.(6) (Value.Str "wenders")))
    (Relation.rows cars)

let () =
  Alcotest.run "paper-examples"
    [
      ( "E1 select",
        [
          Alcotest.test_case "multitable shape" `Quick test_e1_multitable_shape;
          Alcotest.test_case "content" `Quick test_e1_only_available_cars;
          Alcotest.test_case "traffic" `Quick
            (check_traffic ("30.03", 12, 471) e1_query);
        ] );
      ( "E2 update",
        [
          Alcotest.test_case "all three airlines" `Quick test_e2_updates_all_three;
          Alcotest.test_case "traffic" `Quick
            (check_traffic ("30.02", 18, 671) e2_query);
        ] );
      ( "E3 vital",
        [
          Alcotest.test_case "success path" `Quick test_e3_success_path;
          Alcotest.test_case "traffic" `Quick
            (check_traffic ("40.03", 22, 735) e3_query);
        ] );
      ( "E6 translator",
        [ Alcotest.test_case "golden DOL" `Quick test_e6_translator_output ] );
      ( "E4 compensation",
        [
          Alcotest.test_case "refusal without COMP" `Quick test_e4_requires_comp;
          Alcotest.test_case "accepted with COMP" `Quick test_e4_comp_allows_query;
          Alcotest.test_case "traffic" `Quick
            (check_traffic ~caps:autocommit_continental ("40.03", 18, 671)
               e4_query);
        ] );
      ( "E5 multitransaction",
        [
          Alcotest.test_case "first state" `Quick test_e5_first_state_preferred;
          Alcotest.test_case "fallback state" `Quick test_e5_falls_back_to_second_state;
          Alcotest.test_case "total failure" `Quick test_e5_total_failure_aborts_all;
          (* the paper's full statement: its [from] and [to] assignments
             are part of the shipped UPDATE text *)
          Alcotest.test_case "traffic" `Quick
            (check_traffic ("70.04", 32, 1220) e5_mtx);
        ] );
    ]
