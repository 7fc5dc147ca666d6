(* Interdatabase triggers: a condition on one database drives an action on
   another (§2 lists the feature; syntax and firing rules are this
   implementation's, documented in DESIGN.md). *)
open Sqlcore
module F = Msql.Fixtures
module M = Msql.Msession

let exec fx sql =
  match M.exec fx.F.session sql with
  | Ok r -> r
  | Error m -> Alcotest.fail ("MSQL error: " ^ m)

(* when avis runs out of available cars, lower national's standards:
   mark rented vehicles available again *)
let make_trigger = {|
CREATE TRIGGER restock ON avis
WHEN SELECT code FROM cars WHERE carst = 'available' AND rate > 100
DO USE national UPDATE vehicle SET vstat = 'available' WHERE vstat = 'rented'
|}

let test_create_and_list () =
  let fx = F.make () in
  (match exec fx make_trigger with
  | M.Info _ -> ()
  | _ -> Alcotest.fail "expected info");
  Alcotest.(check int) "registered" 1 (List.length (M.triggers fx.F.session));
  match M.exec fx.F.session make_trigger with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate trigger must be rejected"

let test_drop () =
  let fx = F.make () in
  ignore (exec fx make_trigger);
  (match exec fx "DROP TRIGGER restock" with
  | M.Info _ -> ()
  | _ -> Alcotest.fail "expected info");
  Alcotest.(check int) "gone" 0 (List.length (M.triggers fx.F.session));
  match M.exec fx.F.session "DROP TRIGGER restock" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "double drop must fail"

let test_unknown_db_rejected () =
  let fx = F.make () in
  match
    M.exec fx.F.session
      "CREATE TRIGGER t ON nowhere WHEN SELECT a FROM b DO USE avis UPDATE cars SET rate = 1"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown monitored db"

let test_fires_on_condition () =
  let fx = F.make () in
  ignore (exec fx make_trigger);
  (* raise rates: afterwards avis has an available car over 100 -> fires *)
  ignore (exec fx "USE avis UPDATE cars SET rate = rate * 3 WHERE carst = 'available'");
  let vehicles = F.scan fx ~db:"national" ~table:"vehicle" in
  Alcotest.(check bool) "national restocked" true
    (List.for_all
       (fun row -> Value.equal row.(2) (Value.Str "available"))
       (Relation.rows vehicles));
  let log = M.trigger_log fx.F.session in
  Alcotest.(check bool) "fired logged" true
    (List.exists (fun m -> Astring_contains.contains m "restock fired") log);
  Alcotest.(check bool) "action logged" true
    (List.exists (fun m -> Astring_contains.contains m "action completed") log)

let test_does_not_fire_when_condition_empty () =
  let fx = F.make () in
  ignore (exec fx make_trigger);
  (* lower rates: no available car above 100 -> no firing *)
  ignore (exec fx "USE avis UPDATE cars SET rate = rate - 1 WHERE carst = 'available'");
  Alcotest.(check (list string)) "no log" [] (M.trigger_log fx.F.session);
  let vehicles = F.scan fx ~db:"national" ~table:"vehicle" in
  Alcotest.(check bool) "rented vehicle untouched" true
    (List.exists
       (fun row -> Value.equal row.(2) (Value.Str "rented"))
       (Relation.rows vehicles))

let test_does_not_fire_on_other_db_updates () =
  let fx = F.make () in
  ignore (exec fx make_trigger);
  (* an update on continental must not evaluate the avis trigger *)
  ignore (exec fx "USE continental UPDATE flights SET rate = 999");
  Alcotest.(check (list string)) "no firing" [] (M.trigger_log fx.F.session)

let test_does_not_fire_on_retrieval () =
  let fx = F.make () in
  ignore (exec fx make_trigger);
  ignore (exec fx "USE avis SELECT code FROM cars");
  Alcotest.(check (list string)) "reads don't fire" [] (M.trigger_log fx.F.session)

let test_cascade_depth_limit () =
  let fx = F.make () in
  (* two triggers feeding each other through avis and national *)
  ignore
    (exec fx
       {|CREATE TRIGGER ping ON avis
         WHEN SELECT code FROM cars WHERE rate > 0
         DO USE national UPDATE vehicle SET vty = vty|});
  ignore
    (exec fx
       {|CREATE TRIGGER pong ON national
         WHEN SELECT vcode FROM vehicle
         DO USE avis UPDATE cars SET cartype = cartype|});
  ignore (exec fx "USE avis UPDATE cars SET rate = rate + 1");
  let log = M.trigger_log fx.F.session in
  Alcotest.(check bool) "depth limit reported" true
    (List.exists (fun m -> Astring_contains.contains m "depth limit") log)

let test_trigger_action_failure_logged () =
  let fx = F.make () in
  ignore
    (exec fx
       {|CREATE TRIGGER bad ON avis
         WHEN SELECT code FROM cars
         DO USE avis UPDATE cars SET nonexistent = 1|});
  ignore (exec fx "USE avis UPDATE cars SET rate = rate + 1");
  let log = M.trigger_log fx.F.session in
  Alcotest.(check bool) "failure logged" true
    (List.exists (fun m -> Astring_contains.contains m "action failed") log)

let test_fires_after_multitransaction () =
  let fx = F.make () in
  ignore
    (exec fx
       {|CREATE TRIGGER seatwatch ON continental
         WHEN SELECT seatnu FROM f838 WHERE seatstatus = 'TAKEN' AND clientname = 'wenders'
         DO USE avis UPDATE cars SET client = 'notified' WHERE carst = 'rented'|});
  ignore
    (exec fx
       {|BEGIN MULTITRANSACTION
           USE continental
           UPDATE f838 SET seatstatus = 'TAKEN', clientname = 'wenders'
           WHERE seatnu = 2;
         COMMIT
           continental
         END MULTITRANSACTION|});
  let cars = F.scan fx ~db:"avis" ~table:"cars" in
  Alcotest.(check bool) "action applied" true
    (List.exists
       (fun row -> Value.equal row.(6) (Value.Str "notified"))
       (Relation.rows cars))

(* the stepped path fires triggers too, and a repeated [finish] neither
   re-interprets nor fires again *)
let test_fires_on_stepped_path () =
  let fx = F.make () in
  ignore (exec fx make_trigger);
  let prep =
    match
      M.prepare_text fx.F.session
        "USE avis UPDATE cars SET rate = rate * 3 WHERE carst = 'available'"
    with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  let first = M.finish prep in
  let fired () =
    List.length
      (List.filter
         (fun m -> Astring_contains.contains m "restock fired")
         (M.trigger_log fx.F.session))
  in
  Alcotest.(check int) "fired once" 1 (fired ());
  let second = M.finish prep in
  Alcotest.(check bool) "same result" true (first == second);
  Alcotest.(check int) "no second firing" 1 (fired ());
  let vehicles = F.scan fx ~db:"national" ~table:"vehicle" in
  Alcotest.(check bool) "national restocked" true
    (List.for_all
       (fun row -> Value.equal row.(2) (Value.Str "available"))
       (Relation.rows vehicles))

let () =
  Alcotest.run "triggers"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "create/list" `Quick test_create_and_list;
          Alcotest.test_case "drop" `Quick test_drop;
          Alcotest.test_case "unknown db" `Quick test_unknown_db_rejected;
        ] );
      ( "firing",
        [
          Alcotest.test_case "fires" `Quick test_fires_on_condition;
          Alcotest.test_case "condition empty" `Quick test_does_not_fire_when_condition_empty;
          Alcotest.test_case "other db" `Quick test_does_not_fire_on_other_db_updates;
          Alcotest.test_case "retrieval" `Quick test_does_not_fire_on_retrieval;
          Alcotest.test_case "cascade limit" `Quick test_cascade_depth_limit;
          Alcotest.test_case "action failure" `Quick test_trigger_action_failure_logged;
          Alcotest.test_case "after mtx" `Quick test_fires_after_multitransaction;
          Alcotest.test_case "stepped path, once" `Quick
            test_fires_on_stepped_path;
        ] );
    ]
