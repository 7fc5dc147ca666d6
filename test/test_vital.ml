(* Exhaustive outcome matrices for the VITAL designators (§3.2.1) and
   compensation (§3.3) — every execution path of the paper's case analyses,
   driven by failure injection. *)
open Sqlcore
module F = Msql.Fixtures
module M = Msql.Msession
module D = Narada.Dol_ast
module Inject = Ldbms.Failure_injector
module World = Netsim.World
module Engine = Narada.Engine
module Trace = Narada.Trace

let inject fx db point =
  Inject.fail_next
    (Narada.Directory.find fx.F.directory db).Narada.Service.injector point

let exec fx sql =
  match M.exec fx.F.session sql with
  | Ok r -> r
  | Error m -> Alcotest.fail ("MSQL error: " ^ m)

let update_report fx sql =
  match exec fx sql with
  | M.Update_report { outcome; details; _ } -> (outcome, details)
  | r -> Alcotest.fail ("expected update report, got " ^ M.result_to_string r)

let status details db =
  match List.find_opt (fun r -> r.M.rdb = db) details with
  | Some r -> r.M.rstatus
  | None -> D.N

let rate_101 fx =
  let flights = F.scan fx ~db:"continental" ~table:"flights" in
  List.find_map
    (fun row ->
      if Value.equal row.(0) (Value.Int 101) then Value.as_float row.(6) else None)
    (Relation.rows flights)
  |> Option.get

let united_301 fx =
  let flights = F.scan fx ~db:"united" ~table:"flight" in
  List.find_map
    (fun row ->
      if Value.equal row.(0) (Value.Int 301) then Value.as_float row.(6) else None)
    (Relation.rows flights)
  |> Option.get

let vital_update = {|
USE continental VITAL delta united VITAL
UPDATE flight%
SET rate% = rate% * 1.1
WHERE sour% = 'Houston' AND dest% = 'San Antonio'
|}

let comp_update = {|
USE continental VITAL delta united VITAL
UPDATE flight%
SET rate% = rate% * 1.1
WHERE sour% = 'Houston' AND dest% = 'San Antonio'
COMP continental
UPDATE flights
SET rate = rate / 1.1
WHERE source = 'Houston' AND destination = 'San Antonio'
|}

let check_float name expected actual =
  Alcotest.(check (float 1e-6)) name expected actual

(* ---- E3: all engines 2PC ----------------------------------------------------- *)

let test_all_prepared_commits () =
  let fx = F.make () in
  let outcome, details = update_report fx vital_update in
  Alcotest.(check bool) "success" true (outcome = M.Success);
  Alcotest.(check bool) "cont C" true (status details "continental" = D.C);
  check_float "continental raised" 110.0 (rate_101 fx);
  check_float "united raised" 104.5 (united_301 fx)

let test_vital_execute_failure_aborts_all_vitals () =
  let fx = F.make () in
  inject fx "united" Inject.At_execute;
  let outcome, details = update_report fx vital_update in
  Alcotest.(check bool) "aborted" true (outcome = M.Aborted);
  Alcotest.(check bool) "cont rolled back" true (status details "continental" = D.A);
  Alcotest.(check bool) "united aborted" true (status details "united" = D.A);
  (* delta is NON VITAL: it committed independently *)
  Alcotest.(check bool) "delta committed" true (status details "delta" = D.C);
  check_float "continental unchanged" 100.0 (rate_101 fx);
  check_float "united unchanged" 95.0 (united_301 fx)

let test_vital_prepare_failure_aborts () =
  let fx = F.make () in
  inject fx "continental" Inject.At_prepare;
  let outcome, details = update_report fx vital_update in
  Alcotest.(check bool) "aborted" true (outcome = M.Aborted);
  Alcotest.(check bool) "united rolled back" true (status details "united" = D.A);
  check_float "united unchanged" 95.0 (united_301 fx)

let test_commit_window_gives_incorrect () =
  (* both vital subqueries prepared, but one fails during the second phase:
     the vital set splits — the execution the paper calls incorrect *)
  let fx = F.make () in
  inject fx "united" Inject.At_commit;
  let outcome, details = update_report fx vital_update in
  Alcotest.(check bool) "incorrect" true (outcome = M.Incorrect);
  Alcotest.(check bool) "cont committed" true (status details "continental" = D.C);
  Alcotest.(check bool) "united aborted" true (status details "united" = D.A);
  check_float "continental raised" 110.0 (rate_101 fx);
  check_float "united unchanged" 95.0 (united_301 fx)

let test_non_vital_failure_is_still_success () =
  let fx = F.make () in
  inject fx "delta" Inject.At_execute;
  let outcome, details = update_report fx vital_update in
  Alcotest.(check bool) "success despite delta" true (outcome = M.Success);
  Alcotest.(check bool) "delta aborted" true (status details "delta" = D.A)

let test_all_non_vital_always_successful () =
  let fx = F.make () in
  inject fx "continental" Inject.At_execute;
  inject fx "delta" Inject.At_execute;
  inject fx "united" Inject.At_execute;
  let plain = {|
USE continental delta united
UPDATE flight% SET rate% = rate% * 1.1
WHERE sour% = 'Houston' AND dest% = 'San Antonio'
|} in
  let outcome, _ = update_report fx plain in
  Alcotest.(check bool) "always successful (§3.2.1)" true (outcome = M.Success)

(* ---- E4: continental autocommit-only, with COMP (§3.3 four paths) ------------- *)

let autocommit_cont = [ ("continental", Ldbms.Capabilities.sybase_like) ]

let test_e4_path1_both_ok () =
  (* continental committed, united prepared -> commit united: success *)
  let fx = F.make ~caps:autocommit_cont () in
  let outcome, details = update_report fx comp_update in
  Alcotest.(check bool) "success" true (outcome = M.Success);
  Alcotest.(check bool) "cont C" true (status details "continental" = D.C);
  Alcotest.(check bool) "united C" true (status details "united" = D.C);
  check_float "continental raised" 110.0 (rate_101 fx);
  check_float "united raised" 104.5 (united_301 fx)

let test_e4_path2_united_aborts_cont_compensated () =
  let fx = F.make ~caps:autocommit_cont () in
  inject fx "united" Inject.At_execute;
  let outcome, details = update_report fx comp_update in
  Alcotest.(check bool) "aborted" true (outcome = M.Aborted);
  Alcotest.(check bool) "cont compensated" true (status details "continental" = D.X);
  Alcotest.(check bool) "united aborted" true (status details "united" = D.A);
  (* the compensation divided the rate back *)
  check_float "continental compensated" 100.0 (rate_101 fx);
  check_float "united unchanged" 95.0 (united_301 fx)

let test_e4_path3_cont_aborts_united_rolled_back () =
  let fx = F.make ~caps:autocommit_cont () in
  inject fx "continental" Inject.At_execute;
  let outcome, details = update_report fx comp_update in
  Alcotest.(check bool) "aborted" true (outcome = M.Aborted);
  Alcotest.(check bool) "cont aborted" true (status details "continental" = D.A);
  Alcotest.(check bool) "united rolled back" true (status details "united" = D.A);
  check_float "continental unchanged" 100.0 (rate_101 fx);
  check_float "united unchanged" 95.0 (united_301 fx)

let test_e4_path4_both_abort () =
  let fx = F.make ~caps:autocommit_cont () in
  inject fx "continental" Inject.At_execute;
  inject fx "united" Inject.At_execute;
  let outcome, details = update_report fx comp_update in
  Alcotest.(check bool) "aborted" true (outcome = M.Aborted);
  Alcotest.(check bool) "cont A" true (status details "continental" = D.A);
  Alcotest.(check bool) "united A" true (status details "united" = D.A);
  check_float "continental unchanged" 100.0 (rate_101 fx)

let test_two_autocommit_vitals_refused_without_comp () =
  (* §3.3: two or more VITAL databases without 2PC -> refuse *)
  let caps =
    [ ("continental", Ldbms.Capabilities.sybase_like);
      ("united", Ldbms.Capabilities.sybase_like) ]
  in
  let fx = F.make ~caps () in
  match M.exec fx.F.session vital_update with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected refusal"

let test_single_autocommit_vital_allowed () =
  (* with exactly one vital database the commit decision is that
     database's own: no compensation needed *)
  let fx = F.make ~caps:autocommit_cont () in
  let single = {|
USE continental VITAL delta
UPDATE flight% SET rate% = rate% * 1.1
WHERE sour% = 'Houston' AND dest% = 'San Antonio'
|} in
  let outcome, _ = update_report fx single in
  Alcotest.(check bool) "success" true (outcome = M.Success)

(* ---- vital retrieval ------------------------------------------------------------ *)

let test_vital_retrieval_failure_aborts_query () =
  let fx = F.make () in
  Netsim.World.set_down fx.F.world "site1" true;
  let sql = {|
USE continental VITAL delta
SELECT %nu FROM flight%
|} in
  match M.exec fx.F.session sql with
  | Error m ->
      Alcotest.(check bool) "names the db" true
        (Astring_contains.contains m "continental")
  | Ok _ -> Alcotest.fail "expected abort"

let test_non_vital_retrieval_partial_result () =
  let fx = F.make () in
  Netsim.World.set_down fx.F.world "site1" true;
  let sql = "USE continental delta SELECT %nu FROM flight%" in
  match exec fx sql with
  | M.Multitable mt ->
      Alcotest.(check (list string)) "delta part only" [ "delta" ]
        (Msql.Multitable.databases mt)
  | r -> Alcotest.fail ("expected multitable, got " ^ M.result_to_string r)

(* ---- the 2PC second phase in virtual time ---- *)

(* three 2PC sites with distinct pure latencies and zero per-byte cost,
   so every message costs exactly the remote site's latency *)
let graded_world () =
  let world = World.create () in
  let dir = Narada.Directory.create () in
  List.iter
    (fun (svc, site, lat) ->
      World.add_site world
        (Netsim.Site.make ~latency_ms:lat ~per_byte_ms:0.0 site);
      let db = Ldbms.Database.create svc in
      Ldbms.Database.load db ~name:"flights"
        [ Schema.column "flnu" Ty.Int; Schema.column "rate" Ty.Float ]
        [ [| Value.Int 1; Value.Float 100.0 |] ];
      Narada.Directory.register dir
        (Narada.Service.make ~site ~caps:Ldbms.Capabilities.ingres_like db))
    [ ("alpha", "fast", 10.0); ("beta", "mid", 20.0); ("gamma", "slow", 40.0) ];
  (world, dir)

let e3_shape_program =
  {|
DOLBEGIN
  OPEN alpha AT fast AS c1;
  OPEN beta AT mid AS c2;
  OPEN gamma AT slow AS c3;
  PARBEGIN
    TASK T1 NOCOMMIT FOR c1 { UPDATE flights SET rate = rate * 1.1 } ENDTASK;
    TASK T2 NOCOMMIT FOR c2 { UPDATE flights SET rate = rate * 1.1 } ENDTASK;
    TASK T3 NOCOMMIT FOR c3 { UPDATE flights SET rate = rate * 1.1 } ENDTASK;
  PAREND;
  IF (T1=P) AND (T2=P) AND (T3=P) THEN
  BEGIN COMMIT T1, T2, T3; DOLSTATUS = 0; END;
  CLOSE c1 c2 c3;
DOLEND
|}

let commit_phase_ms () =
  let world, dir = graded_world () in
  let events = ref [] in
  (match
     Engine.run_text
       ~on_trace:(fun e -> events := e :: !events)
       ~directory:dir ~world e3_shape_program
   with
  | Ok o -> Alcotest.(check int) "committed" 0 o.Engine.dolstatus
  | Error m -> Alcotest.fail m);
  let events = List.rev !events in
  let decision_at =
    match
      List.find_opt
        (fun e ->
          match e.Trace.kind with
          | Trace.Decision { verdict = Trace.Commit; _ } -> true
          | _ -> false)
        events
    with
    | Some e -> e.Trace.at_ms
    | None -> Alcotest.fail "no commit decision event"
  in
  let last_c =
    List.fold_left
      (fun acc e ->
        match e.Trace.kind with
        | Trace.Status { status = D.C; _ } ->
            max acc e.Trace.at_ms
        | _ -> acc)
      decision_at events
  in
  last_c -. decision_at

(* each commit verb is a round trip of 2 x latency; run in parallel the
   phase costs the slowest site's 80 ms, not the serial 140 ms *)
let test_commit_phase_is_max_of_branches () =
  let phase = commit_phase_ms () in
  Alcotest.(check (float 1e-6)) "phase = slowest round trip" 80.0 phase;
  Alcotest.(check bool) "not the serial sum" true (phase < 140.0)

(* ---- P2: 2PC cost vs vital-set size (§3.2.2) ------------------------------- *)

(* A 6-airline fleet update with the first k databases VITAL: a non-empty
   vital set adds one parallel commit round (10 ms) whatever its size, and
   two messages (the commit verb and its ack) per vital database. *)
let fleet_update_traffic ~k =
  let n = 6 in
  let fx = F.airline_fleet ~n () in
  let dbs =
    List.init n (fun i ->
        let name = Printf.sprintf "airline%d" (i + 1) in
        if i < k then name ^ " VITAL" else name)
  in
  World.reset_clock fx.F.world;
  World.reset_stats fx.F.world;
  ignore
    (exec fx
       (Printf.sprintf
          "USE %s UPDATE flights SET rate = rate * 1.1 WHERE source = 'Houston'"
          (String.concat " " dbs)));
  ( Printf.sprintf "%.2f" (World.now_ms fx.F.world),
    (World.stats fx.F.world).World.messages )

let test_vital_set_cost () =
  Alcotest.(check (pair string int)) "k=0" ("30.02", 36) (fleet_update_traffic ~k:0);
  for k = 1 to 6 do
    Alcotest.(check (pair string int))
      (Printf.sprintf "k=%d" k)
      ("40.02", 36 + (2 * k))
      (fleet_update_traffic ~k)
  done

let () =
  Alcotest.run "vital"
    [
      ( "E3 two-phase vital set",
        [
          Alcotest.test_case "all prepared commits" `Quick test_all_prepared_commits;
          Alcotest.test_case "execute failure" `Quick test_vital_execute_failure_aborts_all_vitals;
          Alcotest.test_case "prepare failure" `Quick test_vital_prepare_failure_aborts;
          Alcotest.test_case "commit window incorrect" `Quick test_commit_window_gives_incorrect;
          Alcotest.test_case "non-vital failure ok" `Quick test_non_vital_failure_is_still_success;
          Alcotest.test_case "all non-vital" `Quick test_all_non_vital_always_successful;
          Alcotest.test_case "commit phase is max of branches" `Quick
            test_commit_phase_is_max_of_branches;
          Alcotest.test_case "P2 cost vs vital-set size" `Quick
            test_vital_set_cost;
        ] );
      ( "E4 compensation paths",
        [
          Alcotest.test_case "path 1: both ok" `Quick test_e4_path1_both_ok;
          Alcotest.test_case "path 2: compensate" `Quick test_e4_path2_united_aborts_cont_compensated;
          Alcotest.test_case "path 3: rollback" `Quick test_e4_path3_cont_aborts_united_rolled_back;
          Alcotest.test_case "path 4: both abort" `Quick test_e4_path4_both_abort;
          Alcotest.test_case "refusal without comp" `Quick test_two_autocommit_vitals_refused_without_comp;
          Alcotest.test_case "single autocommit vital" `Quick test_single_autocommit_vital_allowed;
        ] );
      ( "vital retrieval",
        [
          Alcotest.test_case "vital failure aborts" `Quick test_vital_retrieval_failure_aborts_query;
          Alcotest.test_case "partial multitable" `Quick test_non_vital_retrieval_partial_result;
        ] );
    ]
