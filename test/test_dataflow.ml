(* Differential testing of the dataflow scheduler (PR 10): every workload
   must leave byte-identical database state, task statuses and results
   whether the wave schedule is on or off — only the virtual clock may
   differ. The schedule regroups *consecutive* independent statements, so
   message order (and therefore every seeded loss draw) is preserved; the
   loss scenario below exercises exactly that invariant.

   The dataflow pass is the only DOL optimizer, so the structural cases
   (which statements may share a wave) and the engine-level equivalence
   of a serial program and its schedule live here too. *)
open Sqlcore
module D = Narada.Dol_ast
module Engine = Narada.Engine
module World = Netsim.World
module F = Msql.Fixtures
module M = Msql.Msession
module Metrics = Msql.Metrics

let contains = Astring_contains.contains

(* blank out virtual timings ("12.34 ms" -> "T ms"): latency is the one
   thing the scheduler is allowed to change *)
let scrub s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let is_t c = (c >= '0' && c <= '9') || c = '.' in
  let i = ref 0 in
  while !i < n do
    if is_t s.[!i] then begin
      let j = ref !i in
      while !j < n && is_t s.[!j] do incr j done;
      if !j + 2 < n && s.[!j] = ' ' && s.[!j + 1] = 'm' && s.[!j + 2] = 's'
      then (Buffer.add_string b "T ms"; i := !j + 3)
      else (Buffer.add_string b (String.sub s !i (!j - !i)); i := !j)
    end
    else (Buffer.add_char b s.[!i]; incr i)
  done;
  Buffer.contents b

let all_tables =
  [ ("continental", "flights"); ("continental", "f838"); ("delta", "flight");
    ("delta", "f747"); ("united", "flight"); ("avis", "cars");
    ("national", "vehicle") ]

let state_fingerprint ?(tables = all_tables) fx =
  String.concat "\n"
    (List.map
       (fun (db, table) ->
         Printf.sprintf "%s.%s:%s" db table
           (String.concat "|"
              (List.map
                 (fun r ->
                   String.concat "," (List.map Value.to_string (Row.to_list r)))
                 (Relation.rows (F.scan fx ~db ~table)))))
       tables)

let run_side ~make ~dataflow ~faults sqls =
  let fx = make () in
  M.set_dataflow fx.F.session dataflow;
  faults fx;
  let results =
    List.map
      (fun sql ->
        match M.exec fx.F.session sql with
        | Ok r -> scrub (M.result_to_string r)
        | Error m -> "error: " ^ m)
      sqls
  in
  let st = World.stats fx.F.world in
  (fx, results, st)

let check_differential ?(make = fun () -> F.make ()) ?tables ?messages
    ?(faults = fun _ -> ()) name sqls =
  let fx_off, r_off, st_off = run_side ~make ~dataflow:false ~faults sqls in
  let fx_on, r_on, st_on = run_side ~make ~dataflow:true ~faults sqls in
  List.iteri
    (fun k (a, b) ->
      Alcotest.(check string) (Printf.sprintf "%s: result %d" name k) a b)
    (List.combine r_off r_on);
  Alcotest.(check string)
    (name ^ ": byte-identical state")
    (state_fingerprint ?tables fx_off)
    (state_fingerprint ?tables fx_on);
  Alcotest.(check int) (name ^ ": same messages") st_off.World.messages
    st_on.World.messages;
  Alcotest.(check int) (name ^ ": same bytes") st_off.World.bytes_moved
    st_on.World.bytes_moved;
  Alcotest.(check int) (name ^ ": same losses") st_off.World.lost
    st_on.World.lost;
  Option.iter
    (fun n -> Alcotest.(check int) (name ^ ": messages") n st_on.World.messages)
    messages

(* ---- fixture workloads ------------------------------------------------- *)

let test_multiple_select () =
  check_differential "select"
    [ {|USE continental delta united avis national
        SELECT %nu FROM flight%|} ]

let test_vital_update () =
  check_differential "vital update"
    [
      {|USE continental VITAL delta united VITAL
        UPDATE flight% SET rate% = rate% * 1.1
        WHERE sour% = 'Houston' AND dest% = 'San Antonio'|};
      {|USE continental delta united
        SELECT %nu, rate% FROM flight%|};
    ]

let test_mtx () =
  check_differential "multitransaction"
    [
      {|
BEGIN MULTITRANSACTION
  USE continental delta
  LET fltab.snu.sstat.clname BE
    f838.seatnu.seatstatus.clientname
    f747.snu.sstat.passname
  UPDATE fltab
  SET sstat = 'TAKEN', clname = 'smith'
  WHERE snu = ( SELECT MIN(snu) FROM fltab WHERE sstat = 'FREE');
COMMIT
  continental AND delta
END MULTITRANSACTION
|};
    ]

let test_data_transfer () =
  check_differential "data transfer"
    [
      {|USE avis national
        INSERT INTO avis.cars (code, cartype, carst)
        SELECT v.vcode, v.vty, v.vstat FROM national.vehicle v|};
      {|USE avis SELECT code, carst FROM avis.cars|};
    ]

(* the transfer's target is its coordinator, so the join result is
   inserted in place after the other flights table is shipped in,
   unreduced: both schedules send the same 14 messages, none of them a
   MOVE from the coordinator to itself *)
let test_coordinator_target_transfer () =
  check_differential "coordinator-target transfer" ~messages:14
    ~make:(fun () -> F.airline_fleet ~flights_per_db:20 ~n:3 ())
    ~tables:[ ("airline1", "flights"); ("airline2", "flights") ]
    [
      {|USE airline1 airline2
        INSERT INTO airline1.flights (flnu, source, destination, rate)
        SELECT f.flnu + 1000, f.source, f.destination, g.rate
        FROM airline1.flights f, airline2.flights g
        WHERE f.source = g.source AND f.destination = g.destination
          AND g.rate < 200|};
    ]

(* ---- loss scenario ----------------------------------------------------- *)

(* a seeded lossy network forces retransmissions; because the schedule
   preserves message order, both sides must consume identical loss draws
   and land on identical state *)
let test_seeded_loss () =
  let faults fx = World.set_loss fx.F.world ~seed:42 ~prob:0.15 in
  check_differential ~faults "seeded loss"
    [
      {|USE continental VITAL delta united VITAL
        UPDATE flight% SET rate% = rate% * 1.1
        WHERE sour% = 'Houston' AND dest% = 'San Antonio'|};
      {|USE continental delta united avis national
        SELECT %nu FROM flight%|};
    ]

(* ---- the schedule's structure ------------------------------------------ *)

let parse = Narada.Dol_parser.parse
let schedule = Narada.Dol_graph.schedule

let test_opens_parallelized () =
  let prog = parse {|
DOLBEGIN
  OPEN a AS aa;
  OPEN b AS bb;
  OPEN c AS cc;
  DOLSTATUS = 0;
DOLEND
|} in
  let opt, _ = schedule prog in
  Alcotest.(check bool) "the three opens share one wave" true
    (List.exists
       (function
         | D.Parallel ms ->
             List.length (List.filter (function D.Open _ -> true | _ -> false) ms)
             = 3
         | _ -> false)
       opt)

let test_single_open_untouched () =
  let prog = parse "DOLBEGIN OPEN a AS aa; DOLSTATUS = 0; DOLEND" in
  let opt, ds = schedule prog in
  Alcotest.(check int) "no wave" 0 ds.Narada.Dol_graph.waves;
  Alcotest.(check bool) "unchanged" true (opt = prog)

(* the wave holding T2 must not absorb the IF that reads T2's status *)
let test_status_read_outside_wave () =
  let prog = parse {|
DOLBEGIN
  OPEN a AS aa;
  OPEN b AS bb;
  TASK T1 FOR aa { UPDATE t SET x = 1 } ENDTASK;
  TASK T2 FOR bb { UPDATE t SET y = 2 } ENDTASK;
  IF (T2=C) THEN BEGIN DOLSTATUS = 0; END;
DOLEND
|} in
  match List.rev (fst (schedule prog)) with
  | D.If _ :: D.Parallel [ D.Task _; D.Task _ ] :: _ -> ()
  | _ -> Alcotest.fail "expected the tasks' wave, then the IF"

(* prepared (NOCOMMIT) tasks overlap, but their COMMIT waits for both *)
let test_commit_after_prepares () =
  let prog = parse {|
DOLBEGIN
  OPEN a AS aa;
  OPEN b AS bb;
  TASK T1 NOCOMMIT FOR aa { UPDATE t SET x = 1 } ENDTASK;
  TASK T2 NOCOMMIT FOR bb { UPDATE t SET y = 2 } ENDTASK;
  COMMIT T1, T2;
  DOLSTATUS = 0;
DOLEND
|} in
  let rec after_wave = function
    | D.Parallel [ D.Task _; D.Task _ ] :: rest -> rest
    | _ :: rest -> after_wave rest
    | [] -> Alcotest.fail "the prepares share no wave"
  in
  match after_wave (fst (schedule prog)) with
  | D.Commit_tasks _ :: _ | D.Parallel (D.Commit_tasks _ :: _) :: _ -> ()
  | _ -> Alcotest.fail "COMMIT must follow the prepares' wave"

let closes = function
  | D.Parallel ms -> List.filter (function D.Close _ -> true | _ -> false) ms
  | D.Close _ as c -> [ c ]
  | _ -> []

(* closes of distinct connections share a wave *)
let test_closes_grouped () =
  let prog = parse "DOLBEGIN OPEN a AS aa; OPEN b AS bb; CLOSE aa; CLOSE bb; DOLEND" in
  Alcotest.(check bool) "one wave closes both" true
    (List.exists (fun s -> List.length (closes s) = 2) (fst (schedule prog)))

(* aliases are case-insensitive: CLOSE aa and CLOSE AA name one connection
   and must stay ordered *)
let test_same_alias_closes_serial () =
  let prog = parse "DOLBEGIN OPEN a AS aa; CLOSE aa; CLOSE AA; DOLEND" in
  Alcotest.(check bool) "no wave closes aa twice" true
    (List.for_all (fun s -> List.length (closes s) <= 1) (fst (schedule prog)))

let test_singleton_parallel_unwrapped () =
  let prog =
    [ D.Parallel
        [ D.Task { D.tname = "t"; mode = D.With_commit; target = "x"; commands = "SELECT 1 FROM t" } ];
      D.If (D.Status_is ("t", D.C), [ D.Set_status 0 ], []) ]
  in
  match schedule prog with
  | [ D.Task _; D.If _ ], _ -> ()
  | _ -> Alcotest.fail "singleton parallel should unwrap"

let test_dataflow_waves_independent_tasks () =
  let prog = parse {|
DOLBEGIN
  OPEN a AS aa;
  OPEN b AS bb;
  TASK T1 FOR aa { UPDATE t SET x = 1 } ENDTASK;
  TASK T2 FOR bb { UPDATE t SET y = 2 } ENDTASK;
  DOLSTATUS = 0;
DOLEND
|} in
  let opt, ds = schedule prog in
  Alcotest.(check bool) "formed waves" true (ds.Narada.Dol_graph.waves >= 2);
  let wave_of pred =
    List.exists
      (function D.Parallel ms -> List.for_all pred ms && List.length ms = 2 | _ -> false)
      opt
  in
  Alcotest.(check bool) "opens overlapped" true
    (wave_of (function D.Open _ -> true | _ -> false));
  Alcotest.(check bool) "tasks overlapped" true
    (wave_of (function D.Task _ -> true | _ -> false))

let test_dataflow_respects_status_reads () =
  (* T2's wave must not absorb the IF that reads T1's status, and the IF must
     come after T1 completes: order is preserved, so this is structural *)
  let prog = parse {|
DOLBEGIN
  OPEN a AS aa;
  TASK T1 FOR aa { UPDATE t SET x = 1 } ENDTASK;
  IF (T1=C) THEN BEGIN DOLSTATUS = 0; END;
DOLEND
|} in
  let opt, ds = schedule prog in
  Alcotest.(check int) "no waves possible" 0 ds.Narada.Dol_graph.waves;
  Alcotest.(check bool) "program untouched" true (opt = prog)

let test_dataflow_same_alias_serialized () =
  (* two tasks on the same connection conflict: no wave may contain both *)
  let prog = parse {|
DOLBEGIN
  OPEN a AS aa;
  TASK T1 FOR aa { UPDATE t SET x = 1 } ENDTASK;
  TASK T2 FOR aa { UPDATE t SET y = 2 } ENDTASK;
  DOLSTATUS = 0;
DOLEND
|} in
  let opt, _ = schedule prog in
  List.iter
    (function
      | D.Parallel ms ->
          let tasks =
            List.length (List.filter (function D.Task _ -> true | _ -> false) ms)
          in
          Alcotest.(check bool) "tasks on one alias stay serial" true (tasks <= 1)
      | _ -> ())
    opt

let test_dataflow_idempotent () =
  let prog = parse {|
DOLBEGIN
  OPEN a AS aa;
  OPEN b AS bb;
  TASK T1 FOR aa { UPDATE t SET x = 1 } ENDTASK;
  TASK T2 FOR bb { UPDATE t SET y = 2 } ENDTASK;
  DOLSTATUS = 0;
DOLEND
|} in
  let once, _ = schedule prog in
  let twice, _ = schedule once in
  Alcotest.(check bool) "schedule is a fixpoint" true (once = twice)

(* ---- engine-level equivalence ------------------------------------------ *)

(* the paper-shaped serial program and its schedule, each run by a bare
   engine on a fresh federation: same statuses, return code and state *)
let run_program fx prog =
  match Engine.run ~directory:fx.F.directory ~world:fx.F.world prog with
  | Ok o -> o
  | Error m -> Alcotest.fail m

let serial_and_scheduled sql =
  let fx1 = F.make () in
  M.set_dataflow fx1.F.session false;
  let prog =
    match M.translate fx1.F.session sql with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  let o1 = run_program fx1 prog in
  let fx2 = F.make () in
  let o2 = run_program fx2 (fst (schedule prog)) in
  Alcotest.(check int) "same dolstatus" o1.Engine.dolstatus o2.Engine.dolstatus;
  Alcotest.(check bool) "same statuses" true
    (List.sort compare o1.Engine.statuses = List.sort compare o2.Engine.statuses);
  Alcotest.(check string) "byte-identical state" (state_fingerprint fx1)
    (state_fingerprint fx2);
  (o1, o2)

let equivalence_on sql () = ignore (serial_and_scheduled sql)

let test_schedule_is_faster () =
  let serial, scheduled =
    serial_and_scheduled
      {|USE continental delta united avis national
        SELECT %nu FROM flight%|}
  in
  Alcotest.(check bool) "scheduled faster" true
    (scheduled.Engine.elapsed_ms < serial.Engine.elapsed_ms)

(* ---- P1: parallel vs sequential multiple update (§4.3/§5) ------------- *)

(* strip PARBEGIN/PAREND blocks: the sequential baseline *)
let rec sequentialize (p : D.program) : D.program =
  List.concat_map
    (function
      | D.Parallel stmts -> sequentialize stmts
      | D.If (c, a, b) -> [ D.If (c, sequentialize a, sequentialize b) ]
      | s -> [ s ])
    p

(* virtual ms of the translated fleet UPDATE over [n] airlines, run by a
   bare engine after [transform] *)
let fleet_update_ms ~n transform =
  let fx = F.airline_fleet ~n () in
  let dbs = List.init n (fun i -> Printf.sprintf "airline%d" (i + 1)) in
  let prog =
    match
      M.translate fx.F.session
        (Printf.sprintf
           "USE %s UPDATE flights SET rate = rate * 1.1 WHERE source = 'Houston'"
           (String.concat " " dbs))
    with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  World.reset_clock fx.F.world;
  Printf.sprintf "%.2f" (run_program fx (transform prog)).Engine.elapsed_ms

(* the wave schedule runs the fleet in one round whatever its width; the
   flattened program pays that round once per database *)
let test_parallel_vs_sequential () =
  List.iter2
    (fun n seq ->
      Alcotest.(check string) (Printf.sprintf "parallel, %d dbs" n) "30.02"
        (fleet_update_ms ~n Fun.id);
      Alcotest.(check string) (Printf.sprintf "sequential, %d dbs" n) seq
        (fleet_update_ms ~n sequentialize))
    [ 1; 2; 4; 6; 8; 12 ]
    [ "30.02"; "60.04"; "120.08"; "180.12"; "240.15"; "360.23" ]

(* ---- metrics & session flag (satellite: observability) ----------------- *)

let test_metrics_and_flag () =
  let fx = F.make () in
  Alcotest.(check bool) "dataflow is on by default" true
    (M.dataflow_enabled fx.F.session);
  M.set_dataflow fx.F.session true;
  (match
     M.exec fx.F.session
       {|USE continental delta united avis national
         SELECT %nu FROM flight%|}
   with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let m = M.metrics fx.F.session in
  Alcotest.(check bool) "dag observed" true (m.Metrics.dataflow_nodes > 0);
  Alcotest.(check bool) "waves planned" true
    (m.Metrics.dataflow_waves_planned > 0);
  Alcotest.(check bool) "waves executed" true (m.Metrics.dataflow_waves > 0);
  (* the critical path can never exceed the serial sum of the same waves *)
  Alcotest.(check bool) "crit <= serial" true
    (m.Metrics.dataflow_crit_ms <= m.Metrics.dataflow_serial_ms +. 1e-9);
  let json = M.metrics_json fx.F.session in
  Alcotest.(check bool) "json has dataflow block" true
    (contains json "\"dataflow\"");
  Alcotest.(check bool) "json has overlap ratio" true
    (contains json "\"overlap_ratio\"");
  M.set_dataflow fx.F.session false;
  Alcotest.(check bool) "flag off" false (M.dataflow_enabled fx.F.session)

let () =
  Alcotest.run "dataflow"
    [
      ( "differential",
        [
          Alcotest.test_case "multiple select" `Quick test_multiple_select;
          Alcotest.test_case "vital update" `Quick test_vital_update;
          Alcotest.test_case "multitransaction" `Quick test_mtx;
          Alcotest.test_case "data transfer" `Quick test_data_transfer;
          Alcotest.test_case "coordinator-target transfer" `Quick
            test_coordinator_target_transfer;
          Alcotest.test_case "seeded loss" `Quick test_seeded_loss;
        ] );
      ( "dataflow",
        [
          Alcotest.test_case "waves independent work" `Quick
            test_dataflow_waves_independent_tasks;
          Alcotest.test_case "respects status reads" `Quick
            test_dataflow_respects_status_reads;
          Alcotest.test_case "same alias serialized" `Quick
            test_dataflow_same_alias_serialized;
          Alcotest.test_case "idempotent" `Quick test_dataflow_idempotent;
        ] );
      ( "structure",
        [
          Alcotest.test_case "parallel opens" `Quick test_opens_parallelized;
          Alcotest.test_case "single open" `Quick test_single_open_untouched;
          Alcotest.test_case "protect read statuses" `Quick
            test_status_read_outside_wave;
          Alcotest.test_case "protect nocommit" `Quick test_commit_after_prepares;
          Alcotest.test_case "merge closes" `Quick test_closes_grouped;
          Alcotest.test_case "dedup merged closes" `Quick
            test_same_alias_closes_serial;
          Alcotest.test_case "unwrap singleton" `Quick
            test_singleton_parallel_unwrapped;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "vital update" `Quick
            (equivalence_on
               {|USE continental VITAL delta united VITAL
                 UPDATE flight% SET rate% = rate% * 1.1
                 WHERE sour% = 'Houston' AND dest% = 'San Antonio'|});
          Alcotest.test_case "select" `Quick
            (equivalence_on
               {|USE avis national
                 LET car.status BE cars.carst vehicle.vstat
                 SELECT %code FROM car WHERE status = 'available'|});
          Alcotest.test_case "update" `Quick
            (equivalence_on
               {|USE avis national
                 LET cartab.cstat BE cars.carst vehicle.vstat
                 UPDATE cartab SET cstat = 'HOLD' WHERE cstat = 'available'|});
          Alcotest.test_case "data transfer" `Quick
            (equivalence_on
               {|USE avis national
                 INSERT INTO avis.cars (code, cartype, carst)
                 SELECT v.vcode, v.vty, v.vstat FROM national.vehicle v|});
          Alcotest.test_case "faster" `Quick test_schedule_is_faster;
          Alcotest.test_case "P1 parallel vs sequential" `Quick
            test_parallel_vs_sequential;
        ] );
      ( "observability",
        [ Alcotest.test_case "metrics and flag" `Quick test_metrics_and_flag ] );
    ]
