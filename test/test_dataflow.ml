(* Differential testing of the dataflow scheduler (PR 10): every workload
   must leave byte-identical database state, task statuses and results
   whether the wave schedule is on or off — only the virtual clock may
   differ. The schedule regroups *consecutive* independent statements, so
   message order (and therefore every seeded loss draw) is preserved; the
   loss scenario below exercises exactly that invariant. *)
open Sqlcore
module D = Narada.Dol_ast
module Engine = Narada.Engine
module Opt = Narada.Dol_opt
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

let state_fingerprint fx =
  String.concat "\n"
    (List.map
       (fun (db, table) ->
         Printf.sprintf "%s.%s:%s" db table
           (String.concat "|"
              (List.map
                 (fun r ->
                   String.concat "," (List.map Value.to_string (Row.to_list r)))
                 (Relation.rows (F.scan fx ~db ~table)))))
       all_tables)

let run_side ~dataflow ~faults sqls =
  let fx = F.make () in
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

let check_differential ?(faults = fun _ -> ()) name sqls =
  let fx_off, r_off, st_off = run_side ~dataflow:false ~faults sqls in
  let fx_on, r_on, st_on = run_side ~dataflow:true ~faults sqls in
  List.iteri
    (fun k (a, b) ->
      Alcotest.(check string) (Printf.sprintf "%s: result %d" name k) a b)
    (List.combine r_off r_on);
  Alcotest.(check string)
    (name ^ ": byte-identical state")
    (state_fingerprint fx_off) (state_fingerprint fx_on);
  Alcotest.(check int) (name ^ ": same messages") st_off.World.messages
    st_on.World.messages;
  Alcotest.(check int) (name ^ ": same bytes") st_off.World.bytes_moved
    st_on.World.bytes_moved;
  Alcotest.(check int) (name ^ ": same losses") st_off.World.lost
    st_on.World.lost

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

(* ---- Dol_opt.optimize with every pass on ------------------------------- *)

(* the classic rewrites composed with the dataflow pass: same outcome and
   state as the untouched paper-shaped program *)
let test_optimize_all_passes () =
  let sql =
    {|USE continental VITAL delta united VITAL
      UPDATE flight% SET rate% = rate% * 1.1
      WHERE sour% = 'Houston' AND dest% = 'San Antonio'|}
  in
  let fx1 = F.make () in
  M.set_dataflow fx1.F.session false;
  let prog =
    match M.translate fx1.F.session sql with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  let run fx p =
    match Engine.run ~directory:fx.F.directory ~world:fx.F.world p with
    | Ok o -> o
    | Error m -> Alcotest.fail m
  in
  let o1 = run fx1 prog in
  let fx2 = F.make () in
  let o2 = run fx2 (Opt.optimize ~dataflow:true prog) in
  Alcotest.(check int) "same dolstatus" o1.Engine.dolstatus o2.Engine.dolstatus;
  Alcotest.(check bool) "same statuses" true
    (List.sort compare o1.Engine.statuses = List.sort compare o2.Engine.statuses);
  Alcotest.(check string) "byte-identical state" (state_fingerprint fx1)
    (state_fingerprint fx2);
  Alcotest.(check bool) "schedule is faster" true
    (o2.Engine.elapsed_ms < o1.Engine.elapsed_ms)

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
          Alcotest.test_case "seeded loss" `Quick test_seeded_loss;
          Alcotest.test_case "all passes composed" `Quick
            test_optimize_all_passes;
        ] );
      ( "observability",
        [ Alcotest.test_case "metrics and flag" `Quick test_metrics_and_flag ] );
    ]
