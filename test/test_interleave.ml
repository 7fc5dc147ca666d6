(* MVCC anomaly scenarios under deterministic interleaving: lost update,
   cross-site reservation races, read-your-snapshot, the
   interleaved-vs-serial differential, and Recovery_log verdict replay
   when a conflict abort lands between 2PC prepare and decision. *)
open Sqlcore
module World = Netsim.World
module D = Narada.Dol_ast
module Engine = Narada.Engine
module Caps = Ldbms.Capabilities
module F = Msql.Fixtures
module M = Msql.Msession
module I = Msql.Interleave
module Metrics = Msql.Metrics
module Multitable = Msql.Multitable

let status =
  Alcotest.testable
    (fun ppf s -> Format.pp_print_string ppf (D.status_to_string s))
    (fun a b -> a = b)

let value = Alcotest.testable Value.pp Value.equal
let contains = Astring_contains.contains

(* ---- engine-level fixture: two airlines, one flights row each --------- *)

let flight_schema =
  [ Schema.column "flnu" Ty.Int; Schema.column ~width:20 "source" Ty.Str;
    Schema.column "rate" Ty.Float ]

let setup () =
  let world = World.create () in
  let dir = Narada.Directory.create () in
  let mk name site =
    World.add_site world (Netsim.Site.make site);
    let db = Ldbms.Database.create name in
    Ldbms.Database.load db ~name:"flights" flight_schema
      [ [| Value.Int 1; Value.Str "Houston"; Value.Float 100.0 |] ];
    Narada.Directory.register dir
      (Narada.Service.make ~site ~caps:Caps.ingres_like db);
    db
  in
  let a = mk "aero" "site1" in
  let b = mk "bravo" "site2" in
  (world, dir, a, b)

let rate db n =
  let tbl = Ldbms.Database.find_table db "flights" in
  match
    List.find_opt
      (fun r -> Value.equal r.(0) (Value.Int n))
      (Ldbms.Table.rows tbl)
  with
  | Some r -> r.(2)
  | None -> Value.Null

let parse text =
  match Narada.Dol_parser.parse text with
  | p -> p
  | exception Narada.Dol_parser.Error (m, _, _) -> Alcotest.fail m

let finish_exn sp =
  match Engine.finish sp with
  | Ok o -> o
  | Error m -> Alcotest.fail ("engine error: " ^ m)

(* ---- read-your-snapshot ------------------------------------------------ *)

let writer_prog = {|
DOLBEGIN
  OPEN aero AT site1 AS wa;
  TASK WT NOCOMMIT FOR wa {
    UPDATE flights SET rate = 200.0 WHERE flnu = 1;
    SELECT rate FROM flights WHERE flnu = 1
  } ENDTASK;
  COMMIT WT;
  DOLSTATUS = 0;
  CLOSE wa;
DOLEND
|}

let reader_prog = {|
DOLBEGIN
  OPEN aero AT site1 AS ra;
  TASK RT FOR ra { SELECT rate FROM flights WHERE flnu = 1 } ENDTASK;
  DOLSTATUS = 0;
  CLOSE ra;
DOLEND
|}

let single_cell o task =
  match Engine.result_of o task with
  | Some rel -> (
      match Relation.rows rel with
      | [ [| v |] ] -> v
      | _ -> Alcotest.fail ("expected one cell from " ^ task))
  | None -> Alcotest.fail ("no result for " ^ task)

(* a transaction reads its own staged intent; everyone else reads the
   snapshot that predates it until the commit publishes a new version *)
let test_read_your_snapshot () =
  let world, dir, a, _b = setup () in
  let sw = Engine.start ~directory:dir ~world (parse writer_prog) in
  ignore (Engine.step sw);
  (* WT prepared: the 200.0 intent is staged but uncommitted *)
  ignore (Engine.step sw);
  let sr = Engine.start ~directory:dir ~world (parse reader_prog) in
  let o_reader = finish_exn sr in
  let o_writer = finish_exn sw in
  Alcotest.check status "writer committed" D.C (Engine.status_of o_writer "WT");
  Alcotest.check status "reader committed" D.C (Engine.status_of o_reader "RT");
  Alcotest.check value "writer reads its own intent" (Value.Float 200.0)
    (single_cell o_writer "WT");
  Alcotest.check value "reader's snapshot predates the intent"
    (Value.Float 100.0)
    (single_cell o_reader "RT");
  Alcotest.check value "the commit published the new version"
    (Value.Float 200.0) (rate a 1)

(* ---- verdict replay with a conflict abort in the 2PC window ----------- *)

let vital_pair = {|
DOLBEGIN
  OPEN aero AT site1 AS aa;
  OPEN bravo AT site2 AS bb;
  PARBEGIN
    TASK T1 NOCOMMIT FOR aa { UPDATE flights SET rate = rate + 10 } ENDTASK;
    TASK T2 NOCOMMIT FOR bb { UPDATE flights SET rate = rate + 10 } ENDTASK;
  PAREND;
  IF (T1=P) AND (T2=P) THEN
  BEGIN COMMIT T1, T2; DOLSTATUS = 0; END;
  ELSE
  BEGIN ABORT T1, T2; DOLSTATUS = 1; END;
  CLOSE aa bb;
DOLEND
|}

let rival_prog = {|
DOLBEGIN
  OPEN bravo AT site2 AS rb;
  TASK RV NOCOMMIT FOR rb { UPDATE flights SET rate = rate + 5 } ENDTASK;
  COMMIT RV;
  DOLSTATUS = 0;
  CLOSE rb;
DOLEND
|}

(* a rival conflicts against a prepared participant between prepare and
   the coordinator's decision, and the decision itself is cut off by an
   outage: the conflict must abort cleanly (a prepared participant never
   loses its reservation), and recovery must replay the logged commit
   verdict exactly once *)
let test_replay_verdict_after_conflict_in_window () =
  let world, dir, a, b = setup () in
  (* each run's trace folds into its own registry *)
  let mx = Metrics.create () and my = Metrics.create () in
  let sx =
    Engine.start ~on_trace:(Metrics.observe mx) ~directory:dir ~world
      (parse vital_pair)
  in
  ignore (Engine.step sx);
  ignore (Engine.step sx);
  (* the PARBEGIN block: both members prepare and reserve their tables *)
  ignore (Engine.step sx);
  let sy =
    Engine.start ~on_trace:(Metrics.observe my) ~directory:dir ~world
      (parse rival_prog)
  in
  ignore (Engine.step sy);
  ignore (Engine.step sy);
  let oy = finish_exn sy in
  Alcotest.check status "rival aborted in the window" D.A
    (Engine.status_of oy "RV");
  Alcotest.(check bool) "conflict was retried as transient" true
    (my.Metrics.retries > 0);
  (* crash bravo's site across the decision: T2's commit cannot land and
     stays in doubt with the verdict logged *)
  World.set_down_until world "site2" (World.now_ms world +. 100.0);
  let ox = finish_exn sx in
  Alcotest.check status "t1 committed" D.C (Engine.status_of ox "T1");
  Alcotest.check status "t2 recovered to C" D.C (Engine.status_of ox "T2");
  Alcotest.(check int) "verdict replayed once" 1 mx.Metrics.recovered;
  Alcotest.(check int) "nothing left in doubt" 0 ox.Engine.in_doubt;
  Alcotest.(check bool) "no split" false ox.Engine.vital_split;
  (* idempotence: the replayed commit applies the staged intent exactly
     once, and the aborted rival's +5 not at all *)
  Alcotest.check value "a updated once" (Value.Float 110.0) (rate a 1);
  Alcotest.check value "b updated once" (Value.Float 110.0) (rate b 1);
  (* finish is idempotent at the engine level: the cached outcome comes
     back unchanged *)
  let ox2 = finish_exn sx in
  Alcotest.(check bool) "finish returns the cached outcome" true (ox == ox2)

(* ---- msession-level helpers ------------------------------------------- *)

(* every msession-level case runs under both plan schedules: the dataflow
   wave scheduler (the default) and the unscheduled program *)
let under_both_schedules test () =
  List.iter
    (fun dataflow ->
      try test ~dataflow
      with e ->
        Printf.eprintf "failed with dataflow = %b\n" dataflow;
        raise e)
    [ true; false ]

let fixture ~dataflow =
  let fx = F.make () in
  M.set_dataflow fx.F.session dataflow;
  fx

let second_session ~dataflow fx services =
  let s = M.create ~world:fx.F.world ~directory:fx.F.directory () in
  M.set_dataflow s dataflow;
  List.iter
    (fun svc ->
      (match M.incorporate_auto s ~service:svc with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      match M.import_all s ~service:svc with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
    services;
  s

(* number of steps that carry a participant through its task block
   (inclusive): DOL statements up to and including the Parallel — or the
   bare Task, since the dataflow scheduler unwraps singleton waves *)
let steps_to_block t sql =
  match M.translate t sql with
  | Error m -> Alcotest.fail ("translate: " ^ m)
  | Ok prog ->
      let has_task ms = List.exists (function D.Task _ -> true | _ -> false) ms in
      let rec idx k = function
        | [] -> Alcotest.fail "plan has no parallel task block"
        | D.Parallel ms :: _ when has_task ms -> k + 1
        | D.Task _ :: _ -> k + 1
        | _ :: rest -> idx (k + 1) rest
      in
      idx 0 prog

let repeat n x = List.init n (fun _ -> x)

let result_exn outcome label =
  match I.result_of outcome label with
  | Ok r -> r
  | Error m -> Alcotest.fail (label ^ ": " ^ m)

let cell_count fx ~db ~table v =
  List.fold_left
    (fun acc row ->
      Array.fold_left (fun a c -> if Value.equal c v then a + 1 else a) acc row)
    0
    (Relation.rows (F.scan fx ~db ~table))

(* ---- lost update ------------------------------------------------------- *)

(* two sessions double/bump the same flight; the interleaving steps the
   loser's task block while the winner holds its prepared reservation, so
   first-committer-wins turns the lost update into a clean abort *)
let test_lost_update_aborts_loser ~dataflow =
  let fx = fixture ~dataflow in
  let s2 = second_session ~dataflow fx [ "continental" ] in
  let w_sql =
    "USE continental VITAL UPDATE flights SET rate = rate * 2 WHERE flnu = 101"
  in
  let l_sql =
    "USE continental VITAL UPDATE flights SET rate = rate + 7 WHERE flnu = 101"
  in
  let n = steps_to_block fx.F.session w_sql in
  let script = repeat n "winner" @ repeat n "loser" in
  let outcome =
    I.run
      ~schedule:(I.Script script)
      [
        { I.label = "winner"; session = fx.F.session; sql = w_sql };
        { I.label = "loser"; session = s2; sql = l_sql };
      ]
  in
  (match result_exn outcome "winner" with
  | M.Update_report { outcome = M.Success; _ } -> ()
  | r -> Alcotest.fail ("winner: " ^ M.result_to_string r));
  (match result_exn outcome "loser" with
  | M.Update_report { outcome = M.Aborted; _ } -> ()
  | r -> Alcotest.fail ("loser: " ^ M.result_to_string r));
  (* the rate was doubled exactly once: never 107 (lost update), never
     207/214 (double apply) *)
  let flights = F.scan fx ~db:"continental" ~table:"flights" in
  let row =
    List.find
      (fun r -> Value.equal r.(0) (Value.Int 101))
      (Relation.rows flights)
  in
  Alcotest.check value "rate doubled exactly once" (Value.Float 200.0) row.(6);
  let m2 = M.metrics s2 in
  Alcotest.(check bool) "loser counted ww conflicts" true
    (m2.Metrics.ww_conflicts > 0);
  Alcotest.(check bool) "conflict retries counted" true
    (m2.Metrics.conflict_retries > 0);
  Alcotest.(check bool) "conflict abort counted" true
    (m2.Metrics.conflict_aborts >= 1);
  Alcotest.(check bool) "snapshots counted" true (m2.Metrics.snapshots > 0);
  Alcotest.(check bool) "metrics json has the mvcc section" true
    (contains (M.metrics_json s2) "\"mvcc\"")

(* ---- cross-site reservation race -------------------------------------- *)

let seat_mtx name =
  Printf.sprintf
    {|
BEGIN MULTITRANSACTION
  USE continental delta
  LET fltab.snu.sstat.clname BE
    f838.seatnu.seatstatus.clientname
    f747.snu.sstat.passname
  UPDATE fltab
  SET sstat = 'TAKEN', clname = '%s'
  WHERE snu = ( SELECT MIN(snu) FROM fltab WHERE sstat = 'FREE');
COMMIT
  continental AND delta
END MULTITRANSACTION
|}
    name

(* both multitransactions want the lowest free seat on both airlines
   atomically (COMMIT a AND b): the interleaved outcome must be
   serial-equivalent — one client holds both seats, the other is fully
   undone on both sites, never a mixed booking *)
let test_cross_site_reservation_race ~dataflow =
  let fx = fixture ~dataflow in
  let s2 = second_session ~dataflow fx [ "continental"; "delta" ] in
  let sql_a = seat_mtx "alice" and sql_b = seat_mtx "bob" in
  let n = steps_to_block fx.F.session sql_a in
  let script = repeat n "alice" @ repeat n "bob" in
  let outcome =
    I.run
      ~schedule:(I.Script script)
      [
        { I.label = "alice"; session = fx.F.session; sql = sql_a };
        { I.label = "bob"; session = s2; sql = sql_b };
      ]
  in
  (match result_exn outcome "alice" with
  | M.Mtx_report { chosen = Some 0; incorrect = false; _ } -> ()
  | r -> Alcotest.fail ("alice: " ^ M.result_to_string r));
  (match result_exn outcome "bob" with
  | M.Mtx_report { chosen = None; incorrect = false; _ } -> ()
  | r -> Alcotest.fail ("bob: " ^ M.result_to_string r));
  let count = cell_count fx in
  Alcotest.(check int) "alice holds the continental seat" 1
    (count ~db:"continental" ~table:"f838" (Value.Str "alice"));
  Alcotest.(check int) "alice holds the delta seat" 1
    (count ~db:"delta" ~table:"f747" (Value.Str "alice"));
  Alcotest.(check int) "bob holds nothing on continental" 0
    (count ~db:"continental" ~table:"f838" (Value.Str "bob"));
  Alcotest.(check int) "bob holds nothing on delta" 0
    (count ~db:"delta" ~table:"f747" (Value.Str "bob"));
  (* exactly one seat was newly taken per airline *)
  Alcotest.(check int) "one free seat left on continental" 1
    (count ~db:"continental" ~table:"f838" (Value.Str "FREE"));
  Alcotest.(check int) "one free seat left on delta" 1
    (count ~db:"delta" ~table:"f747" (Value.Str "FREE"))

(* ---- differential: interleaved independent sessions == serial --------- *)

let reader_sql = "USE continental SELECT flnu, rate FROM flights WHERE day = 'mon'"
let renter_sql =
  "USE avis VITAL UPDATE cars SET rate = rate + 1.0 WHERE carst = 'available'"

let diff_participants fx s2 =
  [
    { I.label = "reader"; session = fx.F.session; sql = reader_sql };
    { I.label = "renter"; session = s2; sql = renter_sql };
  ]

let mt_string = function
  | M.Multitable mt -> Multitable.to_string mt
  | r -> Alcotest.fail ("expected a multitable, got " ^ M.result_to_string r)

let upd_summary = function
  | M.Update_report { outcome; dolstatus; _ } ->
      (M.update_outcome_to_string outcome, dolstatus)
  | r -> Alcotest.fail ("expected an update report, got " ^ M.result_to_string r)

let run_serial ~dataflow =
  let fx = fixture ~dataflow in
  let s2 = second_session ~dataflow fx [ "avis" ] in
  let exec p =
    match M.exec p.I.session p.I.sql with
    | Ok r -> r
    | Error m -> Alcotest.fail m
  in
  let rs = List.map exec (diff_participants fx s2) in
  (fx, List.nth rs 0, List.nth rs 1)

let run_interleaved ~dataflow schedule =
  let fx = fixture ~dataflow in
  let s2 = second_session ~dataflow fx [ "avis" ] in
  let outcome = I.run ~schedule (diff_participants fx s2) in
  (fx, result_exn outcome "reader", result_exn outcome "renter")

let check_against_serial ~dataflow name schedule =
  let fx_s, reader_s, renter_s = run_serial ~dataflow in
  let fx_i, reader_i, renter_i = run_interleaved ~dataflow schedule in
  Alcotest.(check string)
    (name ^ ": retrieval is byte-identical to serial")
    (mt_string reader_s) (mt_string reader_i);
  Alcotest.(check (pair string int))
    (name ^ ": update outcome matches serial")
    (upd_summary renter_s) (upd_summary renter_i);
  Alcotest.(check bool)
    (name ^ ": avis rows match serial")
    true
    (Relation.equal
       (F.scan fx_s ~db:"avis" ~table:"cars")
       (F.scan fx_i ~db:"avis" ~table:"cars"))

let test_differential_round_robin ~dataflow =
  check_against_serial ~dataflow "round-robin" I.Round_robin

let test_differential_seeded ~dataflow =
  check_against_serial ~dataflow "seeded(7)" (I.Seeded 7);
  check_against_serial ~dataflow "seeded(23)" (I.Seeded 23)

(* ---- harness edges ----------------------------------------------------- *)

let test_script_unknown_label () =
  let fx = F.make () in
  let p =
    {
      I.label = "only";
      session = fx.F.session;
      sql = "USE continental SELECT flnu FROM flights";
    }
  in
  match I.run ~schedule:(I.Script [ "nope" ]) [ p ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for an unknown label"

(* a statement with no DOL program takes no steps and runs whole in
   [finish], with the result [exec] gives on a fresh fixture *)
let test_unstepped_statements () =
  List.iter
    (fun sql ->
      let fx = F.make () in
      let stepped =
        match M.prepare_text fx.F.session sql with
        | Error m -> Alcotest.fail m
        | Ok prep ->
            Alcotest.(check bool) (sql ^ ": no step") false (M.step prep);
            M.finish prep
      in
      let expected = M.exec (F.make ()).F.session sql in
      let show = function
        | Ok r -> "ok: " ^ M.result_to_string r
        | Error m -> "error: " ^ m
      in
      Alcotest.(check string) sql (show expected) (show stepped))
    [
      "EXPLAIN MULTIPLE USE continental SELECT flnu FROM flights";
      "IMPORT DATABASE avis FROM SERVICE avis";
      "IMPORT DATABASE x FROM SERVICE y";
    ]

let () =
  Alcotest.run "interleave"
    [
      ( "snapshot isolation",
        [
          Alcotest.test_case "read-your-snapshot" `Quick test_read_your_snapshot;
          Alcotest.test_case "verdict replay after conflict in 2PC window"
            `Quick test_replay_verdict_after_conflict_in_window;
        ] );
      ( "anomalies",
        [
          Alcotest.test_case "lost update aborts the loser" `Quick
            (under_both_schedules test_lost_update_aborts_loser);
          Alcotest.test_case "cross-site reservation race" `Quick
            (under_both_schedules test_cross_site_reservation_race);
        ] );
      ( "differential",
        [
          Alcotest.test_case "round-robin == serial" `Quick
            (under_both_schedules test_differential_round_robin);
          Alcotest.test_case "seeded == serial" `Quick
            (under_both_schedules test_differential_seeded);
        ] );
      ( "harness",
        [
          Alcotest.test_case "unknown script label" `Quick
            test_script_unknown_label;
          Alcotest.test_case "unstepped statements run in finish" `Quick
            test_unstepped_statements;
        ] );
    ]
