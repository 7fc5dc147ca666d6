open Sqlcore
module D = Narada.Dol_ast
module Engine = Narada.Engine
module Caps = Ldbms.Capabilities

let status = Alcotest.testable
    (fun ppf s -> Format.pp_print_string ppf (D.status_to_string s))
    (fun a b -> a = b)

(* ---- fixture: two-airline world -------------------------------------------- *)

let flight_schema =
  [ Schema.column "flnu" Ty.Int; Schema.column "source" Ty.Str;
    Schema.column "rate" Ty.Float ]

let setup ?(caps_a = Caps.ingres_like) ?(caps_b = Caps.ingres_like) () =
  let world = Netsim.World.create () in
  Netsim.World.add_site world (Netsim.Site.make "site1");
  Netsim.World.add_site world (Netsim.Site.make "site2");
  let dir = Narada.Directory.create () in
  let mk name site caps =
    let db = Ldbms.Database.create name in
    Ldbms.Database.load db ~name:"flights" flight_schema
      [ [| Value.Int 1; Value.Str "Houston"; Value.Float 100.0 |];
        [| Value.Int 2; Value.Str "Austin"; Value.Float 60.0 |] ];
    Narada.Directory.register dir (Narada.Service.make ~site ~caps db);
    db
  in
  let a = mk "aero" "site1" caps_a in
  let b = mk "bravo" "site2" caps_b in
  (world, dir, a, b)

let run ~world ~dir text =
  match Engine.run_text ~directory:dir ~world text with
  | Ok o -> o
  | Error m -> Alcotest.fail ("engine error: " ^ m)

let rate db n =
  let tbl = Ldbms.Database.find_table db "flights" in
  match
    List.find_opt (fun r -> Value.equal r.(0) (Value.Int n)) (Ldbms.Table.rows tbl)
  with
  | Some r -> r.(2)
  | None -> Value.Null

let value = Alcotest.testable Value.pp Value.equal

(* ---- parser / printer --------------------------------------------------------- *)

let paper_program = {|
DOLBEGIN
OPEN continental AT site1 AS cont;
OPEN delta AT site2 AS delta;
OPEN united AT site3 AS unit;
TASK T1 NOCOMMIT FOR cont
{ UPDATE flights SET rate = rate * 1.1 }
ENDTASK;
TASK T2 FOR delta
{ UPDATE flight SET rate = rate * 1.1 }
ENDTASK;
TASK T3 NOCOMMIT FOR unit
{ UPDATE flight SET rates = rates * 1.1 }
ENDTASK;
IF (T1=P) AND (T3=P) THEN
BEGIN
COMMIT T1, T3;
DOLSTATUS=0;
END;
ELSE
BEGIN
ABORT T1, T3;
DOLSTATUS=1;
END;
CLOSE cont delta unit;
DOLEND
|}

let test_parse_paper_program () =
  let prog = Narada.Dol_parser.parse paper_program in
  Alcotest.(check int) "statement count" 8 (List.length prog);
  Alcotest.(check (list string)) "task names" [ "T1"; "T2"; "T3" ]
    (D.task_names prog)

let test_pp_roundtrip () =
  let prog = Narada.Dol_parser.parse paper_program in
  let printed = Narada.Dol_pp.program_to_string prog in
  Alcotest.(check bool) "roundtrip" true (Narada.Dol_parser.parse printed = prog)

let test_parse_all_constructs () =
  let text = {|
DOLBEGIN
  OPEN a AS aa;
  OPEN b AT site2 AS bb;
  PARBEGIN
    TASK T1 NOCOMMIT FOR aa { SELECT 1 FROM t } ENDTASK;
    MOVE M1 FROM aa TO bb TABLE tmp { SELECT x FROM t } ENDMOVE;
  PAREND;
  IF NOT ((T1=P) OR (M1=E)) AND (T1=C) THEN
  BEGIN
    COMP K1 COMPENSATES T1 FOR aa { UPDATE t SET x = 0 } ENDCOMP;
  END;
  DOLSTATUS = 3;
  CLOSE aa bb;
DOLEND
|} in
  let prog = Narada.Dol_parser.parse text in
  let printed = Narada.Dol_pp.program_to_string prog in
  Alcotest.(check bool) "all constructs roundtrip" true
    (Narada.Dol_parser.parse printed = prog)

let test_parse_errors () =
  let bad = [ "DOLBEGIN"; "DOLBEGIN TASK T1 FOR a { x } DOLEND";
              "DOLBEGIN IF (T1=Z) THEN BEGIN END; DOLEND";
              "DOLBEGIN FROB; DOLEND" ] in
  List.iter
    (fun text ->
      match Narada.Dol_parser.parse text with
      | exception Narada.Dol_parser.Error _ -> ()
      | _ -> Alcotest.failf "expected parse error: %s" text)
    bad

(* A brace inside an SQL literal is part of the literal, not of the
   block structure: the printed DOL of such a statement re-parses to the
   program that was printed. *)
let test_braces_in_literals () =
  let roundtrips what prog =
    let printed = Narada.Dol_pp.program_to_string prog in
    match Narada.Dol_parser.parse printed with
    | parsed -> Alcotest.(check bool) what true (parsed = prog)
    | exception Narada.Dol_parser.Error (m, l, c) ->
        Alcotest.failf "%s: %d:%d %s\n%s" what l c m printed
  in
  let text = {|
DOLBEGIN
  TASK T1 FOR aa { UPDATE t SET x = '}' WHERE y = '{' } ENDTASK;
  COMP K1 COMPENSATES T1 FOR aa { UPDATE t SET x = 'it''s {' } ENDCOMP;
  MOVE M1 FROM aa TO bb TABLE tmp { SELECT x FROM t WHERE x <> '}}' } ENDMOVE;
DOLEND
|} in
  let prog = Narada.Dol_parser.parse text in
  (match prog with
  | [ D.Task { commands = "UPDATE t SET x = '}' WHERE y = '{'"; _ };
      D.Comp { commands = "UPDATE t SET x = 'it''s {'"; _ };
      D.Move { query = "SELECT x FROM t WHERE x <> '}}'"; _ } ] ->
      ()
  | _ -> Alcotest.fail "block text is not verbatim");
  roundtrips "task/comp/move" prog;
  let fx = Msql.Fixtures.make () in
  match
    Msql.Msession.exec fx.Msql.Fixtures.session
      "EXPLAIN USE avis UPDATE cars SET client = '{x'"
  with
  | Ok (Msql.Msession.Info text) ->
      roundtrips "explain" (Narada.Dol_parser.parse text)
  | Ok r -> Alcotest.fail (Msql.Msession.result_to_string r)
  | Error m -> Alcotest.fail m

(* A quote inside an SQL comment in a block opens no literal, and a '}'
   still closes the block even when a '--' comment runs up to it. *)
let block_commands text want () =
  match Narada.Dol_parser.parse ("DOLBEGIN TASK T1 FOR aa " ^ text ^ " ENDTASK; DOLEND") with
  | [ D.Task { commands; _ } ] ->
      Alcotest.(check string) text want commands;
      (* the block text is SQL the LDBMS parser accepts *)
      ignore (Sqlfront.Parser.parse_script commands)
  | _ -> Alcotest.fail "expected one task"
  | exception Narada.Dol_parser.Error (m, l, c) -> Alcotest.failf "%S: %d:%d %s" text l c m

(* ---- engine ---------------------------------------------------------------------- *)

let test_commit_path () =
  let world, dir, a, b = setup () in
  let o = run ~world ~dir {|
DOLBEGIN
  OPEN aero AT site1 AS aa;
  OPEN bravo AT site2 AS bb;
  PARBEGIN
    TASK T1 NOCOMMIT FOR aa { UPDATE flights SET rate = rate + 1 } ENDTASK;
    TASK T2 NOCOMMIT FOR bb { UPDATE flights SET rate = rate + 2 } ENDTASK;
  PAREND;
  IF (T1=P) AND (T2=P) THEN
  BEGIN COMMIT T1, T2; DOLSTATUS = 0; END;
  ELSE
  BEGIN ABORT T1, T2; DOLSTATUS = 1; END;
  CLOSE aa bb;
DOLEND
|} in
  Alcotest.(check int) "dolstatus" 0 o.Engine.dolstatus;
  Alcotest.check status "t1" D.C (Engine.status_of o "T1");
  Alcotest.check value "a updated" (Value.Float 101.0) (rate a 1);
  Alcotest.check value "b updated" (Value.Float 102.0) (rate b 1)

let test_abort_path_on_local_failure () =
  let world, dir, a, b = setup () in
  (* make bravo's task fail with a semantic error: unknown column *)
  let o = run ~world ~dir {|
DOLBEGIN
  OPEN aero AT site1 AS aa;
  OPEN bravo AT site2 AS bb;
  PARBEGIN
    TASK T1 NOCOMMIT FOR aa { UPDATE flights SET rate = rate + 1 } ENDTASK;
    TASK T2 NOCOMMIT FOR bb { UPDATE flights SET bogus = 1 } ENDTASK;
  PAREND;
  IF (T1=P) AND (T2=P) THEN
  BEGIN COMMIT T1, T2; DOLSTATUS = 0; END;
  ELSE
  BEGIN ABORT T1, T2; DOLSTATUS = 1; END;
  CLOSE aa bb;
DOLEND
|} in
  Alcotest.(check int) "dolstatus" 1 o.Engine.dolstatus;
  Alcotest.check status "t1 aborted" D.A (Engine.status_of o "T1");
  Alcotest.check status "t2 aborted" D.A (Engine.status_of o "T2");
  Alcotest.check value "a untouched" (Value.Float 100.0) (rate a 1);
  Alcotest.check value "b untouched" (Value.Float 100.0) (rate b 1)

let test_site_down_gives_N () =
  let world, dir, a, _b = setup () in
  ignore a;
  Netsim.World.set_down world "site2" true;
  let o = run ~world ~dir {|
DOLBEGIN
  OPEN aero AT site1 AS aa;
  OPEN bravo AT site2 AS bb;
  PARBEGIN
    TASK T1 NOCOMMIT FOR aa { UPDATE flights SET rate = rate + 1 } ENDTASK;
    TASK T2 NOCOMMIT FOR bb { UPDATE flights SET rate = rate + 2 } ENDTASK;
  PAREND;
  IF (T1=P) AND (T2=P) THEN
  BEGIN COMMIT T1, T2; DOLSTATUS = 0; END;
  ELSE
  BEGIN ABORT T1, T2; DOLSTATUS = 1; END;
  CLOSE aa bb;
DOLEND
|} in
  Alcotest.(check int) "dolstatus" 1 o.Engine.dolstatus;
  (* unreachable at OPEN: the task never ran *)
  Alcotest.check status "t2 not run" D.N (Engine.status_of o "T2")

let test_nocommit_on_autocommit_engine_is_E () =
  let world, dir, _, _ = setup ~caps_b:Caps.sybase_like () in
  let o = run ~world ~dir {|
DOLBEGIN
  OPEN bravo AT site2 AS bb;
  TASK T1 NOCOMMIT FOR bb { UPDATE flights SET rate = rate + 1 } ENDTASK;
  CLOSE bb;
DOLEND
|} in
  Alcotest.check status "plan inconsistency" D.E (Engine.status_of o "T1")

let test_select_task_collects_results () =
  let world, dir, _, _ = setup () in
  let o = run ~world ~dir {|
DOLBEGIN
  OPEN aero AT site1 AS aa;
  TASK T1 FOR aa { SELECT flnu, rate FROM flights WHERE source = 'Houston' } ENDTASK;
  DOLSTATUS = 0;
  CLOSE aa;
DOLEND
|} in
  match Engine.result_of o "T1" with
  | Some rel -> Alcotest.(check int) "one row" 1 (Relation.cardinality rel)
  | None -> Alcotest.fail "no result"

let test_compensation () =
  let world, dir, a, _ = setup ~caps_a:Caps.sybase_like () in
  (* autocommit task committed; compensation semantically undoes it *)
  let o = run ~world ~dir {|
DOLBEGIN
  OPEN aero AT site1 AS aa;
  TASK T1 FOR aa { UPDATE flights SET rate = rate * 2 } ENDTASK;
  IF (T1=C) THEN
  BEGIN
    COMP K1 COMPENSATES T1 FOR aa { UPDATE flights SET rate = rate / 2 } ENDCOMP;
  END;
  DOLSTATUS = 0;
  CLOSE aa;
DOLEND
|} in
  Alcotest.check status "compensated" D.X (Engine.status_of o "T1");
  Alcotest.check status "comp committed" D.C (Engine.status_of o "K1");
  Alcotest.check value "rate back" (Value.Float 100.0) (rate a 1)

let test_move () =
  let world, dir, _, b = setup () in
  let o = run ~world ~dir {|
DOLBEGIN
  OPEN aero AT site1 AS aa;
  OPEN bravo AT site2 AS bb;
  MOVE M1 FROM aa TO bb TABLE shipped { SELECT flnu, rate FROM flights } ENDMOVE;
  TASK T1 FOR bb { SELECT COUNT(*) FROM shipped } ENDTASK;
  DOLSTATUS = 0;
  CLOSE aa bb;
DOLEND
|} in
  Alcotest.check status "move done" D.C (Engine.status_of o "M1");
  (match Engine.result_of o "T1" with
  | Some rel -> (
      match Relation.rows rel with
      | [ [| Value.Int 2 |] ] -> ()
      | _ -> Alcotest.fail "wrong count")
  | None -> Alcotest.fail "no result");
  (* the moved relation landed in bb's connection, not in bravo's
     catalog, and went with it at CLOSE *)
  Alcotest.(check (list string)) "dst catalog unchanged" [ "flights" ]
    (Ldbms.Database.table_names b)

(* a MOVE into a name a local application already uses shadows that
   table for the receiving connection only: the site's own table keeps
   its rows *)
let test_move_keeps_local_table () =
  let world, dir, _, b = setup () in
  let local = Ldbms.Session.connect b Caps.ingres_like in
  List.iter
    (fun sql ->
      match Ldbms.Session.exec_sql local sql with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Ldbms.Session.error_to_string e))
    [ "CREATE TABLE shipped (id INT)"; "INSERT INTO shipped VALUES (7)";
      "INSERT INTO shipped VALUES (8)"; "INSERT INTO shipped VALUES (9)";
      "COMMIT" ];
  let o = run ~world ~dir {|
DOLBEGIN
  OPEN aero AT site1 AS aa;
  OPEN bravo AT site2 AS bb;
  MOVE M1 FROM aa TO bb TABLE shipped { SELECT flnu, rate FROM flights } ENDMOVE;
  TASK T1 FOR bb { SELECT COUNT(*) FROM shipped } ENDTASK;
  DOLSTATUS = 0;
  CLOSE aa bb;
DOLEND
|} in
  (match Engine.result_of o "T1" with
  | Some rel ->
      Alcotest.(check bool) "the receiving connection reads the moved rows"
        true
        (Relation.rows rel = [ [| Value.Int 2 |] ])
  | None -> Alcotest.fail "no result");
  match Ldbms.Session.exec_sql local "SELECT id FROM shipped" with
  | Ok (Ldbms.Session.Rows rel) ->
      Alcotest.(check (list value)) "the local table keeps its rows"
        [ Value.Int 7; Value.Int 8; Value.Int 9 ]
        (List.map (fun r -> r.(0)) (Relation.rows rel))
  | Ok _ -> Alcotest.fail "expected rows"
  | Error e -> Alcotest.fail (Ldbms.Session.error_to_string e)

let test_parallel_faster_than_sequential () =
  let world, dir, _, _ = setup () in
  let seq = run ~world ~dir {|
DOLBEGIN
  OPEN aero AT site1 AS aa;
  OPEN bravo AT site2 AS bb;
  TASK T1 FOR aa { UPDATE flights SET rate = rate + 1 } ENDTASK;
  TASK T2 FOR bb { UPDATE flights SET rate = rate + 1 } ENDTASK;
  DOLSTATUS = 0;
  CLOSE aa bb;
DOLEND
|} in
  let world2, dir2, _, _ = setup () in
  let par = run ~world:world2 ~dir:dir2 {|
DOLBEGIN
  OPEN aero AT site1 AS aa;
  OPEN bravo AT site2 AS bb;
  PARBEGIN
    TASK T1 FOR aa { UPDATE flights SET rate = rate + 1 } ENDTASK;
    TASK T2 FOR bb { UPDATE flights SET rate = rate + 1 } ENDTASK;
  PAREND;
  DOLSTATUS = 0;
  CLOSE aa bb;
DOLEND
|} in
  Alcotest.(check bool) "parallel strictly faster" true
    (par.Engine.elapsed_ms < seq.Engine.elapsed_ms)

let test_program_errors () =
  let world, dir, _, _ = setup () in
  let expect_error text =
    match Engine.run_text ~directory:dir ~world text with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "expected program error"
  in
  (* task on unopened alias *)
  expect_error "DOLBEGIN TASK T1 FOR nope { SELECT 1 FROM t } ENDTASK; DOLEND";
  (* duplicate task names *)
  expect_error {|
DOLBEGIN
  OPEN aero AT site1 AS aa;
  TASK T1 FOR aa { SELECT flnu FROM flights } ENDTASK;
  TASK T1 FOR aa { SELECT flnu FROM flights } ENDTASK;
DOLEND
|};
  (* wrong AT site *)
  expect_error "DOLBEGIN OPEN aero AT site2 AS aa; DOLEND"

let test_unknown_service_is_unavailable () =
  let world, dir, _, _ = setup () in
  let o = run ~world ~dir {|
DOLBEGIN
  OPEN ghost AS gg;
  TASK T1 FOR gg { SELECT 1 FROM t } ENDTASK;
  DOLSTATUS = 0;
  CLOSE gg;
DOLEND
|} in
  Alcotest.check status "unavailable means never ran" D.N (Engine.status_of o "T1")

let test_trace_events () =
  let world, dir, _, _ = setup () in
  let events = ref [] in
  (match
     Engine.run_text
       ~on_trace:(fun ev -> events := Narada.Trace.render ev :: !events)
       ~directory:dir ~world {|
DOLBEGIN
  OPEN aero AT site1 AS aa;
  TASK T1 NOCOMMIT FOR aa { UPDATE flights SET rate = rate + 1 } ENDTASK;
  IF (T1=P) THEN BEGIN COMMIT T1; DOLSTATUS = 0; END;
  CLOSE aa;
DOLEND
|}
   with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let trace = String.concat "\n" (List.rev !events) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("trace mentions " ^ needle) true
        (Astring_contains.contains trace needle))
    [ "OPEN aero"; "T1 -> P"; "IF (T1=P)"; "=> THEN"; "T1 -> C"; "DOLSTATUS = 0" ]

let test_engine_closes_forgotten_aliases () =
  let world, dir, _, _ = setup () in
  (* no CLOSE statement: run must still succeed and disconnect *)
  let o = run ~world ~dir {|
DOLBEGIN
  OPEN aero AT site1 AS aa;
  TASK T1 FOR aa { SELECT flnu FROM flights } ENDTASK;
  DOLSTATUS = 0;
DOLEND
|} in
  Alcotest.(check int) "ok" 0 o.Engine.dolstatus

(* ---- random program round-trip -------------------------------------------------- *)

let gen_program =
  let open QCheck.Gen in
  let ident = oneofl [ "t1"; "t2"; "aa"; "bb"; "svc" ] in
  let block =
    oneofl
      [ "SELECT 1 FROM t"; "UPDATE t SET x = (x + 1)"; "DROP TABLE u";
        "UPDATE t SET x = '}{''' WHERE y <> '{'" ]
  in
  let status = oneofl D.[ P; C; A; E; N; X ] in
  let rec cond n =
    if n = 0 then map2 (fun t s -> D.Status_is (t, s)) ident status
    else
      frequency
        [
          (3, map2 (fun t s -> D.Status_is (t, s)) ident status);
          (1, map (fun c -> D.Not c) (cond (n - 1)));
          (1, map2 (fun a b -> D.And (a, b)) (cond (n - 1)) (cond (n - 1)));
          (1, map2 (fun a b -> D.Or (a, b)) (cond (n - 1)) (cond (n - 1)));
        ]
  in
  let mode = oneofl D.[ With_commit; No_commit ] in
  (* unique names per program to satisfy no real constraint (parsing only) *)
  let counter = ref 0 in
  let fresh prefix =
    incr counter;
    Printf.sprintf "%s%d" prefix !counter
  in
  let rec stmt n =
    let base =
      [
        ( 2,
          map2
            (fun s a -> D.Open { service = s; open_site = None; alias = a })
            ident ident );
        ( 3,
          map2
            (fun (m, tgt) b ->
              D.Task { tname = fresh "t"; mode = m; target = tgt; commands = b })
            (pair mode ident) block );
        (1, map (fun a -> D.Close [ a ]) ident);
        (1, map (fun ns -> D.Commit_tasks ns) (list_size (1 -- 2) ident));
        (1, map (fun ns -> D.Abort_tasks ns) (list_size (1 -- 2) ident));
        ( 1,
          map2
            (fun tgt b ->
              D.Comp
                { cname = fresh "k"; compensates = Some "t1"; target = tgt;
                  commands = b })
            ident block );
        ( 1,
          map2
            (fun (s, d) b ->
              D.Move
                { mname = fresh "m"; src = s; dst = d; dest_table = "tmp";
                  query = b; reduce = None })
            (pair ident ident) block );
        (1, map (fun i -> D.Set_status i) (int_bound 9));
      ]
    in
    let nested =
      if n > 0 then
        [
          (2, map (fun ss -> D.Parallel ss) (list_size (0 -- 2) (stmt (n - 1))));
          ( 2,
            map2
              (fun c (a, b) -> D.If (c, a, b))
              (cond 1)
              (pair
                 (list_size (0 -- 2) (stmt (n - 1)))
                 (list_size (0 -- 2) (stmt (n - 1)))) );
        ]
      else []
    in
    frequency (base @ nested)
  in
  QCheck.Gen.list_size (QCheck.Gen.int_range 0 6) (stmt 2)

let prop_program_roundtrip =
  QCheck.Test.make ~name:"random DOL program pp/parse roundtrip" ~count:300
    (QCheck.make gen_program) (fun prog ->
      let printed = Narada.Dol_pp.program_to_string prog in
      match Narada.Dol_parser.parse printed with
      | parsed -> parsed = prog
      | exception Narada.Dol_parser.Error _ -> false)

let () =
  Alcotest.run "dol"
    [
      ( "syntax",
        [
          Alcotest.test_case "parse paper program" `Quick test_parse_paper_program;
          Alcotest.test_case "pp roundtrip" `Quick test_pp_roundtrip;
          Alcotest.test_case "all constructs" `Quick test_parse_all_constructs;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "braces in literals" `Quick test_braces_in_literals;
          Alcotest.test_case "quote in a -- comment" `Quick
            (block_commands "{ UPDATE t SET x = 1 -- don't }" "UPDATE t SET x = 1 -- don't");
          Alcotest.test_case "quote in a -- comment, two lines" `Quick
            (block_commands "{ UPDATE t SET x = 1 -- don't\n}" "UPDATE t SET x = 1 -- don't");
          Alcotest.test_case "quote in a /* */ comment" `Quick
            (block_commands "{ UPDATE t /* don't */ SET x = 1 }" "UPDATE t /* don't */ SET x = 1");
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_program_roundtrip ] );
      ( "engine",
        [
          Alcotest.test_case "commit path" `Quick test_commit_path;
          Alcotest.test_case "abort path" `Quick test_abort_path_on_local_failure;
          Alcotest.test_case "site down" `Quick test_site_down_gives_N;
          Alcotest.test_case "nocommit on autocommit" `Quick test_nocommit_on_autocommit_engine_is_E;
          Alcotest.test_case "select results" `Quick test_select_task_collects_results;
          Alcotest.test_case "compensation" `Quick test_compensation;
          Alcotest.test_case "move" `Quick test_move;
          Alcotest.test_case "move keeps a local table" `Quick
            test_move_keeps_local_table;
          Alcotest.test_case "parallel faster" `Quick test_parallel_faster_than_sequential;
          Alcotest.test_case "program errors" `Quick test_program_errors;
          Alcotest.test_case "unknown service" `Quick test_unknown_service_is_unavailable;
          Alcotest.test_case "auto close" `Quick test_engine_closes_forgotten_aliases;
          Alcotest.test_case "trace" `Quick test_trace_events;
        ] );
    ]
