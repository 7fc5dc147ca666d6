(* The typed observability layer: trace event stream ordering, the
   metrics registry against the world's per-site ledger, EXPLAIN
   MULTIPLE's phase rendering, and the pool-release epilogue on
   malformed programs. *)
open Sqlcore
module M = Msql.Msession
module Metrics = Msql.Metrics
module Engine = Narada.Engine
module Trace = Narada.Trace
module D = Narada.Dol_ast
module Caps = Ldbms.Capabilities

let col = Schema.column
let s x = Value.Str x
let i x = Value.Int x
let f x = Value.Float x

(* ---- fixtures --------------------------------------------------------- *)

let flight_schema =
  [ col "flnu" Ty.Int; col "source" Ty.Str; col "rate" Ty.Float ]

(* two-airline world, as in test_dol *)
let engine_setup () =
  let world = Netsim.World.create () in
  Netsim.World.add_site world (Netsim.Site.make "site1");
  Netsim.World.add_site world (Netsim.Site.make "site2");
  let dir = Narada.Directory.create () in
  let mk name site =
    let db = Ldbms.Database.create name in
    Ldbms.Database.load db ~name:"flights" flight_schema
      [ [| i 1; s "Houston"; f 100.0 |]; [| i 2; s "Austin"; f 60.0 |] ];
    Narada.Directory.register dir
      (Narada.Service.make ~site ~caps:Caps.ingres_like db)
  in
  mk "aero" "site1";
  mk "bravo" "site2";
  (world, dir)

(* three-database federation: a small relation (sales) and two larger
   ones (parts, stock). The priced plan coordinates at store, the largest,
   and ships the other two unreduced: at these sizes no semijoin probe
   round trip pays *)
let sales_schema = [ col "sid" Ty.Int; col "part_id" Ty.Int; col "qty" Ty.Int ]

let parts_schema =
  [ col "pid" Ty.Int; col ~width:16 "pname" Ty.Str; col "price" Ty.Float ]

let stock_schema = [ col "spid" Ty.Int; col ~width:16 "wh" Ty.Str ]

let make_fed3 () =
  let world = Netsim.World.create () in
  let directory = Narada.Directory.create () in
  let session = M.create ~world ~directory () in
  let sales = List.init 10 (fun k -> [| i k; i (k mod 5); i (k + 1) |]) in
  let parts =
    List.init 200 (fun k -> [| i k; s (Printf.sprintf "part%d" k); f 9.5 |])
  in
  let stock =
    List.init 150 (fun k -> [| i (k mod 50); s (Printf.sprintf "wh%d" k) |])
  in
  List.iter
    (fun (name, site, tname, schema, rows) ->
      Netsim.World.add_site world (Netsim.Site.make site);
      let db = Ldbms.Database.create name in
      Ldbms.Database.load db ~name:tname schema rows;
      Narada.Directory.register directory
        (Narada.Service.make ~site ~caps:Caps.ingres_like db);
      (match M.incorporate_auto session ~service:name with
      | Ok () -> ()
      | Error m -> failwith m);
      match M.import_all session ~service:name with
      | Ok () -> ()
      | Error m -> failwith m)
    [
      ("market", "msite", "sales", sales_schema, sales);
      ("store", "ssite", "parts", parts_schema, parts);
      ("depot", "dsite", "stock", stock_schema, stock);
    ];
  (session, world)

let join3 =
  "USE market store depot SELECT s.sid, p.pname, st.wh FROM market.sales s, \
   store.parts p, depot.stock st WHERE s.part_id = p.pid AND s.part_id = \
   st.spid"

let contains = Astring_contains.contains

(* ---- pool release on Program_error ------------------------------------ *)

(* the program OPENs a connection and then dies on an unknown alias: the
   engine must still check the pooled connection back in, so the next
   run's OPEN is a pool hit, not a second dial *)
let test_pool_released_on_program_error () =
  let world, dir = engine_setup () in
  let pool = Narada.Pool.create world in
  let bad =
    {|
DOLBEGIN
OPEN aero AT site1 AS a;
TASK T1 FOR ghost { SELECT flnu FROM flights } ENDTASK;
DOLEND
|}
  in
  (match Engine.run_text ~pool ~directory:dir ~world bad with
  | Error m ->
      Alcotest.(check bool) "reports the unknown alias" true
        (contains m "ghost")
  | Ok _ -> Alcotest.fail "malformed program executed");
  Alcotest.(check int) "connection parked despite the error" 1
    (Narada.Pool.size pool);
  let good =
    {|
DOLBEGIN
OPEN aero AT site1 AS a;
TASK T1 FOR a { SELECT flnu FROM flights } ENDTASK;
CLOSE a;
DOLEND
|}
  in
  (match Engine.run_text ~pool ~directory:dir ~world good with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("second run: " ^ m));
  let st = Narada.Pool.stats pool in
  Alcotest.(check int) "second OPEN reuses the parked connection" 1
    st.Narada.Pool.hits

(* the Conflict abort class must go through the same epilogue as
   Program_error: the loser's pooled connection is checked back in (its
   conflicted transaction was already rolled back by the session), so the
   next OPEN is a pool hit, not a leak-forced dial *)
let test_pool_released_on_conflict_abort () =
  let world, dir = engine_setup () in
  let pool = Narada.Pool.create world in
  let parse text =
    match Narada.Dol_parser.parse text with
    | p -> p
    | exception Narada.Dol_parser.Error (m, _, _) -> Alcotest.fail m
  in
  let winner =
    parse
      {|
DOLBEGIN
OPEN aero AT site1 AS a;
TASK TA NOCOMMIT FOR a { UPDATE flights SET rate = rate * 1.1 } ENDTASK;
COMMIT TA;
DOLSTATUS=0;
CLOSE a;
DOLEND
|}
  in
  let loser =
    parse
      {|
DOLBEGIN
OPEN aero AT site1 AS b;
TASK TB NOCOMMIT FOR b { UPDATE flights SET rate = rate * 2.0 } ENDTASK;
COMMIT TB;
DOLSTATUS=0;
CLOSE b;
DOLEND
|}
  in
  let conflicts = ref 0 and conflict_aborts = ref 0 in
  let on_trace e =
    match e.Trace.kind with
    | Trace.Conflict _ -> incr conflicts
    | Trace.Conflict_abort { task; _ } ->
        Alcotest.(check string) "abort names the loser" "tb"
          (String.lowercase_ascii task);
        incr conflict_aborts
    | _ -> ()
  in
  let sa = Engine.start ~pool ~directory:dir ~world winner in
  let sb = Engine.start ~pool ~on_trace ~directory:dir ~world loser in
  (* A opens and prepares (reserving flights); B then opens and loses the
     first-committer-wins race, exhausting its transient-conflict retries *)
  ignore (Engine.step sa);
  ignore (Engine.step sa);
  ignore (Engine.step sb);
  ignore (Engine.step sb);
  let ob =
    match Engine.finish sb with Ok o -> o | Error m -> Alcotest.fail m
  in
  let oa =
    match Engine.finish sa with Ok o -> o | Error m -> Alcotest.fail m
  in
  Alcotest.(check bool) "winner committed" true
    (Engine.status_of oa "TA" = D.C);
  Alcotest.(check bool) "loser aborted" true (Engine.status_of ob "TB" = D.A);
  Alcotest.(check bool) "conflicts observed" true (!conflicts > 0);
  Alcotest.(check int) "one terminal conflict abort" 1 !conflict_aborts;
  Alcotest.(check bool) "conflict was retried as transient" true
    (ob.Engine.retries > 0);
  (* both connections were parked by the epilogues — no leak on the
     conflict abort path *)
  Alcotest.(check int) "both connections parked" 2 (Narada.Pool.size pool);
  let st = Narada.Pool.stats pool in
  Alcotest.(check int) "exactly two dials" 2 st.Narada.Pool.misses;
  let again =
    {|
DOLBEGIN
OPEN aero AT site1 AS a;
TASK T1 FOR a { SELECT flnu FROM flights } ENDTASK;
CLOSE a;
DOLEND
|}
  in
  (match Engine.run_text ~pool ~directory:dir ~world again with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("follow-up run: " ^ m));
  Alcotest.(check bool) "follow-up OPEN reuses a parked connection" true
    ((Narada.Pool.stats pool).Narada.Pool.hits > 0)

(* user data that merely reads like a conflict is not one: the fatal type
   error aborts the task with the executor's own message, and no conflict
   is counted *)
let test_conflict_text_in_user_data () =
  let fx = Msql.Fixtures.make () in
  let session = fx.Msql.Fixtures.session in
  let stmt = "UPDATE cars SET rate = - 'write-write conflict'" in
  let aborts = ref 0 in
  M.set_typed_trace session
    (Some
       (fun e ->
         match e.Trace.kind with
         | Trace.Conflict_abort _ -> incr aborts
         | _ -> ()));
  (match M.exec session ("USE avis " ^ stmt) with
  | Ok (M.Update_report { details = [ d ]; _ } as r) ->
      Alcotest.(check string) "task aborted" "A"
        (D.status_to_string d.M.rstatus);
      Alcotest.(check string) "report"
        "update success (DOLSTATUS=0, 20.01 ms)\n  avis: A"
        (M.result_to_string r)
  | Ok r -> Alcotest.fail (M.result_to_string r)
  | Error m -> Alcotest.fail m);
  let local =
    Ldbms.Session.connect (Msql.Fixtures.database fx "avis") Caps.ingres_like
  in
  (match Ldbms.Session.exec_sql local stmt with
  | Error (Ldbms.Session.Failed m) ->
      Alcotest.(check string) "executor message"
        "type error: negation of write-write conflict" m
  | Error e -> Alcotest.fail (Ldbms.Session.error_to_string e)
  | Ok _ -> Alcotest.fail "the type error must fail");
  Alcotest.(check int) "no Conflict_abort event" 0 !aborts;
  let m = M.metrics session in
  Alcotest.(check int) "conflict_aborts" 0 m.Metrics.conflict_aborts;
  Alcotest.(check int) "conflict_retries" 0 m.Metrics.conflict_retries

(* ---- trace event ordering --------------------------------------------- *)

let twopc_program =
  {|
DOLBEGIN
OPEN aero AT site1 AS a;
OPEN bravo AT site2 AS b;
TASK T1 NOCOMMIT FOR a { UPDATE flights SET rate = rate * 1.1 } ENDTASK;
TASK T2 NOCOMMIT FOR b { UPDATE flights SET rate = rate * 1.1 } ENDTASK;
IF (T1=P) AND (T2=P) THEN
BEGIN
COMMIT T1, T2;
DOLSTATUS=0;
END;
CLOSE a b;
DOLEND
|}

(* the 2PC decision event must be emitted before any second-phase commit
   drives a prepared task to C — it is what recovery would replay *)
let test_decision_precedes_second_phase () =
  let world, dir = engine_setup () in
  let events = ref [] in
  let outcome =
    match
      Engine.run_text
        ~on_trace:(fun e -> events := e :: !events)
        ~directory:dir ~world twopc_program
    with
    | Ok o -> o
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check int) "committed" 0 outcome.Engine.dolstatus;
  let events = Array.of_list (List.rev !events) in
  let find_idx pred =
    let rec go k =
      if k >= Array.length events then None
      else if pred events.(k).Trace.kind then Some k
      else go (k + 1)
    in
    go 0
  in
  let decision_idx =
    match
      find_idx (function
        | Trace.Decision { verdict = Trace.Commit; tasks } ->
            List.length tasks = 2
        | _ -> false)
    with
    | Some k -> k
    | None -> Alcotest.fail "no commit decision event"
  in
  let commit_idx task =
    match
      find_idx (function
        | Trace.Status { task = t; status = D.C } ->
            String.lowercase_ascii t = task
        | _ -> false)
    with
    | Some k -> k
    | None -> Alcotest.failf "no C transition for %s" task
  in
  List.iter
    (fun task ->
      Alcotest.(check bool)
        (Printf.sprintf "decision precedes %s -> C" task)
        true
        (decision_idx < commit_idx task))
    [ "t1"; "t2" ];
  (* the rendered stream is the historical textual trace *)
  let rendered = Array.to_list (Array.map Trace.render events) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("rendered trace has " ^ needle) true
        (List.exists (fun line -> contains line needle) rendered))
    [ "OPEN aero"; "T1 -> P"; "2PC decision COMMIT"; "T1 -> C"; "CLOSE a" ]

(* ---- metrics registry ------------------------------------------------- *)

(* after a shipped global join, the registry's MOVE byte total and the
   per-site ledger must both reproduce the world's global counters *)
let test_metrics_match_world () =
  let session, world = make_fed3 () in
  (match M.exec session join3 with
  | Ok (M.Multitable _) -> ()
  | Ok r -> Alcotest.fail (M.result_to_string r)
  | Error m -> Alcotest.fail m);
  let ws = Netsim.World.stats world in
  let sites = Netsim.World.per_site world in
  Alcotest.(check bool) "some traffic" true (ws.Netsim.World.bytes_moved > 0);
  let sum field = List.fold_left (fun acc (_, st) -> acc + field st) 0 sites in
  Alcotest.(check int) "per-site sent bytes sum to the global total"
    ws.Netsim.World.bytes_moved
    (sum (fun st -> st.Netsim.World.sent_bytes));
  Alcotest.(check int) "per-site recv bytes sum to the global total"
    ws.Netsim.World.bytes_moved
    (sum (fun st -> st.Netsim.World.recv_bytes));
  Alcotest.(check int) "per-site messages sum to the global count"
    ws.Netsim.World.messages
    (sum (fun st -> st.Netsim.World.sent_msgs));
  let m = M.metrics session in
  Alcotest.(check int) "one engine run" 1 m.Metrics.engine_runs;
  Alcotest.(check int) "one global plan" 1 m.Metrics.plans_global;
  Alcotest.(check int) "two shipped subqueries" 2 m.Metrics.subqueries_shipped;
  Alcotest.(check bool) "MOVEs observed" true (m.Metrics.moves >= 2);
  Alcotest.(check bool) "moved bytes counted" true (m.Metrics.moved_bytes > 0);
  let json = M.metrics_json session in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json has " ^ needle) true (contains json needle))
    [
      "\"planning\"";
      "\"engine\"";
      "\"caches\"";
      "\"network\"";
      "\"sites\"";
      Printf.sprintf "\"bytes_moved\": %d" ws.Netsim.World.bytes_moved;
      "\"site\": \"msite\"";
      "\"site\": \"ssite\"";
      "\"site\": \"dsite\"";
    ]

(* the typed sink installed on the session sees the engine's events *)
let test_session_typed_trace () =
  let session, _world = make_fed3 () in
  let moves = ref 0 in
  M.set_typed_trace session
    (Some
       (fun e ->
         match e.Trace.kind with
         | Trace.Moved { bytes; _ } ->
             incr moves;
             Alcotest.(check bool) "moved bytes positive" true (bytes > 0)
         | _ -> ()));
  (match M.exec session join3 with
  | Ok (M.Multitable _) -> ()
  | Ok r -> Alcotest.fail (M.result_to_string r)
  | Error m -> Alcotest.fail m);
  Alcotest.(check int) "both shipped subqueries observed as MOVEs" 2 !moves

(* a MOVE ships as one message: the engine reports each MOVE of the plan
   with exactly one Moved event and never emits Chunk *)
let test_one_moved_per_move () =
  let fx = Msql.Fixtures.make () in
  let session = fx.Msql.Fixtures.session in
  let q =
    {|USE continental delta united
      SELECT c.flnu, d.fnu, u.fn
      FROM continental.flights c, delta.flight d, united.flight u
      WHERE c.day = d.day AND d.day = u.day|}
  in
  let rec plan_moves = function
    | [] -> []
    | D.Move { mname; _ } :: rest -> mname :: plan_moves rest
    | D.Parallel inner :: rest -> plan_moves inner @ plan_moves rest
    | D.If (_, a, b) :: rest -> plan_moves a @ plan_moves b @ plan_moves rest
    | _ :: rest -> plan_moves rest
  in
  let planned =
    match M.translate session q with
    | Ok prog -> List.sort compare (plan_moves prog)
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check int) "the plan ships two databases" 2 (List.length planned);
  let moved = ref [] and chunks = ref 0 in
  M.set_typed_trace session
    (Some
       (fun e ->
         match e.Trace.kind with
         | Trace.Moved { mname; _ } -> moved := mname :: !moved
         | Trace.Chunk _ -> incr chunks
         | _ -> ()));
  (match M.exec session q with
  | Ok (M.Multitable _) -> ()
  | Ok r -> Alcotest.fail (M.result_to_string r)
  | Error m -> Alcotest.fail m);
  Alcotest.(check (list string)) "one Moved per MOVE" planned
    (List.sort compare !moved);
  Alcotest.(check int) "no Chunk event" 0 !chunks

(* ---- EXPLAIN MULTIPLE ------------------------------------------------- *)

let test_explain_multiple_golden () =
  let session, world = make_fed3 () in
  Netsim.World.reset_stats world;
  let before_ms = Netsim.World.now_ms world in
  let text =
    match M.exec session ("EXPLAIN MULTIPLE " ^ join3) with
    | Ok (M.Info text) -> text
    | Ok r -> Alcotest.fail (M.result_to_string r)
    | Error m -> Alcotest.fail m
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("explain has " ^ needle) true
        (contains text needle))
    [
      "== phase 1-2: scope and expansion ==";
      "scope: market, store, depot";
      "global join over 3 table reference(s)";
      "market.sales";
      "store.parts";
      "depot.stock";
      "== phase 3: decomposition ==";
      "coordinator: store";
      "priced alternatives (cheapest first):";
      "  * coordinator store, depot full, market full: est. 35.74 ms, 3909 B";
      "    coordinator market, depot reduced, store reduced:";
      "ship ";
      "semijoin DECLINED:";
      "key byte(s)";
      "== phase 4: DOL program ==";
      "DOLBEGIN";
      "MOVE";
      "DOLEND";
    ];
  (* phases only: nothing executed, no traffic, no virtual time *)
  let ws = Netsim.World.stats world in
  Alcotest.(check int) "no messages" 0 ws.Netsim.World.messages;
  Alcotest.(check (float 0.0)) "no virtual time" before_ms
    (Netsim.World.now_ms world);
  Alcotest.(check bool) "no engine outcome" true
    (M.last_engine_outcome session = None);
  let m = M.metrics session in
  Alcotest.(check int) "counted as explain" 1 m.Metrics.explains;
  Alcotest.(check int) "no engine run" 0 m.Metrics.engine_runs;
  (* the explained semijoin decision is recorded in the registry *)
  Alcotest.(check bool) "semijoin gate outcomes counted" true
    (m.Metrics.semijoins_applied + m.Metrics.semijoins_declined > 0);
  (* like execution, EXPLAIN MULTIPLE establishes the scope *)
  Alcotest.(check int) "scope persisted" 3
    (List.length (M.current_scope session))

(* plain EXPLAIN still renders just the DOL program *)
let test_explain_plain_unchanged () =
  let session, _world = make_fed3 () in
  match M.exec session ("EXPLAIN " ^ join3) with
  | Ok (M.Info text) ->
      Alcotest.(check bool) "program only" true (contains text "DOLBEGIN");
      Alcotest.(check bool) "no phase headers" false (contains text "phase 3")
  | Ok r -> Alcotest.fail (M.result_to_string r)
  | Error m -> Alcotest.fail m

let () =
  Alcotest.run "observability"
    [
      ( "engine epilogue",
        [
          Alcotest.test_case "pool released on Program_error" `Quick
            test_pool_released_on_program_error;
          Alcotest.test_case "pool released on conflict abort" `Quick
            test_pool_released_on_conflict_abort;
          Alcotest.test_case "conflict text in user data" `Quick
            test_conflict_text_in_user_data;
        ] );
      ( "trace",
        [
          Alcotest.test_case "2PC decision precedes second phase" `Quick
            test_decision_precedes_second_phase;
          Alcotest.test_case "session typed sink" `Quick
            test_session_typed_trace;
          Alcotest.test_case "one Moved per MOVE, no Chunk" `Quick
            test_one_moved_per_move;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry matches world stats" `Quick
            test_metrics_match_world;
        ] );
      ( "explain multiple",
        [
          Alcotest.test_case "golden 3-database join" `Quick
            test_explain_multiple_golden;
          Alcotest.test_case "plain explain unchanged" `Quick
            test_explain_plain_unchanged;
        ] );
    ]
