(* Domain-pool execution. Three layers of assurance:

   - Dpool unit behavior: every job of every batch runs, batches are
     independent, the caller is itself an execution lane, and a 2-wide
     pool really does run two jobs concurrently (a rendezvous that can
     only complete if the jobs overlap in time).
   - The parallel second phase of 2PC in virtual time: committing a
     3-site vital update costs the slowest participant's round trip, not
     the sum of the three (E3's commit phase = max of branches).
   - The determinism differential: running the paper examples and the
     chaos/failure fixtures with 2 and 4 domains must produce
     byte-identical outcomes, typed trace streams, metrics JSON and
     per-site ledgers compared to the sequential run. *)
open Sqlcore
module F = Msql.Fixtures
module M = Msql.Msession
module World = Netsim.World
module Engine = Narada.Engine
module Dpool = Narada.Dpool
module Trace = Narada.Trace
module Caps = Ldbms.Capabilities

let col = Schema.column
let i x = Value.Int x
let f x = Value.Float x

(* ---- Dpool ------------------------------------------------------------ *)

let test_dpool_runs_everything () =
  let pool = Dpool.create ~domains:4 in
  Fun.protect ~finally:(fun () -> Dpool.shutdown pool) @@ fun () ->
  Alcotest.(check int) "width counts the caller" 4 (Dpool.size pool);
  let m = Mutex.create () in
  let hits = ref 0 in
  let job () =
    Mutex.lock m;
    incr hits;
    Mutex.unlock m
  in
  (* more jobs than lanes: the queue drains completely *)
  Dpool.run_all pool (List.init 37 (fun _ -> job));
  Alcotest.(check int) "all jobs ran" 37 !hits;
  (* completion is per batch, so the pool is immediately reusable *)
  Dpool.run_all pool (List.init 5 (fun _ -> job));
  Alcotest.(check int) "second batch ran" 42 !hits

let test_dpool_width_one_is_the_caller () =
  let pool = Dpool.create ~domains:1 in
  Fun.protect ~finally:(fun () -> Dpool.shutdown pool) @@ fun () ->
  let caller = Domain.self () in
  let seen = ref [] in
  Dpool.run_all pool (List.init 3 (fun k () -> seen := (k, Domain.self ()) :: !seen));
  Alcotest.(check int) "all ran" 3 (List.length !seen);
  List.iter
    (fun (_, d) ->
      Alcotest.(check bool) "on the calling domain" true (d = caller))
    !seen

(* two jobs that each wait for the other to start: completes only if the
   pool really runs them at the same time on two domains *)
let test_dpool_jobs_overlap () =
  let pool = Dpool.create ~domains:2 in
  Fun.protect ~finally:(fun () -> Dpool.shutdown pool) @@ fun () ->
  let a = Atomic.make false and b = Atomic.make false in
  (* Sys.time is processor time, which a spinning domain consumes, so the
     loop is bounded even if the jobs were (wrongly) serialized *)
  let deadline = Sys.time () +. 10.0 in
  let wait_for flag =
    while (not (Atomic.get flag)) && Sys.time () < deadline do
      Domain.cpu_relax ()
    done;
    Atomic.get flag
  in
  let met = Atomic.make 0 in
  Dpool.run_all pool
    [
      (fun () ->
        Atomic.set a true;
        if wait_for b then Atomic.incr met);
      (fun () ->
        Atomic.set b true;
        if wait_for a then Atomic.incr met);
    ];
  Alcotest.(check int) "both jobs saw each other running" 2 (Atomic.get met)

let test_dpool_shared_memoized () =
  let p1 = Dpool.shared ~domains:3 in
  let p2 = Dpool.shared ~domains:3 in
  let p3 = Dpool.shared ~domains:2 in
  Alcotest.(check bool) "same width shares one pool" true (p1 == p2);
  Alcotest.(check bool) "different width is a different pool" true (p1 != p3)

(* ---- E3 commit phase: max of branches, not sum ------------------------ *)

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
        [ col "flnu" Ty.Int; col "rate" Ty.Float ]
        [ [| i 1; f 100.0 |] ];
      Narada.Directory.register dir
        (Narada.Service.make ~site ~caps:Caps.ingres_like db))
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

let commit_phase_ms ?dpool () =
  let world, dir = graded_world () in
  let events = ref [] in
  (match
     Engine.run_text ?dpool
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
        | Trace.Status { status = Narada.Dol_ast.C; _ } ->
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

let test_commit_phase_same_under_domains () =
  let seq = commit_phase_ms () in
  let dom = commit_phase_ms ~dpool:(Dpool.shared ~domains:4) () in
  Alcotest.(check (float 1e-9)) "identical virtual phase" seq dom

(* ---- determinism differential ----------------------------------------- *)

(* everything observable about a run, rendered to strings *)
type transcript = {
  tr_results : string list;
  tr_trace : string list;
  tr_metrics : string;
  tr_ledger : string;
  tr_clock : float;
}

let ledger world =
  String.concat "\n"
    (List.map
       (fun (name, st) ->
         Printf.sprintf "%s: sent=%d msg/%d B recv=%d msg/%d B" name
           st.World.sent_msgs st.World.sent_bytes st.World.recv_msgs
           st.World.recv_bytes)
       (World.per_site world))

(* build a fixture, configure it, run the statements, capture everything.
   [domains = 1] is the sequential reference. *)
let run_scenario ~domains ~prepare ~stmts () =
  let fx = F.make ~caps:[ ("continental", Caps.sybase_like) ] () in
  M.set_domains fx.F.session domains;
  prepare fx;
  let events = ref [] in
  M.set_typed_trace fx.F.session
    (Some
       (fun e ->
         events :=
           Printf.sprintf "%.6f|%s" e.Trace.at_ms (Trace.render_kind e.Trace.kind)
           :: !events));
  let results =
    List.map
      (fun sql ->
        match M.exec fx.F.session sql with
        | Ok r -> M.result_to_string r
        | Error m -> "ERROR: " ^ m)
      stmts
  in
  {
    tr_results = results;
    tr_trace = List.rev !events;
    tr_metrics = M.metrics_json fx.F.session;
    tr_ledger = ledger fx.F.world;
    tr_clock = World.now_ms fx.F.world;
  }

let check_identical name a b =
  Alcotest.(check (list string)) (name ^ ": results") a.tr_results b.tr_results;
  Alcotest.(check (list string)) (name ^ ": typed trace") a.tr_trace b.tr_trace;
  Alcotest.(check string) (name ^ ": metrics json") a.tr_metrics b.tr_metrics;
  Alcotest.(check string) (name ^ ": per-site ledger") a.tr_ledger b.tr_ledger;
  Alcotest.(check (float 0.0)) (name ^ ": virtual clock") a.tr_clock b.tr_clock

let differential name ~prepare ~stmts () =
  let reference = run_scenario ~domains:1 ~prepare ~stmts () in
  List.iter
    (fun domains ->
      let got = run_scenario ~domains ~prepare ~stmts () in
      check_identical (Printf.sprintf "%s @ %d domains" name domains)
        reference got)
    [ 2; 4 ]

let e1_query =
  {|
USE avis national
LET car.type.status BE cars.cartype.carst vehicle.vty.vstat
SELECT %code, type, ~rate
FROM car
WHERE status = 'available'
|}

let e2_query =
  {|
USE continental delta united
UPDATE flight%
SET rate% = rate% * 1.1
WHERE sour% = 'Houston' AND dest% = 'San Antonio'
|}

let e3_query =
  {|
USE delta VITAL united VITAL
UPDATE flight%
SET rate% = rate% * 1.1
WHERE sour% = 'Houston' AND dest% = 'San Antonio'
|}

let e4_query =
  {|
USE continental VITAL delta united VITAL
UPDATE flight%
SET rate% = rate% * 1.1
WHERE sour% = 'Houston' AND dest% = 'San Antonio'
COMP continental
UPDATE flights
SET rate = rate / 1.1
WHERE source = 'Houston' AND destination = 'San Antonio'
|}

let e5_mtx =
  {|
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

let global_join =
  {|
USE continental delta
SELECT c.flnu, d.fnu
FROM continental.flights c, delta.flight d
WHERE c.source = d.source
|}

let nothing _ = ()

let test_diff_paper_examples () =
  differential "E1 multiple select" ~prepare:nothing ~stmts:[ e1_query ] ();
  differential "E2 multiple update" ~prepare:nothing ~stmts:[ e2_query ] ();
  differential "E3 vital update" ~prepare:nothing ~stmts:[ e3_query ] ();
  differential "E4 compensation" ~prepare:nothing ~stmts:[ e4_query ] ();
  differential "E5 multitransaction" ~prepare:nothing ~stmts:[ e5_mtx ] ()

let test_diff_global_join () =
  differential "global join" ~prepare:nothing ~stmts:[ global_join ] ()

let test_diff_sequences () =
  (* repeated statements through one session: status tables, caches and
     the recovery log all carry state across runs *)
  differential "E2 then E3 then E1" ~prepare:nothing
    ~stmts:[ e2_query; e3_query; e1_query ]
    ()

let test_diff_site_down () =
  differential "delta's site permanently down"
    ~prepare:(fun fx -> World.set_down fx.F.world "site2" true)
    ~stmts:[ e3_query; e5_mtx ]
    ()

let test_diff_outage_window () =
  differential "scheduled outage at united"
    ~prepare:(fun fx ->
      World.schedule_outage fx.F.world "site3" ~from_ms:5.0 ~until_ms:200.0)
    ~stmts:[ e2_query; e2_query ]
    ()

let test_diff_transient_injected () =
  (* a transient execute failure on one lane: the retry happens inside
     the domain branch, against that lane's private injector *)
  differential "transient abort at delta"
    ~prepare:(fun fx ->
      let svc = Narada.Directory.find fx.F.directory "delta" in
      Ldbms.Failure_injector.fail_next ~kind:Ldbms.Failure_injector.Transient
        svc.Narada.Service.injector Ldbms.Failure_injector.At_execute)
    ~stmts:[ e3_query ]
    ()

let test_diff_message_loss () =
  (* message loss shares one seeded PRNG, so the eligibility gate must
     refuse domain execution; the differential proves the fallback is
     exact (including retry counts and loss accounting) *)
  differential "seeded message loss"
    ~prepare:(fun fx -> World.set_loss fx.F.world ~seed:11 ~prob:0.15)
    ~stmts:[ e2_query; e3_query ]
    ()

let test_diff_pooled_session () =
  differential "performance layers on"
    ~prepare:(fun fx ->
      M.set_pooling fx.F.session true;
      M.set_plan_cache fx.F.session true)
    ~stmts:[ e2_query; e2_query; e1_query ]
    ()

(* ---- Engine: per-branch buffer reuse ---------------------------------- *)

let test_branch_buf_reuse () =
  let e2 =
    {|USE continental delta united
UPDATE flight% SET rate% = rate% * 1.1
WHERE sour% = 'Houston' AND dest% = 'San Antonio'|}
  in
  let run () =
    let fx = F.make () in
    M.set_domains fx.F.session 2;
    match M.exec fx.F.session e2 with
    | Ok _ -> ()
    | Error m -> Alcotest.fail m
  in
  (* populate the freelist (first run may miss), then measure *)
  run ();
  let h0, _ = Engine.branch_buf_stats () in
  run ();
  let h1, m1 = Engine.branch_buf_stats () in
  Alcotest.(check bool)
    (Printf.sprintf "second run reuses branch buffers (hits %d -> %d, misses %d)"
       h0 h1 m1)
    true
    (h1 - h0 >= 3)

let () =
  Alcotest.run "domains"
    [
      ( "dpool",
        [
          Alcotest.test_case "runs every job" `Quick test_dpool_runs_everything;
          Alcotest.test_case "width one is the caller" `Quick
            test_dpool_width_one_is_the_caller;
          Alcotest.test_case "jobs overlap in time" `Quick
            test_dpool_jobs_overlap;
          Alcotest.test_case "shared pools memoized" `Quick
            test_dpool_shared_memoized;
        ] );
      ( "engine",
        [ Alcotest.test_case "branch buffer reuse" `Quick test_branch_buf_reuse ]
      );
      ( "2pc fan-out",
        [
          Alcotest.test_case "commit phase is max of branches" `Quick
            test_commit_phase_is_max_of_branches;
          Alcotest.test_case "identical under domains" `Quick
            test_commit_phase_same_under_domains;
        ] );
      ( "determinism differential",
        [
          Alcotest.test_case "paper examples" `Quick test_diff_paper_examples;
          Alcotest.test_case "global join" `Quick test_diff_global_join;
          Alcotest.test_case "statement sequences" `Quick test_diff_sequences;
          Alcotest.test_case "site down" `Quick test_diff_site_down;
          Alcotest.test_case "outage window" `Quick test_diff_outage_window;
          Alcotest.test_case "transient injected failure" `Quick
            test_diff_transient_injected;
          Alcotest.test_case "message loss fallback" `Quick
            test_diff_message_loss;
          Alcotest.test_case "pooled session" `Quick test_diff_pooled_session;
        ] );
    ]
