(* Fault tolerance: deterministic chaos in netsim, transient-vs-fatal
   injection, retry/backoff under the virtual clock, and the engine's
   in-doubt 2PC recovery (verdict replay, presumed abort, vital-split
   compensation). *)

open Sqlcore
module World = Netsim.World
module Inject = Ldbms.Failure_injector
module D = Narada.Dol_ast
module Engine = Narada.Engine
module Lam = Narada.Lam
module Policy = Narada.Retry_policy
module Caps = Ldbms.Capabilities

let status =
  Alcotest.testable
    (fun ppf s -> Format.pp_print_string ppf (D.status_to_string s))
    (fun a b -> a = b)

let value = Alcotest.testable Value.pp Value.equal
let contains = Astring_contains.contains

(* ---- netsim faults -------------------------------------------------------- *)

let two_sites () =
  let w = World.create () in
  World.add_site w (Netsim.Site.make "alpha");
  World.add_site w (Netsim.Site.make "beta");
  w

let test_down_until_recovers () =
  let w = two_sites () in
  World.set_down_until w "alpha" 50.0;
  Alcotest.(check bool) "down now" true (World.is_down w "alpha");
  (match World.next_recovery_ms w "alpha" with
  | Some t -> Alcotest.(check (float 0.001)) "recovery instant" 50.0 t
  | None -> Alcotest.fail "expected a scheduled recovery");
  World.advance_ms w 50.0;
  Alcotest.(check bool) "recovered at the instant" false
    (World.is_down w "alpha");
  (* the site answers again without any explicit clearing *)
  World.send w ~src:"beta" ~dst:"alpha" ~bytes:10

let test_scheduled_outage_window () =
  let w = two_sites () in
  World.schedule_outage w "alpha" ~from_ms:10.0 ~until_ms:20.0;
  Alcotest.(check bool) "up before" false (World.is_down w "alpha");
  World.advance_ms w 10.0;
  Alcotest.(check bool) "down inside" true (World.is_down w "alpha");
  World.advance_ms w 10.0;
  Alcotest.(check bool) "up after" false (World.is_down w "alpha")

let test_lose_next_is_one_shot () =
  let w = two_sites () in
  World.lose_next w ~src:"alpha" ~dst:"beta";
  (match World.send w ~src:"alpha" ~dst:"beta" ~bytes:10 with
  | () -> Alcotest.fail "expected Lost_message"
  | exception World.Lost_message ("alpha", "beta") -> ()
  | exception _ -> Alcotest.fail "wrong exception");
  (* the queue is consumed: the resend goes through *)
  World.send w ~src:"alpha" ~dst:"beta" ~bytes:10;
  Alcotest.(check int) "one loss counted" 1 (World.stats w).World.lost;
  (* the reverse direction was never affected *)
  World.send w ~src:"beta" ~dst:"alpha" ~bytes:10

let lost_pattern w n =
  List.init n (fun _ ->
      match World.send w ~src:"alpha" ~dst:"beta" ~bytes:8 with
      | () -> false
      | exception World.Lost_message _ -> true)

let test_seeded_loss_is_deterministic () =
  let w1 = two_sites () and w2 = two_sites () in
  World.set_loss w1 ~seed:7 ~prob:0.5;
  World.set_loss w2 ~seed:7 ~prob:0.5;
  let p1 = lost_pattern w1 60 and p2 = lost_pattern w2 60 in
  Alcotest.(check (list bool)) "same seed, same losses" p1 p2;
  Alcotest.(check bool) "some lost" true (List.mem true p1);
  Alcotest.(check bool) "some delivered" true (List.mem false p1);
  (* a different seed gives a different pattern *)
  let w3 = two_sites () in
  World.set_loss w3 ~seed:8 ~prob:0.5;
  Alcotest.(check bool) "different seed differs" false (lost_pattern w3 60 = p1)

(* ---- failure injector ----------------------------------------------------- *)

let kind_sequence inj n =
  List.init n (fun _ ->
      match Inject.fires_kind inj Inject.At_execute with
      | None -> "-"
      | Some Inject.Transient -> "t"
      | Some Inject.Fatal -> "f")

let test_set_random_deterministic () =
  let i1 = Inject.create () and i2 = Inject.create () in
  Inject.set_random ~kind:Inject.Transient i1 ~seed:11 ~prob:0.3;
  Inject.set_random ~kind:Inject.Transient i2 ~seed:11 ~prob:0.3;
  let s1 = kind_sequence i1 50 and s2 = kind_sequence i2 50 in
  Alcotest.(check (list string)) "same seed, same firings" s1 s2;
  Alcotest.(check bool) "fires transient" true (List.mem "t" s1);
  Alcotest.(check bool) "never fatal" false (List.mem "f" s1)

(* Every failure constructor under both classifiers, with the text it
   renders: retry decisions read the constructor, and the text stays what
   the trace and the shell have always printed. *)
let test_transient_classification () =
  let module S = Ldbms.Session in
  let injected kind point = Lam.Local (S.Injected { kind; point }) in
  let r = Policy.Retryable and t = Policy.Terminal in
  let show = function
    | Policy.Retryable -> "Retryable"
    | Policy.Terminal -> "Terminal"
  in
  List.iter
    (fun (f, io, local_aware, text) ->
      Alcotest.(check string) (text ^ ": classify_io") (show io)
        (show (Lam.classify_io f));
      Alcotest.(check string)
        (text ^ ": classify_local_aware")
        (show local_aware)
        (show (Lam.classify_local_aware f));
      Alcotest.(check string) "rendered text" text (Lam.failure_message f))
    [
      ( Lam.Local (S.Conflict { table = "flights"; op = "write" }), t, r,
        "transient write-write conflict on flights at write: first committer \
         wins" );
      ( injected Inject.Transient Inject.At_execute, t, r,
        "transient injected failure at execute; transaction rolled back" );
      ( injected Inject.Fatal Inject.At_commit, t, t,
        "injected failure at commit; transaction rolled back" );
      ( injected Inject.Transient Inject.At_connect, t, r,
        "transient connection refused by service" );
      ( injected Inject.Fatal Inject.At_connect, t, t,
        "connection refused by service" );
      (Lam.Local (S.Failed "constraint violated"), t, t, "constraint violated");
      (Lam.Network "site alpha is down", r, r, "site alpha is down");
      (Lam.Lost "message mdbs -> alpha lost", r, r,
       "message mdbs -> alpha lost");
      (Lam.In_doubt "message alpha -> mdbs lost", t, t,
       "message alpha -> mdbs lost");
      (Lam.Busy "aero", r, r, "connection cap reached at aero (pool busy)");
    ]

(* ---- retry policy --------------------------------------------------------- *)

let test_backoff_deterministic_and_bounded () =
  let p = Policy.default in
  List.iter
    (fun attempt ->
      let d1 = Policy.backoff_ms p ~key:"exec:site1" ~attempt in
      let d2 = Policy.backoff_ms p ~key:"exec:site1" ~attempt in
      Alcotest.(check (float 0.0)) "deterministic" d1 d2;
      Alcotest.(check bool) "positive" true (d1 > 0.0);
      Alcotest.(check bool) "within jittered cap" true
        (d1 <= p.Policy.max_backoff_ms *. (1.0 +. p.Policy.jitter)))
    [ 1; 2; 3; 4; 5 ];
  (* distinct keys get distinct jitter *)
  Alcotest.(check bool) "keys decorrelate" false
    (Policy.backoff_ms p ~key:"a" ~attempt:1
    = Policy.backoff_ms p ~key:"b" ~attempt:1)

let flight_schema =
  [ Schema.column "flnu" Ty.Int; Schema.column "source" Ty.Str;
    Schema.column "rate" Ty.Float ]

let mk_service w name site caps =
  World.add_site w (Netsim.Site.make site);
  let db = Ldbms.Database.create name in
  Ldbms.Database.load db ~name:"flights" flight_schema
    [ [| Value.Int 1; Value.Str "Houston"; Value.Float 100.0 |] ];
  Narada.Service.make ~site ~caps db

let test_retry_until_exhausted () =
  let w = World.create () in
  let svc = mk_service w "aero" "site1" Caps.ingres_like in
  World.set_down w "site1" true;
  let attempts = ref 0 in
  let t0 = World.now_ms w in
  (match
     Lam.connect
       ~on_retry:(fun ~op:_ ~attempt:_ ~delay_ms:_ _ -> incr attempts)
       w svc
   with
  | Ok _ -> Alcotest.fail "connect to a dead site must fail"
  | Error (Lam.Network _) -> ()
  | Error _ -> Alcotest.fail "expected a network failure");
  Alcotest.(check int) "all retries spent"
    (Policy.default.Policy.max_attempts - 1)
    !attempts;
  let spent = World.now_ms w -. t0 in
  Alcotest.(check bool) "backoff charged to the clock" true (spent > 0.0);
  Alcotest.(check bool) "within budget" true
    (spent <= Policy.default.Policy.budget_ms)

let test_transient_connect_refusal_retried () =
  let w = World.create () in
  let svc = mk_service w "aero" "site1" Caps.ingres_like in
  Inject.fail_next ~kind:Inject.Transient svc.Narada.Service.injector
    Inject.At_connect;
  let attempts = ref 0 in
  match
    Lam.connect
      ~on_retry:(fun ~op:_ ~attempt:_ ~delay_ms:_ _ -> incr attempts)
      w svc
  with
  | Ok _ -> Alcotest.(check int) "one retry" 1 !attempts
  | Error f -> Alcotest.fail ("expected recovery, got " ^ Lam.failure_message f)

(* ---- engine: retry, in-doubt recovery, splits ----------------------------- *)

let setup () =
  let world = World.create () in
  let dir = Narada.Directory.create () in
  let mk name site =
    let svc = mk_service world name site Caps.ingres_like in
    Narada.Directory.register dir svc;
    svc.Narada.Service.database
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

(* a vital pair: both must prepare, then both commit; K1 undoes T1 *)
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
  BEGIN
    ABORT T1, T2;
    IF (T1=C) THEN
    BEGIN COMP K1 COMPENSATES T1 FOR aa { UPDATE flights SET rate = rate - 10 } ENDCOMP; END;
    DOLSTATUS = 1;
  END;
  CLOSE aa bb;
DOLEND
|}

(* the same program with no compensation anywhere *)
let vital_pair_no_comp = {|
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

(* run [text], arming [trip] the first time a trace line contains [arm_on] —
   the hook that lets a test place a fault precisely inside the 2PC window *)
(* [metrics] folds the run's trace: the engine keeps no counts of its own *)
let run_armed ~world ~dir ?grace ?(metrics = Msql.Metrics.create ()) ~arm_on
    ~trip text =
  let armed = ref false in
  let on_trace ev =
    Msql.Metrics.observe metrics ev;
    if (not !armed) && contains (Narada.Trace.render ev) arm_on then begin
      armed := true;
      trip ()
    end
  in
  match
    Engine.run_text ~on_trace ?recovery_grace_ms:grace ~directory:dir ~world
      text
  with
  | Ok o ->
      Alcotest.(check bool) "fault was armed" true !armed;
      o
  | Error m -> Alcotest.fail ("engine error: " ^ m)

let test_lost_commit_message_retried () =
  let world, dir, a, b = setup () in
  let m = Msql.Metrics.create () in
  let o =
    run_armed ~world ~dir ~metrics:m ~arm_on:"T2 -> P"
      ~trip:(fun () -> World.lose_next world ~src:"mdbs" ~dst:"site2")
      vital_pair
  in
  (* the commit decision message vanished once; the retry resent it *)
  Alcotest.check status "t1 committed" D.C (Engine.status_of o "T1");
  Alcotest.check status "t2 committed" D.C (Engine.status_of o "T2");
  Alcotest.(check int) "dolstatus" 0 o.Engine.dolstatus;
  Alcotest.(check bool) "retried" true (m.Msql.Metrics.retries > 0);
  Alcotest.(check int) "nothing left in doubt" 0 o.Engine.in_doubt;
  Alcotest.check value "a updated" (Value.Float 110.0) (rate a 1);
  Alcotest.check value "b updated" (Value.Float 110.0) (rate b 1)

let test_in_doubt_recovers_to_commit () =
  let world, dir, a, b = setup () in
  let m = Msql.Metrics.create () in
  let o =
    run_armed ~world ~dir ~metrics:m ~arm_on:"T2 -> P"
      ~trip:(fun () ->
        (* crash bravo's site for 100 ms: longer than the retry budget of a
           single commit, shorter than the engine's recovery grace *)
        World.set_down_until world "site2" (World.now_ms world +. 100.0))
      vital_pair
  in
  Alcotest.check status "t1 committed" D.C (Engine.status_of o "T1");
  Alcotest.check status "t2 recovered to C" D.C (Engine.status_of o "T2");
  Alcotest.(check int) "recovered count" 1 m.Msql.Metrics.recovered;
  Alcotest.(check int) "nothing in doubt" 0 o.Engine.in_doubt;
  Alcotest.(check bool) "no split" false o.Engine.vital_split;
  Alcotest.check value "a updated" (Value.Float 110.0) (rate a 1);
  Alcotest.check value "b updated" (Value.Float 110.0) (rate b 1)

let test_permanent_failure_fires_comp () =
  let world, dir, a, b = setup () in
  let o =
    run_armed ~world ~dir ~grace:200.0 ~arm_on:"T2 -> P"
      ~trip:(fun () -> World.set_down world "site2" true)
      vital_pair
  in
  (* T1 committed but T2 can never learn the verdict: the commit verdict
     is revoked, the queued COMP (from the untaken ELSE branch) undoes T1,
     and the group degrades to a clean abort *)
  Alcotest.check status "t1 compensated" D.X (Engine.status_of o "T1");
  Alcotest.check status "k1 ran" D.C (Engine.status_of o "K1");
  Alcotest.check status "t2 presumed abort" D.A (Engine.status_of o "T2");
  Alcotest.(check bool) "no split reported" false o.Engine.vital_split;
  Alcotest.(check int) "t2 still in doubt at the site" 1 o.Engine.in_doubt;
  Alcotest.check value "a undone" (Value.Float 100.0) (rate a 1);
  (* bravo's prepared transaction is still open at the dead site, but its
     update is a staged intent: under snapshot isolation nothing
     uncommitted is ever visible to other readers, and the intent is
     discarded when the site recovers and rolls back per the (revoked)
     abort verdict *)
  Alcotest.check value "b intent invisible" (Value.Float 100.0) (rate b 1)

let test_permanent_failure_without_comp_is_split () =
  let world, dir, a, _b = setup () in
  let o =
    run_armed ~world ~dir ~grace:200.0 ~arm_on:"T2 -> P"
      ~trip:(fun () -> World.set_down world "site2" true)
      vital_pair_no_comp
  in
  Alcotest.check status "t1 stays committed" D.C (Engine.status_of o "T1");
  Alcotest.check status "t2 presumed abort" D.A (Engine.status_of o "T2");
  Alcotest.(check bool) "vital split" true o.Engine.vital_split;
  Alcotest.(check int) "in doubt" 1 o.Engine.in_doubt;
  Alcotest.check value "a kept the update" (Value.Float 110.0) (rate a 1)

let test_transient_exec_outage_aborts_cleanly () =
  let world, dir, a, b = setup () in
  (* bravo's site is down from the start and stays down past every retry:
     the command never takes effect, so the vital pair aborts cleanly —
     no exception escapes, no state is left unknown *)
  World.set_down world "site2" true;
  let o =
    match
      Engine.run_text ~directory:dir ~world vital_pair_no_comp
    with
    | Ok o -> o
    | Error m -> Alcotest.fail ("engine error: " ^ m)
  in
  Alcotest.(check int) "dolstatus" 1 o.Engine.dolstatus;
  Alcotest.check status "t1 aborted" D.A (Engine.status_of o "T1");
  Alcotest.(check bool) "no split" false o.Engine.vital_split;
  Alcotest.check value "a untouched" (Value.Float 100.0) (rate a 1);
  Alcotest.check value "b untouched" (Value.Float 100.0) (rate b 1)

(* both members compensable: a split can always be healed *)
let vital_pair_both_comps = {|
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
  BEGIN
    ABORT T1, T2;
    IF (T1=C) THEN
    BEGIN COMP K1 COMPENSATES T1 FOR aa { UPDATE flights SET rate = rate - 10 } ENDCOMP; END;
    IF (T2=C) THEN
    BEGIN COMP K2 COMPENSATES T2 FOR bb { UPDATE flights SET rate = rate - 10 } ENDCOMP; END;
    DOLSTATUS = 1;
  END;
  CLOSE aa bb;
DOLEND
|}

let test_message_loss_storm_still_consistent () =
  (* under heavy seeded loss the outcome must be success or clean abort —
     never a split — and replaying the seed gives the identical outcome *)
  let run_with_seed seed =
    let world, dir, a, b = setup () in
    World.set_loss world ~seed ~prob:0.2;
    let m = Msql.Metrics.create () in
    match
      Engine.run_text ~on_trace:(Msql.Metrics.observe m) ~directory:dir ~world
        vital_pair_both_comps
    with
    | Error m -> Alcotest.fail ("engine error: " ^ m)
    | Ok o ->
        Alcotest.(check bool) "never split" false o.Engine.vital_split;
        let both v = Value.equal (rate a 1) v && Value.equal (rate b 1) v in
        Alcotest.(check bool) "atomic across sites" true
          (both (Value.Float 110.0) || both (Value.Float 100.0));
        (o.Engine.dolstatus, m.Msql.Metrics.retries, Engine.status_of o "T1")
  in
  List.iter
    (fun seed ->
      let r1 = run_with_seed seed and r2 = run_with_seed seed in
      Alcotest.(check bool) "deterministic replay" true (r1 = r2))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* ---- connection pool ------------------------------------------------------ *)

module Pool = Narada.Pool
module M = Msql.Msession
module Metrics = Msql.Metrics

let pool_service () =
  let db = Ldbms.Database.create "adb" in
  Ldbms.Database.load db ~name:"t"
    [ Schema.column "x" Ty.Int ]
    [ [| Value.Int 1 |] ];
  Narada.Service.make ~site:"alpha" ~caps:Caps.ingres_like db

(* the pool keeps no counters: each checkout's trace is folded into [m] *)
let checkout_exn m pool svc =
  match Pool.checkout ~on_trace:(Metrics.observe m) pool svc with
  | Ok (lam, _) -> lam
  | Error f -> Alcotest.fail (Lam.failure_message f)

(* a parked connection whose site failed while it idled is broken even
   after the site recovers: checkout must notice, discard it, and dial a
   working replacement *)
let test_pool_stale_after_outage () =
  let w = two_sites () in
  let svc = pool_service () in
  let pool = Pool.create w in
  let m = Metrics.create () in
  let lam1 = checkout_exn m pool svc in
  Pool.checkin pool lam1;
  Alcotest.(check int) "parked" 1 (Pool.size pool);
  let lam2 = checkout_exn m pool svc in
  Alcotest.(check int) "healthy reuse" 1 m.Metrics.caches.Metrics.pool_hits;
  Pool.checkin pool lam2;
  (* outage opens and closes entirely while the connection idles *)
  World.advance_ms w 100.0;
  World.schedule_outage w "alpha" ~from_ms:110.0 ~until_ms:120.0;
  World.advance_ms w 50.0;
  Alcotest.(check bool) "site is back up" false (World.is_down w "alpha");
  let lam3 = checkout_exn m pool svc in
  Alcotest.(check int) "stale one discarded" 1
    m.Metrics.caches.Metrics.pool_discarded;
  Alcotest.(check int) "re-dialed" 2 m.Metrics.caches.Metrics.pool_misses;
  (match Lam.fetch lam3 "SELECT x FROM t" with
  | Ok rel -> Alcotest.(check int) "replacement works" 1 (Relation.cardinality rel)
  | Error f -> Alcotest.fail (Lam.failure_message f));
  Pool.checkin pool lam3

(* a session holding an open transaction must never be parked: the orphan
   is rolled back by the disconnect, exactly as the LDBMS aborts the
   victim when its client dies *)
let test_pool_refuses_open_txn () =
  let w = two_sites () in
  let svc = pool_service () in
  let pool = Pool.create w in
  let m = Metrics.create () in
  let lam = checkout_exn m pool svc in
  (match Ldbms.Session.exec_sql (Lam.session lam) "UPDATE t SET x = 2" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Ldbms.Session.error_to_string e));
  Alcotest.(check bool) "txn open" true
    (Ldbms.Session.in_transaction (Lam.session lam));
  Pool.checkin pool lam;
  Alcotest.(check int) "not parked" 0 (Pool.size pool);
  let lam2 = checkout_exn m pool svc in
  Alcotest.(check int) "dialed fresh" 2 m.Metrics.caches.Metrics.pool_misses;
  (match Lam.fetch lam2 "SELECT x FROM t" with
  | Ok rel ->
      Alcotest.(check value) "orphan rolled back" (Value.Int 1)
        (List.hd (Relation.rows rel)).(0)
  | Error f -> Alcotest.fail (Lam.failure_message f))

(* session level: with pooling on, a site failing between statements costs
   one discarded connection, not a failed statement *)
let test_pooled_session_survives_outage () =
  let w = two_sites () in
  let directory = Narada.Directory.create () in
  let session = M.create ~world:w ~directory () in
  let db = Ldbms.Database.create "adb" in
  Ldbms.Database.load db ~name:"t"
    [ Schema.column "x" Ty.Int ]
    [ [| Value.Int 1 |]; [| Value.Int 2 |] ];
  Narada.Directory.register directory
    (Narada.Service.make ~site:"alpha" ~caps:Caps.ingres_like db);
  (match M.incorporate_auto session ~service:"adb" with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (match M.import_all session ~service:"adb" with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  M.set_pooling session true;
  let select () =
    match M.exec session "USE adb SELECT x FROM adb.t" with
    | Ok (M.Multitable _) -> ()
    | Ok r -> Alcotest.fail (M.result_to_string r)
    | Error m -> Alcotest.fail m
  in
  select ();
  select ();
  Alcotest.(check bool) "reused between statements" true
    ((M.cache_stats session).M.pool_hits > 0);
  (* the site crashes and recovers between two statements *)
  let now = World.now_ms w in
  World.schedule_outage w "alpha" ~from_ms:(now +. 1.0) ~until_ms:(now +. 2.0);
  World.advance_ms w 10.0;
  select ();
  Alcotest.(check bool) "stale connection discarded" true
    ((M.cache_stats session).M.pool_discarded > 0)

(* ---- MOVE landing tables under a failed MOVE group ---------------------- *)

module F = Msql.Fixtures

(* airline1 coordinates; airline2's MOVE lands, airline3's cannot: its
   site is down, so the group fails and t_clean never runs *)
let failed_move_group fx =
  Netsim.World.set_down fx.F.world "asite3" true;
  M.exec fx.F.session
    "USE airline1 airline2 airline3 SELECT a.flnu, b.flnu, c.flnu FROM \
     airline1.flights a, airline2.flights b, airline3.flights c WHERE \
     a.source = b.source AND b.source = c.source"

(* the landing table belonged to the coordinator's connection, so it
   went with it: nothing enters airline1's catalog, and a re-IMPORT
   finds nothing to publish as airline1's data *)
let test_failed_move_group_leaves_no_table () =
  let fx = F.airline_fleet ~flights_per_db:20 ~n:3 () in
  (match failed_move_group fx with
  | Error m ->
      Alcotest.(check string) "abort names the unmoved source"
        "multiple query aborted: vital subquery failed on airline3" m
  | Ok r -> Alcotest.fail ("expected an abort, got " ^ M.result_to_string r));
  Alcotest.(check (list string)) "airline1's catalog is its own" [ "flights" ]
    (Ldbms.Database.table_names (F.database fx "airline1"));
  (match M.exec fx.F.session "IMPORT DATABASE airline1 FROM SERVICE airline1" with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  match M.exec fx.F.session "USE airline1 SELECT * FROM msql_tmp_1" with
  | Ok r -> Alcotest.fail ("leftover served: " ^ M.result_to_string r)
  | Error _ -> ()

(* with a pool, CLOSE parks the coordinator's connection: parking drops
   its landing tables, so the next user of that connection cannot read
   the leftover *)
let test_parked_connection_drops_landing () =
  let fx = F.airline_fleet ~flights_per_db:20 ~n:3 () in
  let pool = Pool.create fx.F.world in
  M.set_shared_pool fx.F.session pool;
  ignore (failed_move_group fx);
  let pooled = ref false in
  let on_trace ev =
    match ev.Narada.Trace.kind with
    | Narada.Trace.Opened { pooled = p; _ } -> pooled := p
    | _ -> ()
  in
  let o =
    match
      Engine.run_text ~on_trace ~pool ~directory:fx.F.directory
        ~world:fx.F.world
        {|
DOLBEGIN
  OPEN airline1 AT asite1 AS a1;
  TASK T1 FOR a1 { SELECT * FROM msql_tmp_1 } ENDTASK;
  DOLSTATUS = 0;
  CLOSE a1;
DOLEND
|}
    with
    | Ok o -> o
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check bool) "the parked connection was reused" true !pooled;
  Alcotest.check status "the leftover is not there" D.A
    (Engine.status_of o "T1");
  let svc = Option.get (Narada.Directory.find_opt fx.F.directory "airline1") in
  match Pool.checkout pool svc with
  | Error f -> Alcotest.fail (Lam.failure_message f)
  | Ok (lam, reused) -> (
      Alcotest.(check bool) "same parked connection" true reused;
      match Lam.fetch lam "SELECT * FROM msql_tmp_1" with
      | Ok _ -> Alcotest.fail "leftover served on a parked connection"
      | Error f ->
          Alcotest.(check bool) "no such table" true
            (contains (Lam.failure_message f) "no such table"))

let () =
  Alcotest.run "failures"
    [
      ( "netsim faults",
        [
          Alcotest.test_case "down-until recovers" `Quick test_down_until_recovers;
          Alcotest.test_case "outage window" `Quick test_scheduled_outage_window;
          Alcotest.test_case "lose-next one-shot" `Quick test_lose_next_is_one_shot;
          Alcotest.test_case "seeded loss deterministic" `Quick
            test_seeded_loss_is_deterministic;
        ] );
      ( "injector",
        [
          Alcotest.test_case "set_random deterministic" `Quick
            test_set_random_deterministic;
          Alcotest.test_case "transient classification" `Quick
            test_transient_classification;
        ] );
      ( "retry",
        [
          Alcotest.test_case "backoff deterministic" `Quick
            test_backoff_deterministic_and_bounded;
          Alcotest.test_case "budget exhausted" `Quick test_retry_until_exhausted;
          Alcotest.test_case "transient connect retried" `Quick
            test_transient_connect_refusal_retried;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "lost commit retried" `Quick
            test_lost_commit_message_retried;
          Alcotest.test_case "in-doubt recovers to C" `Quick
            test_in_doubt_recovers_to_commit;
          Alcotest.test_case "permanent failure fires COMP" `Quick
            test_permanent_failure_fires_comp;
          Alcotest.test_case "split without COMP" `Quick
            test_permanent_failure_without_comp_is_split;
          Alcotest.test_case "exec outage aborts cleanly" `Quick
            test_transient_exec_outage_aborts_cleanly;
          Alcotest.test_case "loss storm consistent" `Quick
            test_message_loss_storm_still_consistent;
        ] );
      ( "pool",
        [
          Alcotest.test_case "stale after outage" `Quick
            test_pool_stale_after_outage;
          Alcotest.test_case "refuses open txn" `Quick test_pool_refuses_open_txn;
          Alcotest.test_case "pooled session survives outage" `Quick
            test_pooled_session_survives_outage;
        ] );
      ( "MOVE landing",
        [
          Alcotest.test_case "failed MOVE group leaves no table" `Quick
            test_failed_move_group_leaves_no_table;
          Alcotest.test_case "parked connection drops landing tables" `Quick
            test_parked_connection_drops_landing;
        ] );
    ]
