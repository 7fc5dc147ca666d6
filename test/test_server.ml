(* The concurrent multi-session server: wire protocol round trips and
   line framing, admission control and queue shedding, round-robin
   fairness, the server-vs-Interleave differential, one interleaved
   group per round on per-member clocks, shared parse/plan/result caches
   across sessions, and capped-pool conflict requeues. *)

module F = Msql.Fixtures
module M = Msql.Msession
module S = Msql.Server
module W = Msql.Wire
module I = Msql.Interleave
module Metrics = Msql.Metrics
module Trace = Narada.Trace

let contains = Astring_contains.contains

let config ?(max_sessions = 64) ?(max_queue = 16) ?(max_requeues = 8)
    ?pool_cap () =
  { S.max_sessions; max_queue; max_requeues; pool_cap; domains = 1 }

let ok_result = function
  | Ok r -> r
  | Error m -> Alcotest.fail ("unexpected statement error: " ^ m)

let connect_exn srv =
  match S.connect srv with
  | Ok sid -> sid
  | Error e -> Alcotest.fail (S.error_message e)

let submit_exn srv sid sql =
  match S.submit srv sid sql with
  | Ok seq -> seq
  | Error e -> Alcotest.fail (S.error_message e)

(* ---- wire protocol ---------------------------------------------------- *)

let test_wire_roundtrip () =
  let srv = S.of_fixtures ~config:(config ()) (F.make ()) in
  let c = W.create srv in
  (match W.on_line c "STMT USE avis SELECT code FROM cars" with
  | [ reply ] ->
      Alcotest.(check bool) "STMT before HELLO refused" true
        (contains reply "ERROR protocol")
  | _ -> Alcotest.fail "expected one protocol error line");
  (match W.on_line c "HELLO" with
  | [ "HELLO 1" ] -> ()
  | other -> Alcotest.fail (String.concat "|" other));
  Alcotest.(check (option int)) "sid bound" (Some 1) (W.sid c);
  Alcotest.(check (list string))
    "accepted STMT replies asynchronously" []
    (W.on_line c "STMT USE avis SELECT code FROM cars WHERE cartype = 'sedan'");
  (match S.drain srv with
  | [ comp ] ->
      let line = W.completion_line comp in
      Alcotest.(check bool) "RESULT line" true
        (String.length line > 9 && String.sub line 0 9 = "RESULT 1 ");
      Alcotest.(check bool) "single line" true
        (not (String.contains line '\n'));
      let payload =
        W.unescape (String.sub line 9 (String.length line - 9))
      in
      Alcotest.(check bool) "table came back" true (contains payload "code")
  | comps ->
      Alcotest.fail (Printf.sprintf "expected 1 completion, got %d"
                       (List.length comps)));
  (match W.on_line c "NOPE" with
  | [ reply ] ->
      Alcotest.(check bool) "unknown command" true
        (contains reply "ERROR protocol")
  | _ -> Alcotest.fail "expected one error line");
  (match W.on_line c "BYE" with
  | [ "BYE" ] -> ()
  | other -> Alcotest.fail (String.concat "|" other));
  Alcotest.(check (option int)) "sid released" None (W.sid c);
  Alcotest.(check int) "session retired" 0 (S.live_sessions srv)

let test_wire_escaping () =
  let samples = [ "a\nb"; "back\\slash"; "\\n"; ""; "plain" ] in
  List.iter
    (fun s ->
      Alcotest.(check string) ("roundtrip " ^ String.escaped s) s
        (W.unescape (W.escape s));
      Alcotest.(check bool) "escaped is one line" true
        (not (String.contains (W.escape s) '\n')))
    samples

let hello srv =
  let c = W.create srv in
  (match W.feed c "HELLO\n" with
  | [ "HELLO 1" ] -> ()
  | other -> Alcotest.fail (String.concat "|" other));
  c

let test_wire_split_line () =
  let srv = S.of_fixtures ~config:(config ()) (F.make ()) in
  let c = hello srv in
  Alcotest.(check (list string)) "first chunk: no reply" []
    (W.feed c "STMT USE avis SEL");
  Alcotest.(check (list string)) "second chunk: no reply" []
    (W.feed c "ECT code FROM cars WHERE cartyp");
  Alcotest.(check (list string)) "third chunk completes the line" []
    (W.feed c "e = 'sedan'\nNO");
  (match S.drain srv with
  | [ comp ] ->
      Alcotest.(check bool) "one RESULT" true
        (contains (W.completion_line comp) "RESULT 1 ")
  | comps ->
      Alcotest.fail
        (Printf.sprintf "expected 1 completion, got %d" (List.length comps)));
  (* the partial "NO" stays buffered until its newline arrives *)
  match W.feed c "PE\n" with
  | [ reply ] ->
      Alcotest.(check bool) "buffered partial line completed" true
        (contains reply "unknown command NOPE")
  | other -> Alcotest.fail (String.concat "|" other)

let test_wire_line_too_long () =
  let srv = S.of_fixtures ~config:(config ()) (F.make ()) in
  let c = hello srv in
  let half = String.make ((W.max_line_bytes / 2) + 1) 'x' in
  Alcotest.(check (list string)) "under the cap: buffered" []
    (W.feed c ("STMT " ^ half));
  Alcotest.(check (list string)) "over the cap: one error"
    [ "ERROR protocol: line too long" ]
    (W.feed c half);
  Alcotest.(check (list string)) "the rest of the line is dropped" []
    (W.feed c half);
  Alcotest.(check (list string)) "the next line is served"
    [ "ERROR protocol: unknown command NOPE" ]
    (W.feed c "tail\nNOPE\n");
  Alcotest.(check int) "nothing was submitted" 0 (S.queued srv)

(* ---- admission control and shedding ----------------------------------- *)

let test_admission_and_shedding () =
  let srv =
    S.of_fixtures ~config:(config ~max_sessions:2 ~max_queue:2 ()) (F.make ())
  in
  let s1 = connect_exn srv in
  let _s2 = connect_exn srv in
  (match S.connect srv with
  | Error (S.Overloaded m) ->
      Alcotest.(check bool) "says why" true (contains m "session table full")
  | Ok _ | Error _ -> Alcotest.fail "third connect must be shed");
  let q = "USE avis SELECT code FROM cars" in
  ignore (submit_exn srv s1 q);
  ignore (submit_exn srv s1 q);
  (match S.submit srv s1 q with
  | Error (S.Overloaded m) ->
      Alcotest.(check bool) "says why" true (contains m "queue full")
  | Ok _ | Error _ -> Alcotest.fail "third submit must be shed");
  (match S.submit srv 99 q with
  | Error (S.Unknown_session 99) -> ()
  | Ok _ | Error _ -> Alcotest.fail "unknown sid must be typed");
  let st = S.stats srv in
  Alcotest.(check int) "rejected counted" 1 st.S.rejected;
  Alcotest.(check int) "shed counted" 1 st.S.shed;
  (* the queue drains and capacity comes back *)
  let comps = S.drain srv in
  Alcotest.(check int) "both queued statements ran" 2 (List.length comps);
  match S.submit srv s1 q with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (S.error_message e)

(* ---- fairness --------------------------------------------------------- *)

let test_round_robin_fairness () =
  let srv = S.of_fixtures ~config:(config ()) (F.make ()) in
  let sids = List.init 3 (fun _ -> connect_exn srv) in
  (* every session enqueues two statements up front *)
  List.iter
    (fun sid ->
      ignore (submit_exn srv sid "USE avis SELECT code FROM cars");
      ignore (submit_exn srv sid "USE national SELECT vcode FROM vehicle"))
    sids;
  let round1 = S.step_round srv in
  Alcotest.(check (list int)) "one statement per session, connect order"
    sids
    (List.map (fun c -> c.S.c_sid) round1);
  Alcotest.(check (list int)) "all first statements" [ 1; 1; 1 ]
    (List.map (fun c -> c.S.c_seq) round1);
  let round2 = S.step_round srv in
  Alcotest.(check (list int)) "second statements next round" [ 2; 2; 2 ]
    (List.map (fun c -> c.S.c_seq) round2);
  List.iter (fun c -> ignore (ok_result c.S.c_result)) (round1 @ round2);
  Alcotest.(check int) "queues empty" 0 (S.queued srv)

(* ---- differentials ---------------------------------------------------- *)

(* each client k owns airline<k> for its first two statements; the third
   contends on purpose: client 1 updates airline2 while the others read
   it, so one group interleaves a write with reads of the same rows *)
let client_sql k =
  [
    Printf.sprintf
      "USE airline%d UPDATE flights SET rate = rate * 2 WHERE source = \
       'Houston'"
      k;
    Printf.sprintf
      "USE airline%d SELECT flnu, rate FROM flights WHERE destination = \
       'Denver'"
      k;
    (if k = 1 then
       "USE airline2 UPDATE flights SET rate = rate + 1 WHERE destination = \
        'Denver'"
     else
       "USE airline2 SELECT flnu, rate FROM flights WHERE destination = \
        'Denver'");
  ]

let fleet_scans fx n =
  List.init n (fun i ->
      Sqlcore.Relation.to_string
        (F.scan fx ~db:(Printf.sprintf "airline%d" (i + 1)) ~table:"flights"))

(* the server's serial wave schedule must be exactly Interleave's
   round-robin: same results, same final state *)
let test_server_matches_interleave () =
  let n = 3 in
  let via_server () =
    let fx = F.airline_fleet ~flights_per_db:20 ~n () in
    let srv = S.of_fixtures ~config:(config ()) fx in
    let sids = List.init n (fun _ -> connect_exn srv) in
    List.iteri
      (fun i sid -> List.iter (fun q -> ignore (submit_exn srv sid q))
          (client_sql (i + 1)))
      sids;
    let comps = S.drain srv in
    let results =
      List.map
        (fun c -> M.result_to_string (ok_result c.S.c_result))
        (List.sort
           (fun a b ->
             compare (a.S.c_sid, a.S.c_seq) (b.S.c_sid, b.S.c_seq))
           comps)
    in
    (results, fleet_scans fx n)
  in
  let via_interleave () =
    let fx = F.airline_fleet ~flights_per_db:20 ~n () in
    let base = fx.F.session in
    (* configure the baseline sessions exactly like server members:
       shared dictionaries, one shared pool, one communal cache block *)
    let pool = Narada.Pool.create fx.F.world in
    let sc = M.shared_caches () in
    let sessions =
      List.init n (fun _ ->
          let s =
            M.create ~world:fx.F.world ~directory:fx.F.directory
              ~ad:(M.ad base) ~gdd:(M.gdd base) ()
          in
          M.set_shared_caches s sc;
          M.set_shared_pool s pool;
          s)
    in
    (* one wave per statement rank, like the server's rounds *)
    let results = ref [] in
    for rank = 0 to 2 do
      let participants =
        List.mapi
          (fun i session ->
            { I.label = Printf.sprintf "s%d" (i + 1);
              session;
              sql = List.nth (client_sql (i + 1)) rank })
          sessions
      in
      let outcome = I.run ~schedule:I.Round_robin participants in
      results :=
        !results
        @ List.map
            (fun (label, r) -> (label, rank, M.result_to_string (ok_result r)))
            outcome
    done;
    let sorted =
      List.sort compare !results |> List.map (fun (_, _, r) -> r)
    in
    (sorted, fleet_scans fx n)
  in
  let server_results, server_state = via_server () in
  let inter_results, inter_state = via_interleave () in
  Alcotest.(check (list string)) "same results" inter_results server_results;
  Alcotest.(check (list string)) "same final state" inter_state server_state

(* every shipped MOVE materializes into msql_tmp_<k>, named per plan,
   not per session: sessions whose global joins ship into the same
   coordinator must never interleave in one group, or one session's temp
   table clobbers the other's *)
(* Three joins all coordinated at airline1, so every MOVE ships into
   one site under the same temp name (msql_tmp_1). Each lands in its
   own run's connection, so the three interleave in one round and still
   answer as the serial run does. *)
let test_joins_into_one_site_share_a_round () =
  let n = 4 in
  let cities = [| "Houston"; "Dallas"; "Austin"; "Denver" |] in
  (* airline1 is named first, so it coordinates every join *)
  let join k =
    Printf.sprintf
      "USE airline1 airline%d SELECT a.flnu, b.flnu FROM airline1.flights \
       a, airline%d.flights b WHERE a.source = b.source AND a.destination \
       = '%s'"
      (k + 1) (k + 1) cities.(k - 1)
  in
  let stmts = List.init (n - 1) (fun i -> join (i + 1)) in
  let serial =
    let fx = F.airline_fleet ~flights_per_db:20 ~n () in
    List.map
      (fun q ->
        match M.exec fx.F.session q with
        | Ok r -> M.result_to_string r
        | Error m -> Alcotest.fail ("serial run: " ^ m))
      stmts
  in
  let fx = F.airline_fleet ~flights_per_db:20 ~n () in
  let srv = S.of_fixtures ~config:(config ()) fx in
  let events = ref [] in
  S.set_trace srv (Some (fun ev -> events := ev :: !events));
  let sids = List.map (fun _ -> connect_exn srv) stmts in
  List.iter2 (fun sid q -> ignore (submit_exn srv sid q)) sids stmts;
  let comps = S.step_round srv in
  Alcotest.(check int) "every statement completed in one round"
    (List.length stmts) (List.length comps);
  (* interleaved: every member has opened its sites before any member's
     run ends, which a member-after-member schedule never does *)
  let opened, ended =
    List.fold_left
      (fun (opened, ended) ev ->
        match ev.Trace.kind with
        | Trace.Opened _ when ended = 0 && not (List.mem ev.Trace.tag opened)
          ->
            (ev.Trace.tag :: opened, ended)
        | Trace.Run_ended _ -> (opened, ended + 1)
        | _ -> (opened, ended))
      ([], 0) (List.rev !events)
  in
  Alcotest.(check int) "the members' steps interleave" (List.length stmts)
    (List.length opened);
  Alcotest.(check int) "every run ended" (List.length stmts) ended;
  Alcotest.(check (list string)) "same answers as the serial run" serial
    (List.map
       (fun sid ->
         let c = List.find (fun c -> c.S.c_sid = sid) comps in
         M.result_to_string (ok_result c.S.c_result))
       sids)

(* Reads at k different airlines in one round: each member steps on its
   own clock, so the round moves the world clock by the slowest member's
   elapsed time, not by the sum of them. *)
let test_round_costs_its_slowest_member () =
  let k = 3 in
  let fx = F.airline_fleet ~flights_per_db:20 ~n:k () in
  let srv = S.of_fixtures ~config:(config ()) fx in
  let sids = List.init k (fun _ -> connect_exn srv) in
  List.iteri
    (fun j sid ->
      (* wider projections ship more bytes: the members differ in time *)
      let cols = List.filteri (fun c _ -> c <= j) [ "flnu"; "source"; "rate" ] in
      ignore
        (submit_exn srv sid
           (Printf.sprintf "USE airline%d SELECT %s FROM flights" (j + 1)
              (String.concat ", " cols))))
    sids;
  let t0 = Netsim.World.now_ms fx.F.world in
  let comps = S.step_round srv in
  List.iter (fun c -> ignore (ok_result c.S.c_result)) comps;
  let elapsed =
    List.map
      (fun sid ->
        (Option.get (M.last_engine_outcome (Option.get (S.session srv sid))))
          .Narada.Engine.elapsed_ms)
      sids
  in
  let slowest = List.fold_left max 0.0 elapsed in
  Alcotest.(check bool) "the members' times differ" true
    (List.exists (fun e -> e < slowest) elapsed);
  Alcotest.(check (float 1e-9)) "the round costs its slowest member" slowest
    (Netsim.World.now_ms fx.F.world -. t0);
  Alcotest.(check bool) "less than the sum" true
    (slowest < List.fold_left ( +. ) 0.0 elapsed)

(* ---- cross-session cache sharing -------------------------------------- *)

(* the pool keeps no counters: fold the server's merged trace instead *)
let traced srv =
  let m = Metrics.create () and events = ref [] in
  S.set_trace srv
    (Some
       (fun ev ->
         Metrics.observe m ev;
         events := ev :: !events));
  (m, fun () -> List.rev !events)

let test_shared_cache_accounting () =
  let srv = S.of_fixtures ~config:(config ()) (F.make ()) in
  let m, _ = traced srv in
  let s1 = connect_exn srv in
  let s2 = connect_exn srv in
  (* a cross-database join ships subqueries between sites, which is what
     the shipped-result cache memoizes *)
  let q =
    "USE avis national SELECT c.code, v.vcode FROM avis.cars c, \
     national.vehicle v WHERE c.cartype = v.vty"
  in
  ignore (submit_exn srv s1 q);
  List.iter (fun c -> ignore (ok_result c.S.c_result)) (S.drain srv);
  ignore (submit_exn srv s2 q);
  List.iter (fun c -> ignore (ok_result c.S.c_result)) (S.drain srv);
  let cs1 = M.cache_stats (Option.get (S.session srv s1)) in
  let cs2 = M.cache_stats (Option.get (S.session srv s2)) in
  Alcotest.(check int) "first sharer planned" 1 cs1.M.plan_misses;
  Alcotest.(check int) "second sharer reused the plan" 1 cs2.M.plan_hits;
  Alcotest.(check int) "second sharer planned nothing" 0 cs2.M.plan_misses;
  Alcotest.(check bool) "first sharer shipped" true (cs1.M.result_misses > 0);
  Alcotest.(check bool) "second sharer moved zero bytes" true
    (cs2.M.result_hits > 0 && cs2.M.result_misses = 0);
  let agg = S.cache_stats srv in
  Alcotest.(check int) "aggregate folds both sessions"
    (cs1.M.plan_hits + cs2.M.plan_hits) agg.M.plan_hits;
  (* pool counters come from the traced checkouts, folded exactly once *)
  Alcotest.(check int) "pool counted once" m.Metrics.caches.Metrics.pool_hits
    agg.M.pool_hits

(* a shared pool's traffic belongs to the member that checked out: each
   member counts its own OPENs, and the members sum to the server *)
let test_pool_accounting_per_member () =
  let srv = S.of_fixtures ~config:(config ()) (F.make ()) in
  let _, events = traced srv in
  let s1 = connect_exn srv in
  let s2 = connect_exn srv in
  ignore (submit_exn srv s1 "USE avis SELECT code FROM cars");
  ignore
    (submit_exn srv s2
       "USE avis national SELECT c.code, v.vcode FROM avis.cars c, \
        national.vehicle v WHERE c.cartype = v.vty");
  List.iter (fun c -> ignore (ok_result c.S.c_result)) (S.drain srv);
  let opens sid =
    List.length
      (List.filter
         (fun ev ->
           ev.Trace.tag = Some (Printf.sprintf "s%d" sid)
           && match ev.Trace.kind with Trace.Opened _ -> true | _ -> false)
         (events ()))
  in
  let checkouts sid =
    let cs = M.cache_stats (Option.get (S.session srv sid)) in
    cs.M.pool_hits + cs.M.pool_misses
  in
  Alcotest.(check int) "first member: one OPEN" 1 (opens s1);
  Alcotest.(check int) "second member: two OPENs" 2 (opens s2);
  Alcotest.(check int) "first member counts its own" (opens s1) (checkouts s1);
  Alcotest.(check int) "second member counts its own" (opens s2)
    (checkouts s2);
  let agg = S.cache_stats srv in
  Alcotest.(check int) "members sum to the server"
    (checkouts s1 + checkouts s2)
    (agg.M.pool_hits + agg.M.pool_misses)

(* the server's registry is the fold of the merged member stream: a
   fresh registry fed every event [set_trace] saw exports the same
   document, and a retired member's counts stay in *)
let test_registry_is_merged_fold () =
  let srv = S.of_fixtures ~config:(config ()) (F.make ()) in
  let m, _ = traced srv in
  let s1 = connect_exn srv and s2 = connect_exn srv and s3 = connect_exn srv in
  let join =
    "USE avis national SELECT c.code, v.vcode FROM avis.cars c, \
     national.vehicle v WHERE c.cartype = v.vty"
  in
  List.iter
    (fun (sid, sql) -> ignore (submit_exn srv sid sql))
    [
      (s1, "USE avis SELECT code FROM cars");
      (s2, join);
      (s3, join);
      (s3, "EXPLAIN USE avis SELECT code FROM cars");
      (s3, "USE avis SELECT code FROM nonexistent");
      (s1, "USE continental delta UPDATE flight% SET rate% = rate% * 1.1");
    ];
  ignore (S.drain srv);
  (match S.disconnect srv s3 with
  | Ok () -> ()
  | Error e -> Alcotest.fail (S.error_message e));
  ignore (submit_exn srv s2 "USE national SELECT vcode FROM vehicle");
  ignore (S.drain srv);
  let own = S.metrics srv in
  Alcotest.(check int) "every statement counted, the retired member's too" 7
    own.Metrics.statements;
  Alcotest.(check int) "the EXPLAIN counted" 1
    own.Metrics.explains;
  let world = S.world srv in
  Alcotest.(check string) "registry = fold of the merged stream"
    (Metrics.to_json m ~world) (S.metrics_json srv)

(* an outage while a connection idles in the server's pool makes it
   stale; the member whose checkout discards it sees the discard on its
   own trace and counts it *)
let test_pool_stale_in_server () =
  let fx = F.make () in
  let srv = S.of_fixtures ~config:(config ()) fx in
  let _, events = traced srv in
  let s1 = connect_exn srv in
  let s2 = connect_exn srv in
  let q = "USE avis SELECT code FROM cars" in
  ignore (submit_exn srv s1 q);
  List.iter (fun c -> ignore (ok_result c.S.c_result)) (S.drain srv);
  let world = S.world srv in
  let site =
    (Option.get (Narada.Directory.find_opt fx.F.directory "avis"))
      .Narada.Service.site
  in
  let now = Netsim.World.now_ms world in
  Netsim.World.schedule_outage world site ~from_ms:(now +. 1.0)
    ~until_ms:(now +. 2.0);
  Netsim.World.advance_ms world 10.0;
  ignore (submit_exn srv s2 q);
  List.iter (fun c -> ignore (ok_result c.S.c_result)) (S.drain srv);
  let stale =
    List.filter_map
      (fun ev ->
        match ev.Trace.kind with
        | Trace.Pool_stale _ -> Some ev.Trace.tag
        | _ -> None)
      (events ())
  in
  Alcotest.(check (list (option string))) "the discard is on s2's trace"
    [ Some (Printf.sprintf "s%d" s2) ] stale;
  let discarded sid =
    (M.cache_stats (Option.get (S.session srv sid))).M.pool_discarded
  in
  Alcotest.(check int) "s2 discarded it" 1 (discarded s2);
  Alcotest.(check int) "s1 did not" 0 (discarded s1)

let test_shared_cache_epoch_invalidation () =
  let srv = S.of_fixtures ~config:(config ()) (F.make ()) in
  let s1 = connect_exn srv in
  let s2 = connect_exn srv in
  let q = "USE avis SELECT code FROM cars" in
  ignore (submit_exn srv s1 q);
  List.iter (fun c -> ignore (ok_result c.S.c_result)) (S.drain srv);
  (* a dictionary change through any sharer bumps the shared epoch *)
  (match
     M.exec (Option.get (S.session srv s1)) "IMPORT DATABASE avis FROM SERVICE avis"
   with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  ignore (submit_exn srv s2 q);
  List.iter (fun c -> ignore (ok_result c.S.c_result)) (S.drain srv);
  let cs2 = M.cache_stats (Option.get (S.session srv s2)) in
  Alcotest.(check int) "stale shared plan not served" 0 cs2.M.plan_hits;
  Alcotest.(check int) "replanned under the new epoch" 1 cs2.M.plan_misses

(* an autonomous commit lands at the source of a shared shipped entry
   between rounds, while the members' connections idle in the shared
   pool: the next checkout learns the source's new stamp, so the read
   ships again and answers the new data *)
let test_shared_cache_autonomous_write () =
  let fx = F.make () in
  let srv = S.of_fixtures ~config:(config ()) fx in
  let _, events = traced srv in
  let s1 = connect_exn srv and s2 = connect_exn srv in
  let q =
    "USE avis national SELECT c.code, v.vcode FROM avis.cars c, \
     national.vehicle v WHERE c.cartype = v.vty"
  in
  let round () =
    List.iter (fun sid -> ignore (submit_exn srv sid q)) [ s1; s2 ];
    List.map (fun c -> M.result_to_string (ok_result c.S.c_result)) (S.drain srv)
  in
  let misses () =
    List.fold_left
      (fun acc sid ->
        acc + (M.cache_stats (Option.get (S.session srv sid))).M.result_misses)
      0 [ s1; s2 ]
  in
  ignore (round ());
  let warm = misses () in
  let before = round () in
  Alcotest.(check int) "a quiet round ships nothing" warm (misses ());
  (* the join ships national's vehicles to avis *)
  let national = Option.get (Narada.Directory.find_opt fx.F.directory "national") in
  Alcotest.(check bool) "national is the MOVE source" true
    (List.exists
       (fun ev ->
         match ev.Trace.kind with
         | Trace.Moved { src; _ } -> src = national.Narada.Service.site
         | _ -> false)
       (events ()));
  let local =
    Ldbms.Session.connect national.Narada.Service.database
      national.Narada.Service.caps
  in
  let local_ok = function
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Ldbms.Session.error_to_string e)
  in
  local_ok
    (Ldbms.Session.exec_sql local
       "UPDATE vehicle SET vty = 'suv' WHERE vcode = 12");
  local_ok (Ldbms.Session.commit local);
  let after = round () in
  Alcotest.(check bool) "the write reshipped" true (misses () > warm);
  let want = M.result_to_string (ok_result (M.exec fx.F.session q)) in
  Alcotest.(check (list string)) "fresh rows for both members" [ want; want ]
    after;
  Alcotest.(check bool) "the rows changed" true (before <> after)

(* members share the block's parse table: whichever session parses a text
   first, every other gets that same tree back *)
let test_shared_parse () =
  let srv = S.of_fixtures ~config:(config ()) (F.make ()) in
  let s1 = connect_exn srv in
  let s2 = connect_exn srv in
  let m1 = Option.get (S.session srv s1) in
  let m2 = Option.get (S.session srv s2) in
  let q = "USE avis SELECT code FROM cars WHERE cartype = 'sedan'" in
  ignore (submit_exn srv s1 q);
  List.iter (fun c -> ignore (ok_result c.S.c_result)) (S.drain srv);
  let tl = ok_result (M.parse m1 q) in
  ignore (submit_exn srv s2 q);
  List.iter (fun c -> ignore (ok_result c.S.c_result)) (S.drain srv);
  Alcotest.(check bool) "one parsed toplevel for both sessions" true
    (ok_result (M.parse m2 q) == tl);
  (* a private session keeps its own block *)
  let solo = ok_result (M.parse (M.create ()) q) in
  Alcotest.(check bool) "a private block parses afresh" true (solo != tl);
  Alcotest.(check bool) "to the same tree" true (solo = tl)

let test_parse_error_over_wire () =
  let srv = S.of_fixtures ~config:(config ()) (F.make ()) in
  let c = W.create srv in
  ignore (W.on_line c "HELLO");
  let bad = "STMT USE avis SELEC code FROM cars" in
  let error_of_round () =
    Alcotest.(check (list string)) "accepted" [] (W.on_line c bad);
    match S.drain srv with
    | [ comp ] -> (
        match String.split_on_char ' ' (W.completion_line comp) with
        | "ERROR" :: _seq :: msg -> String.concat " " msg
        | _ -> Alcotest.fail (W.completion_line comp))
    | comps -> Alcotest.failf "expected 1 completion, got %d" (List.length comps)
  in
  let first = error_of_round () in
  Alcotest.(check bool) "an MSQL parse error" true
    (contains first "MSQL parse error");
  Alcotest.(check string) "the same error the second time" first
    (error_of_round ())

(* ---- capped pool: conflict, requeue, completion ----------------------- *)

let test_pool_conflict_requeue () =
  let srv =
    S.of_fixtures ~config:(config ~pool_cap:1 ()) (F.make ())
  in
  let m, _ = traced srv in
  let s1 = connect_exn srv in
  let s2 = connect_exn srv in
  (* same service: under the serial interleaving both OPEN continental in
     the same wave, and the cap of one forces the second to lose *)
  let q = "USE continental SELECT flnu FROM flights" in
  ignore (submit_exn srv s1 q);
  ignore (submit_exn srv s2 q);
  let comps = S.drain srv in
  Alcotest.(check int) "both statements completed" 2 (List.length comps);
  List.iter (fun c -> ignore (ok_result c.S.c_result)) comps;
  let st = S.stats srv in
  Alcotest.(check bool) "the loser was requeued" true (st.S.requeues > 0);
  let loser = List.find (fun c -> c.S.c_sid = s2) comps in
  Alcotest.(check bool) "its completion says so" true
    (loser.S.c_requeues > 0);
  let conflicts = m.Metrics.caches.Metrics.pool_conflicts in
  Alcotest.(check bool) "conflict counted" true (conflicts > 0);
  Alcotest.(check int) "aggregate sees it" conflicts
    (S.cache_stats srv).M.pool_conflicts;
  (* every checkout was balanced by a checkin: nothing left in use *)
  Alcotest.(check int) "ledger empty" 0
    (Narada.Pool.checked_out (S.pool srv) "continental");
  ignore s1

(* ---- statement parity ------------------------------------------------- *)

(* the shell's admin.msql plus one EXPLAIN, one statement per line: every
   statement kind runs through a server session as it runs in a single
   session, and the session's triggers fire *)
let admin_statements =
  [
    "CREATE MULTIDATABASE rentals AS avis national";
    "USE rentals LET car.status BE cars.carst vehicle.vstat SELECT %code \
     FROM car WHERE status = 'available'";
    "CREATE TRIGGER pricewatch ON avis WHEN SELECT code FROM cars WHERE \
     rate > 100 DO USE national UPDATE vehicle SET vstat = 'available' \
     WHERE vstat = 'rented'";
    "USE avis UPDATE cars SET rate = rate * 3 WHERE carst = 'available'";
    "USE national SELECT vcode, vstat FROM vehicle";
    "EXPLAIN USE continental VITAL united VITAL UPDATE flight% SET rate% = \
     rate% * 2";
  ]

let test_statement_parity () =
  let srv = S.of_fixtures ~config:(config ()) (F.make ()) in
  let c = hello srv in
  let comps =
    List.concat_map
      (fun sql ->
        Alcotest.(check (list string)) "accepted" [] (W.on_line c ("STMT " ^ sql));
        S.drain srv)
      admin_statements
  in
  (* the reference session shares nothing, so give it the same reuse
     layers a server member has: a pool and the shipped-result cache *)
  let reference = (F.make ()).F.session in
  M.set_pooling reference true;
  M.set_result_cache reference true;
  Alcotest.(check int) "one completion per statement"
    (List.length admin_statements) (List.length comps);
  List.iter2
    (fun sql comp ->
      Alcotest.(check string) sql
        (W.completion_line { comp with S.c_result = M.exec reference sql })
        (W.completion_line comp))
    admin_statements comps;
  let member = Option.get (S.session srv 1) in
  Alcotest.(check bool) "trigger fired in the member session" true
    (List.exists
       (fun m -> contains m "pricewatch fired")
       (M.trigger_log member))

let () =
  Alcotest.run "server"
    [
      ( "wire",
        [
          Alcotest.test_case "protocol round trip" `Quick test_wire_roundtrip;
          Alcotest.test_case "payload escaping" `Quick test_wire_escaping;
          Alcotest.test_case "line split across chunks" `Quick
            test_wire_split_line;
          Alcotest.test_case "over-long line refused" `Quick
            test_wire_line_too_long;
        ] );
      ( "admission",
        [
          Alcotest.test_case "session cap and queue shedding" `Quick
            test_admission_and_shedding;
        ] );
      ( "scheduling",
        [
          Alcotest.test_case "round-robin fairness" `Quick
            test_round_robin_fairness;
          Alcotest.test_case "server matches Interleave" `Quick
            test_server_matches_interleave;
          Alcotest.test_case "joins into one site share a round" `Quick
            test_joins_into_one_site_share_a_round;
          Alcotest.test_case "a round advances the clock by its slowest member"
            `Quick test_round_costs_its_slowest_member;
          Alcotest.test_case "every statement kind matches a session" `Quick
            test_statement_parity;
        ] );
      ( "sharing",
        [
          Alcotest.test_case "shared plan/result caches account per session"
            `Quick test_shared_cache_accounting;
          Alcotest.test_case "shared epoch invalidation" `Quick
            test_shared_cache_epoch_invalidation;
          Alcotest.test_case "autonomous write at a shared source" `Quick
            test_shared_cache_autonomous_write;
          Alcotest.test_case "members share one parse" `Quick test_shared_parse;
          Alcotest.test_case "parse error over the wire, twice" `Quick
            test_parse_error_over_wire;
          Alcotest.test_case "capped pool conflict requeues" `Quick
            test_pool_conflict_requeue;
          Alcotest.test_case "pool checkouts account per member" `Quick
            test_pool_accounting_per_member;
          Alcotest.test_case "stale pooled connection on the member's trace"
            `Quick test_pool_stale_in_server;
          Alcotest.test_case "registry is the fold of the merged stream"
            `Quick test_registry_is_merged_fold;
        ] );
    ]
