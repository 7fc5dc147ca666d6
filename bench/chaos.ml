(* Chaos benchmark: fault injection over the E4 vital update.

   Sweeps seeded message-loss probabilities — alone and combined with a
   transient outage of united's site (site3) scheduled across the 2PC
   window — and measures how often the multiple update still commits, how
   often it degrades to a clean abort, and how often the vital set splits.
   A second sweep compares Retry_policy.none against the default policy to
   price the retry overhead. Two sweeps of seeded local failures follow:
   P7, the outcome distribution of the vital update (all-2PC vs an
   autocommit site with a COMP), and P8, the availability that function
   replication buys a stream of multitransactions (§3.4).

   Everything is virtual-time deterministic: trial k of a configuration
   always replays identically. Results go to BENCH_robustness.json. The
   binary exits nonzero if an interleaved trial ends in no serial order,
   if the interleaving sweep saw no write-write conflict, if a P7 or P8
   configuration does not succeed every time without failures, or if
   replication ever lowers P8 availability.

   Run with:  dune exec bench/chaos.exe *)

module F = Msql.Fixtures
module M = Msql.Msession
module W = Netsim.World

let e3 = {|USE continental VITAL delta united VITAL
UPDATE flight% SET rate% = rate% * 1.1
WHERE sour% = 'Houston' AND dest% = 'San Antonio'|}

let comp_continental = {|
COMP continental
UPDATE flights SET rate = rate / 1.1
WHERE source = 'Houston' AND destination = 'San Antonio'|}

let e4 = e3 ^ comp_continental ^ {|
COMP united
UPDATE flight SET rt = rt / 1.1
WHERE sour = 'Houston' AND dest = 'San Antonio'|}

type tally = {
  mutable success : int;
  mutable aborted : int;
  mutable incorrect : int;
  mutable split : int;
  mutable retries : int;
  mutable recovered : int;
  mutable in_doubt : int;
  mutable elapsed : float;
  mutable messages : int;
}

let fresh_tally () =
  { success = 0; aborted = 0; incorrect = 0; split = 0; retries = 0;
    recovered = 0; in_doubt = 0; elapsed = 0.0; messages = 0 }

let trials = 25

(* one deterministic trial: fresh federation, seeded faults, run E4 *)
let trial ~loss ~outage ~policy ~seed t =
  let fx = F.make () in
  let world = fx.F.world in
  W.reset_stats world;
  W.reset_clock world;
  if loss > 0.0 then W.set_loss world ~seed ~prob:loss;
  if outage then begin
    (* a transient crash of united's site across the prepare/commit
       window; width varies with the trial seed but always heals within
       the engine's recovery grace *)
    let from_ms = 15.0 +. float_of_int (seed mod 7) *. 5.0 in
    W.schedule_outage world "site3" ~from_ms ~until_ms:(from_ms +. 150.0)
  end;
  M.set_retry_policy fx.F.session policy;
  (match M.exec fx.F.session e4 with
  | Ok (M.Update_report { outcome = M.Success; _ }) -> t.success <- t.success + 1
  | Ok (M.Update_report { outcome = M.Aborted; _ }) -> t.aborted <- t.aborted + 1
  | Ok (M.Update_report { outcome = M.Incorrect; _ }) ->
      t.incorrect <- t.incorrect + 1
  | Ok _ | Error _ -> t.incorrect <- t.incorrect + 1);
  (* the fixture is fresh, so its registry counts this trial's run only *)
  let m = M.metrics fx.F.session in
  t.retries <- t.retries + m.Msql.Metrics.retries;
  t.recovered <- t.recovered + m.Msql.Metrics.recovered;
  (match M.last_engine_outcome fx.F.session with
  | Some o ->
      t.in_doubt <- t.in_doubt + o.Narada.Engine.in_doubt;
      if o.Narada.Engine.vital_split then t.split <- t.split + 1
  | None -> ());
  t.elapsed <- t.elapsed +. W.now_ms world;
  t.messages <- t.messages + (W.stats world).W.messages

let run_config ~loss ~outage ~policy =
  let t = fresh_tally () in
  for seed = 1 to trials do
    trial ~loss ~outage ~policy ~seed t
  done;
  t

let rate n = float_of_int n /. float_of_int trials
let avg_f x = x /. float_of_int trials
let avg_i n = float_of_int n /. float_of_int trials

let json_of_config ~label ~loss ~outage ~policy_name (t : tally) =
  Printf.sprintf
    {|    { "label": %S, "loss": %.3f, "outage": %b, "policy": %S,
      "trials": %d, "success_rate": %.3f, "aborted_rate": %.3f,
      "incorrect_rate": %.3f, "vital_split_rate": %.3f,
      "avg_retries": %.2f, "avg_recovered": %.2f, "avg_in_doubt": %.2f,
      "avg_elapsed_ms": %.2f, "avg_messages": %.1f }|}
    label loss outage policy_name trials (rate t.success) (rate t.aborted)
    (rate t.incorrect) (rate t.split) (avg_i t.retries) (avg_i t.recovered)
    (avg_i t.in_doubt) (avg_f t.elapsed) (avg_i t.messages)

(* ---- interleaving sweep: MVCC write-write conflicts --------------------

   Two sessions race a doubling and a +7 bump of the same continental
   flight under the deterministic interleaving harness. Every schedule
   must end serial-equivalent — the final rate must match some serial
   order of whatever committed — or be a clean first-committer-wins
   abort. The sweep also proves the conflict counters are live: if no
   schedule produced a write-write conflict and a conflict abort, the
   binary exits nonzero. *)

module IL = Msql.Interleave
module V = Sqlcore.Value
module D = Narada.Dol_ast

let lu_winner =
  "USE continental VITAL UPDATE flights SET rate = rate * 2 WHERE flnu = 101"

let lu_loser =
  "USE continental VITAL UPDATE flights SET rate = rate + 7 WHERE flnu = 101"

type itally = {
  mutable i_success : int;  (* participants that committed *)
  mutable i_aborted : int;  (* participants cleanly aborted *)
  mutable i_incorrect : int;  (* trials whose final state matched no serial order *)
  mutable i_conflicts : int;
  mutable i_conflict_retries : int;
  mutable i_conflict_aborts : int;
  mutable i_snapshots : int;
}

let fresh_itally () =
  { i_success = 0; i_aborted = 0; i_incorrect = 0; i_conflicts = 0;
    i_conflict_retries = 0; i_conflict_aborts = 0; i_snapshots = 0 }

let second_session fx =
  let s = M.create ~world:fx.F.world ~directory:fx.F.directory () in
  (match M.incorporate_auto s ~service:"continental" with
  | Ok () -> ()
  | Error m -> failwith m);
  (match M.import_all s ~service:"continental" with
  | Ok () -> ()
  | Error m -> failwith m);
  s

let rate_101 fx =
  match
    List.find_opt
      (fun r -> V.equal r.(0) (V.Int 101))
      (Sqlcore.Relation.rows (F.scan fx ~db:"continental" ~table:"flights"))
  with
  | Some r -> r.(6)
  | None -> V.Null

(* DOL statements up to and including the parallel task block *)
let steps_to_block t sql =
  match M.translate t sql with
  | Error m -> failwith m
  | Ok prog ->
      let has_task ms = List.exists (function D.Task _ -> true | _ -> false) ms in
      let rec idx k = function
        | [] -> failwith "no parallel task block"
        | D.Parallel ms :: _ when has_task ms -> k + 1
        | D.Task _ :: _ -> k + 1
        | _ :: rest -> idx (k + 1) rest
      in
      idx 0 prog

let interleave_trial ~schedule it =
  let fx = F.make () in
  let s2 = second_session fx in
  let schedule =
    match schedule with
    | `Scripted ->
        (* pin the first-committer-wins race: the winner runs through its
           prepare, then the loser hits the reservation *)
        let n = steps_to_block fx.F.session lu_winner in
        IL.Script (List.init n (fun _ -> "w") @ List.init n (fun _ -> "l"))
    | `Round_robin -> IL.Round_robin
    | `Seeded s -> IL.Seeded s
  in
  let outcome =
    IL.run ~schedule
      [
        { IL.label = "w"; session = fx.F.session; sql = lu_winner };
        { IL.label = "l"; session = s2; sql = lu_loser };
      ]
  in
  let cls label =
    match IL.result_of outcome label with
    | Ok (M.Update_report { outcome = M.Success; _ }) ->
        it.i_success <- it.i_success + 1;
        `S
    | Ok (M.Update_report { outcome = M.Aborted; _ }) ->
        it.i_aborted <- it.i_aborted + 1;
        `A
    | _ -> `X
  in
  let w = cls "w" and l = cls "l" in
  (* the serial orders consistent with what committed *)
  let expected =
    match (w, l) with
    | `S, `S -> [ 207.0; 214.0 ]
    | `S, `A -> [ 200.0 ]
    | `A, `S -> [ 107.0 ]
    | `A, `A -> [ 100.0 ]
    | _ -> []
  in
  let final = rate_101 fx in
  if not (List.exists (fun v -> V.equal final (V.Float v)) expected) then
    it.i_incorrect <- it.i_incorrect + 1;
  List.iter
    (fun s ->
      let m = M.metrics s in
      it.i_conflicts <- it.i_conflicts + m.Msql.Metrics.ww_conflicts;
      it.i_conflict_retries <-
        it.i_conflict_retries + m.Msql.Metrics.conflict_retries;
      it.i_conflict_aborts <-
        it.i_conflict_aborts + m.Msql.Metrics.conflict_aborts;
      it.i_snapshots <- it.i_snapshots + m.Msql.Metrics.snapshots)
    [ fx.F.session; s2 ]

let json_of_interleave ~label (t : itally) =
  Printf.sprintf
    {|    { "label": %S, "scenario": "interleave-lost-update",
      "committed": %d, "aborted": %d, "incorrect": %d,
      "ww_conflicts": %d, "conflict_retries": %d, "conflict_aborts": %d,
      "snapshots": %d }|}
    label t.i_success t.i_aborted t.i_incorrect t.i_conflicts
    t.i_conflict_retries t.i_conflict_aborts t.i_snapshots

(* ---- P7: outcome distribution under random local failures -------------

   Stresses the vital-set guarantee of §3.2.1: with failures injected at
   every point (execute/prepare/commit) with probability p, how often does
   each outcome occur? The all-2PC run is E3; the COMP run is E3 with
   continental made autocommit and compensated. "Incorrect" requires a
   second-phase failure window, so it stays rare even as aborts soar. *)

let p7_trials = 200
let p7_probs = [ 0.0; 0.05; 0.1; 0.2; 0.4 ]

(* fail every execute/prepare/commit of database i of [dbs] with
   probability [prob], drawn from a PRNG seeded with [seed i] *)
let inject_random fx dbs ~seed ~prob =
  List.iteri
    (fun i db ->
      Ldbms.Failure_injector.set_random
        (Narada.Directory.find fx.F.directory db).Narada.Service.injector
        ~seed:(seed i) ~prob)
    dbs

(* success, aborted, incorrect over [p7_trials] seeded trials *)
let p7_count ~caps ~sql ~prob =
  let s = ref 0 and a = ref 0 and i = ref 0 in
  for trial = 1 to p7_trials do
    let fx = F.make ~caps () in
    inject_random fx [ "continental"; "delta"; "united" ]
      ~seed:(fun k -> (trial * 31) + k) ~prob;
    match M.exec fx.F.session sql with
    | Ok (M.Update_report { outcome = M.Success; _ }) -> incr s
    | Ok (M.Update_report { outcome = M.Aborted; _ }) -> incr a
    | Ok (M.Update_report { outcome = M.Incorrect; _ }) -> incr i
    | Ok _ | Error _ -> ()
  done;
  (!s, !a, !i)

(* ---- P8: function replication availability (§3.4 motivation) ----------

   A stream of booking multitransactions, each able to run its update on
   either of two airlines (function replication, acceptable states
   [first] [second]) versus a baseline allowed only the first airline.
   As local failures rise, replication converts failures into fallbacks. *)

let p8_txns = 100
let p8_probs = [ 0.0; 0.1; 0.3; 0.5 ]

(* the booking update over [dbs], one acceptable state per database *)
let p8_mtx dbs =
  Printf.sprintf
    "BEGIN MULTITRANSACTION\n\
    \  USE %s\n\
    \  UPDATE flights SET rate = rate + 1 WHERE source = 'Houston';\n\
     COMMIT\n\
     %sEND MULTITRANSACTION"
    (String.concat " " dbs)
    (String.concat "" (List.map (Printf.sprintf "  %s\n") dbs))

(* first, fallback, failed over [p8_txns] multitransactions *)
let p8_run ~replicated ~prob =
  let fx = F.airline_fleet ~n:4 ~flights_per_db:40 () in
  let rng = Random.State.make [| 2026 |] in
  inject_random fx [ "airline1"; "airline2"; "airline3"; "airline4" ]
    ~seed:(fun i -> 1000 + i) ~prob;
  let first = ref 0 and fallback = ref 0 and failed = ref 0 in
  for _ = 1 to p8_txns do
    let a = 1 + Random.State.int rng 4 in
    let b = 1 + ((a + Random.State.int rng 3) mod 4) in
    let dbs = if replicated then [ a; b ] else [ a ] in
    let sql = p8_mtx (List.map (Printf.sprintf "airline%d") dbs) in
    match M.exec fx.F.session sql with
    | Ok (M.Mtx_report { chosen = Some 0; _ }) -> incr first
    | Ok (M.Mtx_report { chosen = Some _; _ }) -> incr fallback
    | Ok _ | Error _ -> incr failed
  done;
  (!first, !fallback, !failed)

let () =
  let out = ref [] in
  let add s = out := s :: !out in
  let line = String.make 72 '-' in
  Printf.printf "%s\nChaos sweep: E4 vital update under seeded faults (%d trials each)\n%s\n"
    line trials line;
  Printf.printf "%-26s %8s %8s %9s %8s %8s\n" "configuration" "success"
    "aborted" "incorrect" "splits" "retries";
  let report ~label ~loss ~outage ~policy ~policy_name =
    let t = run_config ~loss ~outage ~policy in
    Printf.printf "%-26s %8.2f %8.2f %9.2f %8.2f %8.2f\n" label
      (rate t.success) (rate t.aborted) (rate t.incorrect) (rate t.split)
      (avg_i t.retries);
    add (json_of_config ~label ~loss ~outage ~policy_name t)
  in
  (* message loss alone, default policy *)
  List.iter
    (fun loss ->
      report
        ~label:(Printf.sprintf "loss %.2f" loss)
        ~loss ~outage:false ~policy:None ~policy_name:"default")
    [ 0.0; 0.02; 0.05; 0.10; 0.20 ];
  (* loss combined with a transient site3 outage *)
  List.iter
    (fun loss ->
      report
        ~label:(Printf.sprintf "loss %.2f + outage" loss)
        ~loss ~outage:true ~policy:None ~policy_name:"default")
    [ 0.0; 0.05 ];
  (* retry overhead: no retries vs default under moderate loss *)
  report ~label:"loss 0.05, no retries" ~loss:0.05 ~outage:false
    ~policy:(Some Narada.Retry_policy.none) ~policy_name:"none";
  report ~label:"loss 0.05, aggressive" ~loss:0.05 ~outage:false
    ~policy:(Some Narada.Retry_policy.aggressive) ~policy_name:"aggressive";
  (* the 2PC in-doubt window: probe a clean run for the instant united's
     task reaches P, then crash its site from that instant until well past
     the engine's recovery grace. With a COMP the split heals into a clean
     abort; without one it stays a genuine vital split. *)
  let commit_window ~label ?(outage_ms = 10_000.0) sql =
    let probe = F.make () in
    let prep = ref 0.0 in
    M.set_typed_trace probe.F.session
      (Some
         (function
           | { Narada.Trace.kind = Status { task = "t_united"; status = P };
               at_ms; _ }
             when !prep = 0.0 ->
               prep := at_ms
           | _ -> ()));
    ignore (M.exec probe.F.session sql);
    let fx = F.make () in
    W.schedule_outage fx.F.world "site3" ~from_ms:!prep
      ~until_ms:(!prep +. outage_ms);
    let t = fresh_tally () in
    (match M.exec fx.F.session sql with
    | Ok (M.Update_report { outcome = M.Success; _ }) -> t.success <- 1
    | Ok (M.Update_report { outcome = M.Aborted; _ }) -> t.aborted <- 1
    | _ -> t.incorrect <- 1);
    let m = M.metrics fx.F.session in
    t.retries <- m.Msql.Metrics.retries;
    t.recovered <- m.Msql.Metrics.recovered;
    (match M.last_engine_outcome fx.F.session with
    | Some o ->
        t.in_doubt <- o.Narada.Engine.in_doubt;
        if o.Narada.Engine.vital_split then t.split <- 1
    | None -> ());
    Printf.printf "%-26s %8d %8d %9d %8d %8d   (recovered: %d, in doubt: %d)\n"
      label t.success t.aborted t.incorrect t.split t.retries t.recovered
      t.in_doubt;
    add
      (Printf.sprintf
         {|    { "label": %S, "scenario": "2pc-commit-window", "outage_ms": %.0f,
      "success": %b, "aborted": %b, "incorrect": %b, "vital_split": %b,
      "recovered": %d, "in_doubt": %d }|}
         label outage_ms (t.success = 1) (t.aborted = 1) (t.incorrect = 1)
         (t.split = 1) t.recovered t.in_doubt)
  in
  commit_window ~label:"2PC window crash, recovers" ~outage_ms:200.0 e3;
  commit_window ~label:"2PC window crash, COMP" e4;
  commit_window ~label:"2PC window crash, no COMP" e3;
  (* MVCC interleaving sweep *)
  Printf.printf "%s\nInterleaving sweep: two sessions race one flight (lost update)\n%s\n"
    line line;
  Printf.printf "%-26s %9s %8s %9s %10s %8s %8s\n" "schedule" "committed"
    "aborted" "incorrect" "conflicts" "retries" "aborts";
  let grand = fresh_itally () in
  let sweep ~label ~schedules =
    let t = fresh_itally () in
    List.iter (fun schedule -> interleave_trial ~schedule t) schedules;
    Printf.printf "%-26s %9d %8d %9d %10d %8d %8d\n" label t.i_success
      t.i_aborted t.i_incorrect t.i_conflicts t.i_conflict_retries
      t.i_conflict_aborts;
    grand.i_incorrect <- grand.i_incorrect + t.i_incorrect;
    grand.i_conflicts <- grand.i_conflicts + t.i_conflicts;
    grand.i_conflict_aborts <- grand.i_conflict_aborts + t.i_conflict_aborts;
    grand.i_conflict_retries <- grand.i_conflict_retries + t.i_conflict_retries;
    grand.i_snapshots <- grand.i_snapshots + t.i_snapshots;
    add (json_of_interleave ~label t)
  in
  sweep ~label:"scripted FCW race" ~schedules:[ `Scripted ];
  sweep ~label:"round robin" ~schedules:[ `Round_robin ];
  sweep ~label:"seeded 1-8"
    ~schedules:(List.init 8 (fun k -> `Seeded (k + 1)));
  (* P7: outcome distribution under random local failures *)
  Printf.printf "%s\nP7: outcome distribution vs failure probability (%d trials each)\n%s\n"
    line p7_trials line;
  Printf.printf "%-8s | %-29s | %-29s\n" "" "all-2PC" "autocommit+COMP";
  Printf.printf "%-8s | %-9s %-9s %-9s | %-9s %-9s %-9s\n" "p(fail)" "success"
    "aborted" "INCORRECT" "success" "aborted" "INCORRECT";
  let p7 =
    List.map
      (fun prob ->
        let ((s1, a1, i1) as two_pc) = p7_count ~caps:[] ~sql:e3 ~prob in
        let ((s2, a2, i2) as comp) =
          p7_count ~caps:[ ("continental", Ldbms.Capabilities.sybase_like) ]
            ~sql:(e3 ^ comp_continental) ~prob
        in
        Printf.printf "%-8.2f | %-9d %-9d %-9d | %-9d %-9d %-9d\n" prob s1 a1 i1
          s2 a2 i2;
        (prob, two_pc, comp))
      p7_probs
  in
  (* P8: function replication availability *)
  Printf.printf "%s\nP8: function replication under failures (%d multitransactions)\n%s\n"
    line p8_txns line;
  Printf.printf "%-8s | %-29s | %-18s\n" "" "replicated" "single";
  Printf.printf "%-8s | %-10s %-10s %-7s | %-10s %-7s\n" "p(fail)" "first"
    "fallback" "failed" "committed" "failed";
  let p8 =
    List.map
      (fun prob ->
        let ((f1, fb, fl) as replicated) = p8_run ~replicated:true ~prob in
        let ((s1, _, sfl) as single) = p8_run ~replicated:false ~prob in
        Printf.printf "%-8.2f | %-10d %-10d %-7d | %-10d %-7d\n" prob f1 fb fl s1
          sfl;
        (prob, replicated, single))
      p8_probs
  in
  let p7_json (prob, (s1, a1, i1), (s2, a2, i2)) =
    Printf.sprintf
      {|      { "p_fail": %.2f,
        "all_2pc": { "success": %d, "aborted": %d, "incorrect": %d },
        "comp": { "success": %d, "aborted": %d, "incorrect": %d } }|}
      prob s1 a1 i1 s2 a2 i2
  in
  let p8_json (prob, (f1, fb, fl), (s1, _, sfl)) =
    Printf.sprintf
      {|      { "p_fail": %.2f,
        "replicated": { "first": %d, "fallback": %d, "failed": %d },
        "single": { "committed": %d, "failed": %d } }|}
      prob f1 fb fl s1 sfl
  in
  let oc = open_out "BENCH_robustness.json" in
  Printf.fprintf oc
    "{\n  \"experiment\": \"e4-vital-update-chaos\",\n  \"trials_per_config\": %d,\n  \"configs\": [\n%s\n  ],\n\
    \  \"p7_outcome_distribution\": {\n    \"trials\": %d,\n    \"rows\": [\n%s\n    ]\n  },\n\
    \  \"p8_function_replication\": {\n    \"multitransactions\": %d,\n    \"rows\": [\n%s\n    ]\n  }\n}\n"
    trials
    (String.concat ",\n" (List.rev !out))
    p7_trials (String.concat ",\n" (List.map p7_json p7))
    p8_txns (String.concat ",\n" (List.map p8_json p8));
  close_out oc;
  Printf.printf "%s\nwrote BENCH_robustness.json\n" line;
  let fail fmt =
    Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt
  in
  (* the sweep is only meaningful if the MVCC machinery actually fired:
     a silent zero here would mean conflicts are no longer detected *)
  if grand.i_incorrect > 0 then
    fail "%d interleaved trial(s) ended in a non-serial-equivalent state"
      grand.i_incorrect;
  if grand.i_conflicts = 0 || grand.i_conflict_aborts = 0 then
    fail
      "interleaving sweep exercised no write-write conflicts \
       (conflicts=%d, conflict_aborts=%d)"
      grand.i_conflicts grand.i_conflict_aborts;
  Printf.printf
    "interleaving sweep: %d conflicts, %d conflict retries, %d conflict aborts, %d snapshots\n"
    grand.i_conflicts grand.i_conflict_retries grand.i_conflict_aborts
    grand.i_snapshots;
  (* without failures every configuration must succeed every time *)
  List.iter
    (fun (prob, (s1, _, _), (s2, _, _)) ->
      if prob = 0.0 && (s1 <> p7_trials || s2 <> p7_trials) then
        fail "P7 at p=0: %d (all-2PC) and %d (COMP) of %d trials succeeded" s1
          s2 p7_trials)
    p7;
  (* §3.4: replication must never lower availability, whatever p *)
  List.iter
    (fun (prob, (f1, fb, _), (s1, _, _)) ->
      if prob = 0.0 && (f1 + fb <> p8_txns || s1 <> p8_txns) then
        fail "P8 at p=0: %d (replicated) and %d (single) of %d committed"
          (f1 + fb) s1 p8_txns;
      if f1 + fb < s1 then
        fail "P8 at p=%.2f: replicated availability %d < single-replica %d" prob
          (f1 + fb) s1)
    p8;
  Printf.printf
    "P7/P8 gates passed: every configuration succeeds at p=0; replicated \
     availability >= single-replica at every p\n"
