(* Chaos benchmark: fault injection over the E4 vital update.

   Sweeps seeded message-loss probabilities — alone and combined with a
   transient outage of united's site (site3) scheduled across the 2PC
   window — and measures how often the multiple update still commits, how
   often it degrades to a clean abort, and how often the vital set splits.
   A second sweep compares Retry_policy.none against the default policy to
   price the retry overhead.

   Everything is virtual-time deterministic: trial k of a configuration
   always replays identically. Results go to BENCH_robustness.json.

   Run with:  dune exec bench/chaos.exe *)

module F = Msql.Fixtures
module M = Msql.Msession
module W = Netsim.World

let e3 = {|USE continental VITAL delta united VITAL
UPDATE flight% SET rate% = rate% * 1.1
WHERE sour% = 'Houston' AND dest% = 'San Antonio'|}

let e4 = e3 ^ {|
COMP continental
UPDATE flights SET rate = rate / 1.1
WHERE source = 'Houston' AND destination = 'San Antonio'
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
  (match M.last_engine_outcome fx.F.session with
  | Some o ->
      t.retries <- t.retries + o.Narada.Engine.retries;
      t.recovered <- t.recovered + o.Narada.Engine.recovered;
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
    (match M.last_engine_outcome fx.F.session with
    | Some o ->
        t.retries <- o.Narada.Engine.retries;
        t.recovered <- o.Narada.Engine.recovered;
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
  let oc = open_out "BENCH_robustness.json" in
  Printf.fprintf oc "{\n  \"experiment\": \"e4-vital-update-chaos\",\n  \"trials_per_config\": %d,\n  \"configs\": [\n%s\n  ]\n}\n"
    trials
    (String.concat ",\n" (List.rev !out));
  close_out oc;
  Printf.printf "%s\nwrote BENCH_robustness.json\n" line;
  (* the sweep is only meaningful if the MVCC machinery actually fired:
     a silent zero here would mean conflicts are no longer detected *)
  if grand.i_incorrect > 0 then begin
    Printf.eprintf
      "FAIL: %d interleaved trial(s) ended in a non-serial-equivalent state\n"
      grand.i_incorrect;
    exit 1
  end;
  if grand.i_conflicts = 0 || grand.i_conflict_aborts = 0 then begin
    Printf.eprintf
      "FAIL: interleaving sweep exercised no write-write conflicts \
       (conflicts=%d, conflict_aborts=%d)\n"
      grand.i_conflicts grand.i_conflict_aborts;
    exit 1
  end;
  Printf.printf
    "interleaving sweep: %d conflicts, %d conflict retries, %d conflict aborts, %d snapshots\n"
    grand.i_conflicts grand.i_conflict_retries grand.i_conflict_aborts
    grand.i_snapshots
