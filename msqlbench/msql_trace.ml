(* End-to-end MSQL benchmark, traced: the same workloads, inputs and
   checks as msql_bench, but every statement is replayed through the
   layers' public functions — parse, expand, decompose, plan generation,
   dataflow scheduling, then the stepped engine — with a span around each
   call, and the per-layer metrics are reported instead of the
   end-to-end ones. The server workload runs its rounds under spans, and
   the serial replay that checks its answers runs through the layers.

     msql_trace.exe --workload NAME --seed N (--seconds S | --stmts N)
                    [--out FILE] [--trace-out FILE]

   Spans are kept in memory (the first 200,000) and written to
   --trace-out as JSON lines when the run ends. *)

open Harness
module W = Workloads
module M = Msql.Msession
module Srv = Msql.Server
module D = Narada.Dol_ast

(* ---- spans ------------------------------------------------------------------ *)

module Spans = struct
  type frame = { id : int; t0 : float; a0 : float; mutable child : float }

  type span = {
    sid : int;
    parent : int;
    stmt : int;
    name : string;
    start : float;
    stop : float;
  }

  type acc = {
    mutable calls : int;
    mutable total : float;  (* s *)
    mutable self : float;  (* s not covered by child spans *)
    mutable alloc : float;  (* words, children included *)
    durs : Fbuf.t;
  }

  let origin = now ()
  let cap = 200_000
  let kept = ref []
  let n_kept = ref 0
  let stack = ref []
  let next_id = ref 0
  let stmt = ref 0
  let accs : (string, acc) Hashtbl.t = Hashtbl.create 32

  let acc name =
    match Hashtbl.find_opt accs name with
    | Some a -> a
    | None ->
        let a = { calls = 0; total = 0.; self = 0.; alloc = 0.; durs = Fbuf.create () } in
        Hashtbl.add accs name a;
        a

  let reset () =
    Hashtbl.reset accs;
    kept := [];
    n_kept := 0

  let span name f =
    let fr = { id = !next_id; t0 = now (); a0 = alloc_words (); child = 0. } in
    incr next_id;
    let parent = match !stack with p :: _ -> p.id | [] -> -1 in
    stack := fr :: !stack;
    let close () =
      let t1 = now () and a1 = alloc_words () in
      stack := List.tl !stack;
      let dur = t1 -. fr.t0 in
      (match !stack with p :: _ -> p.child <- p.child +. dur | [] -> ());
      let a = acc name in
      a.calls <- a.calls + 1;
      a.total <- a.total +. dur;
      a.self <- a.self +. dur -. fr.child;
      a.alloc <- a.alloc +. (a1 -. fr.a0);
      Fbuf.push a.durs dur;
      if !n_kept < cap then begin
        incr n_kept;
        kept :=
          { sid = fr.id; parent; stmt = !stmt; name; start = fr.t0; stop = t1 }
          :: !kept
      end
    in
    Fun.protect ~finally:close f

  let write path =
    let oc = open_out path in
    List.iter
      (fun s ->
        output_string oc
          (to_string
             (Obj
                [
                  ("id", Int s.sid);
                  ("parent", Int s.parent);
                  ("stmt", Int s.stmt);
                  ("name", Str s.name);
                  ("start_us", Num ((s.start -. origin) *. 1e6));
                  ("end_us", Num ((s.stop -. origin) *. 1e6));
                ]));
        output_char oc '\n')
      (List.sort (fun a b -> compare a.sid b.sid) !kept);
    close_out oc

  let print_breakdown () =
    Printf.printf "  %-24s %9s %12s %12s\n" "span" "calls" "total ms" "self ms";
    Hashtbl.fold (fun k a l -> (k, a) :: l) accs []
    |> List.sort compare
    |> List.iter (fun (k, a) ->
           Printf.printf "  %-24s %9d %12.2f %12.2f\n" k a.calls (a.total *. 1e3)
             (a.self *. 1e3))
end

(* ---- counters folded from the session ------------------------------------- *)

type probe = {
  mutable stmts : int;
  mutable plans : int;
  mutable dol_stmts : int;  (* DOL statements plan generation emitted *)
  mutable sj_applied : int;
  mutable sj_declined : int;
  mutable moves : int;
  mutable move_rows : int;
  mutable reduced : int;
  mutable chunks : int;
  mutable retries : int;
}

let probe () =
  {
    stmts = 0;
    plans = 0;
    dol_stmts = 0;
    sj_applied = 0;
    sj_declined = 0;
    moves = 0;
    move_rows = 0;
    reduced = 0;
    chunks = 0;
    retries = 0;
  }

let reset_probe p =
  p.stmts <- 0;
  p.plans <- 0;
  p.dol_stmts <- 0;
  p.sj_applied <- 0;
  p.sj_declined <- 0;
  p.moves <- 0;
  p.move_rows <- 0;
  p.reduced <- 0;
  p.chunks <- 0;
  p.retries <- 0

let observe p (ev : Narada.Trace.event) =
  match ev.Narada.Trace.kind with
  | Narada.Trace.Moved { rows; reduced; _ } ->
      p.moves <- p.moves + 1;
      p.move_rows <- p.move_rows + rows;
      if reduced then p.reduced <- p.reduced + 1
  | Narada.Trace.Chunk _ -> p.chunks <- p.chunks + 1
  | Narada.Trace.Retry _ -> p.retries <- p.retries + 1
  | _ -> ()

(* the counters of a session metrics registry this benchmark reads *)
type registry = {
  snapshots : int;
  ww_conflicts : int;
  conflict_aborts : int;
  waves : int;
  crit_ms : float;
  serial_ms : float;
}

let registry (m : Msql.Metrics.t) =
  {
    snapshots = m.Msql.Metrics.snapshots;
    ww_conflicts = m.Msql.Metrics.ww_conflicts;
    conflict_aborts = m.Msql.Metrics.conflict_aborts;
    waves = m.Msql.Metrics.dataflow_waves;
    crit_ms = m.Msql.Metrics.dataflow_crit_ms;
    serial_ms = m.Msql.Metrics.dataflow_serial_ms;
  }

let registry_delta a b =
  {
    snapshots = b.snapshots - a.snapshots;
    ww_conflicts = b.ww_conflicts - a.ww_conflicts;
    conflict_aborts = b.conflict_aborts - a.conflict_aborts;
    waves = b.waves - a.waves;
    crit_ms = b.crit_ms -. a.crit_ms;
    serial_ms = b.serial_ms -. a.serial_ms;
  }

let site_bytes world =
  List.map
    (fun (name, (s : Netsim.World.site_stat)) ->
      (name, s.Netsim.World.sent_bytes + s.Netsim.World.recv_bytes))
    (Netsim.World.per_site world)

(* share of all delivered bytes that the busiest site sent or received *)
let max_site_share before after =
  let delta =
    List.map
      (fun (name, b) ->
        b - Option.value ~default:0 (List.assoc_opt name before))
      after
  in
  let total = List.fold_left ( + ) 0 delta in
  if total = 0 then 0.0
  else float_of_int (List.fold_left max 0 delta) /. float_of_int total

let cache_delta (a : Msql.Metrics.cache_stats) (b : Msql.Metrics.cache_stats) =
  {
    Msql.Metrics.pool_hits = b.pool_hits - a.pool_hits;
    pool_misses = b.pool_misses - a.pool_misses;
    pool_discarded = b.pool_discarded - a.pool_discarded;
    pool_conflicts = b.pool_conflicts - a.pool_conflicts;
    plan_hits = b.plan_hits - a.plan_hits;
    plan_misses = b.plan_misses - a.plan_misses;
    result_hits = b.result_hits - a.result_hits;
    result_misses = b.result_misses - a.result_misses;
  }

let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b)

(* ---- the layer-by-layer statement --------------------------------------- *)

(* The engine step's label: the first of MOVE, TASK, COMMIT/ABORT/COMP,
   OPEN, CLOSE found inside the top-level statement. *)
let label (s : D.stmt) =
  let mv = ref false and tk = ref false and cm = ref false in
  let op = ref false and cl = ref false in
  let rec go = function
    | D.Move _ -> mv := true
    | D.Task _ -> tk := true
    | D.Commit_tasks _ | D.Abort_tasks _ | D.Comp _ -> cm := true
    | D.Open _ -> op := true
    | D.Close _ -> cl := true
    | D.Parallel b -> List.iter go b
    | D.If (_, a, b) ->
        List.iter go a;
        List.iter go b
    | D.Set_status _ -> ()
  in
  go s;
  if !mv then "move"
  else if !tk then "task"
  else if !cm then "commit"
  else if !op then "open"
  else if !cl then "close"
  else "other"

let engine_labels = [ "move"; "task"; "commit"; "open"; "close"; "other" ]

let rec count_stmts (p : D.program) =
  List.fold_left
    (fun n -> function
      | D.Parallel b -> n + count_stmts b
      | D.If (_, a, b) -> n + 1 + count_stmts a + count_stmts b
      | _ -> n + 1)
    0 p

let decompose p session ~gselect ~grefs =
  let dp =
    Spans.span "decompose" (fun () ->
        Msql.Decompose.decompose ~semijoin:(M.semijoin_enabled session) ~gselect
          ~grefs)
  in
  List.iter
    (fun (s : Msql.Decompose.shipped) ->
      match s.Msql.Decompose.sj_gate with
      | Msql.Decompose.Sj_applied _ -> p.sj_applied <- p.sj_applied + 1
      | Msql.Decompose.Sj_declined _ -> p.sj_declined <- p.sj_declined + 1
      | Msql.Decompose.Sj_no_stats | Msql.Decompose.Sj_no_edge | Msql.Decompose.Sj_off -> ())
    dp.Msql.Decompose.shipped;
  dp

(* Phases 1-4 against the session's own dictionaries, as the session runs
   them. Every workload statement names a plain USE scope (no USE CURRENT,
   no virtual databases), so the parsed scope is the effective one. *)
let replay_plan p session sql =
  let gdd = M.gdd session and ad = M.ad session in
  let tl = Spans.span "mparser" (fun () -> Msql.Mparser.parse_toplevel sql) in
  let plan =
    match tl with
    | Msql.Ast.Query q -> (
        match Spans.span "expand" (fun () -> Msql.Expand.expand gdd q) with
        | Msql.Expand.Replicated elems ->
            Spans.span "plangen" (fun () -> Msql.Plangen.plan_replicated ad q elems)
        | Msql.Expand.Global { gselect; grefs } ->
            let dp = decompose p session ~gselect ~grefs in
            Spans.span "plangen" (fun () -> Msql.Plangen.plan_global ad q dp)
        | Msql.Expand.Transfer { tdb; tuse; ttable; tcolumns; gselect; grefs } ->
            let dp = decompose p session ~gselect ~grefs in
            Spans.span "plangen" (fun () ->
                Msql.Plangen.plan_transfer ad ~tdb ~tuse ~ttable ~tcolumns dp))
    | Msql.Ast.Multitransaction mtx ->
        let expanded =
          Spans.span "expand" (fun () ->
              List.map
                (fun q ->
                  match Msql.Expand.expand gdd q with
                  | Msql.Expand.Replicated elems -> (q, elems)
                  | Msql.Expand.Global _ | Msql.Expand.Transfer _ ->
                      failwith "cross-database statement in a multitransaction")
                mtx.Msql.Ast.queries)
        in
        Spans.span "plangen" (fun () -> Msql.Plangen.plan_mtx ad mtx expanded)
    | _ -> failwith "only queries and multitransactions are replayed"
  in
  let program = plan.Msql.Plangen.program in
  p.plans <- p.plans + 1;
  p.dol_stmts <- p.dol_stmts + count_stmts program;
  if M.dataflow_enabled session then
    fst (Spans.span "dataflow" (fun () -> Narada.Dol_opt.dataflow_with_stats program))
  else program

(* One statement: the planning layers, then the session's stepped path —
   prepare, one engine span per top-level DOL statement, finish. The
   session plans the statement again inside [prepare_text]; the replayed
   program only labels the steps. *)
let layered_exec p session (st : W.stmt) =
  incr Spans.stmt;
  p.stmts <- p.stmts + 1;
  Spans.span "stmt" (fun () ->
      match replay_plan p session st.W.sql with
      | exception e -> Error ("layer replay: " ^ Printexc.to_string e)
      | program -> (
          match
            Spans.span "session.prepare_text" (fun () -> M.prepare_text session st.W.sql)
          with
          | Error m -> Error m
          | Ok prep ->
              List.iter
                (fun s ->
                  ignore (Spans.span ("engine." ^ label s) (fun () -> M.step prep)))
                program;
              Spans.span "session.finish" (fun () -> M.finish prep)))

(* ---- per-layer metrics ------------------------------------------------------ *)

type phase = {
  p : probe;
  session : M.t;
  reg0 : registry;
  sites0 : (string * int) list;
  compiled0 : int * int * int;
  cache0 : Msql.Metrics.cache_stats;
}

let start_phase p session =
  {
    p;
    session;
    reg0 = registry (M.metrics session);
    sites0 = site_bytes (M.world session);
    compiled0 = Ldbms.Exec.compiled_cache_stats ();
    cache0 = M.cache_stats session;
  }

type server_view = {
  rounds : int;
  requeues : int;
  parallel_batches : int;
  completions : int;
  caches : Msql.Metrics.cache_stats;
  mvcc : registry;
}

let per_layer ph ~traced_rate ~server =
  let p = ph.p in
  let n = float_of_int (max 1 p.stmts) in
  let a name = Spans.acc name in
  let us name = (a name).Spans.total *. 1e6 /. n in
  let kw name = (a name).Spans.alloc /. 1000. /. n in
  let p50_us name = percentile (Fbuf.sorted (a name).Spans.durs) 50. *. 1e6 in
  let ms name = (a name).Spans.total *. 1e3 /. n in
  let reg = registry_delta ph.reg0 (registry (M.metrics ph.session)) in
  let h0, m0, _ = ph.compiled0 in
  let h1, m1, _ = Ldbms.Exec.compiled_cache_stats () in
  let steps =
    List.fold_left (fun s l -> s + (a ("engine." ^ l)).Spans.calls) 0 engine_labels
  in
  let caches, mvcc =
    match server with
    | Some s -> (s.caches, s.mvcc)
    | None -> (cache_delta ph.cache0 (M.cache_stats ph.session), reg)
  in
  let srv f = match server with Some s -> f s | None -> 0.0 in
  let per_move x = if p.moves = 0 then 0.0 else float_of_int x /. float_of_int p.moves in
  [
    metric "traced.stmts_per_s" "stmt/s" traced_rate;
    metric "mparser.us_per_stmt" "us/stmt" (us "mparser");
    metric "mparser.alloc_kw_per_stmt" "kword/stmt" (kw "mparser");
    metric "expand.us_per_stmt" "us/stmt" (us "expand");
    metric "expand.alloc_kw_per_stmt" "kword/stmt" (kw "expand");
    metric "decompose.us_per_stmt" "us/stmt" (us "decompose");
    metric "decompose.alloc_kw_per_stmt" "kword/stmt" (kw "decompose");
    metric "decompose.semijoin_ratio" "ratio" (ratio p.sj_applied p.sj_declined);
    metric "plangen.us_per_stmt" "us/stmt" (us "plangen");
    metric "plangen.alloc_kw_per_stmt" "kword/stmt" (kw "plangen");
    metric "plangen.dol_stmts_per_plan" "stmt/plan"
      (float_of_int p.dol_stmts /. float_of_int (max 1 p.plans));
    metric "dataflow.us_per_stmt" "us/stmt" (us "dataflow");
    metric "dataflow.alloc_kw_per_stmt" "kword/stmt" (kw "dataflow");
    metric "dataflow.waves_per_stmt" "wave/stmt" (float_of_int reg.waves /. n);
    metric "dataflow.overlap_ratio" "ratio"
      (if reg.crit_ms > 0.0 then reg.serial_ms /. reg.crit_ms else 1.0);
    metric "session.prepare_us_p50" "us" (p50_us "session.prepare_text");
    metric "session.finish_us_p50" "us" (p50_us "session.finish");
    metric "engine.move_ms_per_stmt" "ms/stmt" (ms "engine.move");
    metric "engine.task_ms_per_stmt" "ms/stmt" (ms "engine.task");
    metric "engine.commit_ms_per_stmt" "ms/stmt" (ms "engine.commit");
    metric "engine.open_ms_per_stmt" "ms/stmt" (ms "engine.open");
    metric "engine.close_ms_per_stmt" "ms/stmt" (ms "engine.close");
    metric "engine.other_ms_per_stmt" "ms/stmt" (ms "engine.other");
    metric "engine.steps_per_stmt" "step/stmt" (float_of_int steps /. n);
    metric "engine.move_alloc_kw_per_stmt" "kword/stmt" (kw "engine.move");
    metric "engine.task_alloc_kw_per_stmt" "kword/stmt" (kw "engine.task");
    metric "lam.moves_per_stmt" "move/stmt" (float_of_int p.moves /. n);
    metric "lam.move_rows_per_stmt" "row/stmt" (float_of_int p.move_rows /. n);
    metric "lam.chunks_per_move" "chunk/move" (per_move p.chunks);
    metric "lam.reduced_move_ratio" "ratio" (per_move p.reduced);
    metric "lam.retries" "count" (float_of_int p.retries);
    metric "world.site_bytes_max_share" "ratio"
      (max_site_share ph.sites0 (site_bytes (M.world ph.session)));
    metric "exec.compiled_hit_ratio" "ratio" (ratio (h1 - h0) (m1 - m0));
    metric "cache.plan_hit_ratio" "ratio" (ratio caches.plan_hits caches.plan_misses);
    metric "cache.result_hit_ratio" "ratio"
      (ratio caches.result_hits caches.result_misses);
    metric "pool.hit_ratio" "ratio" (ratio caches.pool_hits caches.pool_misses);
    metric "pool.conflicts" "count" (float_of_int caches.pool_conflicts);
    metric "server.round_ms_per_stmt" "ms/stmt"
      (srv (fun s ->
           (Spans.acc "server.step_round").Spans.total *. 1e3
           /. float_of_int (max 1 s.completions)));
    metric "server.stmts_per_round" "stmt/round"
      (srv (fun s -> float_of_int s.completions /. float_of_int (max 1 s.rounds)));
    metric "server.requeues" "count" (srv (fun s -> float_of_int s.requeues));
    metric "server.parallel_batches" "count"
      (srv (fun s -> float_of_int s.parallel_batches));
    metric "mvcc.snapshots_per_stmt" "snapshot/stmt"
      (float_of_int mvcc.snapshots
      /. float_of_int
           (max 1 (match server with Some s -> s.completions | None -> p.stmts)));
    metric "mvcc.ww_conflicts" "count" (float_of_int mvcc.ww_conflicts);
    metric "mvcc.conflict_aborts" "count" (float_of_int mvcc.conflict_aborts);
  ]

(* ---- main ------------------------------------------------------------------- *)

(* scaled to reference speed, as the untraced stmts_per_s is *)
let traced_rate (r : Runner.run) =
  slice_median_rate (slices r.Runner.host ~span:r.Runner.span) r.Runner.ends

let finish (a : args) w r ms =
  Spans.print_breakdown ();
  Option.iter Spans.write a.trace_out;
  Runner.report a w ~traced:true r ms

let () =
  let a = parse_args () in
  let w = Runner.find_workload a in
  let budget = Runner.budget_of a in
  match w.W.kind with
  | W.Single make ->
      let fx = make () in
      let session = fx.Msql.Fixtures.session in
      let p = probe () in
      M.set_typed_trace session (Some (observe p));
      let ph = ref (start_phase p session) in
      let on_timed_start () =
        Spans.reset ();
        reset_probe p;
        ph := start_phase p session
      in
      let r =
        Runner.run_single ~exec:(layered_exec p) ~on_timed_start w fx budget
          ~seed:a.seed
      in
      Runner.check_oracle w r fx.Msql.Fixtures.directory;
      let ms =
        per_layer !ph ~traced_rate:(traced_rate r)
          ~server:None
      in
      finish a w r ms
  | W.Server make ->
      let ((srv, directory, _) as s) = make () in
      (* Server.stats is live: keep the counters, not the record *)
      let counters () =
        let st = Srv.stats srv in
        (st.Srv.rounds, st.Srv.requeues, st.Srv.parallel_batches)
      in
      let counters0 = ref (counters ()) and caches0 = ref (Srv.cache_stats srv) in
      let mvcc0 = ref (registry (Srv.metrics srv)) in
      let on_timed_start () =
        Spans.reset ();
        counters0 := counters ();
        caches0 := Srv.cache_stats srv;
        mvcc0 := registry (Srv.metrics srv)
      in
      let step srv = Spans.span "server.step_round" (fun () -> Srv.step_round srv) in
      let r, counts = Runner.run_server ~step ~on_timed_start w s budget ~seed:a.seed in
      let rounds, requeues, batches = counters () in
      let rounds0, requeues0, batches0 = !counters0 in
      let server =
        {
          rounds = rounds - rounds0;
          requeues = requeues - requeues0;
          parallel_batches = batches - batches0;
          completions = Fbuf.length r.Runner.lat;
          caches = cache_delta !caches0 (Srv.cache_stats srv);
          mvcc = registry_delta !mvcc0 (registry (Srv.metrics srv));
        }
      in
      let traced_rate = traced_rate r in
      Runner.check_oracle w r directory;
      (* the layers, on the serial replay that checks the server's answers *)
      let fx = W.hub_session ~rows:W.zipf_rows in
      let p = probe () in
      M.set_typed_trace fx.Msql.Fixtures.session (Some (observe p));
      let ph = start_phase p fx.Msql.Fixtures.session in
      Runner.check_replay ~exec:(layered_exec p) w r ~seed:a.seed ~counts
        ~server_directory:directory fx;
      finish a w r (per_layer ph ~traced_rate ~server:(Some server))
