(* Session metrics registry: mutable counters the session and the engine
   feed while statements run, exportable as JSON for the benches and CI.
   Planning counters are bumped by Msession's pipeline; engine counters
   are folded from the typed trace stream ({!observe}) and from the
   engine outcome; network counters are read live from the world's
   per-site ledger at export time. *)

type cache_stats = {
  pool_hits : int;
  pool_misses : int;
  pool_discarded : int;
  pool_conflicts : int;
  plan_hits : int;
  plan_misses : int;
  result_hits : int;
  result_misses : int;
}

let zero_cache_stats =
  {
    pool_hits = 0;
    pool_misses = 0;
    pool_discarded = 0;
    pool_conflicts = 0;
    plan_hits = 0;
    plan_misses = 0;
    result_hits = 0;
    result_misses = 0;
  }

let add_cache_stats a b =
  {
    pool_hits = a.pool_hits + b.pool_hits;
    pool_misses = a.pool_misses + b.pool_misses;
    pool_discarded = a.pool_discarded + b.pool_discarded;
    pool_conflicts = a.pool_conflicts + b.pool_conflicts;
    plan_hits = a.plan_hits + b.plan_hits;
    plan_misses = a.plan_misses + b.plan_misses;
    result_hits = a.result_hits + b.result_hits;
    result_misses = a.result_misses + b.result_misses;
  }

type t = {
  (* planning: phases 1-4 of the pipeline *)
  mutable statements : int;
  mutable plans_replicated : int;
  mutable plans_global : int;
  mutable plans_transfer : int;
  mutable plans_mtx : int;
  mutable subqueries_shipped : int;
  mutable semijoins_applied : int;
  mutable semijoins_declined : int;
  mutable explains : int;
  (* engine: execution *)
  mutable engine_runs : int;
  mutable engine_errors : int;
  mutable engine_virtual_ms : float;
  mutable retries : int;
  mutable decisions_commit : int;
  mutable decisions_abort : int;
  mutable recovered : int;
  mutable in_doubt : int;
  mutable vital_splits : int;
  mutable snapshots : int;
  mutable ww_conflicts : int;
  mutable conflict_retries : int;
  mutable conflict_aborts : int;
  mutable moves : int;
  mutable moved_rows : int;
  mutable moved_bytes : int;
  mutable moves_reduced : int;
  mutable moves_cached : int;
  (* dataflow scheduler: planning-side DAG shape (folded when the pass
     regroups a program) and execution-side wave accounting (folded from
     Wave trace events; virtual, so width-invariant) *)
  mutable dataflow_nodes : int;
  mutable dataflow_edges : int;
  mutable dataflow_waves_planned : int;
  mutable dataflow_critical_len : int;
  mutable dataflow_waves : int;
  mutable dataflow_wave_branches : int;
  mutable dataflow_crit_ms : float;
  mutable dataflow_serial_ms : float;
  site_retries : (string, int) Hashtbl.t;
}

let create () =
  {
    statements = 0;
    plans_replicated = 0;
    plans_global = 0;
    plans_transfer = 0;
    plans_mtx = 0;
    subqueries_shipped = 0;
    semijoins_applied = 0;
    semijoins_declined = 0;
    explains = 0;
    engine_runs = 0;
    engine_errors = 0;
    engine_virtual_ms = 0.0;
    retries = 0;
    decisions_commit = 0;
    decisions_abort = 0;
    recovered = 0;
    in_doubt = 0;
    vital_splits = 0;
    snapshots = 0;
    ww_conflicts = 0;
    conflict_retries = 0;
    conflict_aborts = 0;
    moves = 0;
    moved_rows = 0;
    moved_bytes = 0;
    moves_reduced = 0;
    moves_cached = 0;
    dataflow_nodes = 0;
    dataflow_edges = 0;
    dataflow_waves_planned = 0;
    dataflow_critical_len = 0;
    dataflow_waves = 0;
    dataflow_wave_branches = 0;
    dataflow_crit_ms = 0.0;
    dataflow_serial_ms = 0.0;
    site_retries = Hashtbl.create 8;
  }

(* fold [src] into [dst], counter by counter: the server aggregates its
   member sessions' registries into one server-wide registry this way.
   [dst] is usually a fresh registry, but accumulation works too. *)
let add dst src =
  dst.statements <- dst.statements + src.statements;
  dst.plans_replicated <- dst.plans_replicated + src.plans_replicated;
  dst.plans_global <- dst.plans_global + src.plans_global;
  dst.plans_transfer <- dst.plans_transfer + src.plans_transfer;
  dst.plans_mtx <- dst.plans_mtx + src.plans_mtx;
  dst.subqueries_shipped <- dst.subqueries_shipped + src.subqueries_shipped;
  dst.semijoins_applied <- dst.semijoins_applied + src.semijoins_applied;
  dst.semijoins_declined <- dst.semijoins_declined + src.semijoins_declined;
  dst.explains <- dst.explains + src.explains;
  dst.engine_runs <- dst.engine_runs + src.engine_runs;
  dst.engine_errors <- dst.engine_errors + src.engine_errors;
  dst.engine_virtual_ms <- dst.engine_virtual_ms +. src.engine_virtual_ms;
  dst.retries <- dst.retries + src.retries;
  dst.decisions_commit <- dst.decisions_commit + src.decisions_commit;
  dst.decisions_abort <- dst.decisions_abort + src.decisions_abort;
  dst.recovered <- dst.recovered + src.recovered;
  dst.in_doubt <- dst.in_doubt + src.in_doubt;
  dst.vital_splits <- dst.vital_splits + src.vital_splits;
  dst.snapshots <- dst.snapshots + src.snapshots;
  dst.ww_conflicts <- dst.ww_conflicts + src.ww_conflicts;
  dst.conflict_retries <- dst.conflict_retries + src.conflict_retries;
  dst.conflict_aborts <- dst.conflict_aborts + src.conflict_aborts;
  dst.moves <- dst.moves + src.moves;
  dst.moved_rows <- dst.moved_rows + src.moved_rows;
  dst.moved_bytes <- dst.moved_bytes + src.moved_bytes;
  dst.moves_reduced <- dst.moves_reduced + src.moves_reduced;
  dst.moves_cached <- dst.moves_cached + src.moves_cached;
  dst.dataflow_nodes <- dst.dataflow_nodes + src.dataflow_nodes;
  dst.dataflow_edges <- dst.dataflow_edges + src.dataflow_edges;
  dst.dataflow_waves_planned <-
    dst.dataflow_waves_planned + src.dataflow_waves_planned;
  dst.dataflow_critical_len <-
    max dst.dataflow_critical_len src.dataflow_critical_len;
  dst.dataflow_waves <- dst.dataflow_waves + src.dataflow_waves;
  dst.dataflow_wave_branches <-
    dst.dataflow_wave_branches + src.dataflow_wave_branches;
  dst.dataflow_crit_ms <- dst.dataflow_crit_ms +. src.dataflow_crit_ms;
  dst.dataflow_serial_ms <- dst.dataflow_serial_ms +. src.dataflow_serial_ms;
  Hashtbl.iter
    (fun site n ->
      Hashtbl.replace dst.site_retries site
        (n + Option.value ~default:0 (Hashtbl.find_opt dst.site_retries site)))
    src.site_retries

let reset m =
  m.statements <- 0;
  m.plans_replicated <- 0;
  m.plans_global <- 0;
  m.plans_transfer <- 0;
  m.plans_mtx <- 0;
  m.subqueries_shipped <- 0;
  m.semijoins_applied <- 0;
  m.semijoins_declined <- 0;
  m.explains <- 0;
  m.engine_runs <- 0;
  m.engine_errors <- 0;
  m.engine_virtual_ms <- 0.0;
  m.retries <- 0;
  m.decisions_commit <- 0;
  m.decisions_abort <- 0;
  m.recovered <- 0;
  m.in_doubt <- 0;
  m.vital_splits <- 0;
  m.snapshots <- 0;
  m.ww_conflicts <- 0;
  m.conflict_retries <- 0;
  m.conflict_aborts <- 0;
  m.moves <- 0;
  m.moved_rows <- 0;
  m.moved_bytes <- 0;
  m.moves_reduced <- 0;
  m.moves_cached <- 0;
  m.dataflow_nodes <- 0;
  m.dataflow_edges <- 0;
  m.dataflow_waves_planned <- 0;
  m.dataflow_critical_len <- 0;
  m.dataflow_waves <- 0;
  m.dataflow_wave_branches <- 0;
  m.dataflow_crit_ms <- 0.0;
  m.dataflow_serial_ms <- 0.0;
  Hashtbl.reset m.site_retries

(* fold one typed trace event; events with no metric dimension are
   ignored (cache consultations are counted by the owning cache's own
   stats, statuses/branches are control flow) *)
let observe m (ev : Narada.Trace.event) =
  match ev.Narada.Trace.kind with
  | Narada.Trace.Retry { site; conflict; _ } ->
      m.retries <- m.retries + 1;
      if conflict then m.conflict_retries <- m.conflict_retries + 1;
      let k = String.lowercase_ascii site in
      Hashtbl.replace m.site_retries k
        (1 + Option.value ~default:0 (Hashtbl.find_opt m.site_retries k))
  | Narada.Trace.Decision { verdict = Narada.Trace.Commit; _ } ->
      m.decisions_commit <- m.decisions_commit + 1
  | Narada.Trace.Decision { verdict = Narada.Trace.Abort; _ } ->
      m.decisions_abort <- m.decisions_abort + 1
  | Narada.Trace.Recovered _ -> m.recovered <- m.recovered + 1
  | Narada.Trace.Moved { rows; bytes; reduced; cached; _ } ->
      m.moves <- m.moves + 1;
      m.moved_rows <- m.moved_rows + rows;
      m.moved_bytes <- m.moved_bytes + bytes;
      if reduced then m.moves_reduced <- m.moves_reduced + 1;
      if cached then m.moves_cached <- m.moves_cached + 1
  | Narada.Trace.Snapshot _ -> m.snapshots <- m.snapshots + 1
  | Narada.Trace.Conflict _ -> m.ww_conflicts <- m.ww_conflicts + 1
  | Narada.Trace.Conflict_abort _ ->
      m.conflict_aborts <- m.conflict_aborts + 1
  | Narada.Trace.Wave { branches; crit_ms; serial_ms } ->
      m.dataflow_waves <- m.dataflow_waves + 1;
      m.dataflow_wave_branches <- m.dataflow_wave_branches + branches;
      m.dataflow_crit_ms <- m.dataflow_crit_ms +. crit_ms;
      m.dataflow_serial_ms <- m.dataflow_serial_ms +. serial_ms
  (* the chunk event is never emitted: a MOVE is one message and reports
     only Moved *)
  | Narada.Trace.Opened _ | Narada.Trace.Open_failed _ | Narada.Trace.Closed _
  | Narada.Trace.Status _ | Narada.Trace.Branch _ | Narada.Trace.Pool_stale _
  | Narada.Trace.Cache _ | Narada.Trace.Chunk _ | Narada.Trace.Dolstatus _
  | Narada.Trace.Note _ ->
      ()

let note_dataflow m (ds : Narada.Dol_graph.stats) =
  m.dataflow_nodes <- m.dataflow_nodes + ds.Narada.Dol_graph.nodes;
  m.dataflow_edges <- m.dataflow_edges + ds.Narada.Dol_graph.edges;
  m.dataflow_waves_planned <-
    m.dataflow_waves_planned + ds.Narada.Dol_graph.waves;
  m.dataflow_critical_len <-
    max m.dataflow_critical_len ds.Narada.Dol_graph.critical_path_len

let note_decomposition m (dp : Decompose.plan) =
  List.iter
    (fun (s : Decompose.shipped) ->
      m.subqueries_shipped <- m.subqueries_shipped + 1;
      match s.Decompose.sj_gate with
      | Decompose.Sj_applied _ -> m.semijoins_applied <- m.semijoins_applied + 1
      | Decompose.Sj_declined _ ->
          m.semijoins_declined <- m.semijoins_declined + 1
      | Decompose.Sj_no_stats | Decompose.Sj_no_edge | Decompose.Sj_off -> ())
    dp.Decompose.shipped

(* ---- JSON export -------------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json m ~world ~cache =
  let b = Buffer.create 2048 in
  let addf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let ws = Netsim.World.stats world in
  addf "{\n";
  addf "  \"virtual_now_ms\": %.2f,\n" (Netsim.World.now_ms world);
  addf "  \"planning\": {\n";
  addf "    \"statements\": %d,\n" m.statements;
  addf
    "    \"plans\": {\"replicated\": %d, \"global\": %d, \"transfer\": %d, \
     \"multitransaction\": %d},\n"
    m.plans_replicated m.plans_global m.plans_transfer m.plans_mtx;
  addf "    \"subqueries_shipped\": %d,\n" m.subqueries_shipped;
  addf "    \"semijoins_applied\": %d,\n" m.semijoins_applied;
  addf "    \"semijoins_declined\": %d,\n" m.semijoins_declined;
  addf "    \"explains\": %d\n" m.explains;
  addf "  },\n";
  addf "  \"engine\": {\n";
  addf "    \"runs\": %d,\n" m.engine_runs;
  addf "    \"errors\": %d,\n" m.engine_errors;
  addf "    \"virtual_ms\": %.2f,\n" m.engine_virtual_ms;
  addf "    \"retries\": %d,\n" m.retries;
  addf "    \"decisions\": {\"commit\": %d, \"abort\": %d},\n" m.decisions_commit
    m.decisions_abort;
  addf "    \"recovered\": %d,\n" m.recovered;
  addf "    \"in_doubt\": %d,\n" m.in_doubt;
  addf "    \"vital_splits\": %d,\n" m.vital_splits;
  addf
    "    \"mvcc\": {\"snapshots\": %d, \"ww_conflicts\": %d, \
     \"conflict_retries\": %d, \"conflict_aborts\": %d},\n"
    m.snapshots m.ww_conflicts m.conflict_retries m.conflict_aborts;
  addf
    "    \"moves\": {\"count\": %d, \"rows\": %d, \"bytes\": %d, \
     \"semijoin_reduced\": %d, \"cache_hits\": %d},\n"
    m.moves m.moved_rows m.moved_bytes m.moves_reduced m.moves_cached;
  addf
    "    \"dataflow\": {\"nodes\": %d, \"edges\": %d, \"waves_planned\": %d, \
     \"critical_path_len\": %d, \"waves\": %d, \"wave_branches\": %d, \
     \"critical_path_ms\": %.2f, \"serial_ms\": %.2f, \"overlap_ratio\": \
     %.2f}\n"
    m.dataflow_nodes m.dataflow_edges m.dataflow_waves_planned
    m.dataflow_critical_len m.dataflow_waves m.dataflow_wave_branches
    m.dataflow_crit_ms m.dataflow_serial_ms
    (if m.dataflow_crit_ms > 0.0 then m.dataflow_serial_ms /. m.dataflow_crit_ms
     else 1.0);
  addf "  },\n";
  addf "  \"caches\": {\n";
  addf
    "    \"pool\": {\"hits\": %d, \"misses\": %d, \"discarded\": %d, \
     \"conflicts\": %d},\n"
    cache.pool_hits cache.pool_misses cache.pool_discarded
    cache.pool_conflicts;
  addf "    \"plan\": {\"hits\": %d, \"misses\": %d},\n" cache.plan_hits
    cache.plan_misses;
  addf "    \"result\": {\"hits\": %d, \"misses\": %d}\n" cache.result_hits
    cache.result_misses;
  addf "  },\n";
  addf "  \"network\": {\"messages\": %d, \"bytes_moved\": %d, \"lost\": %d},\n"
    ws.Netsim.World.messages ws.Netsim.World.bytes_moved ws.Netsim.World.lost;
  addf "  \"sites\": [\n";
  let sites = Netsim.World.per_site world in
  (* a site can retry without delivering anything; make sure it appears *)
  let names =
    List.map fst sites
    @ Hashtbl.fold
        (fun s _ acc ->
          if List.mem_assoc s sites then acc else s :: acc)
        m.site_retries []
  in
  List.iteri
    (fun i name ->
      let sent_m, sent_b, recv_m, recv_b =
        match List.assoc_opt name sites with
        | Some s ->
            ( s.Netsim.World.sent_msgs,
              s.Netsim.World.sent_bytes,
              s.Netsim.World.recv_msgs,
              s.Netsim.World.recv_bytes )
        | None -> (0, 0, 0, 0)
      in
      let retries =
        Option.value ~default:0 (Hashtbl.find_opt m.site_retries name)
      in
      addf
        "    {\"site\": \"%s\", \"sent_messages\": %d, \"sent_bytes\": %d, \
         \"recv_messages\": %d, \"recv_bytes\": %d, \"retries\": %d}%s\n"
        (json_escape name) sent_m sent_b recv_m recv_b retries
        (if i = List.length names - 1 then "" else ","))
    names;
  addf "  ]\n";
  addf "}\n";
  Buffer.contents b
