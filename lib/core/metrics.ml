(* Session metrics registry: counters folded from the typed trace stream
   ({!observe}) while statements run, exportable as JSON for the benches
   and CI. [observe] is the registry's only writer; network counters are
   read live from the world's per-site ledger at export time. *)

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

module Sites = Map.Make (String)

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
  (* dataflow scheduler: planning-side DAG shape (folded from Planned
     events) and execution-side wave accounting (folded from Wave events;
     virtual, so width-invariant) *)
  mutable dataflow_nodes : int;
  mutable dataflow_edges : int;
  mutable dataflow_waves_planned : int;
  mutable dataflow_critical_len : int;
  mutable dataflow_waves : int;
  mutable dataflow_wave_branches : int;
  mutable dataflow_crit_ms : float;
  mutable dataflow_serial_ms : float;
  mutable site_retries : int Sites.t;
  (* caches: folded from Cache, Pool_stale and busy Open_failed events *)
  mutable caches : cache_stats;
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
    dataflow_nodes = 0;
    dataflow_edges = 0;
    dataflow_waves_planned = 0;
    dataflow_critical_len = 0;
    dataflow_waves = 0;
    dataflow_wave_branches = 0;
    dataflow_crit_ms = 0.0;
    dataflow_serial_ms = 0.0;
    site_retries = Sites.empty;
    caches = zero_cache_stats;
  }

let count_cache c (layer : Narada.Trace.layer) hit =
  match layer, hit with
  | Narada.Trace.Pool, true -> { c with pool_hits = c.pool_hits + 1 }
  | Narada.Trace.Pool, false -> { c with pool_misses = c.pool_misses + 1 }
  | Narada.Trace.Plan, true -> { c with plan_hits = c.plan_hits + 1 }
  | Narada.Trace.Plan, false -> { c with plan_misses = c.plan_misses + 1 }
  | Narada.Trace.Result, true -> { c with result_hits = c.result_hits + 1 }
  | Narada.Trace.Result, false ->
      { c with result_misses = c.result_misses + 1 }

let count_plan m (shape : Narada.Trace.shape) =
  match shape with
  | Narada.Trace.Replicated -> m.plans_replicated <- m.plans_replicated + 1
  | Narada.Trace.Global -> m.plans_global <- m.plans_global + 1
  | Narada.Trace.Transfer -> m.plans_transfer <- m.plans_transfer + 1
  | Narada.Trace.Multitransaction -> m.plans_mtx <- m.plans_mtx + 1

let count_dag m (ds : Narada.Dol_graph.stats) =
  m.dataflow_nodes <- m.dataflow_nodes + ds.Narada.Dol_graph.nodes;
  m.dataflow_edges <- m.dataflow_edges + ds.Narada.Dol_graph.edges;
  m.dataflow_waves_planned <-
    m.dataflow_waves_planned + ds.Narada.Dol_graph.waves;
  m.dataflow_critical_len <-
    max m.dataflow_critical_len ds.Narada.Dol_graph.critical_path_len

(* fold one typed trace event; events with no metric dimension are
   ignored (statuses/branches are control flow) *)
let observe m (ev : Narada.Trace.event) =
  match ev.Narada.Trace.kind with
  | Narada.Trace.Statement -> m.statements <- m.statements + 1
  | Narada.Trace.Explained -> m.explains <- m.explains + 1
  | Narada.Trace.Planned { shape; shipped; reduced; declined; dag } ->
      count_plan m shape;
      m.subqueries_shipped <- m.subqueries_shipped + shipped;
      m.semijoins_applied <- m.semijoins_applied + reduced;
      m.semijoins_declined <- m.semijoins_declined + declined;
      Option.iter (count_dag m) dag
  | Narada.Trace.Run_ended { elapsed_ms; in_doubt; vital_split } ->
      m.engine_runs <- m.engine_runs + 1;
      m.engine_virtual_ms <- m.engine_virtual_ms +. elapsed_ms;
      m.in_doubt <- m.in_doubt + in_doubt;
      if vital_split then m.vital_splits <- m.vital_splits + 1
  | Narada.Trace.Run_failed _ ->
      m.engine_runs <- m.engine_runs + 1;
      m.engine_errors <- m.engine_errors + 1
  | Narada.Trace.Cache { layer; hit; _ } ->
      m.caches <- count_cache m.caches layer hit
  | Narada.Trace.Pool_stale _ ->
      m.caches <- { m.caches with pool_discarded = m.caches.pool_discarded + 1 }
  | Narada.Trace.Open_failed { busy = true; _ } ->
      (* the pool refused the checkout at its connection cap *)
      m.caches <- { m.caches with pool_conflicts = m.caches.pool_conflicts + 1 }
  | Narada.Trace.Retry { site; conflict; _ } ->
      m.retries <- m.retries + 1;
      if conflict then m.conflict_retries <- m.conflict_retries + 1;
      let k = String.lowercase_ascii site in
      let n = Option.value ~default:0 (Sites.find_opt k m.site_retries) in
      m.site_retries <- Sites.add k (n + 1) m.site_retries
  | Narada.Trace.Decision { verdict = Narada.Trace.Commit; _ } ->
      m.decisions_commit <- m.decisions_commit + 1
  | Narada.Trace.Decision { verdict = Narada.Trace.Abort; _ } ->
      m.decisions_abort <- m.decisions_abort + 1
  | Narada.Trace.Recovered _ -> m.recovered <- m.recovered + 1
  | Narada.Trace.Moved { rows; bytes; reduced; _ } ->
      m.moves <- m.moves + 1;
      m.moved_rows <- m.moved_rows + rows;
      m.moved_bytes <- m.moved_bytes + bytes;
      if reduced then m.moves_reduced <- m.moves_reduced + 1
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
  | Narada.Trace.Status _ | Narada.Trace.Branch _ | Narada.Trace.Chunk _
  | Narada.Trace.Dolstatus _ | Narada.Trace.Note _ ->
      ()

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

let to_json m ~world =
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
    m.moves m.moved_rows m.moved_bytes m.moves_reduced m.caches.result_hits;
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
  let cache = m.caches in
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
  (* a site can retry without delivering anything; make sure it appears,
     after the delivering sites and, like them, in name order *)
  let names =
    List.map fst sites
    @ List.filter
        (fun s -> not (List.mem_assoc s sites))
        (List.map fst (Sites.bindings m.site_retries))
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
        Option.value ~default:0 (Sites.find_opt name m.site_retries)
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
