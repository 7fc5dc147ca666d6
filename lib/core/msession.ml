module D = Narada.Dol_ast
module Engine = Narada.Engine
module Names = Sqlcore.Names

let log_src = Logs.Src.create "msql.session" ~doc:"MSQL pipeline"

module Log = (val Logs.src_log log_src : Logs.LOG)

type update_outcome = Success | Aborted | Incorrect

type db_report = {
  rdb : string;
  rvital : Ast.vital;
  rstatus : D.status;
  raffected : int option;
}

type result =
  | Multitable of Multitable.t
  | Update_report of {
      outcome : update_outcome;
      details : db_report list;
      dolstatus : int;
      elapsed_ms : float;
    }
  | Mtx_report of {
      chosen : int option;
      incorrect : bool;
      details : db_report list;
      elapsed_ms : float;
    }
  | Info of string

(* What planning one statement (phases 2-4, §4.3) produces: the unit the
   plan cache stores. Besides the program it keeps what the callers read
   afterwards — the expansion and decomposition EXPLAIN MULTIPLE renders
   and the planning metrics every use of the record notes. *)
type planned = {
  pl_plan : Plangen.plan;
  pl_shape : shape;
  pl_dataflow : Narada.Dol_graph.stats option;
      (* the dataflow pass's DAG stats, when the pass ran *)
}

and shape =
  | Query of Expand.expansion * Decompose.plan option
      (* the decomposition of a global or transfer expansion *)
  | Mtx

(* Cache block: every session holds one — a private block from [create],
   or its server's, which makes the plan and shipped-result caches
   communal: session A's planning warms session B. The hit/miss counters
   stay in each session, so per-session accounting survives sharing. *)
type shared_caches = {
  sc_plans : (string, planned) Hashtbl.t;
  sc_results : (string * string * string, int * Sqlcore.Relation.t) Hashtbl.t;
      (* (src, dst, shipped query) -> (dictionary epoch at store, rows) *)
}

let shared_caches () =
  { sc_plans = Hashtbl.create 64; sc_results = Hashtbl.create 64 }

type t = {
  world : Netsim.World.t;
  directory : Narada.Directory.t;
  ad : Ad.t;
  gdd : Gdd.t;
  mutable scope : Ast.use_item list;  (* current scope (USE CURRENT) *)
  mutable dataflow : bool;
      (* dataflow wave scheduling of generated DOL programs (default on) *)
  mutable semijoin : bool;
  mutable typed_trace : (Narada.Trace.event -> unit) option;
  metrics : Metrics.t;
  mutable retry : Narada.Retry_policy.t option;
      (* None -> the engine's default policy *)
  mutable last_outcome : Engine.outcome option;
  virtual_dbs : (string, Ast.use_item list) Hashtbl.t;
  triggers : (string, Ast.trigger_def) Hashtbl.t;
  mutable trigger_order : string list;  (* creation order, newest first *)
  mutable trigger_log : string list;  (* oldest first *)
  mutable firing_depth : int;  (* cascade guard *)
  mutable trace_tag : string option;
      (* stamped on every observed trace event (unless the event already
         carries one); the server tags each member session so merged
         event streams stay attributable *)
  (* --- session performance layer --- *)
  mutable pool : Narada.Pool.t option;  (* Some = pooling enabled *)
  mutable pool_shared : bool;
      (* the pool belongs to a server, not this session: never drain it *)
  mutable caches : shared_caches;  (* private, or the server's block *)
  mutable plan_hits : int;
  mutable plan_misses : int;
  mutable result_cache_on : bool;  (* off by default *)
  mutable result_hits : int;
  mutable result_misses : int;
}

type cache_stats = Metrics.cache_stats = {
  pool_hits : int;
  pool_misses : int;
  pool_discarded : int;
  pool_conflicts : int;
  plan_hits : int;
  plan_misses : int;
  result_hits : int;
  result_misses : int;
}

let create ?world ?directory ?ad ?gdd () =
  {
    world = (match world with Some w -> w | None -> Netsim.World.create ());
    directory =
      (match directory with Some d -> d | None -> Narada.Directory.create ());
    (* a server passes one AD/GDD pair to every member session: the
       dictionaries are the shared global schema, and sharing them is
       what makes cross-session plan/result cache keys comparable *)
    ad = (match ad with Some a -> a | None -> Ad.create ());
    gdd = (match gdd with Some g -> g | None -> Gdd.create ());
    scope = [];
    dataflow = true;
    semijoin = true;
    typed_trace = None;
    metrics = Metrics.create ();
    retry = None;
    last_outcome = None;
    virtual_dbs = Hashtbl.create 8;
    triggers = Hashtbl.create 8;
    trigger_order = [];
    trigger_log = [];
    firing_depth = 0;
    trace_tag = None;
    pool = None;
    pool_shared = false;
    caches = shared_caches ();
    plan_hits = 0;
    plan_misses = 0;
    result_cache_on = false;
    result_hits = 0;
    result_misses = 0;
  }

let world t = t.world
let current_scope t = t.scope

let triggers t =
  List.filter_map
    (fun name ->
      Option.map (fun d -> (name, d)) (Hashtbl.find_opt t.triggers name))
    (List.rev t.trigger_order)

let trigger_log t = List.rev t.trigger_log
let set_dataflow t b = t.dataflow <- b
let dataflow_enabled t = t.dataflow
let set_semijoin t b = t.semijoin <- b
let semijoin_enabled t = t.semijoin
let set_typed_trace t sink = t.typed_trace <- sink
let metrics t = t.metrics

(* every typed trace event — engine or pool — feeds the registry and is
   then forwarded to the application's sink, if any; a session tag is
   stamped first so merged multi-session streams stay attributable *)
let observe t ev =
  let ev =
    match t.trace_tag with
    | Some tag -> Narada.Trace.with_tag tag ev
    | None -> ev
  in
  Metrics.observe t.metrics ev;
  match t.typed_trace with Some f -> f ev | None -> ()

let set_trace_tag t tag = t.trace_tag <- tag
let trace_tag t = t.trace_tag

let set_retry_policy t p = t.retry <- p
let last_engine_outcome t = t.last_outcome

(* ---- session performance layer ---------------------------------------- *)

let set_pooling t b =
  match b, t.pool with
  | true, None ->
      let p = Narada.Pool.create t.world in
      Narada.Pool.set_trace p (observe t);
      t.pool_shared <- false;
      t.pool <- Some p
  | false, Some p ->
      (* a shared pool belongs to the server and holds other sessions'
         parked connections: detach without draining *)
      if not t.pool_shared then Narada.Pool.drain p;
      t.pool_shared <- false;
      t.pool <- None
  | true, Some _ | false, None -> ()

let pooling_enabled t = t.pool <> None

let set_shared_pool t p =
  (* the pool's trace sink stays whatever its owner installed — a
     per-session sink would misattribute other sessions' stale-discard
     events *)
  (match t.pool with
  | Some own when (not t.pool_shared) && own != p -> Narada.Pool.drain own
  | _ -> ());
  t.pool_shared <- true;
  t.pool <- Some p

let set_domains (_ : t) (_ : int) = ()

let set_result_cache t b =
  if not b then Hashtbl.reset t.caches.sc_results;
  t.result_cache_on <- b

let result_cache_enabled t = t.result_cache_on

let set_shared_caches t sc =
  t.caches <- sc;
  (* sharing implies result caching: a member session with the layer off
     would silently bypass the communal table *)
  t.result_cache_on <- true

let cache_stats t =
  let ps =
    match t.pool with
    | Some p -> Narada.Pool.stats p
    | None -> { Narada.Pool.hits = 0; misses = 0; discarded = 0; conflicts = 0 }
  in
  {
    pool_hits = ps.Narada.Pool.hits;
    pool_misses = ps.Narada.Pool.misses;
    pool_discarded = ps.Narada.Pool.discarded;
    pool_conflicts = ps.Narada.Pool.conflicts;
    plan_hits = t.plan_hits;
    plan_misses = t.plan_misses;
    result_hits = t.result_hits;
    result_misses = t.result_misses;
  }

let metrics_json t =
  Metrics.to_json t.metrics ~world:t.world ~cache:(cache_stats t)

(* epoch stamped on shipped-result entries: any dictionary change (IMPORT,
   INCORPORATE) makes older entries unrecognizable, since a re-import may
   have changed the source schema or statistics *)
let dict_epoch t = Gdd.version t.gdd + Ad.version t.ad

let rc_key src dst query =
  (String.lowercase_ascii src, String.lowercase_ascii dst, query)

let move_cache t =
  if not t.result_cache_on then None
  else
    Some
      {
        Narada.Lam.tc_lookup =
          (fun ~src ~dst ~query ->
            let k = rc_key src dst query in
            let table = t.caches.sc_results in
            match Hashtbl.find_opt table k with
            | Some (epoch, rel) when epoch = dict_epoch t ->
                t.result_hits <- t.result_hits + 1;
                Some rel
            | Some _ ->
                (* stale dictionary epoch: drop and re-ship *)
                Hashtbl.remove table k;
                t.result_misses <- t.result_misses + 1;
                None
            | None ->
                t.result_misses <- t.result_misses + 1;
                None);
        tc_store =
          (fun ~src ~dst ~query rel ->
            let table = t.caches.sc_results in
            if Hashtbl.length table > 256 then Hashtbl.reset table;
            Hashtbl.replace table (rc_key src dst query) (dict_epoch t, rel));
      }

(* drop shipped results touching any of the written databases: a write to
   the source changes what the shipped query returns, a write to the
   destination changes the semijoin key set the shipped query was reduced
   with (service names equal database names here) *)
let invalidate_shipped t dbs =
  let table = t.caches.sc_results in
  if dbs <> [] && Hashtbl.length table > 0 then begin
    let canon = List.map String.lowercase_ascii dbs in
    let doomed =
      Hashtbl.fold
        (fun ((src, dst, _) as k) _ acc ->
          if List.exists (fun db -> db = src || db = dst) canon then k :: acc
          else acc)
        table []
    in
    List.iter (Hashtbl.remove table) doomed
  end

(* start a stepped DOL engine run with the session's trace sink and retry
   policy; [note_outcome] folds the finished result into the metrics and
   remembers it for {!last_engine_outcome} *)
let engine_start t program =
  t.metrics.Metrics.engine_runs <- t.metrics.Metrics.engine_runs + 1;
  Engine.start ~on_trace:(observe t) ?retry:t.retry ?pool:t.pool
    ?move_cache:(move_cache t) ~directory:t.directory ~world:t.world program

let note_outcome t = function
  | Error _ as e ->
      t.metrics.Metrics.engine_errors <- t.metrics.Metrics.engine_errors + 1;
      e
  | Ok outcome ->
      (* retries/decisions/recoveries/moves were already folded from the
         trace stream; the outcome supplies what only the epilogue knows *)
      t.metrics.Metrics.engine_virtual_ms <-
        t.metrics.Metrics.engine_virtual_ms +. outcome.Engine.elapsed_ms;
      t.metrics.Metrics.in_doubt <-
        t.metrics.Metrics.in_doubt + outcome.Engine.in_doubt;
      if outcome.Engine.vital_split then
        t.metrics.Metrics.vital_splits <- t.metrics.Metrics.vital_splits + 1;
      t.last_outcome <- Some outcome;
      Ok outcome

let engine_run t program =
  note_outcome t (Engine.finish (engine_start t program))

let log_trigger t fmt = Printf.ksprintf (fun m -> t.trigger_log <- m :: t.trigger_log) fmt

(* resolve USE CURRENT: prepend the session scope, newest designations
   winning on duplicates, and remember the effective scope *)
let expand_virtual t scope =
  List.concat_map
    (fun (u : Ast.use_item) ->
      match Hashtbl.find_opt t.virtual_dbs (Names.canon u.Ast.db) with
      | None -> [ u ]
      | Some members ->
          (* a VITAL designation on the virtual database distributes over
             its members; aliases on the virtual reference are dropped *)
          List.map
            (fun (m : Ast.use_item) ->
              if u.Ast.vital = Ast.Vital then { m with Ast.vital = Ast.Vital }
              else m)
            members)
    scope

let effective_scope t (q : Ast.query) =
  let named = expand_virtual t q.Ast.scope in
  let scope =
    if not q.Ast.use_current then named
    else
      (* shadow against the expanded items: a multidatabase's members
         already in the session scope must not be opened twice *)
      let shadowed (u : Ast.use_item) =
        List.exists
          (fun (u' : Ast.use_item) -> Names.equal u'.Ast.db u.Ast.db)
          named
      in
      List.filter (fun u -> not (shadowed u)) t.scope @ named
  in
  (* the session scope is NOT committed here: a statement whose plan fails
     to generate must leave the current scope untouched, so persisting is
     the caller's job once a plan exists *)
  { q with Ast.scope; use_current = false }
let directory t = t.directory
let ad t = t.ad
let gdd t = t.gdd

(* ---- dictionary statements -------------------------------------------- *)

let incorporate_stmt t (i : Ast.incorporate) =
  match Narada.Directory.find_opt t.directory i.Ast.inc_service with
  | None ->
      Error
        (Printf.sprintf "service %s is not known to the resource directory"
           i.Ast.inc_service)
  | Some svc ->
      let actual_2pc =
        Ldbms.Capabilities.supports_2pc svc.Narada.Service.caps
      in
      let declared_2pc = i.Ast.inc_commitmode = Ast.Supports_prepare in
      if declared_2pc && not actual_2pc then
        Error
          (Printf.sprintf
             "INCORPORATE declares COMMITMODE NOCOMMIT (2PC) but engine %s \
              of service %s only autocommits"
             svc.Narada.Service.caps.Ldbms.Capabilities.engine_name
             i.Ast.inc_service)
      else begin
        (* declaring an autocommit-only interface for a 2PC engine is
           allowed: the federation then simply never uses PREPARE there *)
        Ad.incorporate t.ad i;
        Ok ()
      end

let incorporate_auto t ~service =
  match Narada.Directory.find_opt t.directory service with
  | None ->
      Error
        (Printf.sprintf "service %s is not known to the resource directory"
           service)
  | Some svc ->
      Ad.register t.ad
        (Ad.of_capabilities ~service ~site:svc.Narada.Service.site
           svc.Narada.Service.caps);
      Ok ()

let import_stmt t (imp : Ast.import) =
  match Narada.Directory.find_opt t.directory imp.Ast.imp_service with
  | None ->
      Error
        (Printf.sprintf "service %s is not known to the resource directory"
           imp.Ast.imp_service)
  | Some svc -> (
      let db = svc.Narada.Service.database in
      if not (Names.equal (Ldbms.Database.name db) imp.Ast.imp_database) then
        Error
          (Printf.sprintf "service %s hosts database %s, not %s"
             imp.Ast.imp_service (Ldbms.Database.name db) imp.Ast.imp_database)
      else
        match imp.Ast.imp_scope with
        | Ast.Import_all ->
            Gdd.import_database t.gdd ~db:imp.Ast.imp_database
              (Ldbms.Database.catalog db);
            List.iter
              (fun (table, _) ->
                match Ldbms.Database.find_table_opt db table with
                | Some tbl ->
                    Gdd.set_cardinality t.gdd ~db:imp.Ast.imp_database ~table
                      (Ldbms.Table.cardinality tbl)
                | None -> ())
              (Ldbms.Database.catalog db);
            Ok ()
        | Ast.Import_table { itable; icolumns } -> (
            let schema_opt =
              match Ldbms.Database.find_table_opt db itable with
              | Some tbl -> Some (Ldbms.Table.schema tbl)
              | None -> (
                  (* the IMPORT grammar also covers views: import the
                     view's result schema as a table definition *)
                  match Ldbms.Database.find_view_opt db itable with
                  | Some q -> (
                      match Ldbms.Exec.view_schema db q with
                      | schema -> Some schema
                      | exception Ldbms.Exec.Error _ -> None)
                  | None -> None)
            in
            match schema_opt with
            | None ->
                Error
                  (Printf.sprintf "table or view %s does not exist in database %s"
                     itable imp.Ast.imp_database)
            | Some schema -> (
                (* record the row count alongside: the decomposer's
                   semijoin cost gate runs on these statistics *)
                (match Ldbms.Database.find_table_opt db itable with
                | Some tbl ->
                    Gdd.set_cardinality t.gdd ~db:imp.Ast.imp_database
                      ~table:itable
                      (Ldbms.Table.cardinality tbl)
                | None -> ());
                match icolumns with
                | None ->
                    Gdd.import_table t.gdd ~db:imp.Ast.imp_database ~table:itable
                      schema;
                    Ok ()
                | Some cols -> (
                    match
                      Gdd.import_columns t.gdd ~db:imp.Ast.imp_database
                        ~table:itable schema cols
                    with
                    | () -> Ok ()
                    | exception Invalid_argument m -> Error m))))

let import_all t ~service =
  match Narada.Directory.find_opt t.directory service with
  | None ->
      Error
        (Printf.sprintf "service %s is not known to the resource directory"
           service)
  | Some svc ->
      import_stmt t
        {
          Ast.imp_database = Ldbms.Database.name svc.Narada.Service.database;
          imp_service = service;
          imp_scope = Ast.Import_all;
        }

(* ---- outcome interpretation -------------------------------------------- *)

let report_of_bindings (outcome : Engine.outcome) bindings =
  List.map
    (fun (b : Plangen.binding) ->
      {
        rdb = b.Plangen.bdb;
        rvital = b.Plangen.vital;
        rstatus = Engine.status_of outcome b.Plangen.task;
        raffected =
          List.assoc_opt (String.lowercase_ascii b.Plangen.task)
            outcome.Engine.rowcounts;
      })
    bindings

let committed = function D.C -> true | D.P | D.A | D.E | D.N | D.X -> false
let undone = function D.A | D.X | D.N -> true | D.C | D.P | D.E -> false

let classify_update details =
  let vitals = List.filter (fun r -> r.rvital = Ast.Vital) details in
  if vitals = [] then Success
  else if List.for_all (fun r -> committed r.rstatus) vitals then Success
  else if List.for_all (fun r -> undone r.rstatus) vitals then Aborted
  else Incorrect

(* ---- query execution ----------------------------------------------------- *)

let build_multitable (outcome : Engine.outcome) bindings =
  let parts =
    List.filter_map
      (fun (b : Plangen.binding) ->
        if b.Plangen.retrieval then
          Engine.result_of outcome b.Plangen.task
          |> Option.map (fun rel ->
                 { Multitable.part_db = b.Plangen.bdb; part_table = rel })
        else None)
      bindings
  in
  Multitable.make parts

(* ---- planning --------------------------------------------------------------
   Every statement kind — query, multitransaction, EXPLAIN, EXPLAIN
   MULTIPLE, translate — is planned by [plan], through the session's plan
   cache. The key covers every planning input: the dictionary identity
   and versions, the planner flags, and the statement after
   virtual-database expansion (so it names the multidatabases' current
   members and, for USE CURRENT, the whole effective scope). A hit thus
   cannot change the program; stale entries are never served, and are
   evicted wholesale when the table grows. Errors are not cached. *)

type statement = Query_stmt of Ast.query | Mtx_stmt of Ast.multitransaction

let plan_key t (stmt : statement) =
  (* the dictionary identity leads the key: when the plan table is shared
     across sessions, only sessions over the same GDD instance may
     exchange plans — equal version numbers from different dictionaries
     must not collide *)
  Printf.sprintf "%d|%d|%d|%b|%b|%s" (Gdd.id t.gdd) (Gdd.version t.gdd)
    (Ad.version t.ad) t.dataflow t.semijoin
    (Marshal.to_string stmt [])

(* phases 2-4 from scratch, then the dataflow pass *)
let plan_fresh t stmt =
  let expand (q : Ast.query) = Expand.expand t.gdd q in
  let plan, shape =
    match stmt with
    | Query_stmt q -> (
        let expansion = expand q in
        let decomposed ~gselect ~grefs =
          let dp = Decompose.decompose ~semijoin:t.semijoin ~gselect ~grefs in
          Log.debug (fun f ->
              f "decomposed global query: coordinator %s, %d shipped \
                 subqueries"
                dp.Decompose.coordinator
                (List.length dp.Decompose.shipped));
          dp
        in
        match expansion with
        | Expand.Replicated elems ->
            Log.debug (fun f ->
                f "expanded into %d elementary quer%s (%s)" (List.length elems)
                  (if List.length elems = 1 then "y" else "ies")
                  (String.concat ", "
                     (List.map (fun (e : Expand.elementary) -> e.Expand.edb)
                        elems)));
            (Plangen.plan_replicated t.ad q elems, Query (expansion, None))
        | Expand.Global { gselect; grefs } ->
            let dp = decomposed ~gselect ~grefs in
            (Plangen.plan_global t.ad q dp, Query (expansion, Some dp))
        | Expand.Transfer { tdb; tuse; ttable; tcolumns; gselect; grefs } ->
            let dp = decomposed ~gselect ~grefs in
            ( Plangen.plan_transfer t.ad ~tdb ~tuse ~ttable ~tcolumns dp,
              Query (expansion, Some dp) ))
    | Mtx_stmt mtx ->
        let expand_one (q : Ast.query) =
          match expand q with
          | Expand.Replicated elems -> (q, elems)
          | Expand.Global _ | Expand.Transfer _ ->
              raise
                (Expand.Error
                   "cross-database statements are not allowed inside a \
                    multitransaction")
        in
        (Plangen.plan_mtx t.ad mtx (List.map expand_one mtx.Ast.queries), Mtx)
  in
  let program, dataflow =
    if t.dataflow then
      let program, ds = Narada.Dol_graph.schedule plan.Plangen.program in
      (program, Some ds)
    else (plan.Plangen.program, None)
  in
  { pl_plan = { plan with Plangen.program }; pl_shape = shape;
    pl_dataflow = dataflow }

(* fold one use of a record into the metrics — the same whether the
   record was just planned or served from the cache *)
let note_planned t p =
  let m = t.metrics in
  (match p.pl_shape with
  | Query (Expand.Replicated _, _) ->
      m.Metrics.plans_replicated <- m.Metrics.plans_replicated + 1
  | Query (Expand.Global _, _) ->
      m.Metrics.plans_global <- m.Metrics.plans_global + 1
  | Query (Expand.Transfer _, _) ->
      m.Metrics.plans_transfer <- m.Metrics.plans_transfer + 1
  | Mtx -> m.Metrics.plans_mtx <- m.Metrics.plans_mtx + 1);
  (match p.pl_shape with
  | Query (_, Some dp) -> Metrics.note_decomposition m dp
  | Query (_, None) | Mtx -> ());
  Option.iter (Metrics.note_dataflow m) p.pl_dataflow

let plan t stmt =
  let k = plan_key t stmt in
  let cached () =
    let plans = t.caches.sc_plans in
    match Hashtbl.find_opt plans k with
    | Some p ->
        t.plan_hits <- t.plan_hits + 1;
        p
    | None ->
        let p = plan_fresh t stmt in
        t.plan_misses <- t.plan_misses + 1;
        if Hashtbl.length plans > 128 then Hashtbl.reset plans;
        Hashtbl.replace plans k p;
        p
  in
  match cached () with
  | p ->
      note_planned t p;
      Ok p
  | exception (Expand.Error m | Decompose.Error m | Plangen.Error m) -> Error m

(* databases whose state a successful execution changed *)
let written_of_details details =
  List.filter_map
    (fun r ->
      match r.rstatus, r.raffected with
      | D.C, Some n when n > 0 -> Some r.rdb
      | _ -> None)
    details

let written_dbs = function
  | Update_report { details; _ } | Mtx_report { details; _ } ->
      written_of_details details
  | Multitable _ | Info _ -> []

(* phases 1-4 for one query: effective scope, plan, persist the scope.
   Shared by execution, stepping, EXPLAIN and translation. *)
let prepare_query t (q : Ast.query) =
  let q = effective_scope t q in
  if q.Ast.scope = [] then
    Error "empty query scope (no current scope established yet?)"
  else
    match plan t (Query_stmt q) with
    | Error m -> Error m
    | Ok p ->
        t.scope <- q.Ast.scope;
        Ok (q, p)

let interpret_query t (q : Ast.query) (plan : Plangen.plan)
    (outcome : Engine.outcome) =
  let details = report_of_bindings outcome plan.Plangen.task_bindings in
  invalidate_shipped t (written_of_details details);
  if Ast.is_retrieval q then
    if outcome.Engine.dolstatus = 0 then
      Ok (Multitable (build_multitable outcome plan.Plangen.task_bindings))
    else
      let failed =
        List.filter
          (fun r -> r.rvital = Ast.Vital && not (committed r.rstatus))
          details
      in
      Error
        (Printf.sprintf "multiple query aborted: vital subquery failed on %s"
           (String.concat ", " (List.map (fun r -> r.rdb) failed)))
  else
    Ok
      (Update_report
         {
           outcome = classify_update details;
           details;
           dolstatus = outcome.Engine.dolstatus;
           elapsed_ms = outcome.Engine.elapsed_ms;
         })

let run_query t (q : Ast.query) =
  Result.bind (prepare_query t q) (fun (q, { pl_plan = plan; _ }) ->
      Result.bind (engine_run t plan.Plangen.program) (interpret_query t q plan))

(* ---- multitransactions --------------------------------------------------- *)

(* the multitransaction with every query's virtual databases expanded,
   and its plan *)
let prepare_mtx t (mtx : Ast.multitransaction) =
  let queries =
    List.map
      (fun (q : Ast.query) -> { q with Ast.scope = expand_virtual t q.Ast.scope })
      mtx.Ast.queries
  in
  let mtx = { mtx with Ast.queries } in
  match plan t (Mtx_stmt mtx) with
  | Error m -> Error m
  | Ok p -> Ok (mtx, p.pl_plan)

let interpret_mtx t (mtx : Ast.multitransaction) (plan : Plangen.plan)
    (outcome : Engine.outcome) =
  let details = report_of_bindings outcome plan.Plangen.task_bindings in
  invalidate_shipped t (written_of_details details);
  let status_of db =
    match List.find_opt (fun r -> Names.equal r.rdb db) details with
    | Some r -> r.rstatus
    | None -> D.N
  in
  (* which databases does state i require? resolve aliases *)
  let dbs_of_state state =
    List.map
      (fun name ->
        match
          List.find_opt
            (fun (q : Ast.query) -> Ast.find_in_scope q.Ast.scope name <> None)
            mtx.Ast.queries
        with
        | Some q ->
            (Option.get (Ast.find_in_scope q.Ast.scope name)).Ast.db
        | None -> name)
      state
  in
  let satisfied state =
    let dbs = dbs_of_state state in
    let all_participants = List.map (fun r -> r.rdb) details in
    List.for_all (fun db -> committed (status_of db)) dbs
    && List.for_all
         (fun db ->
           List.exists (Names.equal db) dbs || undone (status_of db))
         all_participants
  in
  let chosen =
    let rec find i = function
      | [] -> None
      | s :: rest -> if satisfied s then Some i else find (i + 1) rest
    in
    find 0 mtx.Ast.acceptable
  in
  let all_undone = List.for_all (fun r -> undone r.rstatus) details in
  let incorrect = chosen = None && not all_undone in
  Ok
    (Mtx_report
       { chosen; incorrect; details; elapsed_ms = outcome.Engine.elapsed_ms })

let run_mtx t (mtx : Ast.multitransaction) =
  Result.bind (prepare_mtx t mtx) (fun (mtx, plan) ->
      Result.bind (engine_run t plan.Plangen.program) (interpret_mtx t mtx plan))

(* ---- stepped execution ----------------------------------------------------
   The interleaving harness runs several sessions' statements against
   shared sites one engine statement at a time. [prepare_text] runs
   phases 1-4 (parse through plan generation) and starts a stepped engine
   run without executing anything; [step] executes one DOL statement;
   [finish] drains the rest, runs the engine epilogue and interprets the
   outcome exactly as [run_query]/[run_mtx] would. Triggers do not fire
   on this path — the harness asserts raw outcomes. *)

type prepared = {
  p_session : t;
  p_stepper : Engine.stepper;
  p_interpret : Engine.outcome -> (result, string) Stdlib.result;
  p_move_dsts : string list;
      (* destinations of the program's MOVEs — the sites where it creates
         shipped temp tables (msql_tmp_<k>, named per plan, not per
         session), the only sites a retrieval writes to *)
}

(* MOVE destinations, lowercased, deduplicated and sorted *)
let program_move_dsts (program : D.program) =
  let acc = ref [] in
  let rec stmt = function
    | D.Move { dst; _ } -> acc := String.lowercase_ascii dst :: !acc
    | D.Parallel body -> List.iter stmt body
    | D.If (_, thens, elses) ->
        List.iter stmt thens;
        List.iter stmt elses
    | D.Open _ | D.Close _ | D.Task _ | D.Commit_tasks _ | D.Abort_tasks _
    | D.Comp _ | D.Set_status _ ->
        ()
  in
  List.iter stmt program;
  List.sort_uniq String.compare !acc

let prepared_move_dsts p = p.p_move_dsts
let prepared_session p = p.p_session

let prepare_text t text =
  let prepared (plan : Plangen.plan) interpret =
    {
      p_session = t;
      p_stepper = engine_start t plan.Plangen.program;
      p_interpret = interpret plan;
      p_move_dsts = program_move_dsts plan.Plangen.program;
    }
  in
  let count () =
    t.metrics.Metrics.statements <- t.metrics.Metrics.statements + 1
  in
  match Mparser.parse_toplevel text with
  | exception Mparser.Error (m, l, c) ->
      Error (Printf.sprintf "MSQL parse error at %d:%d: %s" l c m)
  | Ast.Query q ->
      count ();
      Result.map
        (fun (q, p) -> prepared p.pl_plan (interpret_query t q))
        (prepare_query t q)
  | Ast.Multitransaction mtx ->
      count ();
      Result.map
        (fun (mtx, plan) -> prepared plan (interpret_mtx t mtx))
        (prepare_mtx t mtx)
  | Ast.Explain _ | Ast.Explain_multiple _ | Ast.Incorporate _ | Ast.Import _
  | Ast.Create_trigger _ | Ast.Drop_trigger _ | Ast.Create_multidatabase _
  | Ast.Drop_multidatabase _ ->
      Error "only queries and multitransactions can be stepped"

let step p = Engine.step p.p_stepper

let finish p =
  match note_outcome p.p_session (Engine.finish p.p_stepper) with
  | Error m -> Error m
  | Ok outcome -> p.p_interpret outcome

(* ---- interdatabase triggers -------------------------------------------------- *)

let max_trigger_depth = 4

(* Trigger conditions are evaluated by the monitored database's LAM
   locally; here that is a direct read of the service's database. *)
let condition_fires t (d : Ast.trigger_def) =
  match Narada.Directory.find_opt t.directory d.Ast.trg_db with
  | None -> Error (Printf.sprintf "service %s unknown" d.Ast.trg_db)
  | Some svc -> (
      match
        Ldbms.Exec.run_select svc.Narada.Service.database d.Ast.trg_condition
      with
      | rel -> Ok (not (Sqlcore.Relation.is_empty rel))
      | exception Ldbms.Exec.Error m -> Error m)

(* ---- EXPLAIN MULTIPLE -------------------------------------------------- *)

(* Plan the query like execution would (phases 1-4, through the plan
   cache) and render the planning record phase by phase, executing
   nothing: the engine is never entered, so the world's clock and message
   counters do not move. *)
let render_explain t (q : Ast.query) p =
  let expansion, decomposition =
    match p.pl_shape with
    | Query (e, dp) -> (e, dp)
    | Mtx -> invalid_arg "Msession.render_explain: multitransaction plan"
  in
  let b = Buffer.create 1024 in
  let addf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let use_item_str (u : Ast.use_item) =
    u.Ast.db
    ^ (match u.Ast.alias with Some a -> " " ^ a | None -> "")
    ^ match u.Ast.vital with Ast.Vital -> " VITAL" | Ast.Non_vital -> ""
  in
  addf "== phase 1-2: scope and expansion ==\n";
  addf "scope: %s\n" (String.concat ", " (List.map use_item_str q.Ast.scope));
  addf "statement: %s\n" (Sqlfront.Sql_pp.stmt_to_string q.Ast.body);
  (match expansion with
  | Expand.Replicated elems ->
      addf "expansion: replicated into %d elementary quer%s\n"
        (List.length elems)
        (if List.length elems = 1 then "y" else "ies");
      List.iter
        (fun (e : Expand.elementary) ->
          List.iter
            (fun st ->
              addf "  [%s] %s\n" e.Expand.edb
                (Sqlfront.Sql_pp.stmt_to_string st))
            e.Expand.stmts)
        elems
  | Expand.Global { grefs; _ } ->
      addf "expansion: global join over %d table reference(s): %s\n"
        (List.length grefs)
        (String.concat ", "
           (List.map
              (fun (r : Expand.global_ref) ->
                r.Expand.gdb ^ "." ^ r.Expand.gtable)
              grefs))
  | Expand.Transfer { tdb; ttable; grefs; _ } ->
      addf
        "expansion: transfer into table %s of %s from %d global reference(s)\n"
        ttable tdb (List.length grefs));
  (match decomposition with
  | None ->
      addf
        "== phase 3: decomposition ==\n\
         not needed: every elementary query is single-database\n"
  | Some dp ->
      addf "== phase 3: decomposition ==\n%s\n"
        (Format.asprintf "%a" Decompose.pp_plan dp));
  let program = p.pl_plan.Plangen.program in
  addf "== phase 4: DOL program ==\n%s" (Narada.Dol_pp.program_to_string program);
  if t.dataflow then
    (* the analysis is idempotent over scheduling: waves dissolve like
       any PARBEGIN block, so this renders the DAG the pass derived *)
    addf "\n== phase 5: dataflow schedule ==\n%s"
      (Narada.Dol_graph.describe program);
  Buffer.contents b

let explain_multiple t (q : Ast.query) =
  match prepare_query t q with
  | Error m -> Error m
  | Ok (q, p) ->
      t.metrics.Metrics.explains <- t.metrics.Metrics.explains + 1;
      Ok (Info (render_explain t q p))

(* ---- translation (no execution) --------------------------------------------- *)

let rec translate_toplevel t = function
  | Ast.Query q ->
      Result.map (fun (_, p) -> p.pl_plan.Plangen.program) (prepare_query t q)
  | Ast.Multitransaction mtx ->
      Result.map (fun (_, plan) -> plan.Plangen.program) (prepare_mtx t mtx)
  | Ast.Explain inner -> translate_toplevel t inner
  | Ast.Explain_multiple q -> translate_toplevel t (Ast.Query q)
  | Ast.Incorporate _ | Ast.Import _ | Ast.Create_trigger _ | Ast.Drop_trigger _
  | Ast.Create_multidatabase _ | Ast.Drop_multidatabase _ ->
      Error "dictionary and trigger statements have no DOL translation"

(* ---- entry points ---------------------------------------------------------- *)

let rec fire_triggers t result =
  match written_dbs result with
  | [] -> ()
  | dbs when t.firing_depth >= max_trigger_depth ->
      log_trigger t "cascade depth limit reached; triggers on %s not evaluated"
        (String.concat ", " dbs)
  | dbs ->
      List.iter
        (fun (name, (d : Ast.trigger_def)) ->
          if List.exists (Names.equal d.Ast.trg_db) dbs then
            match condition_fires t d with
            | Error m -> log_trigger t "trigger %s: condition error: %s" name m
            | Ok false -> ()
            | Ok true -> (
                log_trigger t "trigger %s fired (condition on %s)" name
                  d.Ast.trg_db;
                t.firing_depth <- t.firing_depth + 1;
                let r =
                  Fun.protect
                    ~finally:(fun () -> t.firing_depth <- t.firing_depth - 1)
                    (fun () -> exec_toplevel t (Ast.Query d.Ast.trg_action))
                in
                match r with
                | Ok _ -> log_trigger t "trigger %s action completed" name
                | Error m -> log_trigger t "trigger %s action failed: %s" name m))
        (triggers t)

and exec_toplevel t tl =
  t.metrics.Metrics.statements <- t.metrics.Metrics.statements + 1;
  match tl with
  | Ast.Query q -> (
      match run_query t q with
      | Ok r ->
          fire_triggers t r;
          Ok r
      | Error _ as e -> e)
  | Ast.Multitransaction mtx -> (
      match run_mtx t mtx with
      | Ok r ->
          fire_triggers t r;
          Ok r
      | Error _ as e -> e)
  | Ast.Create_trigger d ->
      if Hashtbl.mem t.triggers d.Ast.trg_name then
        Error (Printf.sprintf "trigger %s already exists" d.Ast.trg_name)
      else if Narada.Directory.find_opt t.directory d.Ast.trg_db = None then
        Error
          (Printf.sprintf "trigger %s monitors unknown service %s"
             d.Ast.trg_name d.Ast.trg_db)
      else begin
        Hashtbl.replace t.triggers d.Ast.trg_name d;
        (* newest first: O(1) per registration, reversed on read *)
        t.trigger_order <- d.Ast.trg_name :: t.trigger_order;
        Ok (Info (Printf.sprintf "trigger %s created on %s" d.Ast.trg_name d.Ast.trg_db))
      end
  | Ast.Drop_trigger name ->
      if Hashtbl.mem t.triggers name then begin
        Hashtbl.remove t.triggers name;
        t.trigger_order <-
          List.filter (fun n -> not (String.equal n name)) t.trigger_order;
        Ok (Info (Printf.sprintf "trigger %s dropped" name))
      end
      else Error (Printf.sprintf "no trigger named %s" name)
  | Ast.Explain inner -> (
      match translate_toplevel t inner with
      | Ok prog ->
          t.metrics.Metrics.explains <- t.metrics.Metrics.explains + 1;
          Ok (Info (Narada.Dol_pp.program_to_string prog))
      | Error m -> Error m)
  | Ast.Explain_multiple q -> explain_multiple t q
  | Ast.Create_multidatabase { mdb_name; mdb_members } ->
      if Hashtbl.mem t.virtual_dbs (Names.canon mdb_name) then
        Error (Printf.sprintf "multidatabase %s already exists" mdb_name)
      else if Gdd.has_database t.gdd mdb_name then
        Error
          (Printf.sprintf "%s already names an imported database" mdb_name)
      else begin
        (* members must be importable databases or other virtual dbs *)
        match
          List.find_opt
            (fun (u : Ast.use_item) ->
              (not (Gdd.has_database t.gdd u.Ast.db))
              && not (Hashtbl.mem t.virtual_dbs (Names.canon u.Ast.db)))
            mdb_members
        with
        | Some u ->
            Error (Printf.sprintf "unknown member database %s" u.Ast.db)
        | None ->
            Hashtbl.replace t.virtual_dbs (Names.canon mdb_name)
              (expand_virtual t mdb_members);
            Ok (Info (Printf.sprintf "multidatabase %s created" mdb_name))
      end
  | Ast.Drop_multidatabase name ->
      if Hashtbl.mem t.virtual_dbs (Names.canon name) then begin
        Hashtbl.remove t.virtual_dbs (Names.canon name);
        Ok (Info (Printf.sprintf "multidatabase %s dropped" name))
      end
      else Error (Printf.sprintf "no multidatabase named %s" name)
  | Ast.Incorporate i -> (
      match incorporate_stmt t i with
      | Ok () -> Ok (Info (Printf.sprintf "service %s incorporated" i.Ast.inc_service))
      | Error m -> Error m)
  | Ast.Import imp -> (
      match import_stmt t imp with
      | Ok () ->
          Ok
            (Info
               (Printf.sprintf "database %s imported from service %s"
                  imp.Ast.imp_database imp.Ast.imp_service))
      | Error m -> Error m)

let exec t text =
  match Mparser.parse_toplevel text with
  | tl -> exec_toplevel t tl
  | exception Mparser.Error (m, l, c) ->
      Error (Printf.sprintf "MSQL parse error at %d:%d: %s" l c m)

let exec_script t text =
  match Mparser.parse_script text with
  | exception Mparser.Error (m, l, c) ->
      Error (Printf.sprintf "MSQL parse error at %d:%d: %s" l c m)
  | tls ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | tl :: rest -> (
            match exec_toplevel t tl with
            | Ok r -> go (r :: acc) rest
            | Error m -> Error m)
      in
      go [] tls

let translate t text =
  match Mparser.parse_toplevel text with
  | exception Mparser.Error (m, l, c) ->
      Error (Printf.sprintf "MSQL parse error at %d:%d: %s" l c m)
  | tl -> translate_toplevel t tl

(* ---- printing ---------------------------------------------------------------- *)

let update_outcome_to_string = function
  | Success -> "success"
  | Aborted -> "aborted"
  | Incorrect -> "INCORRECT"

let db_report_to_string r =
  Printf.sprintf "%s%s: %s%s" r.rdb
    (match r.rvital with Ast.Vital -> " (vital)" | Ast.Non_vital -> "")
    (D.status_to_string r.rstatus)
    (match r.raffected with
    | Some n -> Printf.sprintf " [%d row(s)]" n
    | None -> "")

let result_to_string = function
  | Multitable mt -> Multitable.to_string mt
  | Update_report { outcome; details; dolstatus; elapsed_ms } ->
      Printf.sprintf "update %s (DOLSTATUS=%d, %.2f ms)\n%s"
        (update_outcome_to_string outcome)
        dolstatus elapsed_ms
        (String.concat "\n" (List.map (fun r -> "  " ^ db_report_to_string r) details))
  | Mtx_report { chosen; incorrect; details; elapsed_ms } ->
      let headline =
        match chosen, incorrect with
        | Some i, _ -> Printf.sprintf "multitransaction committed acceptable state %d" (i + 1)
        | None, false -> "multitransaction aborted (all subqueries undone)"
        | None, true -> "multitransaction INCORRECT (unacceptable mixed state)"
      in
      Printf.sprintf "%s (%.2f ms)\n%s" headline elapsed_ms
        (String.concat "\n" (List.map (fun r -> "  " ^ db_report_to_string r) details))
  | Info m -> m
