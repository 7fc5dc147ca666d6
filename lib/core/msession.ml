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
   and the Planned event every use of the record tells. *)
type planned = {
  pl_plan : Plangen.plan;
  pl_shape : shape;
  pl_planned : Narada.Trace.kind;
}

and shape =
  | Query of Expand.expansion * Decompose.plan option
      (* the decomposition of a global or transfer expansion *)
  | Mtx

(* Cache block: every session holds one — a private block from [create],
   or its server's, which makes the parse, plan and shipped-result caches
   communal: session A's planning warms session B. Each consultation is a
   trace event of the consulting session, so per-session accounting
   survives sharing. *)
type shared_caches = {
  sc_parsed : (string, Ast.toplevel) Hashtbl.t;
      (* statement text -> its parse; pure, so never stale *)
  sc_plans : (string, planned) Hashtbl.t;
  sc_results : (string * string * string, int * Sqlcore.Relation.t) Hashtbl.t;
      (* (src, dst, shipped query) -> (source change stamp at store, rows) *)
}

let shared_caches () =
  {
    sc_parsed = Hashtbl.create 64;
    sc_plans = Hashtbl.create 64;
    sc_results = Hashtbl.create 64;
  }

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
  mutable result_cache_on : bool;  (* off by default *)
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
    result_cache_on = false;
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

(* every typed trace event — engine, pool or this session's caches —
   feeds the registry and is then forwarded to the application's sink, if
   any; a session tag is stamped first so merged multi-session streams
   stay attributable *)
let observe t ev =
  let ev =
    match t.trace_tag with
    | Some tag -> Narada.Trace.with_tag tag ev
    | None -> ev
  in
  Metrics.observe t.metrics ev;
  match t.typed_trace with Some f -> f ev | None -> ()

let set_trace_tag t tag = t.trace_tag <- tag

let tell t kind =
  observe t (Narada.Trace.make ~at_ms:(Netsim.World.now_ms t.world) kind)

let consulted t layer ~hit key =
  tell t (Narada.Trace.Cache { layer; hit; key })

let set_retry_policy t p = t.retry <- p
let last_engine_outcome t = t.last_outcome

(* ---- session performance layer ---------------------------------------- *)

let set_pooling t b =
  match b, t.pool with
  | true, None ->
      let p = Narada.Pool.create t.world in
      t.pool_shared <- false;
      t.pool <- Some p
  | false, Some p ->
      (* a shared pool belongs to the server and holds other sessions'
         parked connections: detach without draining *)
      if not t.pool_shared then Narada.Pool.drain p;
      t.pool_shared <- false;
      t.pool <- None
  | true, Some _ | false, None -> ()

let set_shared_pool t p =
  (match t.pool with
  | Some own when (not t.pool_shared) && own != p -> Narada.Pool.drain own
  | _ -> ());
  t.pool_shared <- true;
  t.pool <- Some p

let set_domains (_ : t) (_ : int) = ()

let set_result_cache t b =
  if not b then Hashtbl.reset t.caches.sc_results;
  t.result_cache_on <- b

let set_shared_caches t sc =
  t.caches <- sc;
  (* sharing implies result caching: a member session with the layer off
     would silently bypass the communal table *)
  t.result_cache_on <- true

let cache_stats t = t.metrics.Metrics.caches
let metrics_json t = Metrics.to_json t.metrics ~world:t.world

let rc_key src dst query =
  (String.lowercase_ascii src, String.lowercase_ascii dst, query)

(* an entry is valid only under the source stamp it was stored with: a
   write at the source, whoever made it, moves the stamp, and the semijoin
   key set that depends on the destination is already part of the text *)
let move_cache t =
  if not t.result_cache_on then None
  else
    Some
      {
        Narada.Lam.tc_lookup =
          (fun ~src ~dst ~query ~stamp ->
            let k = rc_key src dst query in
            let hit =
              match Hashtbl.find_opt t.caches.sc_results k with
              | Some (s, rel) when s = stamp -> Some rel
              | Some _ | None -> None (* a miss stores over a stale entry *)
            in
            consulted t Narada.Trace.Result ~hit:(Option.is_some hit) query;
            hit);
        tc_store =
          (fun ~src ~dst ~query ~stamp rel ->
            let table = t.caches.sc_results in
            if Hashtbl.length table > 256 then Hashtbl.reset table;
            Hashtbl.replace table (rc_key src dst query) (stamp, rel));
      }

(* start a stepped DOL engine run with the session's trace sink and retry
   policy; the engine tells the run's end down that sink *)
let engine_start t program =
  Engine.start ~on_trace:(observe t) ?retry:t.retry ?pool:t.pool
    ?move_cache:(move_cache t) ~directory:t.directory ~world:t.world program

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
        Ok (Info (Printf.sprintf "service %s incorporated" i.Ast.inc_service))
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
                (* record the row count alongside: the decomposer
                   prices its plans with these statistics *)
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

let create_multidatabase t mdb_name (members : Ast.use_item list) =
  if Hashtbl.mem t.virtual_dbs (Names.canon mdb_name) then
    Error (Printf.sprintf "multidatabase %s already exists" mdb_name)
  else if Gdd.has_database t.gdd mdb_name then
    Error (Printf.sprintf "%s already names an imported database" mdb_name)
  else
    (* members must be importable databases or other virtual dbs *)
    match
      List.find_opt
        (fun (u : Ast.use_item) ->
          (not (Gdd.has_database t.gdd u.Ast.db))
          && not (Hashtbl.mem t.virtual_dbs (Names.canon u.Ast.db)))
        members
    with
    | Some u -> Error (Printf.sprintf "unknown member database %s" u.Ast.db)
    | None ->
        Hashtbl.replace t.virtual_dbs (Names.canon mdb_name)
          (expand_virtual t members);
        Ok (Info (Printf.sprintf "multidatabase %s created" mdb_name))

let drop_multidatabase t name =
  if Hashtbl.mem t.virtual_dbs (Names.canon name) then begin
    Hashtbl.remove t.virtual_dbs (Names.canon name);
    Ok (Info (Printf.sprintf "multidatabase %s dropped" name))
  end
  else Error (Printf.sprintf "no multidatabase named %s" name)

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

(* the network cost model of a database's site, which the decomposer
   prices plans with; Netsim's defaults for a database it cannot place *)
let site_model t db =
  match Narada.Directory.find_opt t.directory db with
  | Some svc -> (
      match Netsim.World.find_site t.world svc.Narada.Service.site with
      | site -> site
      | exception Netsim.World.Unknown_site _ -> Netsim.Site.make db)
  | None -> Netsim.Site.make db

(* the Planned event of a record: its shape, the decomposition's shipped
   subqueries and semijoin gate outcomes, and the dataflow DAG *)
let planned_event shape dag =
  let shipped =
    match shape with
    | Query (_, Some dp) -> dp.Decompose.shipped
    | Query (_, None) | Mtx -> []
  in
  let shape =
    match shape with
    | Query (Expand.Replicated _, _) -> Narada.Trace.Replicated
    | Query (Expand.Global _, _) -> Narada.Trace.Global
    | Query (Expand.Transfer _, _) -> Narada.Trace.Transfer
    | Mtx -> Narada.Trace.Multitransaction
  in
  let gates p =
    List.length
      (List.filter (fun (s : Decompose.shipped) -> p s.Decompose.sj_gate) shipped)
  in
  Narada.Trace.Planned
    {
      shape;
      shipped = List.length shipped;
      reduced = gates (function Decompose.Sj_applied _ -> true | _ -> false);
      declined = gates (function Decompose.Sj_declined _ -> true | _ -> false);
      dag;
    }

(* phases 2-4 from scratch, then the dataflow pass *)
let plan_fresh t stmt =
  let expand (q : Ast.query) = Expand.expand t.gdd q in
  let plan, shape =
    match stmt with
    | Query_stmt q -> (
        let expansion = expand q in
        let decomposed ?target ~gselect ~grefs () =
          let dp =
            Decompose.decompose_with ~site:(site_model t) ?target
              ~semijoin:t.semijoin ~gselect ~grefs ()
          in
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
            let dp = decomposed ~gselect ~grefs () in
            (Plangen.plan_global t.ad q dp, Query (expansion, Some dp))
        | Expand.Transfer { tdb; tuse; ttable; tcolumns; gselect; grefs } ->
            let dp = decomposed ~target:tdb ~gselect ~grefs () in
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
  let program, dag =
    if t.dataflow then
      let program, ds = Narada.Dol_graph.schedule plan.Plangen.program in
      (program, Some ds)
    else (plan.Plangen.program, None)
  in
  { pl_plan = { plan with Plangen.program }; pl_shape = shape;
    pl_planned = planned_event shape dag }

let plan t stmt =
  let k = plan_key t stmt in
  let kind =
    match stmt with Query_stmt _ -> "query" | Mtx_stmt _ -> "multitransaction"
  in
  let cached () =
    let plans = t.caches.sc_plans in
    match Hashtbl.find_opt plans k with
    | Some p ->
        consulted t Narada.Trace.Plan ~hit:true kind;
        p
    | None ->
        let p = plan_fresh t stmt in
        (* a statement that fails to plan is not cached, and not told *)
        consulted t Narada.Trace.Plan ~hit:false kind;
        if Hashtbl.length plans > 128 then Hashtbl.reset plans;
        Hashtbl.replace plans k p;
        p
  in
  match cached () with
  | p ->
      (* told on every use of the record, hit or miss *)
      tell t p.pl_planned;
      Ok p
  | exception (Expand.Error m | Decompose.Error m | Plangen.Error m) -> Error m

(* databases whose state a successful execution changed: what wakes the
   interdatabase triggers *)
let written_dbs = function
  | Update_report { details; _ } | Mtx_report { details; _ } ->
      List.filter_map
        (fun r ->
          match r.rstatus, r.raffected with
          | D.C, Some n when n > 0 -> Some r.rdb
          | _ -> None)
        details
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

let interpret_query (q : Ast.query) (plan : Plangen.plan)
    (outcome : Engine.outcome) =
  let details = report_of_bindings outcome plan.Plangen.task_bindings in
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

let interpret_mtx (mtx : Ast.multitransaction) (plan : Plangen.plan)
    (outcome : Engine.outcome) =
  let details = report_of_bindings outcome plan.Plangen.task_bindings in
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

let create_trigger t (d : Ast.trigger_def) =
  if Hashtbl.mem t.triggers d.Ast.trg_name then
    Error (Printf.sprintf "trigger %s already exists" d.Ast.trg_name)
  else if Narada.Directory.find_opt t.directory d.Ast.trg_db = None then
    Error
      (Printf.sprintf "trigger %s monitors unknown service %s" d.Ast.trg_name
         d.Ast.trg_db)
  else begin
    Hashtbl.replace t.triggers d.Ast.trg_name d;
    (* newest first: O(1) per registration, reversed on read *)
    t.trigger_order <- d.Ast.trg_name :: t.trigger_order;
    Ok
      (Info
         (Printf.sprintf "trigger %s created on %s" d.Ast.trg_name d.Ast.trg_db))
  end

let drop_trigger t name =
  if Hashtbl.mem t.triggers name then begin
    Hashtbl.remove t.triggers name;
    t.trigger_order <-
      List.filter (fun n -> not (String.equal n name)) t.trigger_order;
    Ok (Info (Printf.sprintf "trigger %s dropped" name))
  end
  else Error (Printf.sprintf "no trigger named %s" name)

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
      tell t Narada.Trace.Explained;
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

let explain t inner =
  Result.map
    (fun prog ->
      tell t Narada.Trace.Explained;
      Info (Narada.Dol_pp.program_to_string prog))
    (translate_toplevel t inner)

(* ---- statements: prepare → step* → finish ----------------------------------
   Every top-level statement runs this way, whether a session, the shell,
   the server or the interleaving harness drives it. [prepare] runs phases
   2-4 of a query or multitransaction (expansion through plan generation)
   and starts a stepped engine run without executing anything; [step]
   executes one DOL statement; [finish] drains the rest, runs the engine
   epilogue and interprets the outcome. Any other statement takes no
   steps and runs whole inside [finish]. [finish] memoizes its result, so
   interpretation and trigger firing happen once per statement. *)

type prepared = {
  p_session : t;
  p_stepper : Engine.stepper option;  (* None: the statement takes no steps *)
  p_run : unit -> (result, string) Stdlib.result;
      (* the engine epilogue and interpretation, or the whole statement *)
  mutable p_result : (result, string) Stdlib.result option;
}

let prepare t tl =
  tell t Narada.Trace.Statement;
  let stepped (plan : Plangen.plan) interpret =
    let stepper = engine_start t plan.Plangen.program in
    {
      p_session = t;
      p_stepper = Some stepper;
      p_run =
        (fun () ->
          let r = Engine.finish stepper in
          Result.iter (fun o -> t.last_outcome <- Some o) r;
          Result.bind r (interpret plan));
      p_result = None;
    }
  in
  let unstepped run =
    Ok
      {
        p_session = t;
        p_stepper = None;
        p_run = run;
        p_result = None;
      }
  in
  match tl with
  | Ast.Query q ->
      Result.map
        (fun (q, p) -> stepped p.pl_plan (interpret_query q))
        (prepare_query t q)
  | Ast.Multitransaction mtx ->
      Result.map
        (fun (mtx, plan) -> stepped plan (interpret_mtx mtx))
        (prepare_mtx t mtx)
  | Ast.Explain inner -> unstepped (fun () -> explain t inner)
  | Ast.Explain_multiple q -> unstepped (fun () -> explain_multiple t q)
  | Ast.Create_trigger d -> unstepped (fun () -> create_trigger t d)
  | Ast.Drop_trigger name -> unstepped (fun () -> drop_trigger t name)
  | Ast.Create_multidatabase { mdb_name; mdb_members } ->
      unstepped (fun () -> create_multidatabase t mdb_name mdb_members)
  | Ast.Drop_multidatabase name ->
      unstepped (fun () -> drop_multidatabase t name)
  | Ast.Incorporate i -> unstepped (fun () -> incorporate_stmt t i)
  | Ast.Import imp ->
      unstepped (fun () ->
          Result.map
            (fun () ->
              Info
                (Printf.sprintf "database %s imported from service %s"
                   imp.Ast.imp_database imp.Ast.imp_service))
            (import_stmt t imp))

let step p =
  match p.p_stepper with Some s -> Engine.step s | None -> false

let rec finish p =
  match p.p_result with
  | Some r -> r
  | None ->
      let r = p.p_run () in
      p.p_result <- Some r;
      Result.iter (fire_triggers p.p_session) r;
      r

and fire_triggers t result =
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

and exec_toplevel t tl = Result.bind (prepare t tl) finish

let parse_error m l c = Printf.sprintf "MSQL parse error at %d:%d: %s" l c m

let parse_script text =
  match Mparser.parse_script text with
  | tls -> Ok tls
  | exception Mparser.Error (m, l, c) -> Error (parse_error m l c)

(* Phase 1 through the cache block: parsing is a pure function of the
   text and the AST is immutable, so an entry never goes stale and needs
   no epoch. A parse error is never stored. *)
let parse t text =
  let parsed = t.caches.sc_parsed in
  match Hashtbl.find_opt parsed text with
  | Some tl -> Ok tl
  | None -> (
      match Mparser.parse_toplevel text with
      | tl ->
          if Hashtbl.length parsed > 128 then Hashtbl.reset parsed;
          Hashtbl.replace parsed text tl;
          Ok tl
      | exception Mparser.Error (m, l, c) -> Error (parse_error m l c))

let prepare_text t text = Result.bind (parse t text) (prepare t)

let exec t text = Result.bind (parse t text) (exec_toplevel t)

let exec_script t text =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | tl :: rest -> (
        match exec_toplevel t tl with
        | Ok r -> go (r :: acc) rest
        | Error m -> Error m)
  in
  Result.bind (parse_script text) (go [])

let translate t text = Result.bind (parse t text) (translate_toplevel t)

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
