(* Concurrent multi-session MSQL server.

   One server owns a federation (a world + directory) and multiplexes N
   member sessions over it. The member sessions share everything the
   single-session design kept private: the dictionary pair (so plan-cache
   keys are comparable across sessions), one capped LAM
   connection pool, and one plan + shipped-result cache block, which
   each member uses in place of its private one. The server is
   sequential: nothing it shares needs a lock. The scheduler is a
   synchronous wave loop: each round admits at most one statement per
   session in connect order and runs the whole wave as one
   {!Interleave.round_robin} group, one DOL statement per member in turn
   (deterministic), each member on its own virtual clock. A MOVE lands
   in the receiving connection, not in a catalog, so members shipping
   into one site cannot collide on a temp name.

   A statement that loses a race for a capped connection fails with the
   pool's busy marker; the scheduler detects it on the session's typed
   trace, verifies the failure left no site effects behind (retrieval
   error, fully-aborted update, fully-undone multitransaction) and
   requeues the statement at the front of its session's queue, bounded
   by [max_requeues]. *)

type config = {
  max_sessions : int;
  max_queue : int;
  max_requeues : int;
  pool_cap : int option;
  domains : int;
}

let default_config () =
  {
    max_sessions = 64;
    max_queue = 16;
    max_requeues = 8;
    pool_cap = None;
    domains = 1;
  }

type error = Overloaded of string | Unknown_session of int

let error_message = function
  | Overloaded m -> Printf.sprintf "overloaded: %s" m
  | Unknown_session sid -> Printf.sprintf "unknown session %d" sid

type completion = {
  c_sid : int;
  c_seq : int;
  c_sql : string;
  c_result : (Msession.result, string) result;
  c_requeues : int;
}

type stats = {
  mutable connects : int;
  mutable rejected : int;
  mutable submitted : int;
  mutable shed : int;
  mutable completed : int;
  mutable failed : int;
  mutable requeues : int;
  mutable rounds : int;
  mutable parallel_batches : int;
}

type pending = { q_seq : int; q_sql : string; mutable q_requeues : int }

type entry = {
  e_sid : int;
  e_session : Msession.t;
  e_queue : pending Queue.t;
  mutable e_next_seq : int;
  mutable e_busy : bool;
      (* a pool-cap conflict was traced during the statement in flight *)
}

type t = {
  world : Netsim.World.t;
  directory : Narada.Directory.t;
  ad : Ad.t;
  gdd : Gdd.t;
  pool : Narada.Pool.t;
  caches : Msession.shared_caches;
  config : config;
  sessions : (int, entry) Hashtbl.t;
  mutable ring : int list;  (* live session ids in connect order *)
  mutable next_sid : int;
  sstats : stats;
  metrics : Metrics.t;  (* the fold of every member session's events *)
  mutable on_trace : (Narada.Trace.event -> unit) option;
}

let make ~config ~world ~directory ~ad ~gdd =
  let pool = Narada.Pool.create world in
  Narada.Pool.set_cap pool config.pool_cap;
  {
    world;
    directory;
    ad;
    gdd;
    pool;
    caches = Msession.shared_caches ();
    config;
    sessions = Hashtbl.create 16;
    ring = [];
    next_sid = 0;
    sstats =
      {
        connects = 0;
        rejected = 0;
        submitted = 0;
        shed = 0;
        completed = 0;
        failed = 0;
        requeues = 0;
        rounds = 0;
        parallel_batches = 0;
      };
    metrics = Metrics.create ();
    on_trace = None;
  }

let create ?config ~world ~directory ~services () =
  let config =
    match config with Some c -> c | None -> default_config ()
  in
  let ad = Ad.create () and gdd = Gdd.create () in
  let admin = Msession.create ~world ~directory ~ad ~gdd () in
  let rec setup = function
    | [] -> Ok ()
    | svc :: rest -> (
        match Msession.incorporate_auto admin ~service:svc with
        | Error m -> Error (Printf.sprintf "incorporate %s: %s" svc m)
        | Ok () -> (
            match Msession.import_all admin ~service:svc with
            | Error m -> Error (Printf.sprintf "import %s: %s" svc m)
            | Ok () -> setup rest))
  in
  match setup services with
  | Error _ as e -> e
  | Ok () -> Ok (make ~config ~world ~directory ~ad ~gdd)

let of_fixtures ?config fx =
  let config =
    match config with Some c -> c | None -> default_config ()
  in
  (* the fixture session already INCORPORATEd and IMPORTed everything;
     sharing its dictionaries shares that work with every member *)
  make ~config ~world:fx.Fixtures.world ~directory:fx.Fixtures.directory
    ~ad:(Msession.ad fx.Fixtures.session)
    ~gdd:(Msession.gdd fx.Fixtures.session)

let world t = t.world
let pool t = t.pool
let stats t = t.sstats
let set_trace t f = t.on_trace <- f
let live_sessions t = Hashtbl.length t.sessions
let session t sid =
  Option.map (fun e -> e.e_session) (Hashtbl.find_opt t.sessions sid)

let connect t =
  if Hashtbl.length t.sessions >= t.config.max_sessions then begin
    t.sstats.rejected <- t.sstats.rejected + 1;
    Error
      (Overloaded
         (Printf.sprintf "session table full (%d live sessions)"
            (Hashtbl.length t.sessions)))
  end
  else begin
    t.next_sid <- t.next_sid + 1;
    let sid = t.next_sid in
    let s =
      Msession.create ~world:t.world ~directory:t.directory ~ad:t.ad
        ~gdd:t.gdd ()
    in
    Msession.set_shared_caches s t.caches;
    Msession.set_shared_pool s t.pool;
    Msession.set_trace_tag s (Some (Printf.sprintf "s%d" sid));
    let e =
      { e_sid = sid; e_session = s; e_queue = Queue.create ();
        e_next_seq = 0; e_busy = false }
    in
    Msession.set_typed_trace s
      (Some
         (fun ev ->
           Metrics.observe t.metrics ev;
           (match ev.Narada.Trace.kind with
           | Narada.Trace.Open_failed { busy = true; _ } -> e.e_busy <- true
           | _ -> ());
           match t.on_trace with Some f -> f ev | None -> ()));
    Hashtbl.replace t.sessions sid e;
    t.ring <- t.ring @ [ sid ];
    t.sstats.connects <- t.sstats.connects + 1;
    Ok sid
  end

let disconnect t sid =
  if not (Hashtbl.mem t.sessions sid) then Error (Unknown_session sid)
  else begin
    Hashtbl.remove t.sessions sid;
    t.ring <- List.filter (fun s -> s <> sid) t.ring;
    Ok ()
  end

let submit t sid sql =
  match Hashtbl.find_opt t.sessions sid with
  | None -> Error (Unknown_session sid)
  | Some e ->
      if Queue.length e.e_queue >= t.config.max_queue then begin
        t.sstats.shed <- t.sstats.shed + 1;
        Error
          (Overloaded
             (Printf.sprintf "session %d queue full (%d statements deep)"
                sid (Queue.length e.e_queue)))
      end
      else begin
        e.e_next_seq <- e.e_next_seq + 1;
        let seq = e.e_next_seq in
        Queue.add { q_seq = seq; q_sql = sql; q_requeues = 0 } e.e_queue;
        t.sstats.submitted <- t.sstats.submitted + 1;
        Ok seq
      end

let queued t =
  Hashtbl.fold (fun _ e acc -> acc + Queue.length e.e_queue) t.sessions 0

(* ---- the wave scheduler ---- *)

let push_front q x =
  let tmp = Queue.create () in
  Queue.add x tmp;
  Queue.transfer q tmp;
  Queue.transfer tmp q

(* a busy-conflict statement is only worth replaying when it provably
   left no effects at the sites behind *)
let retriable = function
  | Error _ -> true  (* planning/retrieval error: nothing committed *)
  | Ok (Msession.Multitable _) ->
      (* retrieval has no site effects — and a busy OPEN means a branch
         of the answer silently went missing, so the "success" is a hole *)
      true
  | Ok (Msession.Update_report { outcome = Msession.Aborted; _ }) -> true
  | Ok (Msession.Mtx_report { chosen = None; incorrect = false; _ }) -> true
  | Ok _ -> false

let step_round t =
  let completions = ref [] in
  let emit c = completions := c :: !completions in
  let wave =
    List.filter_map
      (fun sid ->
        match Hashtbl.find_opt t.sessions sid with
        | None -> None
        | Some e ->
            if Queue.is_empty e.e_queue then None
            else begin
              let p = Queue.pop e.e_queue in
              e.e_busy <- false;
              match Msession.prepare_text e.e_session p.q_sql with
              | Error m ->
                  t.sstats.failed <- t.sstats.failed + 1;
                  emit
                    {
                      c_sid = e.e_sid;
                      c_seq = p.q_seq;
                      c_sql = p.q_sql;
                      c_result = Error m;
                      c_requeues = p.q_requeues;
                    };
                  None
              | Ok prep -> Some (e, p, prep)
            end)
      t.ring
  in
  if wave <> [] then begin
    t.sstats.rounds <- t.sstats.rounds + 1;
    let results =
      Interleave.round_robin t.world (List.map (fun (_, _, prep) -> prep) wave)
    in
    List.iter2
      (fun (e, p, _) r ->
        let still_open = Hashtbl.mem t.sessions e.e_sid in
        if
          e.e_busy && retriable r
          && p.q_requeues < t.config.max_requeues
          && still_open
        then begin
          (* lost a race for a capped connection; the holder has released
             by now, so replay ahead of the session's later statements *)
          p.q_requeues <- p.q_requeues + 1;
          t.sstats.requeues <- t.sstats.requeues + 1;
          push_front e.e_queue p
        end
        else begin
          (match r with
          | Ok _ -> t.sstats.completed <- t.sstats.completed + 1
          | Error _ -> t.sstats.failed <- t.sstats.failed + 1);
          emit
            {
              c_sid = e.e_sid;
              c_seq = p.q_seq;
              c_sql = p.q_sql;
              c_result = r;
              c_requeues = p.q_requeues;
            }
        end)
      wave results
  end;
  List.rev !completions

let drain t =
  let acc = ref [] in
  while queued t > 0 do
    acc := !acc @ step_round t
  done;
  !acc

(* ---- aggregate observability ---- *)

let metrics t = t.metrics
let cache_stats t = t.metrics.Metrics.caches
let metrics_json t = Metrics.to_json t.metrics ~world:t.world

let stats_json t =
  let s = t.sstats in
  Printf.sprintf
    "{\"connects\": %d, \"rejected\": %d, \"submitted\": %d, \"shed\": %d, \
     \"completed\": %d, \"failed\": %d, \"requeues\": %d, \"rounds\": %d, \
     \"parallel_batches\": %d, \"live_sessions\": %d}"
    s.connects s.rejected s.submitted s.shed s.completed s.failed s.requeues
    s.rounds s.parallel_batches (Hashtbl.length t.sessions)
