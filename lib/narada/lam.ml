module World = Netsim.World
module Inject = Ldbms.Failure_injector

type failure =
  | Local of Ldbms.Session.error
  | Network of string
  | Lost of string
  | In_doubt of string
  | Busy of string

type on_retry = op:string -> attempt:int -> delay_ms:float -> failure -> unit

let failure_message = function
  | Local e -> Ldbms.Session.error_to_string e
  | Network m | Lost m | In_doubt m -> m
  | Busy svc -> Printf.sprintf "connection cap reached at %s (pool busy)" svc

(* transport failures are always worth another attempt; local aborts only
   when the LDBMS reports them transient (write-write conflict, deadlock
   victim, lock timeout). In_doubt failures are never retried: effects may
   already be durable. *)
let classify_io = function
  | Network _ | Lost _ | Busy _ -> Retry_policy.Retryable
  | Local _ | In_doubt _ -> Retry_policy.Terminal

let classify_local_aware = function
  | Local
      ( Ldbms.Session.Conflict _
      | Ldbms.Session.Injected { kind = Inject.Transient; _ } ) ->
      Retry_policy.Retryable
  | f -> classify_io f

type t = {
  service : Service.t;
  session : Ldbms.Session.t;
  world : World.t;
  policy : Retry_policy.t;
  on_retry : on_retry;
  on_trace : (Trace.event -> unit) option;
      (* sink for the session's MVCC observations (snapshots, write-write
         conflicts), translated into typed trace events *)
}

(* The session cannot name Trace (layering: ldbms knows nothing of the
   multidatabase), so it reports through its own observation type and the
   LAM translates at the transport boundary, stamping the virtual clock. *)
let install_observer t =
  Ldbms.Session.set_observer t.session
    (match t.on_trace with
    | None -> None
    | Some sink ->
        let s = t.service.Service.site in
        Some
          (fun obs ->
            let kind =
              match obs with
              | Ldbms.Session.Obs_snapshot ts -> Trace.Snapshot { site = s; ts }
              | Ldbms.Session.Obs_conflict { table; op } ->
                  Trace.Conflict { site = s; table; op }
            in
            sink { Trace.at_ms = World.now_ms t.world; kind; tag = None }))

let handshake_bytes = 64
let ack_bytes = 16

let guard_site f =
  match f () with
  | r -> r
  | exception World.Site_down s ->
      Error (Network (Printf.sprintf "site %s is down" s))
  | exception World.Unknown_site s ->
      Error (Network (Printf.sprintf "unknown site %s" s))
  | exception World.Lost_message (src, dst) ->
      Error (Lost (Printf.sprintf "message %s -> %s lost" src dst))

let no_on_retry ~op:_ ~attempt:_ ~delay_ms:_ _ = ()

let connect ?(retry = Retry_policy.default) ?(on_retry = no_on_retry) ?on_trace
    world service =
  let dst = service.Service.site in
  Retry_policy.run retry world
    ~key:("connect:" ^ dst)
    ~classify:classify_local_aware
    ~on_retry:(on_retry ~op:"connect")
    (fun () ->
      guard_site (fun () ->
          World.send world ~src:"mdbs" ~dst ~bytes:handshake_bytes;
          match Inject.fires_kind service.Service.injector Inject.At_connect with
          | Some kind ->
              let point = Inject.At_connect in
              Error (Local (Ldbms.Session.Injected { kind; point }))
          | None ->
              let t =
                {
                  service;
                  session =
                    Ldbms.Session.connect ~injector:service.Service.injector
                      service.Service.database service.Service.caps;
                  world;
                  policy = retry;
                  on_retry;
                  on_trace;
                }
              in
              install_observer t;
              Ok t))

let connect_exn world service =
  match connect ~retry:Retry_policy.none world service with
  | Ok t -> t
  | Error f -> failwith (failure_message f)

let service t = t.service
let session t = t.session
let site t = t.service.Service.site
let world t = t.world

let with_policy ?(retry = Retry_policy.default) ?(on_retry = no_on_retry)
    ?on_trace t =
  (* a pooled connection outlives the engine run that opened it: rebind
     the policy and observers so retries and MVCC observations are charged
     to the current run, not to the defunct one that originally connected *)
  let t = { t with policy = retry; on_retry; on_trace } in
  install_observer t;
  t

let with_retry t ~op ~classify f =
  Retry_policy.run t.policy t.world
    ~key:(op ^ ":" ^ site t)
    ~classify
    ~on_retry:(t.on_retry ~op)
    f

let result_bytes = function
  | Ldbms.Session.Rows r -> Sqlcore.Relation.size_bytes r + ack_bytes
  | Ldbms.Session.Affected _ | Ldbms.Session.Done -> ack_bytes

let exec_script t script =
  (* A retry is only sound when the site's state is known: either the
     command never arrived, or the LDBMS rolled the work back (local abort,
     or the orphaned-transaction abort it performs on connection loss).
     When effects may already be durable (autocommit engine, or a script
     that committed/prepared) a transport failure is terminal. *)
  let unsafe = ref false in
  let r =
    with_retry t ~op:"exec"
      ~classify:(fun f ->
        if !unsafe then Retry_policy.Terminal else classify_local_aware f)
      (fun () ->
      unsafe := false;
      let executed = ref false in
      let r =
        guard_site (fun () ->
            World.send t.world ~src:"mdbs" ~dst:(site t)
              ~bytes:(String.length script);
            match Ldbms.Session.exec_script t.session script with
            | Ok results ->
                executed := true;
                let bytes =
                  List.fold_left (fun a r -> a + result_bytes r) 0 results
                in
                World.send t.world ~src:(site t) ~dst:"mdbs" ~bytes;
                Ok results
            | Error e ->
                World.send t.world ~src:(site t) ~dst:"mdbs" ~bytes:ack_bytes;
                Error (Local e))
      in
      (match r with
      | Error (Network _ | Lost _) when !executed -> (
          match Ldbms.Session.txn_state t.session with
          | Some Ldbms.Txn.Active ->
              (* connection lost with an uncommitted transaction open: the
                 LDBMS aborts it autonomously, so re-execution is clean *)
              ignore (Ldbms.Session.rollback t.session)
          | Some _ | None ->
              (* committed or prepared work may survive at the site *)
              unsafe := true)
      | Ok _ | Error _ -> ());
      r)
  in
  (* when effects may already be durable at the site, a transport failure
     leaves the local state genuinely unknown — report it as such, so the
     caller does not treat it as a clean (presumed-abort) failure *)
  match r with
  | Error (Network m | Lost m) when !unsafe -> Error (In_doubt m)
  | r -> r

let last_relation results =
  List.fold_left
    (fun acc r ->
      match r with Ldbms.Session.Rows rel -> Some rel | _ -> acc)
    None results

(* 2PC verbs are idempotent at the session (prepare of a prepared
   transaction, commit/rollback with no open transaction all succeed), so
   a lost acknowledgement is retried blindly. *)
let round_trip t ~op f =
  with_retry t ~op ~classify:classify_io (fun () ->
      guard_site (fun () ->
          World.send t.world ~src:"mdbs" ~dst:(site t) ~bytes:ack_bytes;
          let r = f () in
          World.send t.world ~src:(site t) ~dst:"mdbs" ~bytes:ack_bytes;
          Result.map_error (fun e -> Local e) r))

let prepare t = round_trip t ~op:"prepare" (fun () -> Ldbms.Session.prepare t.session)
let commit t = round_trip t ~op:"commit" (fun () -> Ldbms.Session.commit t.session)
let rollback t = round_trip t ~op:"rollback" (fun () -> Ldbms.Session.rollback t.session)

let fetch t query =
  match exec_script t query with
  | Error f -> Error f
  | Ok results -> (
      match last_relation results with
      | Some rel -> Ok rel
      | None ->
          Error (Local (Ldbms.Session.Failed "query did not produce rows")))

(* Restrict [query] to rows whose [col] is among [keys]: parse, conjoin an
   IN list onto the WHERE clause, print back. An empty key set means no
   source row can join, so the restriction becomes a contradiction and the
   source ships nothing but the (empty) relation's schema. [None] when
   [query] is not a bare SELECT (a trailing [;] included): it then ships
   unrestricted. *)
let restrict_query ~col keys query =
  let module A = Sqlfront.Ast in
  match Sqlfront.Parser.parse_select query with
  | exception Sqlfront.Parser.Error _ -> None
  | sel ->
      let col_expr =
        match String.index_opt col '.' with
        | Some i ->
            A.Col
              {
                qualifier = Some (String.sub col 0 i);
                name = String.sub col (i + 1) (String.length col - i - 1);
              }
        | None -> A.Col { qualifier = None; name = col }
      in
      let restriction =
        match keys with
        | [] -> A.Binop (A.Eq, A.lit_int 0, A.lit_int 1)
        | ks ->
            A.In_list
              {
                arg = col_expr;
                items = List.map (fun v -> A.Lit v) ks;
                negated = false;
              }
      in
      let where =
        match sel.A.where with
        | None -> Some restriction
        | Some w -> Some (A.Binop (A.And, w, restriction))
      in
      Some (Sqlfront.Sql_pp.select_to_string { sel with A.where })

type transfer_cache = {
  tc_lookup :
    src:string -> dst:string -> query:string -> Sqlcore.Relation.t option;
  tc_store :
    src:string -> dst:string -> query:string -> Sqlcore.Relation.t -> unit;
}

type transfer_stats = {
  moved_rows : int;
  moved_bytes : int;
  reduced : bool;
  cached : bool;
}

let transfer ~cache ~reduce ~src ~dst ~query ~dest_table =
  (* Semijoin reduction: fetch the distinct join-key values from the
     destination (the coordinator already holds its side of the join) and
     rewrite the shipped query's WHERE with them. The probe's cost — query
     to [dst], key set back — is charged to the network like any fetch, so
     the bytes_moved ledger reflects the real SDD-1 tradeoff. Best-effort:
     if the probe fails, the MOVE proceeds unreduced. *)
  let query, reduced =
    match reduce with
    | None -> (query, false)
    | Some (col, probe) -> (
        match fetch dst probe with
        | Error _ -> (query, false)
        | Ok rel ->
            let keys =
              List.filter_map
                (fun row ->
                  let v = Sqlcore.Row.get row 0 in
                  if Sqlcore.Value.is_null v then None else Some v)
                (Sqlcore.Relation.rows rel)
            in
            match restrict_query ~col keys query with
            | Some restricted -> (restricted, true)
            | None -> (query, false))
  in
  let src_name = src.service.Service.service_name in
  let dst_name = dst.service.Service.service_name in
  let materialize rel =
    Ldbms.Database.load dst.service.Service.database ~name:dest_table
      (Sqlcore.Relation.schema rel)
      (Sqlcore.Relation.rows rel);
    Sqlcore.Relation.cardinality rel
  in
  (* Shipped-result cache: the key is the final query text — after the
     semijoin rewrite, so the key set is part of the key — plus both
     endpoints. A hit re-materializes the relation at the destination
     without touching the network or the source at all: zero messages,
     zero bytes, zero virtual time. The destination must still be
     reachable (the engine is about to run the coordinator join there). *)
  let cached =
    match cache with
    | Some c when not (World.is_down dst.world (site dst)) ->
        c.tc_lookup ~src:src_name ~dst:dst_name ~query
    | Some _ | None -> None
  in
  match cached with
  | Some rel ->
      Ok { moved_rows = materialize rel; moved_bytes = 0; reduced; cached = true }
  | None ->
      (* command goes engine -> src; data goes src -> dst directly. The
         source query is a SELECT and the destination load replaces the
         table, so the whole transfer is idempotent and retried as a
         unit. *)
      with_retry src ~op:"transfer" ~classify:classify_local_aware (fun () ->
          match
            guard_site (fun () ->
                World.send src.world ~src:"mdbs" ~dst:(site src)
                  ~bytes:(String.length query);
                match Ldbms.Session.exec_sql src.session query with
                | Ok (Ldbms.Session.Rows rel) -> Ok rel
                | Ok _ ->
                    let m = "MOVE query did not produce rows" in
                    Error (Local (Ldbms.Session.Failed m))
                | Error e -> Error (Local e))
          with
          | Error f -> Error f
          | Ok rel -> (
              match
                guard_site (fun () ->
                    World.send dst.world ~src:(site src) ~dst:(site dst)
                      ~bytes:(Sqlcore.Relation.size_bytes rel + ack_bytes);
                    Ok ())
              with
              | Error f -> Error f
              | Ok () ->
                  (match cache with
                  | Some c -> c.tc_store ~src:src_name ~dst:dst_name ~query rel
                  | None -> ());
                  Ok
                    {
                      moved_rows = materialize rel;
                      moved_bytes = Sqlcore.Relation.size_bytes rel;
                      reduced;
                      cached = false;
                    }))

let disconnect t =
  (* The LDBMS aborts an orphaned {e active} transaction when the session
     goes away; a {e prepared} transaction must survive — the participant
     promised to await the coordinator's decision, and unilaterally
     rolling it back could contradict a commit verdict already logged.
     Undecided prepared work is the engine's to settle (presumed abort). *)
  (match Ldbms.Session.txn_state t.session with
  | Some Ldbms.Txn.Active -> ignore (Ldbms.Session.rollback t.session)
  | Some _ | None -> ());
  if not (World.is_down t.world (site t)) then
    match
      guard_site (fun () ->
          World.send t.world ~src:"mdbs" ~dst:(site t) ~bytes:ack_bytes;
          Ok ())
    with
    | Ok () | Error _ -> ()
