module World = Netsim.World
open Dol_ast

let log_src = Logs.Src.create "narada.engine" ~doc:"DOL engine execution"

module Log = (val Logs.src_log log_src : Logs.LOG)

type outcome = {
  dolstatus : int;
  statuses : (string * status) list;
  results : (string * Sqlcore.Relation.t) list;
  rowcounts : (string * int) list;
  elapsed_ms : float;
  in_doubt : int;
  vital_split : bool;
}

exception Program_error of string

type conn = Available of Lam.t | Unavailable

(* a COMP statement found anywhere in the program text, kept as a recovery
   handler for the task it compensates even if its branch is never taken *)
type comp_handler = { ch_cname : string; ch_target : string; ch_commands : string }

type state = {
  directory : Directory.t;
  world : World.t;
  policy : Retry_policy.t;
  grace_ms : float;
  pool : Pool.t option;
      (* OPEN checks out of / CLOSE checks into this pool instead of
         dialing and hanging up *)
  move_cache : Lam.transfer_cache option;  (* shipped-result cache hook *)
  aliases : (string, conn) Hashtbl.t;
  services : (string, Service.t) Hashtbl.t;
      (* alias -> service, remembered past CLOSE so the recovery pass can
         reopen a session to fire a queued COMP *)
  statuses : (string, status) Hashtbl.t;
  mutable status_order : string list;  (* newest first *)
  task_target : (string, string) Hashtbl.t;  (* task -> alias *)
  results : (string, Sqlcore.Relation.t) Hashtbl.t;
  rowcounts : (string, int) Hashtbl.t;
  mutable dolstatus : int;
  on_trace : Trace.event -> unit;
  rlog : Recovery_log.t;
  comps : (string, comp_handler) Hashtbl.t;  (* compensated task -> handler *)
  mutable vital_split : bool;
}

let err fmt = Printf.ksprintf (fun m -> raise (Program_error m)) fmt
let akey = String.lowercase_ascii

(* [tell_ev] takes a pre-timestamped event: a lower layer (the session's
   MVCC observer routed through Lam) stamps its own clock. *)
let tell_ev st ev =
  Log.debug (fun f ->
      f "%.2fms %s" ev.Trace.at_ms (Trace.render_kind ev.Trace.kind));
  st.on_trace ev

let tell st kind =
  tell_ev st { Trace.at_ms = World.now_ms st.world; kind; tag = None }

let emit st fmt = Printf.ksprintf (fun m -> tell st (Trace.Note m)) fmt

(* a first-committer-wins loss, told apart from the other local aborts so
   the retries and aborts it causes can be counted on their own *)
let is_conflict = function
  | Lam.Local (Ldbms.Session.Conflict _) -> true
  | _ -> false

let retry_observer st ~where ~op ~attempt ~delay_ms f =
  let reason = Lam.failure_message f and conflict = is_conflict f in
  tell st
    (Trace.Retry { op; site = where; attempt; delay_ms; reason; conflict })

(* connect through the pool when one is installed; the flag reports
   whether an idle connection was picked up instead of dialing *)
let dial st (svc : Service.t) =
  let on_retry = retry_observer st ~where:svc.Service.site in
  let on_trace = tell_ev st in
  match st.pool with
  | Some p -> Pool.checkout ~retry:st.policy ~on_retry ~on_trace p svc
  | None ->
      Result.map
        (fun lam -> (lam, false))
        (Lam.connect ~retry:st.policy ~on_retry ~on_trace st.world svc)

let release st lam =
  match st.pool with
  | Some p -> Pool.checkin p lam
  | None -> Lam.disconnect lam

let declare st name target =
  let k = akey name in
  if Hashtbl.mem st.statuses k then err "duplicate task name %s" name;
  Hashtbl.replace st.statuses k N;
  st.status_order <- k :: st.status_order;
  Hashtbl.replace st.task_target k (akey target)

let set_status st name s =
  tell st (Trace.Status { task = name; status = s });
  Hashtbl.replace st.statuses (akey name) s

let get_status st name =
  match Hashtbl.find_opt st.statuses (akey name) with Some s -> s | None -> N

(* The site-failure classifiers. No raw netsim exception ever reaches
   this layer — Lam converts them all to [failure].

   [fail_status] is the mid-protocol rule: a local abort means the LDBMS
   rolled the work back (A); a transport failure leaves the local state
   unknown (E).

   [presumed_abort_status] applies before the coordinator has logged a
   commit verdict: under presumed abort, a clean transport failure is a
   guaranteed global abort — the command never took effect, or the site
   will roll the undecided transaction back when it recovers. Only
   [In_doubt] (effects possibly durable without a prepare handshake)
   leaves the state unknown. *)
let fail_status = function
  | Lam.Local _ -> A
  | Lam.Network _ | Lam.Lost _ | Lam.In_doubt _ | Lam.Busy _ -> E

let presumed_abort_status = function
  | Lam.Local _ | Lam.Network _ | Lam.Lost _ | Lam.Busy _ -> A
  | Lam.In_doubt _ -> E

(* a terminal write-write conflict gets a dedicated event on top of the
   status transition, so consumers can count conflict-caused aborts apart
   from the other abort classes *)
let note_conflict st ~task lam f =
  if is_conflict f then
    tell st (Trace.Conflict_abort { task; site = Lam.site lam })

let conn_of st alias =
  match Hashtbl.find_opt st.aliases (akey alias) with
  | Some c -> c
  | None -> err "unknown alias %s (missing OPEN?)" alias

let lam_of_task st tname =
  match Hashtbl.find_opt st.task_target (akey tname) with
  | None -> err "unknown task %s" tname
  | Some alias -> conn_of st alias

let rec eval_cond st = function
  | Status_is (t, s) -> get_status st t = s
  | Not c -> not (eval_cond st c)
  | And (a, b) -> eval_cond st a && eval_cond st b
  | Or (a, b) -> eval_cond st a || eval_cond st b

let exec_task st (task : task) =
  declare st task.tname task.target;
  match conn_of st task.target with
  | Unavailable ->
      (* the service was never reached: the task did not run at all, which
         is safely excludable (unlike E, whose local state is unknown) *)
      set_status st task.tname N
  | Available lam -> (
      match Lam.exec_script lam task.commands with
      | Error f ->
          note_conflict st ~task:task.tname lam f;
          set_status st task.tname (presumed_abort_status f)
      | Ok results -> (
          (match Lam.last_relation results with
          | Some rel -> Hashtbl.replace st.results (akey task.tname) rel
          | None -> ());
          let affected =
            List.fold_left
              (fun acc r ->
                match r with Ldbms.Session.Affected n -> acc + n | _ -> acc)
              0 results
          in
          Hashtbl.replace st.rowcounts (akey task.tname) affected;
          match task.mode with
          | No_commit ->
              if
                Ldbms.Capabilities.supports_2pc
                  (Lam.service lam).Service.caps
              then
                (match Lam.prepare lam with
                | Ok () ->
                    set_status st task.tname P;
                    Recovery_log.record_prepared st.rlog ~task:task.tname
                      ~alias:task.target lam
                | Error f ->
                    note_conflict st ~task:task.tname lam f;
                    set_status st task.tname (presumed_abort_status f))
              else
                (* a NOCOMMIT task on an autocommit-only engine is a plan
                   inconsistency: its effects are already committed *)
                set_status st task.tname E
          | With_commit -> (
              if
                not
                  (Ldbms.Capabilities.supports_2pc
                     (Lam.service lam).Service.caps)
              then (* autocommit engine: already durable *)
                set_status st task.tname C
              else
                match Lam.commit lam with
                | Ok () -> set_status st task.tname C
                | Error f ->
                    note_conflict st ~task:task.tname lam f;
                    set_status st task.tname (fail_status f))))

let commit_task st tname =
  match get_status st tname with
  | P -> (
      match lam_of_task st tname with
      | Unavailable -> set_status st tname E
      | Available lam -> (
          match Lam.commit lam with
          | Ok () ->
              set_status st tname C;
              Recovery_log.mark_resolved st.rlog tname
          | Error (Lam.Local _) ->
              set_status st tname A;
              Recovery_log.mark_resolved st.rlog tname
          | Error (Lam.Network _ | Lam.Lost _ | Lam.In_doubt _ | Lam.Busy _) ->
              emit st "task %s in doubt: commit logged, site unreachable" tname;
              set_status st tname E))
  | C | A | E | N | X -> ()

let abort_task st tname =
  match get_status st tname with
  | P -> (
      match lam_of_task st tname with
      | Unavailable -> set_status st tname E
      | Available lam -> (
          match Lam.rollback lam with
          | Ok () | Error (Lam.Local _) ->
              set_status st tname A;
              Recovery_log.mark_resolved st.rlog tname
          | Error (Lam.Network _ | Lam.Lost _ | Lam.In_doubt _ | Lam.Busy _) ->
              emit st "task %s in doubt: abort logged, site unreachable" tname;
              set_status st tname E))
  | C | A | E | N | X -> ()

(* run a compensating action on an established connection; shared by the
   COMP statement and the recovery pass *)
let exec_comp_on st ~cname ~compensates lam commands =
  match Lam.exec_script lam commands with
  | Error f -> set_status st cname (fail_status f)
  | Ok _ -> (
      let finish () =
        set_status st cname C;
        match compensates with
        | Some t -> set_status st t X
        | None -> ()
      in
      if Ldbms.Capabilities.supports_2pc (Lam.service lam).Service.caps then
        match Lam.commit lam with
        | Ok () -> finish ()
        | Error f -> set_status st cname (fail_status f)
      else finish ())

let exec_comp st ~cname ~compensates ~target ~commands =
  declare st cname target;
  match conn_of st target with
  | Unavailable -> set_status st cname E
  | Available lam -> exec_comp_on st ~cname ~compensates lam commands

let exec_move st ~mname ~src ~dst ~dest_table ~query ~reduce =
  declare st mname src;
  match conn_of st src, conn_of st dst with
  | Unavailable, _ | _, Unavailable -> set_status st mname E
  | Available src_lam, Available dst_lam -> (
      match
        Lam.transfer ~cache:st.move_cache ~reduce ~src:src_lam ~dst:dst_lam
          ~query ~dest_table
      with
      | Ok ts ->
          tell st
            (Trace.Moved
               {
                 mname;
                 src = Lam.site src_lam;
                 dst = Lam.site dst_lam;
                 dest_table;
                 rows = ts.Lam.moved_rows;
                 bytes = ts.Lam.moved_bytes;
                 reduced = ts.Lam.reduced;
                 cached = ts.Lam.cached;
               });
          set_status st mname C
      | Error f -> set_status st mname (fail_status f))

(* A fan-out of independent single-site verbs (the second phase of 2PC,
   the in-doubt resolution pass): account them concurrently so the phase
   costs one round trip of virtual latency, not one per participant.
   Execution stays sequential — the combinator serializes effects — so
   this changes only the virtual-time charge. *)
let fan_out world f items =
  match items with
  | [] | [ _ ] -> List.iter f items
  | items -> ignore (World.parallel world (List.map (fun x () -> f x) items))

(* ---- in-doubt resolution ------------------------------------------------- *)

(* Drive one stranded prepared transaction to its logged verdict. The 2PC
   verbs are idempotent, so a transaction whose commit actually happened
   (only the acknowledgement was lost) re-acks harmlessly. *)
let resolve_entry st (e : Recovery_log.entry) =
  let site = Lam.site e.Recovery_log.lam in
  if not (World.is_down st.world site) then begin
    let verdict = Option.get e.Recovery_log.verdict in
    emit st "in-doubt %s: site %s reachable, replaying %s" e.Recovery_log.task
      site
      (Recovery_log.verdict_to_string verdict);
    let r =
      match verdict with
      | Recovery_log.Commit -> Lam.commit e.Recovery_log.lam
      | Recovery_log.Abort -> Lam.rollback e.Recovery_log.lam
    in
    match r with
    | Ok () ->
        let s = match verdict with Recovery_log.Commit -> C | Recovery_log.Abort -> A in
        set_status st e.Recovery_log.task s;
        Recovery_log.mark_resolved st.rlog e.Recovery_log.task;
        tell st
          (Trace.Recovered
             {
               task = e.Recovery_log.task;
               site;
               verdict =
                 (match verdict with
                 | Recovery_log.Commit -> Trace.Commit
                 | Recovery_log.Abort -> Trace.Abort);
             })
    | Error (Lam.Local _) ->
        (* the LDBMS resolved it unilaterally (local abort) *)
        set_status st e.Recovery_log.task A;
        Recovery_log.mark_resolved st.rlog e.Recovery_log.task
    | Error (Lam.Network _ | Lam.Lost _ | Lam.In_doubt _ | Lam.Busy _) -> ()
  end

let resolve_alias st alias =
  List.iter (resolve_entry st) (Recovery_log.unresolved_for_alias st.rlog alias)

(* After the program ends, wait (in virtual time, up to the grace budget)
   for sites holding in-doubt transactions to come back, re-polling at
   each scheduled recovery instant. *)
let final_recovery st =
  match Recovery_log.unresolved st.rlog with
  | [] -> ()
  | stranded ->
      emit st "resolution pass: %d in-doubt task(s), grace %.0f ms"
        (List.length stranded) st.grace_ms;
      fan_out st.world (resolve_entry st) stranded;
      let deadline = World.now_ms st.world +. st.grace_ms in
      let rec wait () =
        match Recovery_log.unresolved st.rlog with
        | [] -> ()
        | remaining ->
            let next =
              List.fold_left
                (fun acc e ->
                  match
                    World.next_recovery_ms st.world (Lam.site e.Recovery_log.lam)
                  with
                  | Some t -> min acc t
                  | None -> acc)
                infinity remaining
            in
            if next < infinity && next <= deadline then begin
              World.advance_ms st.world (max 0.0 (next -. World.now_ms st.world));
              fan_out st.world (resolve_entry st) remaining;
              wait ()
            end
            else
              List.iter
                (fun e ->
                  emit st "task %s remains in doubt (site %s unreachable)"
                    e.Recovery_log.task
                    (Lam.site e.Recovery_log.lam))
                remaining
      in
      wait ()

(* a connection for firing a recovery COMP: the open alias if any, else a
   fresh session to the service the alias was bound to *)
let recovery_conn st target =
  match Hashtbl.find_opt st.aliases (akey target) with
  | Some (Available lam) -> Some (lam, false)
  | Some Unavailable | None -> (
      let svc =
        match Hashtbl.find_opt st.services (akey target) with
        | Some svc -> Some svc
        | None -> Directory.find_opt st.directory target
      in
      match svc with
      | None -> None
      | Some svc -> (
          match
            Lam.connect ~retry:st.policy
              ~on_retry:(retry_observer st ~where:svc.Service.site)
              ~on_trace:(tell_ev st) st.world svc
          with
          | Ok lam -> Some (lam, true)
          | Error _ -> None))

(* A commit group whose members did not all reach C is the paper's
   "incorrect" state (§3.2): the vital set split. Giving up on the global
   commit means (a) revoking the commit verdict of members still in doubt
   — the coordinator logs abort, so a site recovering later rolls its
   prepared transaction back instead of completing a commit the rest of
   the group never got — and (b) compensating the members that did
   commit, via any COMP registered for them. If every committed member
   could be undone the group degrades to a clean abort; otherwise the
   split is real and reported. *)
let settle_splits st =
  List.iter
    (fun (verdict, members) ->
      if
        verdict = Recovery_log.Commit
        && List.exists (fun n -> get_status st n <> C) members
      then begin
        let committed = List.filter (fun n -> get_status st n = C) members in
        emit st "commit group {%s} did not fully commit: {%s}"
          (String.concat ", " members)
          (String.concat ", "
             (List.map
                (fun n ->
                  Printf.sprintf "%s=%s" n (status_to_string (get_status st n)))
                members));
        List.iter
          (fun n ->
            match Recovery_log.find st.rlog n with
            | Some e when not e.Recovery_log.resolved ->
                e.Recovery_log.verdict <- Some Recovery_log.Abort;
                emit st "%s: commit verdict revoked, abort logged" n
            | Some _ | None -> ())
          members;
        if committed <> [] then begin
          List.iter
            (fun n ->
              match Hashtbl.find_opt st.comps (akey n) with
              | Some h when not (Hashtbl.mem st.statuses (akey h.ch_cname)) -> (
                  emit st "firing queued COMP %s to undo %s" h.ch_cname n;
                  declare st h.ch_cname h.ch_target;
                  match recovery_conn st h.ch_target with
                  | None -> set_status st h.ch_cname E
                  | Some (lam, fresh) ->
                      exec_comp_on st ~cname:h.ch_cname ~compensates:(Some n)
                        lam h.ch_commands;
                      if fresh then Lam.disconnect lam)
              | _ -> ())
            committed;
          if List.exists (fun n -> get_status st n = C) members then begin
            st.vital_split <- true;
            emit st "VITAL SPLIT: group {%s} left inconsistent"
              (String.concat ", " members)
          end
          else
            emit st "split healed: all committed members of {%s} compensated"
              (String.concat ", " members)
        end
      end)
    (Recovery_log.groups st.rlog);
  (* presumed abort seals the fate of whatever is still in doubt: its
     verdict is now abort, and the site will roll it back on recovery —
     globally the task is aborted even though the site has not acted *)
  List.iter
    (fun (e : Recovery_log.entry) ->
      if
        e.Recovery_log.verdict = Some Recovery_log.Abort
        && get_status st e.Recovery_log.task = E
      then begin
        emit st "%s: still in doubt at %s; will roll back on site recovery"
          e.Recovery_log.task
          (Lam.site e.Recovery_log.lam);
        set_status st e.Recovery_log.task A
      end)
    (Recovery_log.unresolved st.rlog)

(* Close one held connection. Presumed abort: prepared work with no
   surviving decision entry is rolled back by the site once the session
   ends. *)
let close_alias st alias lam =
  (if Recovery_log.unresolved_for_alias st.rlog alias = [] then
     match Ldbms.Session.txn_state (Lam.session lam) with
     | Some Ldbms.Txn.Prepared ->
         ignore (Ldbms.Session.rollback (Lam.session lam))
     | Some _ | None -> ());
  release st lam;
  tell st (Trace.Closed { alias })

(* ---- statement dispatch --------------------------------------------------- *)

let rec collect_comps acc = function
  | Comp { cname; compensates = Some t; target; commands } ->
      (akey t, { ch_cname = cname; ch_target = target; ch_commands = commands })
      :: acc
  | Comp { compensates = None; _ } -> acc
  | Parallel stmts | If (_, stmts, []) -> List.fold_left collect_comps acc stmts
  | If (_, a, b) ->
      List.fold_left collect_comps (List.fold_left collect_comps acc a) b
  | Open _ | Close _ | Task _ | Commit_tasks _ | Abort_tasks _ | Move _
  | Set_status _ ->
      acc

let rec exec_stmt st = function
  | Open { service; open_site; alias } -> (
      let k = akey alias in
      if Hashtbl.mem st.aliases k then err "alias %s already open" alias;
      match Directory.find_opt st.directory service with
      | None -> Hashtbl.replace st.aliases k Unavailable
      | Some svc ->
          Hashtbl.replace st.services k svc;
          (* The AT clause is informative: the directory knows the real
             site; a mismatch is a program error. *)
          (match open_site with
          | Some s when not (Sqlcore.Names.equal s svc.Service.site) ->
              err "service %s is at site %s, not %s" service svc.Service.site s
          | Some _ | None -> ());
          let conn =
            match dial st svc with
            | Ok (lam, reused) ->
                tell st
                  (Trace.Opened
                     {
                       service;
                       site = svc.Service.site;
                       alias;
                       pooled = reused;
                     });
                Available lam
            | Error f ->
                let busy = match f with Lam.Busy _ -> true | _ -> false in
                tell st
                  (Trace.Open_failed
                     { service; reason = Lam.failure_message f; busy });
                Unavailable
          in
          Hashtbl.replace st.aliases k conn)
  | Close aliases ->
      List.iter
        (fun alias ->
          match Hashtbl.find_opt st.aliases (akey alias) with
          | Some (Available lam) ->
              (* settle this connection's in-doubt transactions while the
                 program still holds it open *)
              resolve_alias st alias;
              close_alias st alias lam;
              Hashtbl.remove st.aliases (akey alias)
          | Some Unavailable -> Hashtbl.remove st.aliases (akey alias)
          | None -> err "CLOSE of unopened alias %s" alias)
        aliases
  | Task task -> exec_task st task
  | Parallel stmts ->
      (* The branches model concurrent work at autonomous sites: the
         world's parallel combinator runs them in declaration order, so
         effects stay deterministic, but accounts their time
         concurrently. *)
      let _, durs =
        World.parallel_timed st.world
          (List.map (fun s () -> exec_stmt st s) stmts)
      in
      if List.length durs >= 2 then
        tell st
          (Trace.Wave
             {
               branches = List.length durs;
               crit_ms = List.fold_left max 0.0 durs;
               serial_ms = List.fold_left ( +. ) 0.0 durs;
             })
  | If (cond, then_b, else_b) ->
      let taken = eval_cond st cond in
      tell st (Trace.Branch { cond = Dol_pp.cond_to_string cond; taken });
      if taken then List.iter (exec_stmt st) then_b
      else List.iter (exec_stmt st) else_b
  | Commit_tasks names ->
      (* log the global verdict before the second phase: this is the
         coordinator's decision record that makes in-doubt outcomes
         resolvable *)
      let prepared = List.filter (fun n -> get_status st n = P) names in
      if prepared <> [] then
        tell st (Trace.Decision { verdict = Trace.Commit; tasks = prepared });
      Recovery_log.record_decision st.rlog Recovery_log.Commit prepared;
      (* the participants are independent: the commit phase costs one
         round trip of virtual latency, not one per task *)
      fan_out st.world (commit_task st) names
  | Abort_tasks names ->
      let prepared = List.filter (fun n -> get_status st n = P) names in
      if prepared <> [] then
        tell st (Trace.Decision { verdict = Trace.Abort; tasks = prepared });
      Recovery_log.record_decision st.rlog Recovery_log.Abort prepared;
      fan_out st.world (abort_task st) names
  | Comp { cname; compensates; target; commands } ->
      exec_comp st ~cname ~compensates ~target ~commands
  | Move { mname; src; dst; dest_table; query; reduce } ->
      exec_move st ~mname ~src ~dst ~dest_table ~query ~reduce
  | Set_status n ->
      tell st (Trace.Dolstatus n);
      st.dolstatus <- n

(* Release every connection the program still holds. This is the epilogue
   of a normal run, but it must also run when the program dies on a
   [Program_error]: connections checked out of the pool before the faulty
   statement would otherwise never be checked back in, and their
   transactions never settled. *)
let release_all st =
  Hashtbl.iter
    (fun alias conn ->
      match conn with
      | Available lam -> close_alias st alias lam
      | Unavailable -> ())
    st.aliases;
  Hashtbl.reset st.aliases

let outcome_of st ~t0 =
  let statuses =
    List.rev_map (fun k -> (k, Hashtbl.find st.statuses k)) st.status_order
  in
  let results =
    List.filter_map
      (fun (k, _) ->
        Option.map (fun r -> (k, r)) (Hashtbl.find_opt st.results k))
      statuses
  in
  let rowcounts =
    List.filter_map
      (fun (k, _) ->
        Option.map (fun n -> (k, n)) (Hashtbl.find_opt st.rowcounts k))
      statuses
  in
  {
    dolstatus = st.dolstatus;
    statuses;
    results;
    rowcounts;
    elapsed_ms = World.now_ms st.world -. t0;
    in_doubt = List.length (Recovery_log.unresolved st.rlog);
    vital_split = st.vital_split;
  }

(* ---- stepped execution ----------------------------------------------------
   The interleaving harness runs several programs against shared sites one
   top-level statement at a time. [start] builds the engine state without
   executing anything; [step] executes the next statement; [finish] drains
   the rest and runs the epilogue. [run] is [finish (start ...)], so the
   monolithic path and the stepped path cannot drift apart. *)

type stepper = {
  sp_st : state;
  sp_t0 : float;
  mutable sp_remaining : Dol_ast.program;
  mutable sp_error : string option;
  mutable sp_result : (outcome, string) result option;
}

let start ?(on_trace = fun _ -> ())
    ?(retry = Retry_policy.default) ?(recovery_grace_ms = 500.0) ?pool
    ?move_cache ~directory ~world program =
  let st =
    {
      directory;
      world;
      policy = retry;
      grace_ms = recovery_grace_ms;
      pool;
      move_cache;
      aliases = Hashtbl.create 8;
      services = Hashtbl.create 8;
      statuses = Hashtbl.create 8;
      status_order = [];
      task_target = Hashtbl.create 8;
      results = Hashtbl.create 8;
      rowcounts = Hashtbl.create 8;
      dolstatus = -1;
      on_trace;
      rlog = Recovery_log.create ();
      comps = Hashtbl.create 4;
      vital_split = false;
    }
  in
  List.iter
    (fun (task, h) ->
      if not (Hashtbl.mem st.comps task) then Hashtbl.replace st.comps task h)
    (List.rev (List.fold_left collect_comps [] program));
  let t0 = World.now_ms world in
  Log.info (fun f ->
      f "running DOL program: %d statements, %d tasks" (List.length program)
        (List.length (task_names program)));
  {
    sp_st = st;
    sp_t0 = t0;
    sp_remaining = program;
    sp_error = None;
    sp_result = None;
  }

let step sp =
  match sp.sp_remaining with
  | [] -> false
  | s :: rest -> (
      sp.sp_remaining <- rest;
      match exec_stmt sp.sp_st s with
      | () -> true
      | exception Program_error m ->
          sp.sp_error <- Some m;
          sp.sp_remaining <- [];
          true)

let finish sp =
  match sp.sp_result with
  | Some r -> r
  | None ->
      while step sp do
        ()
      done;
      let st = sp.sp_st in
      let r =
        match sp.sp_error with
        | Some m ->
            (* the program itself is faulty, but the connections it opened
               are not: run the release/presumed-abort pass before
               reporting *)
            release_all st;
            tell st (Trace.Run_failed m);
            Error m
        | None ->
            (* settle stranded 2PC decisions, then judge the commit groups *)
            final_recovery st;
            settle_splits st;
            (* close any aliases the program forgot *)
            release_all st;
            let o = outcome_of st ~t0:sp.sp_t0 in
            tell st
              (Trace.Run_ended
                 {
                   elapsed_ms = o.elapsed_ms;
                   in_doubt = o.in_doubt;
                   vital_split = o.vital_split;
                 });
            Ok o
      in
      sp.sp_result <- Some r;
      r

let run ?on_trace ?retry ?recovery_grace_ms ?pool ?move_cache ~directory
    ~world program =
  finish
    (start ?on_trace ?retry ?recovery_grace_ms ?pool ?move_cache
       ~directory ~world program)

let run_text ?on_trace ?retry ?recovery_grace_ms ?pool ?move_cache
    ~directory ~world text =
  match Dol_parser.parse text with
  | program ->
      run ?on_trace ?retry ?recovery_grace_ms ?pool ?move_cache
        ~directory ~world program
  | exception Dol_parser.Error (m, l, c) ->
      Error (Printf.sprintf "DOL parse error at %d:%d: %s" l c m)

let status_of (outcome : outcome) name =
  match
    List.find_opt
      (fun (n, _) -> String.equal n (String.lowercase_ascii name))
      outcome.statuses
  with
  | Some (_, s) -> s
  | None -> N

let result_of (outcome : outcome) name =
  List.find_map
    (fun (n, r) ->
      if String.equal n (String.lowercase_ascii name) then Some r else None)
    outcome.results
