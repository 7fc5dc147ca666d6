module D = Narada.Dol_ast
module Names = Sqlcore.Names
module Sql_pp = Sqlfront.Sql_pp

exception Error of string

let err fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

type binding = {
  task : string;
  bdb : string;
  vital : Ast.vital;
  retrieval : bool;
}

type plan = {
  program : D.program;
  task_bindings : binding list;
  coordinator : string option;
}

let task_name db = "t_" ^ Names.canon db
let comp_name db = "k_" ^ Names.canon db
let move_name db = "m_" ^ Names.canon db

let ad_entry ad db =
  match Ad.find ad db with
  | Some e -> e
  | None -> err "service %s has not been INCORPORATEd" db

let site_of ad db = Option.bind (Ad.find ad db) (fun e -> e.Ad.site)

let open_stmt ad db =
  D.Open { service = db; open_site = site_of ad db; alias = Names.canon db }

let script_of stmts = String.concat ";\n" (List.map Sql_pp.stmt_to_string stmts)

let conjoin_conds = function
  | [] -> None
  | c :: rest -> Some (List.fold_left (fun acc x -> D.And (acc, x)) c rest)

let comp_for (q : Ast.query) (u : Ast.use_item) =
  List.find_opt
    (fun (c : Ast.comp_clause) ->
      Names.equal c.Ast.comp_db (Ast.use_db_key u)
      || Names.equal c.Ast.comp_db u.Ast.db)
    q.Ast.comps

(* IF (t=C) THEN BEGIN COMP k COMPENSATES t FOR db { sql } ENDCOMP END *)
let guarded_comp ~db ~task comp_stmt =
  D.If
    ( D.Status_is (task, D.C),
      [
        D.Comp
          {
            cname = comp_name db;
            compensates = Some task;
            target = Names.canon db;
            commands = Sql_pp.stmt_to_string comp_stmt;
          };
      ],
      [] )

(* ---- replicated queries --------------------------------------------------- *)

let plan_replicated ad (q : Ast.query) (elems : Expand.elementary list) =
  let retrieval = Ast.is_retrieval q in
  let infos =
    List.map
      (fun (e : Expand.elementary) ->
        let entry = ad_entry ad e.Expand.edb in
        (e, entry, comp_for q e.Expand.use))
      elems
  in
  let opens = List.map (fun (e, _, _) -> open_stmt ad e.Expand.edb) infos in
  if retrieval then begin
    (* reads: one task per elementary statement so each partial result is
       captured; VITAL databases must all succeed *)
    let tasks_of (e : Expand.elementary) =
      match e.Expand.stmts with
      | [ stmt ] ->
          [
            ( task_name e.Expand.edb,
              D.Task
                {
                  tname = task_name e.Expand.edb;
                  mode = D.With_commit;
                  target = Names.canon e.Expand.edb;
                  commands = Sql_pp.stmt_to_string stmt;
                } );
          ]
      | stmts ->
          List.mapi
            (fun k stmt ->
              let tname = Printf.sprintf "%s_%d" (task_name e.Expand.edb) (k + 1) in
              ( tname,
                D.Task
                  {
                    tname;
                    mode = D.With_commit;
                    target = Names.canon e.Expand.edb;
                    commands = Sql_pp.stmt_to_string stmt;
                  } ))
            stmts
    in
    let per_elem = List.map (fun (e, _, _) -> (e, tasks_of e)) infos in
    let bindings =
      List.concat_map
        (fun ((e : Expand.elementary), ts) ->
          List.map
            (fun (tname, _) ->
              {
                task = tname;
                bdb = e.Expand.edb;
                vital = e.Expand.use.Ast.vital;
                retrieval = true;
              })
            ts)
        per_elem
    in
    let all_tasks = List.concat_map (fun (_, ts) -> List.map snd ts) per_elem in
    let vital_conds =
      List.concat_map
        (fun ((e : Expand.elementary), ts) ->
          if e.Expand.use.Ast.vital = Ast.Vital then
            List.map (fun (tname, _) -> D.Status_is (tname, D.C)) ts
          else [])
        per_elem
    in
    let tail =
      match conjoin_conds vital_conds with
      | None -> [ D.Set_status 0 ]
      | Some cond -> [ D.If (cond, [ D.Set_status 0 ], [ D.Set_status 1 ]) ]
    in
    let close = [ D.Close (List.map (fun (e, _, _) -> Names.canon e.Expand.edb) infos) ] in
    {
      program = opens @ [ D.Parallel all_tasks ] @ tail @ close;
      task_bindings = bindings;
      coordinator = None;
    }
  end
  else begin
    (* updates: §3.2.1 vital-set semantics *)
    let vital_count =
      List.length
        (List.filter (fun (e, _, _) -> (e : Expand.elementary).Expand.use.Ast.vital = Ast.Vital) infos)
    in
    let classify ((e : Expand.elementary), entry, comp) =
      let vital = e.Expand.use.Ast.vital in
      let two_pc = Ad.supports_2pc entry in
      (match vital, two_pc, comp with
      | Ast.Vital, false, None when vital_count > 1 ->
          err
            "VITAL database %s does not support 2PC: provide a COMP clause \
             (the query is refused, cf. paper §3.3)"
            e.Expand.edb
      | _ -> ());
      let mode = if vital = Ast.Vital && two_pc then D.No_commit else D.With_commit in
      (e, entry, comp, mode)
    in
    let classified = List.map classify infos in
    let tasks =
      List.map
        (fun ((e : Expand.elementary), _, _, mode) ->
          D.Task
            {
              tname = task_name e.Expand.edb;
              mode;
              target = Names.canon e.Expand.edb;
              commands = script_of e.Expand.stmts;
            })
        classified
    in
    let bindings =
      List.map
        (fun ((e : Expand.elementary), _, _, _) ->
          {
            task = task_name e.Expand.edb;
            bdb = e.Expand.edb;
            vital = e.Expand.use.Ast.vital;
            retrieval = false;
          })
        classified
    in
    let vital_2pc_info =
      List.filter_map
        (fun ((e : Expand.elementary), _, comp, mode) ->
          if e.Expand.use.Ast.vital = Ast.Vital && mode = D.No_commit then
            Some (e.Expand.edb, comp)
          else None)
        classified
    in
    let vital_2pc = List.map (fun (db, _) -> task_name db) vital_2pc_info in
    let vital_auto =
      List.filter_map
        (fun ((e : Expand.elementary), _, comp, mode) ->
          if e.Expand.use.Ast.vital = Ast.Vital && mode = D.With_commit then
            Some (e.Expand.edb, comp)
          else None)
        classified
    in
    let conds =
      List.map (fun t -> D.Status_is (t, D.P)) vital_2pc
      @ List.map (fun (db, _) -> D.Status_is (task_name db, D.C)) vital_auto
    in
    let tail =
      match conjoin_conds conds with
      | None -> [ D.Set_status 0 ]
      | Some cond ->
          let then_branch =
            (if vital_2pc = [] then [] else [ D.Commit_tasks vital_2pc ])
            @ [ D.Set_status 0 ]
          in
          let guarded_comps_of info =
            List.filter_map
              (fun (db, comp) ->
                Option.map
                  (fun (c : Ast.comp_clause) ->
                    guarded_comp ~db ~task:(task_name db) c.Ast.comp_stmt)
                  comp)
              info
          in
          let else_branch =
            (if vital_2pc = [] then [] else [ D.Abort_tasks vital_2pc ])
            (* 2PC members normally abort cleanly, but a site failing in the
               in-doubt window can leave one committed while the group
               aborts; registering the COMP here lets the engine's recovery
               pass undo it (the C guard keeps it inert otherwise) *)
            @ guarded_comps_of vital_2pc_info
            @ guarded_comps_of vital_auto
            @ [ D.Set_status 1 ]
          in
          [ D.If (cond, then_branch, else_branch) ]
    in
    let close = [ D.Close (List.map (fun (e, _, _, _) -> Names.canon (e : Expand.elementary).Expand.edb) classified) ] in
    {
      program = opens @ [ D.Parallel tasks ] @ tail @ close;
      task_bindings = bindings;
      coordinator = None;
    }
  end

(* ---- shipping into the coordinator ----------------------------------------- *)

(* The databases a decomposed plan opens: the coordinator, then every
   shipped subquery's source. *)
let shipping_dbs ad (dp : Decompose.plan) =
  let dbs =
    dp.Decompose.coordinator
    :: List.map (fun s -> s.Decompose.sdb) dp.Decompose.shipped
  in
  List.iter (fun db -> ignore (ad_entry ad db)) dbs;
  dbs

(* Ship every decomposed subquery into the coordinator in one PARBEGIN;
   once all MOVEs committed, run [work] there, drop the temporaries
   (t_clean) and continue with [rest]; run [failed] if some MOVE did not
   commit. Without shipped subqueries the guard and the block vanish. *)
let ship_into_coordinator (dp : Decompose.plan) ~work ~rest ~failed =
  let coord = Names.canon dp.Decompose.coordinator in
  let cleanup =
    match dp.Decompose.cleanup with
    | [] -> []
    | tmps ->
        [
          D.Task
            {
              tname = "t_clean";
              mode = D.With_commit;
              target = coord;
              commands =
                String.concat ";\n"
                  (List.map (Printf.sprintf "DROP TABLE %s") tmps);
            };
        ]
  in
  let body = work @ cleanup @ rest in
  match dp.Decompose.shipped with
  | [] -> body
  | shipped ->
      let moves =
        List.map
          (fun (s : Decompose.shipped) ->
            D.Move
              {
                mname = move_name s.Decompose.sdb;
                src = Names.canon s.Decompose.sdb;
                dst = coord;
                dest_table = s.Decompose.tmp_table;
                query = Sql_pp.select_to_string s.Decompose.subquery;
                reduce =
                  Option.map
                    (fun (sj : Decompose.semijoin) ->
                      ( sj.Decompose.sj_col,
                        Sql_pp.select_to_string sj.Decompose.sj_probe ))
                    s.Decompose.reduce;
              })
          shipped
      in
      let all_moved =
        conjoin_conds
          (List.map
             (fun (s : Decompose.shipped) ->
               D.Status_is (move_name s.Decompose.sdb, D.C))
             shipped)
        |> Option.get
      in
      [ D.Parallel moves; D.If (all_moved, body, failed) ]

(* ---- decomposed global SELECT ---------------------------------------------- *)

let plan_global ad (_q : Ast.query) (dp : Decompose.plan) =
  let coord = dp.Decompose.coordinator in
  let dbs = shipping_dbs ad dp in
  let q_task =
    D.Task
      {
        tname = "t_q";
        mode = D.With_commit;
        target = Names.canon coord;
        commands = Sql_pp.select_to_string dp.Decompose.modified;
      }
  in
  let final =
    [ D.If (D.Status_is ("t_q", D.C), [ D.Set_status 0 ], [ D.Set_status 1 ]) ]
  in
  let body =
    ship_into_coordinator dp ~work:[ q_task ] ~rest:final
      ~failed:[ D.Set_status 1 ]
  in
  let close = [ D.Close (List.map Names.canon dbs) ] in
  {
    program = List.map (open_stmt ad) dbs @ body @ close;
    task_bindings =
      [ { task = "t_q"; bdb = coord; vital = Ast.Non_vital; retrieval = true } ];
    coordinator = Some coord;
  }

(* ---- data transfer (INSERT ... SELECT across databases) --------------------- *)

let plan_transfer ad ~tdb ~tuse ~ttable ~tcolumns (dp : Decompose.plan) =
  let coord = dp.Decompose.coordinator in
  let source_dbs = shipping_dbs ad dp in
  let dbs =
    if List.exists (Names.equal tdb) source_dbs then source_dbs
    else begin
      ignore (ad_entry ad tdb);
      source_dbs @ [ tdb ]
    end
  in
  let cols_clause =
    match tcolumns with
    | None -> ""
    | Some cs -> Printf.sprintf " (%s)" (String.concat ", " cs)
  in
  let insert_task select =
    D.Task
      {
        tname = "t_ins";
        mode = D.With_commit;
        target = Names.canon tdb;
        commands =
          Printf.sprintf "INSERT INTO %s%s %s" ttable cols_clause select;
      }
  in
  let modified = Sql_pp.select_to_string dp.Decompose.modified in
  let body =
    if Names.equal coord tdb then
      (* the target is the coordinator: insert the source query's result
         in place *)
      ship_into_coordinator dp ~work:[ insert_task modified ] ~rest:[]
        ~failed:[]
    else
      (* ship the result to the target, insert it there, drop the copy *)
      ship_into_coordinator dp
        ~work:
          [
            D.Move
              {
                mname = "m_xfer";
                src = Names.canon coord;
                dst = Names.canon tdb;
                dest_table = "msql_xfer";
                query = modified;
                reduce = None;
              };
            insert_task "SELECT * FROM msql_xfer";
          ]
        ~rest:
          [
            D.Task
              {
                tname = "t_clean_xfer";
                mode = D.With_commit;
                target = Names.canon tdb;
                commands = "DROP TABLE msql_xfer";
              };
          ]
        ~failed:[]
  in
  let final =
    [ D.If (D.Status_is ("t_ins", D.C), [ D.Set_status 0 ], [ D.Set_status 1 ]) ]
  in
  let close = [ D.Close (List.map Names.canon dbs) ] in
  {
    program = List.map (open_stmt ad) dbs @ body @ final @ close;
    task_bindings =
      [
        {
          task = "t_ins";
          bdb = tdb;
          vital = tuse.Ast.vital;
          retrieval = false;
        };
      ];
    coordinator = Some coord;
  }

(* ---- multitransactions ------------------------------------------------------ *)

let plan_mtx ad (mtx : Ast.multitransaction)
    (expanded : (Ast.query * Expand.elementary list) list) =
  (* collect participants; a database may appear in at most one query *)
  let participants =
    List.concat_map
      (fun ((q : Ast.query), elems) ->
        List.map
          (fun (e : Expand.elementary) ->
            (e, ad_entry ad e.Expand.edb, comp_for q e.Expand.use))
          elems)
      expanded
  in
  let () =
    let seen = Hashtbl.create 8 in
    List.iter
      (fun ((e : Expand.elementary), _, _) ->
        let k = Names.canon e.Expand.edb in
        if Hashtbl.mem seen k then
          err "database %s participates in several queries of the \
               multitransaction; alias it apart" e.Expand.edb;
        Hashtbl.add seen k ())
      participants
  in
  let find_participant name =
    List.find_opt
      (fun ((e : Expand.elementary), _, _) ->
        Names.equal (Ast.use_db_key e.Expand.use) name
        || Names.equal e.Expand.edb name)
      participants
  in
  let opens = List.map (fun (e, _, _) -> open_stmt ad (e : Expand.elementary).Expand.edb) participants in
  (* one parallel block of tasks per query, in order *)
  let blocks =
    List.map
      (fun ((_ : Ast.query), elems) ->
        D.Parallel
          (List.map
             (fun (e : Expand.elementary) ->
               let entry = ad_entry ad e.Expand.edb in
               let mode =
                 if Ad.supports_2pc entry then D.No_commit else D.With_commit
               in
               D.Task
                 {
                   tname = task_name e.Expand.edb;
                   mode;
                   target = Names.canon e.Expand.edb;
                   commands = script_of e.Expand.stmts;
                 })
             elems))
      expanded
  in
  let bindings =
    List.map
      (fun ((e : Expand.elementary), _, _) ->
        {
          task = task_name e.Expand.edb;
          bdb = e.Expand.edb;
          vital = e.Expand.use.Ast.vital;
          retrieval = false;
        })
      participants
  in
  (* acceptable states resolved to participants *)
  let states =
    List.map
      (fun state ->
        List.map
          (fun name ->
            match find_participant name with
            | Some p -> p
            | None ->
                err "acceptable state names %s, which no subquery targets" name)
          state)
      mtx.Ast.acceptable
  in
  let in_state state (e : Expand.elementary) =
    List.exists
      (fun ((e' : Expand.elementary), _, _) ->
        Names.equal e'.Expand.edb e.Expand.edb)
      state
  in
  let state_condition state =
    let conds =
      List.map
        (fun ((e : Expand.elementary), entry, comp) ->
          let t = task_name e.Expand.edb in
          let excludable =
            (* rollbackable, already aborted, or never ran *)
            D.Or
              ( D.Status_is (t, D.P),
                D.Or (D.Status_is (t, D.A), D.Status_is (t, D.N)) )
          in
          if in_state state e then
            D.Or (D.Status_is (t, D.P), D.Status_is (t, D.C))
          else if Ad.supports_2pc entry then excludable
          else
            match comp with
            | Some _ -> D.Or (D.Status_is (t, D.C), excludable)
            | None -> excludable)
        participants
    in
    Option.get (conjoin_conds conds)
  in
  let state_actions state =
    List.concat_map
      (fun ((e : Expand.elementary), entry, comp) ->
        let t = task_name e.Expand.edb in
        if in_state state e then
          if Ad.supports_2pc entry then [ D.Commit_tasks [ t ] ] else []
        else if Ad.supports_2pc entry then [ D.Abort_tasks [ t ] ]
        else
          match comp with
          | Some (c : Ast.comp_clause) ->
              [ guarded_comp ~db:e.Expand.edb ~task:t c.Ast.comp_stmt ]
          | None -> [])
      participants
    @ [ D.Set_status 0 ]
  in
  let fail_actions =
    List.concat_map
      (fun ((e : Expand.elementary), entry, comp) ->
        let t = task_name e.Expand.edb in
        if Ad.supports_2pc entry then [ D.Abort_tasks [ t ] ]
        else
          match comp with
          | Some (c : Ast.comp_clause) ->
              [ guarded_comp ~db:e.Expand.edb ~task:t c.Ast.comp_stmt ]
          | None -> [])
      participants
    @ [ D.Set_status 1 ]
  in
  let rec cascade = function
    | [] -> fail_actions
    | state :: rest ->
        [ D.If (state_condition state, state_actions state, cascade rest) ]
  in
  let close =
    [ D.Close (List.map (fun (e, _, _) -> Names.canon (e : Expand.elementary).Expand.edb) participants) ]
  in
  {
    program = opens @ blocks @ cascade states @ close;
    task_bindings = bindings;
    coordinator = None;
  }
