module Token = Sqlfront.Token
module Tstream = Sqlfront.Tstream
module Sparser = Sqlfront.Parser
module Scan = Sqlcore.Scan
open Ast

exception Error = Scan.Error

(* MSQL's identifier rule, passed to the shared lexer: multiple
   identifiers may hold the [%] wildcard anywhere ([rate%], [%code],
   [fl%8]) and take a [~] optional-column prefix ([~rate]). The markers
   stay in the [Ident] payload; expansion interprets them. *)
let mident =
  let is_mident_char c = Scan.is_ident_char c || c = '%' in
  ( (fun c -> Scan.is_ident_start c || c = '%' || c = '~'),
    fun sc ->
      let prefix =
        match Scan.peek sc with
        | Some '~' ->
            Scan.advance sc;
            "~"
        | _ -> ""
      in
      let body = Scan.take_while sc is_mident_char in
      if body = "" then Scan.error sc "expected identifier after ~";
      prefix ^ body )

(* keywords that terminate a LET binding list / begin a query body *)
let body_start_kw = [ "select"; "update"; "insert"; "delete"; "create"; "drop" ]

let dotted_path ts =
  let rec go acc =
    let part = Tstream.ident ts in
    if Tstream.accept_sym ts "." then go (part :: acc) else List.rev (part :: acc)
  in
  go []

let parse_use ts =
  Tstream.expect_kw ts "use";
  let use_current = Tstream.accept_kw ts "current" in
  let item () =
    if Tstream.accept_sym ts "(" then begin
      let db = Tstream.ident ts in
      let alias = Some (Tstream.ident ts) in
      Tstream.expect_sym ts ")";
      let vital = if Tstream.accept_kw ts "vital" then Vital else Non_vital in
      { db; alias; vital }
    end
    else begin
      let db = Tstream.ident ts in
      let vital = if Tstream.accept_kw ts "vital" then Vital else Non_vital in
      { db; alias = None; vital }
    end
  in
  let at_item () =
    match Tstream.peek ts with
    | Token.Ident name -> not (Sqlcore.Names.mem name ("let" :: body_start_kw))
    | Token.Sym "(" -> true
    | _ -> false
  in
  let rec items acc = if at_item () then items (item () :: acc) else List.rev acc in
  let scope =
    if use_current && not (at_item ()) then []
    else items [ item () ]
  in
  (use_current, scope)

let parse_lets ts =
  let one () =
    Tstream.expect_kw ts "let";
    let var_path = dotted_path ts in
    Tstream.expect_kw ts "be";
    let at_binding () =
      match Tstream.peek ts with
      | Token.Ident name ->
          not (Sqlcore.Names.mem name ("let" :: "comp" :: body_start_kw))
      | _ -> false
    in
    let rec bindings acc =
      if at_binding () then bindings (dotted_path ts :: acc) else List.rev acc
    in
    let bindings = bindings [] in
    if bindings = [] then Tstream.error ts "LET needs at least one binding";
    List.iter
      (fun b ->
        if List.length b <> List.length var_path then
          Tstream.error ts
            (Printf.sprintf "LET binding %s has %d components, variable has %d"
               (String.concat "." b) (List.length b) (List.length var_path)))
      bindings;
    { var_path; bindings }
  in
  let rec go acc = if Tstream.at_kw ts "let" then go (one () :: acc) else List.rev acc in
  go []

let parse_comps ts =
  let one () =
    Tstream.expect_kw ts "comp";
    let comp_db = Tstream.ident ts in
    let comp_stmt = Sparser.stmt_of_tokens ts in
    { comp_db; comp_stmt }
  in
  let rec go acc = if Tstream.at_kw ts "comp" then go (one () :: acc) else List.rev acc in
  go []

let parse_query_at ts =
  let use_current, scope = parse_use ts in
  let lets = parse_lets ts in
  let body = Sparser.stmt_of_tokens ts in
  let comps = parse_comps ts in
  ignore (Tstream.accept_sym ts ";");
  { scope; use_current; lets; body; comps }

let parse_multitransaction_at ts =
  Tstream.expect_kw ts "begin";
  Tstream.expect_kw ts "multitransaction";
  let rec queries acc =
    if Tstream.at_kw ts "use" then queries (parse_query_at ts :: acc)
    else List.rev acc
  in
  let queries = queries [] in
  if queries = [] then Tstream.error ts "multitransaction needs at least one query";
  Tstream.expect_kw ts "commit";
  let state () =
    let rec go acc =
      let db = Tstream.ident ts in
      if Tstream.accept_kw ts "and" then go (db :: acc) else List.rev (db :: acc)
    in
    go []
  in
  let at_state () =
    match Tstream.peek ts with
    | Token.Ident name -> not (Sqlcore.Names.equal name "end")
    | _ -> false
  in
  let rec states acc = if at_state () then states (state () :: acc) else List.rev acc in
  let acceptable = states [] in
  if acceptable = [] then
    Tstream.error ts "COMMIT needs at least one acceptable state";
  Tstream.expect_kw ts "end";
  Tstream.expect_kw ts "multitransaction";
  { queries; acceptable }

let commit_or_nocommit ts =
  if Tstream.accept_kw ts "commit" then true
  else if Tstream.accept_kw ts "nocommit" then false
  else Tstream.error ts "expected COMMIT or NOCOMMIT"

let parse_incorporate_at ts =
  Tstream.expect_kw ts "incorporate";
  Tstream.expect_kw ts "service";
  let inc_service = Tstream.ident ts in
  let inc_site = if Tstream.accept_kw ts "site" then Some (Tstream.ident ts) else None in
  let connectmode = ref Connect_many in
  let commitmode = ref Supports_prepare in
  let create_c = ref None and insert_c = ref None and drop_c = ref None in
  let rec clauses () =
    if Tstream.accept_kw ts "connectmode" then begin
      (connectmode :=
         if Tstream.accept_kw ts "connect" then Connect_many
         else begin
           Tstream.expect_kw ts "noconnect";
           Connect_one
         end);
      clauses ()
    end
    else if Tstream.accept_kw ts "commitmode" then begin
      (commitmode :=
         if commit_or_nocommit ts then Commits_automatically else Supports_prepare);
      clauses ()
    end
    else if Tstream.accept_kw ts "create" then begin
      create_c := Some (commit_or_nocommit ts);
      clauses ()
    end
    else if Tstream.accept_kw ts "insert" then begin
      insert_c := Some (commit_or_nocommit ts);
      clauses ()
    end
    else if Tstream.accept_kw ts "drop" then begin
      drop_c := Some (commit_or_nocommit ts);
      clauses ()
    end
  in
  clauses ();
  let default = !commitmode = Commits_automatically in
  Incorporate
    {
      inc_service;
      inc_site;
      inc_connectmode = !connectmode;
      inc_commitmode = !commitmode;
      inc_create_commit = Option.value !create_c ~default;
      inc_insert_commit = Option.value !insert_c ~default;
      inc_drop_commit = Option.value !drop_c ~default;
    }

let parse_import_at ts =
  Tstream.expect_kw ts "import";
  Tstream.expect_kw ts "database";
  let imp_database = Tstream.ident ts in
  Tstream.expect_kw ts "from";
  Tstream.expect_kw ts "service";
  let imp_service = Tstream.ident ts in
  let imp_scope =
    if Tstream.accept_kw ts "table" || Tstream.accept_kw ts "view" then begin
      let itable = Tstream.ident ts in
      let icolumns =
        if Tstream.accept_kw ts "column" then begin
          let rec cols acc =
            match Tstream.peek ts with
            | Token.Ident c ->
                Tstream.advance ts;
                ignore (Tstream.accept_sym ts ",");
                cols (c :: acc)
            | _ -> List.rev acc
          in
          Some (cols [])
        end
        else None
      in
      Import_table { itable; icolumns }
    end
    else Import_all
  in
  Import { imp_database; imp_service; imp_scope }

(* CREATE TRIGGER name ON db WHEN <select> DO <query>
   DROP TRIGGER name *)
let parse_trigger_at ts =
  Tstream.expect_kw ts "create";
  Tstream.expect_kw ts "trigger";
  let trg_name = Tstream.ident ts in
  Tstream.expect_kw ts "on";
  let trg_db = Tstream.ident ts in
  Tstream.expect_kw ts "when";
  let trg_condition = Sparser.select_of_tokens ts in
  Tstream.expect_kw ts "do";
  let trg_action = parse_query_at ts in
  Create_trigger { trg_name; trg_db; trg_condition; trg_action }

let parse_use_items ts =
  (* item+ as in the USE statement: db | (db alias), each optionally VITAL *)
  let item () =
    if Tstream.accept_sym ts "(" then begin
      let db = Tstream.ident ts in
      let alias = Some (Tstream.ident ts) in
      Tstream.expect_sym ts ")";
      let vital = if Tstream.accept_kw ts "vital" then Vital else Non_vital in
      { db; alias; vital }
    end
    else begin
      let db = Tstream.ident ts in
      let vital = if Tstream.accept_kw ts "vital" then Vital else Non_vital in
      { db; alias = None; vital }
    end
  in
  let at_item () =
    match Tstream.peek ts with
    | Token.Ident _ -> true
    | Token.Sym "(" -> true
    | _ -> false
  in
  let rec items acc = if at_item () then items (item () :: acc) else List.rev acc in
  items [ item () ]

let rec parse_toplevel_at ts =
  if Tstream.accept_kw ts "explain" then
    (* EXPLAIN MULTIPLE <query> renders all pipeline phases; plain
       EXPLAIN wraps any statement and yields just the DOL program *)
    if Tstream.at_kw ts "multiple" && Tstream.at_kw2 ts "use" then begin
      Tstream.advance ts;
      Explain_multiple (parse_query_at ts)
    end
    else Explain (parse_toplevel_at ts)
  else if Tstream.at_kw ts "use" then Query (parse_query_at ts)
  else if Tstream.at_kw ts "create" && Tstream.at_kw2 ts "multidatabase" then begin
    Tstream.advance ts;
    Tstream.advance ts;
    let mdb_name = Tstream.ident ts in
    Tstream.expect_kw ts "as";
    Create_multidatabase { mdb_name; mdb_members = parse_use_items ts }
  end
  else if Tstream.at_kw ts "drop" && Tstream.at_kw2 ts "multidatabase" then begin
    Tstream.advance ts;
    Tstream.advance ts;
    Drop_multidatabase (Tstream.ident ts)
  end
  else if Tstream.at_kw ts "create" && Tstream.at_kw2 ts "trigger" then
    parse_trigger_at ts
  else if Tstream.at_kw ts "drop" && Tstream.at_kw2 ts "trigger" then begin
    Tstream.advance ts;
    Tstream.advance ts;
    Drop_trigger (Tstream.ident ts)
  end
  else if Tstream.at_kw ts "begin" && Tstream.at_kw2 ts "multitransaction" then
    Multitransaction (parse_multitransaction_at ts)
  else if Tstream.at_kw ts "incorporate" then parse_incorporate_at ts
  else if Tstream.at_kw ts "import" then parse_import_at ts
  else
    Tstream.error ts
      "expected USE, BEGIN MULTITRANSACTION, INCORPORATE, IMPORT or \
       CREATE/DROP TRIGGER"

let with_stream input f = Tstream.run (Sqlfront.Lexer.tokenize ~ident:mident input) f

let parse_toplevel input =
  with_stream input (fun ts ->
      let t = parse_toplevel_at ts in
      ignore (Tstream.accept_sym ts ";");
      t)

let parse_script input =
  with_stream input (fun ts ->
      let rec go acc =
        if Tstream.at_eof ts then List.rev acc
        else if Tstream.accept_sym ts ";" then go acc
        else begin
          let t = parse_toplevel_at ts in
          ignore (Tstream.accept_sym ts ";");
          go (t :: acc)
        end
      in
      go [])

let parse_query input = with_stream input parse_query_at
