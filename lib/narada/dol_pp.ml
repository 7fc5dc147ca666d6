open Dol_ast

let rec cond_to_string = function
  | Status_is (t, s) -> Printf.sprintf "(%s=%s)" t (status_to_string s)
  | Not c -> Printf.sprintf "NOT %s" (cond_to_string c)
  | And (a, b) -> Printf.sprintf "%s AND %s" (cond_to_string a) (cond_to_string b)
  | Or (a, b) -> Printf.sprintf "(%s OR %s)" (cond_to_string a) (cond_to_string b)

let rec emit_stmt buf indent stmt =
  let pad = String.make indent ' ' in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (pad ^ s ^ "\n")) fmt in
  match stmt with
  | Open { service; open_site; alias } -> (
      match open_site with
      | Some site -> line "OPEN %s AT %s AS %s;" service site alias
      | None -> line "OPEN %s AS %s;" service alias)
  | Close aliases -> line "CLOSE %s;" (String.concat " " aliases)
  | Task { tname; mode; target; commands } ->
      line "TASK %s%s FOR %s" tname
        (match mode with No_commit -> " NOCOMMIT" | With_commit -> "")
        target;
      line "  { %s }" commands;
      line "ENDTASK;"
  | Parallel stmts ->
      line "PARBEGIN";
      List.iter (emit_stmt buf (indent + 2)) stmts;
      line "PAREND;"
  | If (cond, then_b, else_b) ->
      line "IF %s THEN" (cond_to_string cond);
      line "BEGIN";
      List.iter (emit_stmt buf (indent + 2)) then_b;
      line "END;";
      if else_b <> [] then begin
        line "ELSE";
        line "BEGIN";
        List.iter (emit_stmt buf (indent + 2)) else_b;
        line "END;"
      end
  | Commit_tasks names -> line "COMMIT %s;" (String.concat ", " names)
  | Abort_tasks names -> line "ABORT %s;" (String.concat ", " names)
  | Comp { cname; compensates; target; commands } ->
      line "COMP %s%s FOR %s" cname
        (match compensates with Some t -> " COMPENSATES " ^ t | None -> "")
        target;
      line "  { %s }" commands;
      line "ENDCOMP;"
  | Move { mname; src; dst; dest_table; query; reduce } ->
      line "MOVE %s FROM %s TO %s TABLE %s" mname src dst dest_table;
      line "  { %s }" query;
      (match reduce with
      | None -> ()
      | Some (col, probe) ->
          line "  SEMIJOIN { %s } PROBE { %s }" col probe);
      line "ENDMOVE;"
  | Set_status n -> line "DOLSTATUS = %d; -- return code" n

let program_to_string prog =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "DOLBEGIN\n";
  List.iter (emit_stmt buf 2) prog;
  Buffer.add_string buf "DOLEND\n";
  Buffer.contents buf
