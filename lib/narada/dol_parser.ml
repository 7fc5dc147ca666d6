open Dol_ast
module Token = Sqlfront.Token
module Tstream = Sqlfront.Tstream

exception Error = Sqlcore.Scan.Error

let block st =
  match Tstream.peek st with
  | Token.Block b ->
      Tstream.advance st;
      b
  | _ -> Tstream.error st "expected { ... } block"

let integer st =
  match Tstream.peek st with
  | Token.Int i ->
      Tstream.advance st;
      i
  | _ -> Tstream.error st "expected integer"

(* cond := conj (OR conj)* ; conj := prim (AND prim)* ;
   prim := NOT prim | '(' cond ')' | ident '=' status *)
let rec parse_cond st =
  let lhs = parse_conj st in
  if Tstream.accept_kw st "or" then Or (lhs, parse_cond st) else lhs

and parse_conj st =
  let lhs = parse_prim st in
  if Tstream.accept_kw st "and" then And (lhs, parse_conj st) else lhs

and parse_prim st =
  if Tstream.accept_kw st "not" then Not (parse_prim st)
  else if Tstream.accept_sym st "(" then begin
    let c = parse_cond st in
    Tstream.expect_sym st ")";
    c
  end
  else begin
    let name = Tstream.ident st in
    Tstream.expect_sym st "=";
    let letter = Tstream.ident st in
    match status_of_string letter with
    | Some s -> Status_is (name, s)
    | None -> Tstream.error st (Printf.sprintf "unknown task status %s" letter)
  end

let task_name_list st =
  let rec go acc =
    let n = Tstream.ident st in
    if Tstream.accept_sym st "," then go (n :: acc) else List.rev (n :: acc)
  in
  go []

let rec parse_stmt st =
  if Tstream.accept_kw st "open" then begin
    let service = Tstream.ident st in
    let open_site = if Tstream.accept_kw st "at" then Some (Tstream.ident st) else None in
    Tstream.expect_kw st "as";
    let alias = Tstream.ident st in
    Open { service; open_site; alias }
  end
  else if Tstream.accept_kw st "close" then begin
    let rec aliases acc =
      match Tstream.peek st with
      | Token.Ident a ->
          Tstream.advance st;
          ignore (Tstream.accept_sym st ",");
          aliases (a :: acc)
      | _ -> List.rev acc
    in
    Close (aliases [])
  end
  else if Tstream.accept_kw st "task" then Task (parse_task st)
  else if Tstream.accept_kw st "parbegin" then begin
    let rec go acc =
      if Tstream.accept_kw st "parend" then List.rev acc
      else begin
        let s = parse_stmt st in
        ignore (Tstream.accept_sym st ";");
        go (s :: acc)
      end
    in
    Parallel (go [])
  end
  else if Tstream.accept_kw st "if" then begin
    let cond = parse_cond st in
    Tstream.expect_kw st "then";
    let then_b = parse_branch st in
    ignore (Tstream.accept_sym st ";");
    let else_b = if Tstream.accept_kw st "else" then parse_branch st else [] in
    If (cond, then_b, else_b)
  end
  else if Tstream.accept_kw st "commit" then Commit_tasks (task_name_list st)
  else if Tstream.accept_kw st "abort" then Abort_tasks (task_name_list st)
  else if Tstream.accept_kw st "comp" then begin
    let cname = Tstream.ident st in
    let compensates =
      if Tstream.accept_kw st "compensates" then Some (Tstream.ident st) else None
    in
    Tstream.expect_kw st "for";
    let target = Tstream.ident st in
    let commands = block st in
    Tstream.expect_kw st "endcomp";
    Comp { cname; compensates; target; commands }
  end
  else if Tstream.accept_kw st "move" then begin
    let mname = Tstream.ident st in
    Tstream.expect_kw st "from";
    let src = Tstream.ident st in
    Tstream.expect_kw st "to";
    let dst = Tstream.ident st in
    Tstream.expect_kw st "table";
    let dest_table = Tstream.ident st in
    let query = block st in
    let reduce =
      if Tstream.accept_kw st "semijoin" then begin
        let col = String.trim (block st) in
        Tstream.expect_kw st "probe";
        Some (col, block st)
      end
      else None
    in
    Tstream.expect_kw st "endmove";
    Move { mname; src; dst; dest_table; query; reduce }
  end
  else if Tstream.accept_kw st "dolstatus" then begin
    Tstream.expect_sym st "=";
    Set_status (integer st)
  end
  else Tstream.error st "expected a DOL statement"

and parse_task st =
  let tname = Tstream.ident st in
  let mode = if Tstream.accept_kw st "nocommit" then No_commit else With_commit in
  Tstream.expect_kw st "for";
  let target = Tstream.ident st in
  let commands = block st in
  Tstream.expect_kw st "endtask";
  { tname; mode; target; commands }

and parse_branch st =
  Tstream.expect_kw st "begin";
  let rec go acc =
    if Tstream.accept_kw st "end" then List.rev acc
    else begin
      let s = parse_stmt st in
      ignore (Tstream.accept_sym st ";");
      go (s :: acc)
    end
  in
  go []

let parse input =
  let st = Tstream.create (Sqlfront.Lexer.tokenize input) in
  Tstream.expect_kw st "dolbegin";
  let rec go acc =
    if Tstream.accept_kw st "dolend" then List.rev acc
    else begin
      let s = parse_stmt st in
      ignore (Tstream.accept_sym st ";");
      go (s :: acc)
    end
  in
  let prog = go [] in
  (match Tstream.peek st with
  | Token.Eof -> ()
  | tok ->
      Tstream.error st
        (Printf.sprintf "trailing input after DOLEND: %s" (Token.to_string tok)));
  prog
