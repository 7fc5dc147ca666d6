(* Newline-framed text protocol over the server core, transport-free:
   the daemon (bin/msql_server.ml) feeds it the bytes read off a socket
   and writes back whatever it returns, and the tests drive it directly. *)

type conn = {
  server : Server.t;
  mutable sid : int option;
  pending : Buffer.t;  (* the current line's bytes, before its newline *)
  mutable discarding : bool;
      (* the current line overran [max_line_bytes]: drop input up to the
         next newline *)
}

let max_line_bytes = 1 lsl 20

let create server =
  { server; sid = None; pending = Buffer.create 256; discarding = false }
let sid c = c.sid

(* results and errors are multi-line; the framing is one reply per
   line, so payloads travel with newlines and backslashes escaped *)
let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let unescape s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (if s.[!i] = '\\' && !i + 1 < n then begin
       (match s.[!i + 1] with
       | 'n' -> Buffer.add_char b '\n'
       | '\\' -> Buffer.add_char b '\\'
       | c ->
           Buffer.add_char b '\\';
           Buffer.add_char b c);
       incr i
     end
     else Buffer.add_char b s.[!i]);
    incr i
  done;
  Buffer.contents b

let completion_line (c : Server.completion) =
  match c.Server.c_result with
  | Ok r ->
      Printf.sprintf "RESULT %d %s" c.Server.c_seq
        (escape (Msession.result_to_string r))
  | Error m -> Printf.sprintf "ERROR %d %s" c.Server.c_seq (escape m)

let split_command line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
      ( String.sub line 0 i,
        String.sub line (i + 1) (String.length line - i - 1) )

let on_line c line =
  let line = String.trim line in
  if line = "" then []
  else
    let cmd, rest = split_command line in
    match String.uppercase_ascii cmd with
    | "HELLO" -> (
        match c.sid with
        | Some sid -> [ Printf.sprintf "ERROR already connected as %d" sid ]
        | None -> (
            match Server.connect c.server with
            | Ok sid ->
                c.sid <- Some sid;
                [ Printf.sprintf "HELLO %d" sid ]
            | Error e -> [ "ERROR " ^ escape (Server.error_message e) ]))
    | "STMT" -> (
        match c.sid with
        | None -> [ "ERROR protocol: HELLO first" ]
        | Some sid -> (
            if rest = "" then [ "ERROR protocol: empty statement" ]
            else
              match Server.submit c.server sid (unescape rest) with
              | Ok _seq -> []  (* the reply arrives as a completion line *)
              | Error e -> [ "ERROR " ^ escape (Server.error_message e) ]))
    | "BYE" ->
        (match c.sid with
        | Some sid ->
            ignore (Server.disconnect c.server sid);
            c.sid <- None
        | None -> ());
        [ "BYE" ]
    | _ -> [ "ERROR protocol: unknown command " ^ escape cmd ]

let feed c data =
  let n = String.length data in
  let rec go i acc =
    if i >= n then acc
    else
      (* data.[i, j) belongs to the current line; j = n means its newline
         has not arrived yet *)
      let j =
        match String.index_from_opt data i '\n' with Some j -> j | None -> n
      in
      let acc =
        if c.discarding then acc
        else if Buffer.length c.pending + (j - i) > max_line_bytes then begin
          Buffer.clear c.pending;
          c.discarding <- true;
          "ERROR protocol: line too long" :: acc
        end
        else begin
          Buffer.add_substring c.pending data i (j - i);
          acc
        end
      in
      if j = n then acc
      else if c.discarding then begin
        c.discarding <- false;
        go (j + 1) acc
      end
      else begin
        let line = Buffer.contents c.pending in
        Buffer.clear c.pending;
        go (j + 1) (List.rev_append (on_line c line) acc)
      end
  in
  List.rev (go 0 [])
