(* msql_server — serve the demo federation to concurrent clients over a
   local (Unix-domain) socket, speaking the newline-framed Wire
   protocol:

     $ dune exec bin/msql_server.exe -- --socket /tmp/msql.sock &
     $ printf 'HELLO\nSTMT USE continental; SELECT * FROM flights\n' \
         | nc -U /tmp/msql.sock

   The daemon is a single-threaded select loop: it feeds the bytes read
   from every connected client to the transport-free Msql.Wire state
   machine, which frames them into request lines, then runs the
   server's wave scheduler to completion and routes each completion
   line back to the session's owning client. Concurrency lives in the
   scheduler (shared pool, shared caches, interleaved waves), not in
   the socket loop. *)

module S = Msql.Server
module W = Msql.Wire

type client = { fd : Unix.file_descr; conn : W.conn }

let send_line fd line =
  let data = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length data then
      let n = Unix.write fd data off (Bytes.length data - off) in
      go (off + n)
  in
  try go 0 with Unix.Unix_error _ -> ()

let main socket_path max_sessions max_queue pool_cap verbose =
  let fx = Msql.Fixtures.make () in
  let base = S.default_config () in
  let config =
    {
      base with
      S.max_sessions;
      max_queue;
      pool_cap = (if pool_cap > 0 then Some pool_cap else None);
    }
  in
  let server = S.of_fixtures ~config fx in
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX socket_path);
  Unix.listen lfd 16;
  Printf.printf
    "msql_server: demo federation on %s (max %d sessions, queue %d)\n%!"
    socket_path config.S.max_sessions config.S.max_queue;
  let clients : (Unix.file_descr, client) Hashtbl.t = Hashtbl.create 8 in
  let close_client c =
    (match W.sid c.conn with
    | Some sid -> ignore (S.disconnect server sid)
    | None -> ());
    Hashtbl.remove clients c.fd;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  let running = ref true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> running := false));
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  while !running do
    let fds = lfd :: Hashtbl.fold (fun fd _ acc -> fd :: acc) clients [] in
    match Unix.select fds [] [] 1.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
        List.iter
          (fun fd ->
            if fd = lfd then begin
              match Unix.accept lfd with
              | cfd, _ ->
                  Hashtbl.replace clients cfd
                    { fd = cfd; conn = W.create server }
              | exception Unix.Unix_error _ -> ()
            end
            else
              match Hashtbl.find_opt clients fd with
              | None -> ()
              | Some c -> (
                  let b = Bytes.create 4096 in
                  match Unix.read fd b 0 4096 with
                  | 0 -> close_client c
                  | n ->
                      List.iter (send_line c.fd)
                        (W.feed c.conn (Bytes.sub_string b 0 n))
                  | exception Unix.Unix_error _ -> close_client c))
          readable;
        let completions = S.drain server in
        List.iter
          (fun comp ->
            let owner =
              Hashtbl.fold
                (fun _ c acc ->
                  match acc with
                  | Some _ -> acc
                  | None ->
                      if W.sid c.conn = Some comp.S.c_sid then Some c
                      else None)
                clients None
            in
            match owner with
            | Some c -> send_line c.fd (W.completion_line comp)
            | None -> () (* client left before its statement completed *))
          completions;
        if verbose && completions <> [] then
          Printf.printf "%s\n%!" (S.stats_json server)
  done;
  Hashtbl.iter (fun _ c -> close_client c) (Hashtbl.copy clients);
  (try Unix.close lfd with Unix.Unix_error _ -> ());
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  0

open Cmdliner

let socket =
  let doc = "Listen on the Unix-domain socket at $(docv)." in
  Arg.(
    value
    & opt string "/tmp/msql_server.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc)

let max_sessions =
  let doc = "Refuse HELLO beyond $(docv) concurrent sessions." in
  Arg.(value & opt int 64 & info [ "max-sessions" ] ~docv:"N" ~doc)

let max_queue =
  let doc = "Shed STMT beyond $(docv) queued statements per session." in
  Arg.(value & opt int 16 & info [ "max-queue" ] ~docv:"N" ~doc)

let pool_cap =
  let doc =
    "Cap the shared connection pool at $(docv) live connections per \
     service (0: unlimited)."
  in
  Arg.(value & opt int 0 & info [ "pool-cap" ] ~docv:"N" ~doc)

let verbose =
  let doc = "Print server stats after every completed batch." in
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc)

let cmd =
  let doc = "serve extended multidatabase SQL over a local socket" in
  let info = Cmd.info "msql_server" ~doc in
  Cmd.v info
    Term.(
      const main $ socket $ max_sessions $ max_queue $ pool_cap
      $ verbose)

let () = exit (Cmd.eval' cmd)
