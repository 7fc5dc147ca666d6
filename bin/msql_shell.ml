(* msql_shell — execute extended MSQL against the demo federation.

   Usage:
     dune exec bin/msql_shell.exe                      # REPL on stdin
     dune exec bin/msql_shell.exe -- --script q.msql   # run a script file
     dune exec bin/msql_shell.exe -- --translate       # print DOL, don't run
     dune exec bin/msql_shell.exe -- --stats           # show network stats

   Statements are separated by `;;` on its own line in the REPL (a single
   `;` belongs to the MSQL grammar, e.g. inside multitransactions). *)

module F = Msql.Fixtures
module M = Msql.Msession

(* Run each statement of [text] down the session's statement path,
   printing each result as it completes; [false] at the first error, which
   stops the run. Diagnostics go to stderr so a script's data output stays
   clean and exit codes can reflect failure. [~translate] runs each
   statement as EXPLAIN: planned, printed as DOL, never executed. *)
let run_text session ~translate ~stats world text =
  let fail m =
    flush stdout;
    Printf.eprintf "error: %s\n%!" m;
    false
  in
  let run tl =
    if translate then
      match M.exec_toplevel session (Msql.Ast.Explain tl) with
      | Ok r ->
          print_string (M.result_to_string r);
          true
      | Error m -> fail m
    else begin
      let ok =
        match M.exec_toplevel session tl with
        | Ok r ->
            print_endline (M.result_to_string r);
            true
        | Error m -> fail m
      in
      if stats then begin
        let st = Netsim.World.stats world in
        Printf.printf "[net: %d messages, %d bytes, clock %.2f ms]\n"
          st.Netsim.World.messages st.Netsim.World.bytes_moved
          (Netsim.World.now_ms world)
      end;
      ok
    end
  in
  match Msql.Msession.parse_script text with
  | Ok tls -> List.for_all run tls
  | Error m -> fail m

let repl session ~translate ~stats world =
  print_endline
    "MSQL shell — demo federation: continental delta united avis national";
  print_endline "End a statement with `;;` on its own line; ctrl-d quits.";
  let buf = Buffer.create 256 in
  let rec loop () =
    print_string (if Buffer.length buf = 0 then "msql> " else "  ... ");
    match read_line () with
    | exception End_of_file -> ()
    | line when String.trim line = ";;" ->
        ignore (run_text session ~translate ~stats world (Buffer.contents buf));
        Buffer.clear buf;
        loop ()
    | line ->
        Buffer.add_string buf line;
        Buffer.add_char buf '\n';
        loop ()
  in
  loop ()

let main script translate stats trace verbose loss loss_seed =
  if verbose then begin
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level (Some Logs.Debug)
  end;
  let fx = F.make () in
  let session = fx.F.session and world = fx.F.world in
  if trace then
    M.set_typed_trace session
      (Some (fun ev -> print_endline ("  " ^ Narada.Trace.render ev)));
  if loss > 0.0 then begin
    Netsim.World.set_loss world ~seed:loss_seed ~prob:loss;
    Printf.printf "[chaos: losing messages with p=%.3f, seed %d]\n" loss
      loss_seed
  end;
  match script with
  | Some path ->
      (* a failed script run must be visible to the calling shell *)
      let text = In_channel.with_open_bin path In_channel.input_all in
      if run_text session ~translate ~stats world text then 0 else 1
  | None ->
      repl session ~translate ~stats world;
      0

open Cmdliner

let script =
  let doc = "Execute the MSQL statements in $(docv) instead of reading stdin." in
  Arg.(value & opt (some file) None & info [ "script"; "s" ] ~docv:"FILE" ~doc)

let translate =
  let doc = "Print the generated DOL evaluation plan instead of executing." in
  Arg.(value & flag & info [ "translate"; "t" ] ~doc)

let stats =
  let doc = "Print simulated-network statistics after each statement." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let trace =
  let doc = "Print the DOL engine's coordination trace while executing." in
  Arg.(value & flag & info [ "trace" ] ~doc)

let verbose =
  let doc = "Enable debug logging of the MSQL pipeline and the DOL engine." in
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc)

let loss =
  let doc = "Lose each simulated network message with probability $(docv) \
             (deterministic chaos; pair with $(b,--trace) to watch the \
             engine retry and recover)." in
  Arg.(value & opt float 0.0 & info [ "loss" ] ~docv:"PROB" ~doc)

let loss_seed =
  let doc = "Seed for the message-loss generator, so chaos runs replay \
             identically." in
  Arg.(value & opt int 42 & info [ "loss-seed" ] ~docv:"N" ~doc)

let cmd =
  let doc = "execute extended multidatabase SQL against the demo federation" in
  let info = Cmd.info "msql_shell" ~doc in
  Cmd.v info
    Term.(
      const main $ script $ translate $ stats $ trace $ verbose
      $ loss $ loss_seed)

let () = exit (Cmd.eval' cmd)
