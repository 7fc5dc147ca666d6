(* A tour of the administrative extensions around the core language:
   local views exported with IMPORT ... VIEW, virtual databases (named
   scopes), interdatabase triggers and the multitable built-ins.

   Run with:  dune exec examples/federation_admin.exe *)

module F = Msql.Fixtures
module M = Msql.Msession
module Mt = Msql.Multitable

let run session sql =
  print_endline ("msql> " ^ String.trim sql);
  (match M.exec session sql with
  | Ok r -> print_endline (M.result_to_string r)
  | Error m -> print_endline ("error: " ^ m));
  print_newline ()

let () =
  let fx = F.make () in
  let session = fx.F.session in

  print_endline "== 1. a local view at AVIS, exported to the federation ==";
  let avis = F.database fx "avis" in
  let local = Ldbms.Session.connect avis Ldbms.Capabilities.ingres_like in
  (match
     Ldbms.Session.exec_sql local
       "CREATE VIEW premium AS SELECT code, cartype, rate FROM cars WHERE rate > 40"
   with
  | Ok _ -> ignore (Ldbms.Session.commit local)
  | Error m -> print_endline ("local DDL failed: " ^ m));
  run session "IMPORT DATABASE avis FROM SERVICE avis VIEW premium";
  run session "USE avis SELECT code, rate FROM premium";

  print_endline "== 2. a virtual database groups the rental companies ==";
  run session "CREATE MULTIDATABASE rentals AS avis national";
  run session
    {|USE rentals
      LET car.status BE cars.carst vehicle.vstat
      SELECT %code FROM car WHERE status = 'available'|};

  print_endline "== 3. multitable built-ins aggregate across the parts ==";
  (match
     M.exec session
       {|USE rentals
         LET car.type.status BE cars.cartype.carst vehicle.vty.vstat
         SELECT %code, type, ~rate FROM car WHERE status = 'available'|}
   with
  | Ok (M.Multitable mt) ->
      Printf.printf "rows across the federation: %d\n" (Mt.total_count mt);
      Printf.printf "cheapest advertised rate:   %s\n"
        (Sqlcore.Value.to_string (Mt.aggregate mt Mt.Min ~column:"rate"));
      List.iter
        (fun (db, v) ->
          Printf.printf "available per company:      %s = %s\n" db
            (Sqlcore.Value.to_string v))
        (Mt.aggregate_per_part mt Mt.Count ~column:"code"
        @ Mt.aggregate_per_part mt Mt.Count ~column:"vcode")
  | Ok _ | Error _ -> print_endline "query failed");
  print_newline ();

  print_endline "== 4. an interdatabase trigger ==";
  run session
    {|CREATE TRIGGER overflow ON avis
      WHEN SELECT code FROM cars WHERE rate > 200
      DO USE national UPDATE vehicle SET vstat = 'available' WHERE vstat = 'rented'|};
  run session "USE avis UPDATE cars SET rate = rate * 10 WHERE carst = 'available'";
  List.iter print_endline (M.trigger_log session)
