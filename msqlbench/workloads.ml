(* The four workloads: their federations, seeded statement streams and
   correctness oracles. Both benchmark binaries drive these through
   different entry points (the public session/server calls, or the
   layers one by one), so they share every input and every check. *)

open Sqlcore
module M = Msql.Msession
module F = Msql.Fixtures
module Srv = Msql.Server

type cls = Read | Update | Mtx

type stmt = { tag : string; sql : string; cls : cls }

(* One domain and dataflow scheduling on, set on every session the
   benchmark runs statements on. Both are the library defaults, but a
   session takes them from MSQL_TEST_DOMAINS and MSQL_TEST_DATAFLOW when
   it is created, and a CI matrix exporting those must not change what
   is measured. *)
let pin session =
  M.set_domains session 1;
  M.set_dataflow session true

let pinned (fx : F.t) =
  pin fx.F.session;
  fx

(* ---- canonical digests ---------------------------------------------------- *)

(* Rows are sorted before hashing: a query without ORDER BY returns a
   multiset, so a change of join order must not read as a wrong answer.
   Floats are rendered exactly. *)
let value_key = function
  | Value.Null -> "N"
  | Value.Int i -> "i" ^ string_of_int i
  | Value.Float f -> Printf.sprintf "f%h" f
  | Value.Str s -> "s" ^ String.escaped s
  | Value.Bool b -> if b then "bt" else "bf"

let row_key (r : Row.t) = String.concat "|" (Array.to_list (Array.map value_key r))

let relation_key rel =
  String.concat "," (Schema.names (Relation.schema rel))
  ^ "\n"
  ^ String.concat "\n" (List.sort compare (List.map row_key (Relation.rows rel)))

let details_key details =
  String.concat ";"
    (List.map
       (fun (r : M.db_report) ->
         Printf.sprintf "%s=%s/%s" (String.lowercase_ascii r.M.rdb)
           (Narada.Dol_ast.status_to_string r.M.rstatus)
           (match r.M.raffected with Some n -> string_of_int n | None -> "-"))
       details)

(* virtual timings are left out: only what the statement returned or did *)
let result_key = function
  | Ok (M.Multitable mt) ->
      let parts =
        List.map
          (fun (p : Msql.Multitable.part) ->
            String.lowercase_ascii p.Msql.Multitable.part_db
            ^ ":" ^ relation_key p.Msql.Multitable.part_table)
          (Msql.Multitable.parts mt)
      in
      "rows\n" ^ String.concat "\n" (List.sort compare parts)
  | Ok (M.Update_report { outcome; details; dolstatus; _ }) ->
      Printf.sprintf "update %s %d %s"
        (M.update_outcome_to_string outcome)
        dolstatus (details_key details)
  | Ok (M.Mtx_report { chosen; incorrect; details; _ }) ->
      Printf.sprintf "mtx %s %b %s"
        (match chosen with Some i -> string_of_int i | None -> "-")
        incorrect (details_key details)
  | Ok (M.Info s) -> "info " ^ s
  | Error m -> "error " ^ m

let digest s = Digest.to_hex (Digest.string s)
let result_digest r = digest (result_key r)

(* every table of every database the directory knows, in name order *)
let state_digest (directory : Narada.Directory.t) =
  let dbs = List.sort compare (Narada.Directory.names directory) in
  let b = Buffer.create 4096 in
  List.iter
    (fun svc ->
      let db = (Narada.Directory.find directory svc).Narada.Service.database in
      List.iter
        (fun table ->
          Buffer.add_string b (svc ^ "." ^ table ^ "\n");
          Buffer.add_string b
            (relation_key
               (Ldbms.Table.to_relation (Ldbms.Database.find_table db table)));
          Buffer.add_char b '\n')
        (List.sort compare (Ldbms.Database.table_names db)))
    dbs;
  digest (Buffer.contents b)

(* The outcome class every statement of these workloads must reach: a
   retrieval returns a multitable, an update commits its whole vital set,
   a multitransaction commits its first acceptable state. Anything else —
   an error, a vital split, another acceptable state — is a failure. *)
let class_ok st = function
  | Ok (M.Multitable _) -> st.cls = Read
  | Ok (M.Update_report { outcome = M.Success; dolstatus = 0; _ }) -> st.cls = Update
  | Ok (M.Mtx_report { chosen = Some 0; incorrect = false; _ }) -> st.cls = Mtx
  | Ok (M.Update_report _ | M.Mtx_report _ | M.Info _) | Error _ -> false

(* ---- statement streams ---------------------------------------------------- *)

(* A stream, given its seeded generator, hands out units: statements
   executed back to back, after which every database is back in its
   initial state (each write is paired with its exact inverse — scaling
   by 2 and by 1/2 is exact in binary floating point). Every statement
   therefore runs against a known state, and its result has one correct
   digest. *)
type stream = Random.State.t -> unit -> stmt list

let pick rng weighted =
  let total = List.fold_left (fun a (w, _) -> a + w) 0 weighted in
  let u = Random.State.int rng total in
  let rec go acc = function
    | [ (_, x) ] -> x
    | (w, x) :: rest -> if u < acc + w then x else go (acc + w) rest
    | [] -> invalid_arg "pick"
  in
  go 0 weighted

(* -- paper_2pc: the paper's worked examples E1-E5 on the appendix
      federation -- *)

let e1 =
  {|USE avis national
LET car.type.status BE cars.cartype.carst vehicle.vty.vstat
SELECT %code, type, ~rate FROM car WHERE status = 'available'|}

let scaled_flights op =
  "\nUPDATE flight% SET rate% = rate% " ^ op
  ^ " 2\nWHERE sour% = 'Houston' AND dest% = 'San Antonio'"

let e2 op = "USE continental delta united" ^ scaled_flights op
let e3 op = "USE continental VITAL delta united VITAL" ^ scaled_flights op

let e4 op inv =
  e3 op
  ^ Printf.sprintf
      {|
COMP continental
UPDATE flights SET rate = rate %s 2
WHERE source = 'Houston' AND destination = 'San Antonio'|}
      inv

let e5 =
  {|BEGIN MULTITRANSACTION
  USE continental delta
  LET fltab.snu.sstat.clname BE
    f838.seatnu.seatstatus.clientname
    f747.snu.sstat.passname
  UPDATE fltab SET sstat = 'TAKEN', clname = 'wenders'
  WHERE snu = ( SELECT MIN(snu) FROM fltab WHERE sstat = 'FREE');
  USE avis national
  LET cartab.ccode.cstat BE cars.code.carst vehicle.vcode.vstat
  UPDATE cartab SET cstat = 'TAKEN', client = 'wenders'
  WHERE ccode = ( SELECT MIN(ccode) FROM cartab WHERE cstat = 'available');
COMMIT
  continental AND national
  delta AND avis
END MULTITRANSACTION|}

(* E5 books the lowest free seat and car; this frees exactly those again
   (the booked rows were FREE/available with no client before) *)
let e5_undo =
  {|BEGIN MULTITRANSACTION
  USE continental delta
  LET fltab.snu.sstat.clname BE
    f838.seatnu.seatstatus.clientname
    f747.snu.sstat.passname
  UPDATE fltab SET sstat = 'FREE', clname = NULL WHERE clname = 'wenders';
  USE avis national
  LET cartab.ccode.cstat BE cars.code.carst vehicle.vcode.vstat
  UPDATE cartab SET cstat = 'available', client = NULL WHERE client = 'wenders';
COMMIT
  continental AND delta AND avis AND national
END MULTITRANSACTION|}

let paper_stream : stream =
  let s tag sql cls = { tag; sql; cls } in
  let units =
    [
      (30, [ s "E1" e1 Read ]);
      (20, [ s "E2" (e2 "*") Update; s "E2-inv" (e2 "/") Update ]);
      (20, [ s "E3" (e3 "*") Update; s "E3-inv" (e3 "/") Update ]);
      (15, [ s "E4" (e4 "*" "/") Update; s "E4-inv" (e4 "/" "*") Update ]);
      (15, [ s "E5" e5 Mtx; s "E5-inv" e5_undo Mtx ]);
    ]
  in
  fun rng () -> pick rng units

(* -- fleet_waves: twelve 2PC airlines -- *)

let fleet_n = 12
let fleet_rows = 60
let cities = [ "Houston"; "San Antonio"; "Dallas"; "Austin"; "Chicago"; "Denver" ]

let fleet_stream : stream =
  let all = List.init fleet_n (fun i -> Printf.sprintf "airline%d" (i + 1)) in
  let vital = String.concat " " (List.map (fun d -> d ^ " VITAL") all) in
  let select =
    {
      tag = "select";
      sql =
        Printf.sprintf
          "USE %s SELECT flnu, rate FROM flights WHERE source = 'Houston'"
          (String.concat " " all);
      cls = Read;
    }
  in
  let update op tag =
    {
      tag;
      sql =
        Printf.sprintf
          "USE %s UPDATE flights SET rate = rate %s 2 WHERE source = 'Houston'"
          vital op;
      cls = Update;
    }
  in
  let join city =
    {
      tag = "join-" ^ city;
      sql =
        Printf.sprintf
          "USE airline1 airline2 SELECT a.flnu, b.flnu, b.rate FROM \
           airline1.flights a, airline2.flights b WHERE a.destination = \
           b.source AND a.source = 'Houston' AND b.destination = '%s'"
          city;
      cls = Read;
    }
  in
  let joins = List.map (fun c -> (5, [ join c ])) cities in
  let units =
    (35, [ select ]) :: (35, [ update "*" "update"; update "/" "update-inv" ]) :: joins
  in
  fun rng () -> pick rng units

(* -- the hub/depot/mill federation: a small hub of sales orders and two
      large catalogues, so the catalogues are what ships. [edits] is the
      column the server workload's writes bump: no join reads it, so a
      read's answer does not depend on how the scheduler ordered it
      against writes, and a serial replay in any order must agree -- *)

let sales_rows rows = max 8 (rows / 32)

let hub_world ~rows =
  let world = Netsim.World.create () in
  let directory = Narada.Directory.create () in
  let col = Schema.column in
  let catalogue_schema =
    [ col "rid" Ty.Int; col ~width:40 "rname" Ty.Str; col "price" Ty.Float ]
  in
  let catalogue n =
    List.init rows (fun i ->
        [| Value.Int i;
           Value.Str (Printf.sprintf "%s-%05d-with-a-long-catalogue-entry" n i);
           Value.Float (float_of_int ((i * 13) mod 100)) |])
  in
  let sales =
    List.init (sales_rows rows) (fun i ->
        [| Value.Int i; Value.Int ((i * 7) mod rows); Value.Int (1 + (i mod 9));
           Value.Int 0 |])
  in
  let hub = Ldbms.Database.create "hub" in
  Ldbms.Database.load hub ~name:"sales"
    [ col "sid" Ty.Int; col "part_id" Ty.Int; col "qty" Ty.Int; col "edits" Ty.Int ]
    sales;
  let depot = Ldbms.Database.create "depot" in
  Ldbms.Database.load depot ~name:"parts" catalogue_schema (catalogue "part");
  let mill = Ldbms.Database.create "mill" in
  Ldbms.Database.load mill ~name:"supplies" catalogue_schema (catalogue "sup");
  List.iter
    (fun (site, db) ->
      Netsim.World.add_site world (Netsim.Site.make site);
      Narada.Directory.register directory
        (Narada.Service.make ~site ~caps:Ldbms.Capabilities.ingres_like db))
    [ ("h1", hub); ("d2", depot); ("m3", mill) ];
  (world, directory)

let hub_services = [ "hub"; "depot"; "mill" ]

let ok_or_fail = function Ok x -> x | Error m -> failwith m

let hub_session ~rows =
  let world, directory = hub_world ~rows in
  let session = M.create ~world ~directory () in
  List.iter
    (fun service ->
      ok_or_fail (M.incorporate_auto session ~service);
      ok_or_fail (M.import_all session ~service))
    hub_services;
  pinned { F.session; world; directory }

let catalogue_of i = if i mod 2 = 0 then ("depot", "parts") else ("mill", "supplies")

let join_sql ~db ~table ~price =
  Printf.sprintf
    "USE hub %s SELECT s.sid, r.rname, s.qty FROM hub.sales s, %s.%s r WHERE \
     s.part_id = r.rid AND r.price < %s"
    db db table price

(* read tags of both hub workloads are "<table><<price>" *)
let read_tag table price = table ^ "<" ^ price

(* -- join_large: large catalogues, thresholds from 10^4 two-decimal
      values so that no statement text repeats within 10^4 statements.
      The thresholds follow a golden-ratio sequence from a seeded start:
      any run of statements covers the range evenly, so traffic and
      virtual time per statement hardly depend on the seed -- *)

let join_rows = 8000

let join_stream : stream =
 fun rng ->
  let i = ref (Random.State.int rng 10_000) in
  fun () ->
    i := !i + 1;
    let db, table = catalogue_of !i in
    let k = !i * 6_181 mod 10_000 in
    let price = Printf.sprintf "%d.%02d" (k / 100) (k mod 100) in
    [ { tag = read_tag table price; sql = join_sql ~db ~table ~price; cls = Read } ]

(* the oracle: the same join on one database holding all three tables *)
let join_oracle directory =
  let db = Ldbms.Database.create "oracle" in
  List.iter
    (fun (svc, table) ->
      let src = (Narada.Directory.find directory svc).Narada.Service.database in
      let t = Ldbms.Database.find_table src table in
      Ldbms.Database.load db ~name:table (Ldbms.Table.schema t) (Ldbms.Table.rows t))
    [ ("hub", "sales"); ("depot", "parts"); ("mill", "supplies") ];
  db

let oracle_digest db (st : stmt) =
  match String.index_opt st.tag '<' with
  | None -> invalid_arg "oracle_digest"
  | Some i ->
      let table = String.sub st.tag 0 i in
      let price = String.sub st.tag (i + 1) (String.length st.tag - i - 1) in
      let sel =
        Sqlfront.Parser.parse_select
          (Printf.sprintf
             "SELECT s.sid, r.rname, s.qty FROM sales s, %s r WHERE s.part_id \
              = r.rid AND r.price < %s"
             table price)
      in
      let rel = Ldbms.Exec.run_select db sel in
      digest ("rows\nhub:" ^ relation_key rel)

(* -- server_zipf: Zipf(1.1) over the 20 P10 read templates plus
      single-row writes to the hub -- *)

let zipf_rows = 1000
let zipf_sessions = 8

let zipf_read i =
  let db, table = catalogue_of i in
  let price = string_of_int (5 * ((i / 2) + 1)) in
  [ { tag = read_tag table price; sql = join_sql ~db ~table ~price; cls = Read } ]

let zipf_cum =
  let k = 20 in
  let w = Array.init k (fun i -> 1.0 /. (float_of_int (i + 1) ** 1.1)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map (fun x -> acc := !acc +. (x /. total); !acc) w

let zipf_stream : stream =
  let reads = Array.init 20 zipf_read in
  let writes =
    Array.init (sales_rows zipf_rows) (fun sid ->
        [
          {
            tag = "write";
            sql =
              Printf.sprintf "USE hub UPDATE sales SET edits = edits + 1 WHERE sid = %d"
                sid;
            cls = Update;
          };
        ])
  in
  fun rng () ->
    if Random.State.int rng 10 = 0 then
      writes.(Random.State.int rng (Array.length writes))
    else
      let u = Random.State.float rng 1.0 in
      let rec find i = if i >= 19 || zipf_cum.(i) >= u then i else find (i + 1) in
      reads.(find 0)

let zipf_server () =
  let world, directory = hub_world ~rows:zipf_rows in
  let config =
    {
      (Srv.default_config ()) with
      Srv.max_sessions = zipf_sessions;
      max_queue = 1;
      domains = 1;
    }
  in
  let srv = ok_or_fail (Srv.create ~config ~world ~directory ~services:hub_services ()) in
  let sids =
    Array.init zipf_sessions (fun _ ->
        match Srv.connect srv with
        | Ok sid ->
            Option.iter pin (Srv.session srv sid);
            sid
        | Error e -> failwith (Srv.error_message e))
  in
  (srv, directory, sids)

(* ---- the workloads --------------------------------------------------------- *)

type kind =
  | Single of (unit -> F.t)
  | Server of (unit -> Srv.t * Narada.Directory.t * int array)
      (* the server, its directory and the connected session ids *)

type t = {
  name : string;
  kind : kind;
  stream : stream;
  warmup : int;  (* untimed statements before the timed phase *)
  det_n : int;
      (* traffic, virtual time and allocation are averaged over the first
         [det_n] timed statements, so a seed gives the same numbers on
         every run; the timed phase is extended until it has run them *)
  expected : (string * string) list;
      (* result digest per statement tag, for workloads whose statements
         always run against the initial state *)
  state : string option;  (* digest of the initial (= final) state *)
  oracle : bool;
      (* reads are checked against the same join on a single database *)
}

(* Digests of what each statement returns from the initial state: the
   retrieved rows, or the per-database commit statuses and affected-row
   counts. *)
let paper_expected =
  let update = "22077494b8a460bed9db83470d0da2ac" in
  [
    ("E1", "ff84eb1c8202aa2fcbe535993e7367da");
    ("E2", update);
    ("E2-inv", update);
    ("E3", update);
    ("E3-inv", update);
    ("E4", update);
    ("E4-inv", update);
    ("E5", "ac7ace1b9179c086ef7cf28c3ab47d71");
    ("E5-inv", "3ba87bab10d6a808e5ff90a19af52586");
  ]

let fleet_expected =
  let update = "e5ce8dab037eb1bff748094e1fb8d352" in
  [
    ("select", "c969689c2e75b73a9eb44aaae7ce62e4");
    ("update", update);
    ("update-inv", update);
    ("join-Houston", "66d6c41a47802819bfe536fa9758064e");
    ("join-San Antonio", "779f908acdf8fa1b519e8da29ab51e5f");
    ("join-Dallas", "88f3496126c3b238d40f808fc3873e4f");
    ("join-Austin", "420600ac2571d2154331fb138bf914b7");
    ("join-Chicago", "4a53ecc95862280e0c39ef95c9cc705d");
    ("join-Denver", "8ed46b58a440c7cc52dd25ebc28e0b91");
  ]

let all =
  [
    {
      name = "paper_2pc";
      kind = Single (fun () -> pinned (F.make ()));
      stream = paper_stream;
      warmup = 2000;
      det_n = 20_000;
      expected = paper_expected;
      state = Some "92eaf392aaaab6a4a22a0d7079b75100";
      oracle = false;
    };
    {
      name = "fleet_waves";
      kind =
        Single (fun () -> pinned (F.airline_fleet ~n:fleet_n ~flights_per_db:fleet_rows ()));
      stream = fleet_stream;
      warmup = 400;
      det_n = 6_000;
      expected = fleet_expected;
      state = Some "aa7cdfdcb7d963393dcd273537a4c387";
      oracle = false;
    };
    {
      name = "join_large";
      kind = Single (fun () -> hub_session ~rows:join_rows);
      stream = join_stream;
      warmup = 7;
      det_n = 150;
      expected = [];
      state = None;
      oracle = true;
    };
    {
      name = "server_zipf";
      kind = Server zipf_server;
      stream = zipf_stream;
      warmup = 500;
      det_n = 12_000;
      expected = [];
      state = None;
      oracle = true;
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
