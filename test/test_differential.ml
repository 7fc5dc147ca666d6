(* Differential testing of the join machinery: the decomposed global
   pipeline (with and without semijoin reduction) against the same query
   run on a single merged local database, and the hash-join planner
   against the filtered product — over a matrix of selectivities
   and data seeds. Any divergence is a planner or reducer bug, since all
   paths must produce the same multiset of rows. *)
open Sqlcore
module M = Msql.Msession
module Caps = Ldbms.Capabilities

let col = Schema.column
let s x = Value.Str x
let i x = Value.Int x
let f x = Value.Float x

let parts_schema =
  [ col "pid" Ty.Int; col ~width:16 "pname" Ty.Str; col "price" Ty.Float ]

let sales_schema =
  [ col "sid" Ty.Int; col "part_id" Ty.Int; col "qty" Ty.Int ]

(* deterministic synthetic data: prices uniform in [0,100), sale keys
   drawn from twice the pid range so roughly half the sales dangle *)
let gen_data ~seed ~n_parts ~n_sales =
  let rng = Random.State.make [| seed |] in
  let parts =
    List.init n_parts (fun k ->
        [| i k; s (Printf.sprintf "part%d" k); f (Random.State.float rng 100.0) |])
  in
  let sales =
    List.init n_sales (fun k ->
        [| i k; i (Random.State.int rng (2 * n_parts));
           i (1 + Random.State.int rng 9) |])
  in
  (parts, sales)

(* a federation of one table per database and site, fully imported so
   the GDD has the cardinalities the planner prices with *)
let make_federation specs =
  let world = Netsim.World.create () in
  let directory = Narada.Directory.create () in
  let session = M.create ~world ~directory () in
  List.iter
    (fun (name, site, tname, schema, rows) ->
      Netsim.World.add_site world (Netsim.Site.make site);
      let db = Ldbms.Database.create name in
      Ldbms.Database.load db ~name:tname schema rows;
      Narada.Directory.register directory
        (Narada.Service.make ~site ~caps:Caps.ingres_like db);
      (match M.incorporate_auto session ~service:name with
      | Ok () -> ()
      | Error m -> failwith m);
      match M.import_all session ~service:name with
      | Ok () -> ()
      | Error m -> failwith m)
    specs;
  (session, world)

(* two-site federation: market(sales) and store(parts) *)
let make_fed ?(sales_schema = sales_schema) ?(parts_schema = parts_schema)
    ~parts ~sales () =
  make_federation
    [
      ("market", "msite", "sales", sales_schema, sales);
      ("store", "ssite", "parts", parts_schema, parts);
    ]

(* the same tables in one database *)
let merged_db tables =
  let db = Ldbms.Database.create "merged" in
  List.iter (fun (name, schema, rows) -> Ldbms.Database.load db ~name schema rows) tables;
  Ldbms.Session.connect db Caps.ingres_like

let merged_session ~parts ~sales =
  merged_db [ ("parts", parts_schema, parts); ("sales", sales_schema, sales) ]

let local_rows session sql =
  match Ldbms.Session.exec_sql session sql with
  | Ok (Ldbms.Session.Rows rel) -> rel
  | Ok _ -> Alcotest.fail "local query did not produce rows"
  | Error m -> Alcotest.fail ("local query: " ^ Ldbms.Session.error_to_string m)

let global_rows session sql =
  match M.exec session sql with
  | Ok (M.Multitable mt) -> Option.get (Msql.Multitable.flatten mt)
  | Ok r -> Alcotest.fail ("expected rows, got " ^ M.result_to_string r)
  | Error m -> Alcotest.fail ("global query: " ^ m)

(* ---- decomposed pipeline vs merged local database ------------------- *)

let global_query ~cutoff ~extra =
  Printf.sprintf
    "USE market store SELECT s.sid, p.pname, s.qty FROM market.sales s, \
     store.parts p WHERE s.part_id = p.pid AND p.price < %f%s"
    cutoff extra

let local_query ~cutoff ~extra =
  Printf.sprintf
    "SELECT s.sid, p.pname, s.qty FROM sales s, parts p WHERE s.part_id = \
     p.pid AND p.price < %f%s"
    cutoff extra

let check_case ~seed ~cutoff ~extra ~semijoin =
  let parts, sales = gen_data ~seed ~n_parts:60 ~n_sales:90 in
  let session, _world = make_fed ~parts ~sales () in
  M.set_semijoin session semijoin;
  let got = global_rows session (global_query ~cutoff ~extra) in
  let want =
    local_rows (merged_session ~parts ~sales) (local_query ~cutoff ~extra)
  in
  Alcotest.(check bool)
    (Printf.sprintf "seed=%d cutoff=%.0f extra=%S semijoin=%b" seed cutoff
       extra semijoin)
    true
    (Relation.equal_unordered got want)

(* regression: a float literal in a shipped subquery was printed with six
   significant digits, so [p.price < 0.1234567] reached the store site as
   [price < 0.123457] and let 0.1234568/0.1234569 through *)
let test_shipped_float_threshold () =
  let parts =
    List.mapi
      (fun k price -> [| i k; s (Printf.sprintf "part%d" k); f price |])
      [ 0.1234561; 0.1234565; 0.1234566; 0.1234568; 0.1234569; 1.0 ]
  in
  let sales = List.init 12 (fun k -> [| i k; i (k mod 6); i (k + 1) |]) in
  let where = "s.part_id = p.pid AND p.price < 0.1234567" in
  let want =
    local_rows (merged_session ~parts ~sales)
      ("SELECT s.sid, p.pname, s.qty FROM sales s, parts p WHERE " ^ where)
  in
  Alcotest.(check int) "oracle keeps the three cheaper parts' sales" 6
    (Relation.cardinality want);
  List.iter
    (fun semijoin ->
      let session, _world = make_fed ~parts ~sales () in
      M.set_semijoin session semijoin;
      let got =
        global_rows session
          ("USE market store SELECT s.sid, p.pname, s.qty FROM market.sales \
            s, store.parts p WHERE " ^ where)
      in
      Alcotest.(check bool)
        (Printf.sprintf "global = single database (semijoin=%b)" semijoin)
        true
        (Relation.equal_unordered got want))
    [ true; false ]

let test_matrix () =
  List.iter
    (fun seed ->
      List.iter
        (fun cutoff ->
          List.iter
            (fun semijoin ->
              check_case ~seed ~cutoff ~extra:"" ~semijoin;
              (* a coordinator-local conjunct feeds the probe's WHERE *)
              check_case ~seed ~cutoff ~extra:" AND s.qty > 5" ~semijoin)
            [ true; false ])
        [ 10.0; 50.0; 90.0 ])
    [ 1; 2; 3 ]

(* empty key set: no sale references any part, so the reduced subquery is
   a contradiction and the temporary arrives empty — result still [] *)
let test_empty_keyset () =
  let parts = [ [| i 1; s "a"; f 5.0 |]; [| i 2; s "b"; f 6.0 |] ] in
  let sales = [ [| i 1; i 99; i 3 |] ] in
  let session, _ = make_fed ~parts ~sales () in
  M.set_semijoin session true;
  let got = global_rows session (global_query ~cutoff:100.0 ~extra:"") in
  Alcotest.(check int) "no rows" 0 (Relation.cardinality got)

(* ---- the semijoin-reduced plan ----------------------------------------

   Under the latency cost model a reduction pays only when it saves more
   than its probe round trip costs, about 50 KB at Netsim's defaults, so
   the small federations above ship unreduced. Here both sides are large
   and wide (a 200-character column each side projects), so whichever
   database coordinates, the priced plan reduces the other's MOVE. *)

let wide_parts_schema =
  [ col "pid" Ty.Int; col ~width:200 "pname" Ty.Str; col "price" Ty.Float ]

let wide_sales_schema =
  [ col "sid" Ty.Int; col "part_id" Ty.Int; col "qty" Ty.Int;
    col ~width:200 "note" Ty.Str ]

let wide_data ~seed =
  let n = 1500 in
  let pad k = Printf.sprintf "%-200d" k in
  let rng = Random.State.make [| seed |] in
  let parts =
    List.init n (fun k -> [| i k; s ("part " ^ pad k); f (Random.State.float rng 100.0) |])
  in
  let sales =
    List.init n (fun k ->
        [| i k; i (Random.State.int rng (2 * n)); i (1 + Random.State.int rng 9);
           s ("note " ^ pad k) |])
  in
  (parts, sales)

let wide_fed ~parts ~sales =
  make_fed ~sales_schema:wide_sales_schema ~parts_schema:wide_parts_schema ~parts
    ~sales ()

let wide_query ~cutoff =
  Printf.sprintf
    "USE market store SELECT s.sid, s.note, p.pname FROM market.sales s, \
     store.parts p WHERE s.part_id = p.pid AND p.price < %f"
    cutoff

(* the shipped databases' semijoin decisions of [sql]'s plan *)
let sj_gates session sql =
  match Msql.Expand.expand (M.gdd session) (Msql.Mparser.parse_query sql) with
  | Msql.Expand.Global { gselect; grefs } ->
      let dp =
        Msql.Decompose.decompose ~semijoin:(M.semijoin_enabled session)
          ~gselect ~grefs
      in
      List.map (fun (sh : Msql.Decompose.shipped) -> sh.Msql.Decompose.sj_gate)
        dp.Msql.Decompose.shipped
  | Msql.Expand.Replicated _ | Msql.Expand.Transfer _ ->
      Alcotest.fail "expected a global query"

(* the reduced plan against the single database: its MOVE runs the
   semijoin-restricted query Lam.restrict_query writes *)
let test_reduced_plan_matches_merged () =
  let parts, sales = wide_data ~seed:8 in
  let session, _ = wide_fed ~parts ~sales in
  let merged =
    merged_db
      [ ("parts", wide_parts_schema, parts); ("sales", wide_sales_schema, sales) ]
  in
  List.iter
    (fun cutoff ->
      let sql = wide_query ~cutoff in
      (match sj_gates session sql with
      | [ Msql.Decompose.Sj_applied _ ] -> ()
      | _ -> Alcotest.fail "the priced plan should reduce the shipped subquery");
      let want =
        local_rows merged
          (Printf.sprintf
             "SELECT s.sid, s.note, p.pname FROM sales s, parts p WHERE \
              s.part_id = p.pid AND p.price < %f"
             cutoff)
      in
      Alcotest.(check bool)
        (Printf.sprintf "reduced plan = single database (cutoff=%.0f)" cutoff)
        true
        (Relation.equal_unordered (global_rows session sql) want))
    [ 10.0; 50.0; 90.0 ]

(* the reduction must ship strictly fewer bytes than the unreduced
   decomposition even after paying for the key set *)
let test_semijoin_saves_bytes () =
  let parts, sales = wide_data ~seed:7 in
  let run semijoin =
    let session, world = wide_fed ~parts ~sales in
    M.set_semijoin session semijoin;
    Netsim.World.reset_stats world;
    let rel = global_rows session (wide_query ~cutoff:90.0) in
    (rel, (Netsim.World.stats world).Netsim.World.bytes_moved)
  in
  let reduced, bytes_on = run true in
  let full, bytes_off = run false in
  Alcotest.(check bool) "same rows" true (Relation.equal_unordered reduced full);
  Alcotest.(check bool)
    (Printf.sprintf "fewer bytes (%d < %d)" bytes_on bytes_off)
    true (bytes_on < bytes_off)

(* ---- FROM order ------------------------------------------------------------

   The plan is priced, not read off the FROM clause: every order of the
   same join picks the same coordinator, ships the same databases with the
   same semijoin decisions, sends the same traffic and returns the same
   rows. With sales first, the reference-count rule coordinated at the
   small market side and paid a probe round trip (16 messages); with parts
   first it coordinated at store (14). *)

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x -> List.map (fun p -> x :: p) (permutations (List.filter (( != ) x) l)))
        l

let plan_shape session sql =
  match Msql.Expand.expand (M.gdd session) (Msql.Mparser.parse_query sql) with
  | Msql.Expand.Global { gselect; grefs } ->
      let dp = Msql.Decompose.decompose ~semijoin:true ~gselect ~grefs in
      ( dp.Msql.Decompose.coordinator,
        List.sort compare
          (List.map
             (fun (sh : Msql.Decompose.shipped) ->
               (sh.Msql.Decompose.sdb, sh.Msql.Decompose.reduce <> None))
             dp.Msql.Decompose.shipped) )
  | Msql.Expand.Replicated _ | Msql.Expand.Transfer _ ->
      Alcotest.fail "expected a global query"

let check_permutations ~make ~use ~select ~refs ~where =
  let runs =
    List.map
      (fun order ->
        let session, world = make () in
        let sql =
          Printf.sprintf "USE %s SELECT %s FROM %s WHERE %s" use select
            (String.concat ", " order) where
        in
        Netsim.World.reset_stats world;
        let rows = global_rows session sql in
        let msgs = (Netsim.World.stats world).Netsim.World.messages in
        (String.concat ", " order, plan_shape session sql, msgs, rows))
      (permutations refs)
  in
  match runs with
  | [] -> assert false
  | (_, shape0, msgs0, rows0) :: rest ->
      List.iter
        (fun (order, shape, msgs, rows) ->
          Alcotest.(check string) (order ^ ": coordinator") (fst shape0) (fst shape);
          Alcotest.(check (list (pair string bool)))
            (order ^ ": shipped databases and semijoin decisions") (snd shape0)
            (snd shape);
          Alcotest.(check int) (order ^ ": messages") msgs0 msgs;
          Alcotest.(check bool) (order ^ ": rows") true
            (Relation.equal_unordered rows0 rows))
        rest

let test_from_order_two_databases () =
  let parts, sales = gen_data ~seed:4 ~n_parts:8000 ~n_sales:250 in
  check_permutations
    ~make:(fun () -> make_fed ~parts ~sales ())
    ~use:"market store" ~select:"s.sid, p.pname, s.qty"
    ~refs:[ "market.sales s"; "store.parts p" ]
    ~where:"s.part_id = p.pid AND p.price < 50.0"

let stock_schema = [ col "spid" Ty.Int; col ~width:16 "wh" Ty.Str ]

let test_from_order_three_databases () =
  let parts, sales = gen_data ~seed:5 ~n_parts:2000 ~n_sales:300 in
  let stock = List.init 900 (fun k -> [| i (k * 3 mod 2000); s (Printf.sprintf "wh%d" k) |]) in
  check_permutations
    ~make:(fun () ->
      make_federation
        [
          ("market", "msite", "sales", sales_schema, sales);
          ("store", "ssite", "parts", parts_schema, parts);
          ("depot", "dsite", "stock", stock_schema, stock);
        ])
    ~use:"market store depot" ~select:"s.sid, p.pname, st.wh"
    ~refs:[ "market.sales s"; "store.parts p"; "depot.stock st" ]
    ~where:"s.part_id = p.pid AND p.pid = st.spid AND p.price < 50.0"

(* A WHERE conjunct local to one table filters that FROM leaf before the
   join, so it is evaluated on rows that never join. A conjunct that
   raises on such a row (division by a zero quantity, on a sale of an
   unknown part) makes the single-database query fail, and the global
   query fails too whichever database coordinates: shipped, the conjunct
   runs in the local subquery; at the coordinator, on the FROM leaf. *)
let test_raising_local_conjunct () =
  let parts = [ [| i 1; s "a"; f 5.0 |]; [| i 2; s "b"; f 6.0 |] ] in
  let sales = [ [| i 1; i 1; i 2 |]; [| i 2; i 99; i 0 |] ] in
  let where = "s.part_id = p.pid AND 10 / s.qty > 1" in
  (match
     Ldbms.Session.exec_sql (merged_session ~parts ~sales)
       ("SELECT s.sid, p.pname FROM sales s, parts p WHERE " ^ where)
   with
  | Error m ->
      Alcotest.(check bool) "single database: division by zero" true
        (Astring_contains.contains
           (Ldbms.Session.error_to_string m)
           "division by zero")
  | Ok _ -> Alcotest.fail "the single-database query should fail");
  List.iter
    (fun from ->
      let session, _ = make_fed ~parts ~sales () in
      match
        M.exec session
          (Printf.sprintf "USE market store SELECT s.sid, p.pname FROM %s WHERE %s"
             from where)
      with
      | Error _ -> ()
      | Ok r -> Alcotest.fail (from ^ ": global query succeeded: " ^ M.result_to_string r))
    [ "market.sales s, store.parts p"; "store.parts p, market.sales s" ]

(* ---- session performance layer --------------------------------------- *)

let enable_all session =
  M.set_pooling session true;
  M.set_result_cache session true

(* the global-vs-merged differential again with pooling and the result
   cache on (the plan cache always is), every query run twice so the
   repeat is served by the caches — rows must be identical to the merged
   database either way *)
let test_matrix_all_layers () =
  List.iter
    (fun seed ->
      let parts, sales = gen_data ~seed ~n_parts:60 ~n_sales:90 in
      let session, _world = make_fed ~parts ~sales () in
      enable_all session;
      let merged = merged_session ~parts ~sales in
      List.iter
        (fun cutoff ->
          let want = local_rows merged (local_query ~cutoff ~extra:"") in
          let first = global_rows session (global_query ~cutoff ~extra:"") in
          let again = global_rows session (global_query ~cutoff ~extra:"") in
          Alcotest.(check bool)
            (Printf.sprintf "cold run (seed=%d cutoff=%.0f)" seed cutoff)
            true
            (Relation.equal_unordered first want);
          Alcotest.(check bool)
            (Printf.sprintf "cached run (seed=%d cutoff=%.0f)" seed cutoff)
            true
            (Relation.equal_unordered again want))
        [ 10.0; 50.0; 90.0 ];
      let st = M.cache_stats session in
      Alcotest.(check bool) "plans reused" true (st.M.plan_hits > 0);
      Alcotest.(check bool) "shipped results reused" true (st.M.result_hits > 0);
      Alcotest.(check bool) "connections reused" true (st.M.pool_hits > 0))
    [ 1; 2; 3 ]

(* a re-IMPORT changes what the planner knows (schema, cardinality), so a
   memoized plan keyed on the old dictionary version must not be served *)
let test_plan_cache_misses_after_import () =
  let parts, sales = gen_data ~seed:5 ~n_parts:30 ~n_sales:40 in
  let session, _ = make_fed ~parts ~sales () in
  let q = global_query ~cutoff:50.0 ~extra:"" in
  ignore (global_rows session q);
  ignore (global_rows session q);
  let st = M.cache_stats session in
  Alcotest.(check int) "repeat is a hit" 1 st.M.plan_hits;
  (* grow the store database behind the federation's back, then re-import:
     the recorded cardinality changes and the version epoch moves *)
  let store =
    (Option.get (Narada.Directory.find_opt (M.directory session) "store"))
      .Narada.Service.database
  in
  let store_sess = Ldbms.Session.connect store Caps.ingres_like in
  (match
     Ldbms.Session.exec_sql store_sess
       "INSERT INTO parts VALUES (999, 'extra', 1.0)"
   with
  | Ok _ -> ()
  | Error m -> Alcotest.fail (Ldbms.Session.error_to_string m));
  (match Ldbms.Session.commit store_sess with
  | Ok () -> ()
  | Error m -> Alcotest.fail (Ldbms.Session.error_to_string m));
  (match M.import_all session ~service:"store" with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  ignore (global_rows session q);
  let st' = M.cache_stats session in
  Alcotest.(check int) "import forces a re-plan" st.M.plan_hits st'.M.plan_hits;
  Alcotest.(check int) "exactly one miss" (st.M.plan_misses + 1)
    st'.M.plan_misses;
  ignore (global_rows session q);
  Alcotest.(check int) "the new plan is reused" (st.M.plan_hits + 1)
    (M.cache_stats session).M.plan_hits

(* a cached shipped result must not outlive the data it was shipped
   from, whoever writes it. The MOVE ships store's parts to market
   unreduced, so store is the source and market the destination. An
   update through the federation and an autonomous write by a local
   application at store must each re-ship; an autonomous write at market
   leaves the shipped text and store's data as they were, so the entry
   stays valid. After each write the cache-on rows equal the merged
   database's. *)
let test_result_cache_misses_after_update () =
  let parts, sales = gen_data ~seed:6 ~n_parts:60 ~n_sales:90 in
  let session, world = make_fed ~parts ~sales () in
  M.set_result_cache session true;
  let merged = merged_session ~parts ~sales in
  let commit_local sess sql =
    (match Ldbms.Session.exec_sql sess sql with
    | Ok _ -> ()
    | Error m -> Alcotest.fail (Ldbms.Session.error_to_string m));
    match Ldbms.Session.commit sess with
    | Ok () -> ()
    | Error m -> Alcotest.fail (Ldbms.Session.error_to_string m)
  in
  let q = global_query ~cutoff:50.0 ~extra:"" in
  let check msg ~served =
    let hits = (M.cache_stats session).M.result_hits in
    let got = global_rows session q in
    Alcotest.(check int) (msg ^ ": served from the cache")
      (if served then hits + 1 else hits)
      (M.cache_stats session).M.result_hits;
    let want = local_rows merged (local_query ~cutoff:50.0 ~extra:"") in
    Alcotest.(check bool) (msg ^ ": rows equal the merged database") true
      (Relation.equal_unordered got want);
    (* warm again, so the next write has an entry to make stale *)
    ignore (global_rows session q)
  in
  ignore (global_rows session q);
  Netsim.World.reset_stats world;
  ignore (global_rows session q);
  let st = M.cache_stats session in
  Alcotest.(check bool) "repeat served from cache" true (st.M.result_hits > 0);
  (* every part now costs nothing, so the < 50.0 filter keeps them all *)
  (match M.exec session "USE store UPDATE store.parts SET price = 0.0" with
  | Ok (M.Update_report { outcome = M.Success; _ }) -> ()
  | Ok r -> Alcotest.fail (M.result_to_string r)
  | Error m -> Alcotest.fail m);
  commit_local merged "UPDATE parts SET price = 0.0";
  check "federated update" ~served:false;
  let autonomous db sql =
    let database =
      (Option.get (Narada.Directory.find_opt (M.directory session) db))
        .Narada.Service.database
    in
    commit_local (Ldbms.Session.connect database Caps.ingres_like) sql;
    commit_local merged sql
  in
  autonomous "store" "UPDATE parts SET price = 75.0 WHERE pid < 30";
  check "autonomous write at the source" ~served:false;
  autonomous "market" "UPDATE sales SET qty = qty + 10 WHERE sid < 45";
  check "autonomous write at the destination" ~served:true

(* ---- hash-join planner vs filtered product --------------------------- *)

module A = Sqlfront.Ast

(* The executor takes its join edges from top-level [a = b] conjuncts
   only. The reference wraps each as [NOT (NOT (a = b))] — the same
   predicate under three-valued logic — so the planner finds no edge and
   the executor runs the filtered Cartesian product. *)
let product_form sql =
  let sel = Sqlfront.Parser.parse_select sql in
  let rec hide = function
    | A.Binop (A.And, a, b) -> A.Binop (A.And, hide a, hide b)
    | A.Binop (A.Eq, _, _) as e -> A.Unop (A.Not, A.Unop (A.Not, e))
    | e -> e
  in
  Sqlfront.Sql_pp.select_to_string
    { sel with A.where = Option.map hide sel.A.where }

(* the planner must reproduce the filtered product's exact multiset of
   rows — duplicates included. Row order is not part of the contract
   (ORDER BY is), and the greedy join ordering does permute it. *)
let check_planner_identical session sql =
  let fast = Relation.rows (local_rows session sql) in
  let slow = Relation.rows (local_rows session (product_form sql)) in
  Alcotest.(check int) (sql ^ ": cardinality") (List.length slow)
    (List.length fast);
  let sort = List.sort Row.compare in
  List.iter2
    (fun a b -> Alcotest.(check bool) (sql ^ ": rows") true (Row.equal a b))
    (sort slow) (sort fast)

(* the reference really is the product: its rows come out in exactly the
   order of the unfiltered product with the predicate applied row by row,
   while the planner, which starts its join from the smaller table, emits
   the same rows in another order *)
let test_reference_is_product () =
  let parts, sales = gen_data ~seed:11 ~n_parts:40 ~n_sales:60 in
  let session = merged_session ~parts ~sales in
  let sql = "SELECT * FROM sales s, parts p WHERE s.part_id = p.pid" in
  let rows q = Relation.rows (local_rows session q) in
  (* sales (sid, part_id, qty) ++ parts (pid, pname, price) *)
  let want =
    List.filter
      (fun r -> Value.compare (Row.get r 1) (Row.get r 3) = 0)
      (rows "SELECT * FROM sales s, parts p")
  in
  let reference = rows (product_form sql) in
  Alcotest.(check bool) "reference is the filtered product, in order" true
    (List.equal Row.equal want reference);
  Alcotest.(check bool) "planner emits another order" false
    (List.equal Row.equal reference (rows sql))

let planner_queries =
  [
    local_query ~cutoff:50.0 ~extra:"";
    local_query ~cutoff:90.0 ~extra:" AND s.qty > 5";
    (* three-way join: two equi-edges chain all leaves together *)
    "SELECT p.pid, q.pname, s.qty FROM sales s, parts p, parts q WHERE \
     s.part_id = p.pid AND p.pid = q.pid AND q.price < 50.0";
    (* join on a float column against an int column: numeric classes mix *)
    "SELECT s.sid FROM sales s, parts p WHERE s.part_id = p.price";
    (* no equi-conjunct at all: planner must fall back to the product *)
    "SELECT s.sid, p.pid FROM sales s, parts p WHERE s.part_id < p.pid";
  ]

let test_planner_matches_product () =
  List.iter
    (fun seed ->
      let parts, sales = gen_data ~seed ~n_parts:40 ~n_sales:60 in
      let session = merged_session ~parts ~sales in
      List.iter (check_planner_identical session) planner_queries)
    [ 11; 12; 13 ]

(* keys above 2^53: adjacent ints are indistinguishable once routed
   through a float, so the hash join's buckets must be built from exact
   keys or it joins rows the filtered product rejects *)
let test_planner_bigint_keys () =
  let big = 9007199254740992 (* 2^53 *) in
  let parts =
    [ [| i big; s "even"; f 1.0 |]; [| i (big + 1); s "odd"; f 2.0 |] ]
  in
  let sales =
    [ [| i 1; i big; i 3 |]; [| i 2; i (big + 1); i 4 |];
      [| i 3; i (big + 2); i 5 |] ]
  in
  let session = merged_session ~parts ~sales in
  check_planner_identical session
    "SELECT s.sid, p.pname FROM sales s, parts p WHERE s.part_id = p.pid"

(* same matrix with a declared index on the join column: a declared
   index is a catalog entry that no query reads, so the answers must not
   move *)
let test_inl_matches_product () =
  let parts, sales = gen_data ~seed:21 ~n_parts:40 ~n_sales:60 in
  let session = merged_session ~parts ~sales in
  (match Ldbms.Session.exec_sql session "CREATE INDEX by_pid ON parts (pid)" with
  | Ok _ -> ()
  | Error m -> Alcotest.fail (Ldbms.Session.error_to_string m));
  List.iter (check_planner_identical session) planner_queries

(* ---- index path vs hash path vs product ------------------------------ *)

(* A join into a larger base table probes its lookup map from the
   second join of a table version on, and hash-joins on the first (whose
   start leaf may differ, as only it filters the large leaf before
   ordering). Both must give the filtered product's multiset on any
   data: duplicate and
   NULL keys, 1 against 1.0, ints above 2^53 (next to the float they
   round to), and strings. A key column pair holds one class, so the
   product compares keys without a type error. *)
let num_keys =
  let big = 1 lsl 53 in
  [| Value.Null; i 1; f 1.0; i 2; f 2.5; i big; i (big + 1); f (float_of_int big) |]

let str_keys = [| Value.Null; s "a"; s "b"; s "A"; s "" |]

let access_queries =
  let join from = "SELECT a.id, b.id, b.v FROM " ^ from ^ " WHERE a.k = b.k" in
  [
    (fun _ -> join "small a, large b");
    (fun _ -> join "large b, small a");
    (fun cut -> Printf.sprintf "%s AND b.v < %d" (join "small a, large b") cut);
    (fun cut ->
      Printf.sprintf "%s AND a.id < 20 AND (b.v >= %d OR b.v IS NULL)"
        (join "large b, small a") cut);
  ]

let gen_access_case =
  QCheck.Gen.(
    let* strings = bool in
    let pool = if strings then str_keys else num_keys in
    let key = map (fun j -> pool.(j)) (int_bound (Array.length pool - 1)) in
    let* small = list_size (int_range 0 40) key in
    let* large = list_size (int_range 0 400) (pair key (int_bound 99)) in
    let* cut = int_bound 100 in
    let* q = int_bound (List.length access_queries - 1) in
    return (strings, small, large, cut, q))

let print_access_case (strings, small, large, cut, q) =
  Printf.sprintf "%s keys, %d against %d rows, query %d at %d"
    (if strings then "string" else "numeric")
    (List.length small) (List.length large) q cut

let prop_access_paths_agree =
  QCheck.Test.make ~name:"index path = hash path = product" ~count:200
    (QCheck.make ~print:print_access_case gen_access_case)
    (fun ((strings, small, large, cut, q) as case) ->
      let kty = if strings then Ty.Str else Ty.Int in
      let db = Ldbms.Database.create "paths" in
      Ldbms.Database.load db ~name:"small" [ col "id" Ty.Int; col "k" kty ]
        (List.mapi (fun n k -> [| i n; k |]) small);
      Ldbms.Database.load db ~name:"large"
        [ col "id" Ty.Int; col "k" (if strings then Ty.Str else Ty.Float); col "v" Ty.Int ]
        (List.mapi (fun n (k, v) -> [| i n; k; i v |]) large);
      let sql = (List.nth access_queries q) cut in
      let run sql = Relation.rows (Ldbms.Exec.run_select db (Sqlfront.Parser.parse_select sql)) in
      let reference = run (product_form sql) in
      let hashed = run sql in
      let probed = run sql in
      let sort = List.sort Row.compare in
      let same a b = List.equal Row.equal a b in
      let n_small = List.length small and n_large = List.length large in
      let larger = if n_large > n_small then Some "large" else if n_small > n_large then Some "small" else None in
      let probed_table =
        Option.fold ~none:true
          ~some:(fun t ->
            Ldbms.Table.lookup_built (Ldbms.Database.find_table db t) ~col:1)
          larger
      in
      if not (same (sort reference) (sort hashed)) then
        QCheck.Test.fail_reportf "%s: hash path differs from the product" (print_access_case case);
      if not (same (sort reference) (sort probed)) then
        QCheck.Test.fail_reportf "%s: index path differs from the product" (print_access_case case);
      if not probed_table then
        QCheck.Test.fail_reportf "%s: the second join did not probe" (print_access_case case);
      true)

let () =
  Alcotest.run "differential"
    [
      ( "global vs merged",
        [
          Alcotest.test_case "matrix" `Quick test_matrix;
          Alcotest.test_case "empty key set" `Quick test_empty_keyset;
          Alcotest.test_case "shipped float threshold" `Quick
            test_shipped_float_threshold;
          Alcotest.test_case "semijoin saves bytes" `Quick
            test_semijoin_saves_bytes;
          Alcotest.test_case "reduced plan matches single database" `Quick
            test_reduced_plan_matches_merged;
          Alcotest.test_case "raising local conjunct" `Quick
            test_raising_local_conjunct;
        ] );
      ( "FROM order",
        [
          Alcotest.test_case "two databases" `Quick test_from_order_two_databases;
          Alcotest.test_case "three databases" `Quick
            test_from_order_three_databases;
        ] );
      ( "session caches",
        [
          Alcotest.test_case "matrix, all layers on" `Quick
            test_matrix_all_layers;
          Alcotest.test_case "plan cache misses after import" `Quick
            test_plan_cache_misses_after_import;
          Alcotest.test_case "result cache misses after update" `Quick
            test_result_cache_misses_after_update;
        ] );
      ( "planner vs product",
        [
          Alcotest.test_case "hash join" `Quick test_planner_matches_product;
          Alcotest.test_case "keys above 2^53" `Quick test_planner_bigint_keys;
          Alcotest.test_case "index nested loop" `Quick test_inl_matches_product;
          Alcotest.test_case "reference is the product" `Quick
            test_reference_is_product;
        ] );
      ("access paths", List.map QCheck_alcotest.to_alcotest [ prop_access_paths_agree ]);
    ]
