(* Randomized differential fuzz of the compiled predicate closures
   against the interpreted Eval walker, and chunk-size invariance of the
   streamed MOVE path (results, traffic, metrics). *)
open Sqlcore
module M = Msql.Msession
module Trace = Narada.Trace
module Ast = Sqlfront.Ast
module Eval = Ldbms.Eval
module Compile = Ldbms.Compile

let col = Schema.column
let s x = Value.Str x
let i x = Value.Int x
let f x = Value.Float x
let big = (1 lsl 53) + 1

(* ---- differential fuzz: compiled closures vs the interpreter ----------- *)

let fuzz_schema =
  [
    col "n" Ty.Int;
    col "x" Ty.Float;
    col "t" Ty.Str;
    col "b" Ty.Bool;
    col "m" Ty.Int;
  ]

(* values skewed towards the traps: NULLs, ints above 2^53, negative
   zero-adjacent floats, empty strings *)
let gen_value rng j =
  match (j, Random.State.int rng 8) with
  | _, 0 -> Value.Null
  | 0, _ -> i (Random.State.int rng 20 - 10)
  | 1, _ -> f (float_of_int (Random.State.int rng 40 - 20) /. 4.)
  | 2, _ ->
      s
        (List.nth
           [ "alpha"; "beta"; "al"; ""; "gamma%" ]
           (Random.State.int rng 5))
  | 3, _ -> Value.Bool (Random.State.int rng 2 = 0)
  | _, 1 | _, 2 -> i (big + Random.State.int rng 3)
  | _, 3 | _, 4 -> f (float_of_int big)
  | _, _ -> i (Random.State.int rng 10)

let gen_row rng = Array.init 5 (fun j -> gen_value rng j)

let col_name j = List.nth [ "n"; "x"; "t"; "b"; "m" ] j

(* random predicates spanning the whole compile_row coverage: literals,
   columns, comparisons, arithmetic, Kleene connectives, IS NULL, LIKE,
   IN, BETWEEN — including ill-typed ones, whose Type_error must match *)
let rec gen_expr rng depth =
  let open Ast in
  let leaf () =
    if Random.State.bool rng then col (col_name (Random.State.int rng 5))
    else Lit (gen_value rng (Random.State.int rng 5))
  in
  if depth = 0 then leaf ()
  else
    match Random.State.int rng 12 with
    | 0 | 1 ->
        let op =
          List.nth [ Eq; Neq; Lt; Le; Gt; Ge ] (Random.State.int rng 6)
        in
        Binop (op, gen_expr rng (depth - 1), gen_expr rng (depth - 1))
    | 2 -> Binop (And, gen_expr rng (depth - 1), gen_expr rng (depth - 1))
    | 3 -> Binop (Or, gen_expr rng (depth - 1), gen_expr rng (depth - 1))
    | 4 -> Unop (Not, gen_expr rng (depth - 1))
    | 5 ->
        Is_null
          { arg = gen_expr rng (depth - 1); negated = Random.State.bool rng }
    | 6 ->
        Like
          {
            arg = gen_expr rng (depth - 1);
            pattern =
              List.nth [ "al%"; "%a"; "_eta"; "%"; "" ] (Random.State.int rng 5);
            negated = Random.State.bool rng;
          }
    | 7 ->
        In_list
          {
            arg = gen_expr rng (depth - 1);
            items = [ leaf (); leaf () ];
            negated = Random.State.bool rng;
          }
    | 8 ->
        Between
          {
            arg = gen_expr rng (depth - 1);
            lo = leaf ();
            hi = leaf ();
            negated = Random.State.bool rng;
          }
    | 9 ->
        let op = List.nth [ Add; Sub; Mul ] (Random.State.int rng 3) in
        Binop (op, gen_expr rng (depth - 1), gen_expr rng (depth - 1))
    | 10 -> Unop (Neg, gen_expr rng (depth - 1))
    | _ -> leaf ()

let ctx = { Eval.subquery = (fun _ _ -> failwith "no subqueries"); agg = None }

let outcome f = try Ok (f ()) with e -> Error (Printexc.to_string e)

let test_fuzz_compile_row () =
  let rng = Random.State.make [| 4177 |] in
  let compiled = ref 0 in
  for _ = 1 to 2000 do
    let e = gen_expr rng 3 in
    match Compile.compile_row fuzz_schema e with
    | None -> ()
    | Some closure ->
        incr compiled;
        for _ = 1 to 5 do
          let row = gen_row rng in
          let want =
            outcome (fun () -> Eval.eval ctx (Eval.env fuzz_schema row) e)
          in
          let got = outcome (fun () -> closure row) in
          if want <> got then
            Alcotest.failf "compiled row closure diverges on %s: %s vs %s"
              (match want with Ok v -> Value.to_string v | Error m -> m)
              (match got with Ok v -> Value.to_string v | Error m -> m)
              "interpreter"
        done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "fuzz exercised the compiler (%d compiled)" !compiled)
    true
    (!compiled > 300)

(* literal IN lists compile to a hashed membership test: fuzz it against
   the interpreter with lists of 0-40 constants, single-class and mixed,
   drawn from a pool of numeric traps (ints around 2^53 next to the
   integral double 2^53, -0.0, NaN, infinities), strings, booleans and
   NULLs; needles come from the same pool or from a column, and negative
   numbers sometimes appear as [Neg] of a literal, as they reparse *)
let in_pool =
  [|
    i 0; i 1; i (-1); i 7; i (big - 2); i (big - 1); i big; i (big + 1);
    i max_int; i min_int; f 0.; f (-0.); f 1.; f 7.; f 0.5; f (-2.5);
    f (float_of_int (big - 1)); f Float.nan; f Float.infinity;
    f Float.neg_infinity; f 0x1p62; f (-0x1p62); s ""; s "alpha"; s "7";
    Value.Bool true; Value.Bool false; Value.Null;
  |]

let numeric_pool =
  Array.of_list
    (List.filter
       (function Value.Int _ | Value.Float _ -> true | _ -> false)
       (Array.to_list in_pool))

let gen_in_item rng pool =
  let v = pool.(Random.State.int rng (Array.length pool)) in
  let v = if Random.State.int rng 6 = 0 then Value.Null else v in
  match v with
  | Value.Int n when n < 0 && Random.State.bool rng ->
      Ast.Unop (Ast.Neg, Ast.Lit (i (-n)))
  | Value.Float x when x < 0. && Random.State.bool rng ->
      Ast.Unop (Ast.Neg, Ast.Lit (f (-.x)))
  | v -> Ast.Lit v

let test_fuzz_in_literal_lists () =
  let rng = Random.State.make [| 2071 |] in
  let single_class = ref 0 in
  for _ = 1 to 3000 do
    let len = Random.State.int rng 41 in
    let pool =
      match Random.State.int rng 5 with
      | 0 -> numeric_pool
      | 1 -> [| s ""; s "alpha"; s "7"; s "beta" |]
      | 2 -> [| Value.Bool true; Value.Bool false |]
      | _ -> in_pool
    in
    let items = List.init len (fun _ -> gen_in_item rng pool) in
    if pool != in_pool then incr single_class;
    let arg =
      if Random.State.bool rng then
        Ast.Lit in_pool.(Random.State.int rng (Array.length in_pool))
      else Ast.col (col_name (Random.State.int rng 5))
    in
    let e = Ast.In_list { arg; items; negated = Random.State.bool rng } in
    match Compile.compile_row fuzz_schema e with
    | None -> Alcotest.fail "a literal IN list must compile"
    | Some closure ->
        for _ = 1 to 4 do
          let row = gen_row rng in
          let want =
            outcome (fun () -> Eval.eval ctx (Eval.env fuzz_schema row) e)
          in
          let got = outcome (fun () -> closure row) in
          if want <> got then
            Alcotest.failf "hashed IN diverges on %s: interpreter %s, compiled %s"
              (Sqlfront.Sql_pp.expr_to_string e)
              (match want with Ok v -> Value.to_string v | Error m -> m)
              (match got with Ok v -> Value.to_string v | Error m -> m)
        done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "fuzz drew single-class lists (%d)" !single_class)
    true (!single_class > 1000)

(* Complexity guard for the semijoin-reduced MOVE's filter: a 250-literal
   IN list over 8,000 rows must cost O(1) allocation per row, compile
   included. The linear scan allocated about five words per row and item
   (1,250 per row here). *)
let test_in_list_allocation_bound () =
  let db = Ldbms.Database.create "guard" in
  Ldbms.Database.load db ~name:"catalogue"
    [ col "k" Ty.Int; col "tag" Ty.Str ]
    (List.init 8000 (fun k -> [| i k; s "x" |]));
  let keys = List.init 250 (fun j -> string_of_int (j * 32)) in
  let sel =
    Sqlfront.Parser.parse_select
      ("SELECT k FROM catalogue WHERE k IN (" ^ String.concat ", " keys ^ ")")
  in
  let w0 = Gc.minor_words () in
  let r = Ldbms.Exec.run_select db sel in
  let per_row = (Gc.minor_words () -. w0) /. 8000. in
  Alcotest.(check int) "every key found" 250 (Relation.cardinality r);
  if per_row >= 100. then
    Alcotest.failf "IN-list filter allocates %.0f words per input row" per_row

(* ---- chunk-size invariance of the full pipeline ------------------------ *)

(* same three-database federation as test_observability: a global join
   whose plan ships two MOVEs *)
let sales_schema = [ col "sid" Ty.Int; col "part_id" Ty.Int; col "qty" Ty.Int ]

let parts_schema =
  [ col "pid" Ty.Int; col ~width:16 "pname" Ty.Str; col "price" Ty.Float ]

let stock_schema = [ col "spid" Ty.Int; col ~width:16 "wh" Ty.Str ]

let make_fed3 () =
  let world = Netsim.World.create () in
  let directory = Narada.Directory.create () in
  let session = M.create ~world ~directory () in
  let sales = List.init 10 (fun k -> [| i k; i (k mod 5); i (k + 1) |]) in
  let parts =
    List.init 200 (fun k -> [| i k; s (Printf.sprintf "part%d" k); f 9.5 |])
  in
  let stock =
    List.init 150 (fun k -> [| i (k mod 50); s (Printf.sprintf "wh%d" k) |])
  in
  List.iter
    (fun (name, site, tname, schema, rows) ->
      Netsim.World.add_site world (Netsim.Site.make site);
      let db = Ldbms.Database.create name in
      Ldbms.Database.load db ~name:tname schema rows;
      Narada.Directory.register directory
        (Narada.Service.make ~site ~caps:Ldbms.Capabilities.ingres_like db);
      (match M.incorporate_auto session ~service:name with
      | Ok () -> ()
      | Error m -> failwith m);
      match M.import_all session ~service:name with
      | Ok () -> ()
      | Error m -> failwith m)
    [
      ("market", "msite", "sales", sales_schema, sales);
      ("store", "ssite", "parts", parts_schema, parts);
      ("depot", "dsite", "stock", stock_schema, stock);
    ];
  (session, world)

let join3 =
  "USE market store depot SELECT s.sid, p.pname, st.wh FROM market.sales s, \
   store.parts p, depot.stock st WHERE s.part_id = p.pid AND s.part_id = \
   st.spid"

type run_record = {
  rr_result : string;
  rr_messages : int;
  rr_bytes : int;
  rr_ms : float;
  rr_moved : (int * int) list;  (* Moved (rows, bytes), in order *)
  rr_chunks : Trace.kind list;
}

let run_at_chunk_size chunk_rows =
  Narada.Lam.set_move_streaming ~chunk_rows ~window:4 ();
  let session, world = make_fed3 () in
  let moved = ref [] and chunks = ref [] in
  M.set_typed_trace session
    (Some
       (fun e ->
         match e.Trace.kind with
         | Trace.Moved { rows; bytes; _ } -> moved := (rows, bytes) :: !moved
         | Trace.Chunk _ as k -> chunks := k :: !chunks
         | _ -> ()));
  let result =
    match M.exec session join3 with
    | Ok r -> M.result_to_string r
    | Error m -> failwith m
  in
  let st = Netsim.World.stats world in
  {
    rr_result = result;
    rr_messages = st.Netsim.World.messages;
    rr_bytes = st.Netsim.World.bytes_moved;
    rr_ms = Netsim.World.now_ms world;
    rr_moved = List.rev !moved;
    rr_chunks = List.rev !chunks;
  }

let test_chunk_size_invariance () =
  Fun.protect ~finally:(fun () -> Narada.Lam.set_move_streaming ~chunk_rows:512 ~window:4 ())
  @@ fun () ->
  let base = run_at_chunk_size 0 (* monolithic legacy path *) in
  Alcotest.(check bool) "baseline shipped something" true (base.rr_bytes > 0);
  Alcotest.(check int) "monolithic run has no chunk events" 0
    (List.length base.rr_chunks);
  List.iter
    (fun chunk_rows ->
      let r = run_at_chunk_size chunk_rows in
      let tag fmt = Printf.sprintf fmt chunk_rows in
      Alcotest.(check string) (tag "results equal at chunk size %d")
        base.rr_result r.rr_result;
      Alcotest.(check int) (tag "messages equal at chunk size %d")
        base.rr_messages r.rr_messages;
      Alcotest.(check int) (tag "bytes equal at chunk size %d") base.rr_bytes
        r.rr_bytes;
      Alcotest.(check (float 0.0)) (tag "virtual time equal at chunk size %d")
        base.rr_ms r.rr_ms;
      Alcotest.(check bool) (tag "Moved events equal at chunk size %d") true
        (base.rr_moved = r.rr_moved);
      (* every streamed MOVE's installments: seq 1..total, rows summing to
         the Moved row count (chunk bytes also carry protocol overhead,
         so they are not compared to the payload figure) *)
      let by_move = Hashtbl.create 4 in
      List.iter
        (function
          | Trace.Chunk { mname; seq; total; rows; window; _ } ->
              Alcotest.(check int) (tag "window recorded at chunk size %d") 4
                window;
              let seqs, rowsum =
                Option.value ~default:([], 0) (Hashtbl.find_opt by_move mname)
              in
              Alcotest.(check bool) (tag "seq within total at %d") true
                (seq >= 1 && seq <= total);
              Hashtbl.replace by_move mname (seq :: seqs, rowsum + rows)
          | _ -> ())
        r.rr_chunks;
      Alcotest.(check bool) (tag "chunked runs emit chunk events at %d") true
        (Hashtbl.length by_move > 0);
      Hashtbl.iter
        (fun _ (seqs, _) ->
          let sorted = List.sort compare seqs in
          Alcotest.(check bool) (tag "contiguous stream at chunk size %d")
            true
            (sorted = List.init (List.length sorted) (fun k -> k + 1)))
        by_move;
      (* at one row per chunk, each shipped relation streams row-count
         installments: the per-move row sums match the Moved totals *)
      if chunk_rows = 1 then
        List.iter
          (fun (rows, _) ->
            Alcotest.(check bool) "a move streamed its rows one per chunk"
              true
              (Hashtbl.fold
                 (fun _ (_, rowsum) acc -> acc || rowsum = rows)
                 by_move false))
          r.rr_moved)
    [ 1; 7; 4096 ]

(* the metrics JSON document is byte-identical across chunk sizes: Chunk
   events have no metric dimension and Moved carries the totals *)
let test_chunk_size_invariant_metrics () =
  Fun.protect ~finally:(fun () -> Narada.Lam.set_move_streaming ~chunk_rows:512 ~window:4 ())
  @@ fun () ->
  let metrics_at chunk_rows =
    Narada.Lam.set_move_streaming ~chunk_rows ~window:4 ();
    let session, _world = make_fed3 () in
    (match M.exec session join3 with
    | Ok _ -> ()
    | Error m -> failwith m);
    M.metrics_json session
  in
  let base = metrics_at 0 in
  List.iter
    (fun chunk_rows ->
      Alcotest.(check string)
        (Printf.sprintf "metrics JSON identical at chunk size %d" chunk_rows)
        base (metrics_at chunk_rows))
    [ 1; 7; 4096 ]

(* ---- semijoin reduction is reported only when applied ------------------ *)

let transfer_with_probe query =
  let world = Netsim.World.create () in
  let service name site table schema rows =
    Netsim.World.add_site world (Netsim.Site.make site);
    let db = Ldbms.Database.create name in
    Ldbms.Database.load db ~name:table schema rows;
    Narada.Lam.connect_exn world
      (Narada.Service.make ~site ~caps:Ldbms.Capabilities.ingres_like db)
  in
  let src =
    service "store" "ssite" "parts" parts_schema
      (List.init 20 (fun k -> [| i k; s (Printf.sprintf "part%d" k); f 1.5 |]))
  in
  let dst =
    service "market" "msite" "sales" sales_schema
      (List.init 3 (fun k -> [| i k; i (k * 5); i 1 |]))
  in
  match
    Narada.Lam.transfer ~on_chunk:None ~cache:None
      ~reduce:(Some ("pid", "SELECT DISTINCT part_id FROM sales"))
      ~src ~dst ~query ~dest_table:"moved"
  with
  | Ok st -> st
  | Error fl -> Alcotest.fail (Narada.Lam.failure_message fl)

let test_reduced_only_when_applied () =
  let bare = transfer_with_probe "SELECT pid, pname FROM parts" in
  Alcotest.(check bool) "bare SELECT is reduced" true bare.Narada.Lam.reduced;
  Alcotest.(check int) "only the probed keys ship" 3 bare.Narada.Lam.moved_rows;
  (* the rewrite parses a bare SELECT; a trailing ';' (which the source
     accepts) makes it ship the query unrestricted *)
  let terminated = transfer_with_probe "SELECT pid, pname FROM parts;" in
  Alcotest.(check int) "terminated query ships every row" 20
    terminated.Narada.Lam.moved_rows;
  Alcotest.(check bool) "and is not reported as reduced" false
    terminated.Narada.Lam.reduced

let () =
  Alcotest.run "compile"
    [
      ( "differential",
        [
          Alcotest.test_case "compiled row closures vs interpreter" `Quick
            test_fuzz_compile_row;
          Alcotest.test_case "hashed IN lists vs interpreter" `Quick
            test_fuzz_in_literal_lists;
          Alcotest.test_case "IN-list allocation per row" `Quick
            test_in_list_allocation_bound;
        ] );
      ( "semijoin",
        [
          Alcotest.test_case "reduced only when applied" `Quick
            test_reduced_only_when_applied;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "chunk-size invariance" `Quick
            test_chunk_size_invariance;
          Alcotest.test_case "metrics JSON invariant" `Quick
            test_chunk_size_invariant_metrics;
        ] );
    ]
