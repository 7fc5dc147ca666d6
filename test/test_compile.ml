(* Randomized differential fuzz of the compiled predicate closures
   against the interpreted Eval walker, and the fixed-size chunking and
   accounting of a streamed MOVE. *)
open Sqlcore
module Ast = Sqlfront.Ast
module Lam = Narada.Lam
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

(* ---- MOVE chunk streaming ----------------------------------------------- *)

let sales_schema = [ col "sid" Ty.Int; col "part_id" Ty.Int; col "qty" Ty.Int ]

let parts_schema =
  [ col "pid" Ty.Int; col ~width:16 "pname" Ty.Str; col "price" Ty.Float ]

let lam_service world name site table schema rows =
  Netsim.World.add_site world (Netsim.Site.make site);
  let db = Ldbms.Database.create name in
  Ldbms.Database.load db ~name:table schema rows;
  ( db,
    Lam.connect_exn world
      (Narada.Service.make ~site ~caps:Ldbms.Capabilities.ingres_like db) )

(* 1,300 rows stream as 512 + 512 + 276 under a window of 4, and the
   stream is charged as one message of the relation plus the ack *)
let test_move_streams_fixed_chunks () =
  let world = Netsim.World.create () in
  let n = 1300 in
  let src_db, src =
    lam_service world "store" "ssite" "parts" parts_schema
      (List.init n (fun k -> [| i k; s (Printf.sprintf "part%d" k); f 1.5 |]))
  in
  let _, dst = lam_service world "market" "msite" "sales" sales_schema [] in
  let query = "SELECT pid, pname, price FROM parts" in
  let shipped =
    Ldbms.Exec.run_select src_db (Sqlfront.Parser.parse_select query)
  in
  Netsim.World.reset_stats world;
  let notes = ref [] in
  let st =
    match
      Lam.transfer
        ~on_chunk:(Some (fun c -> notes := c :: !notes))
        ~cache:None ~reduce:None ~src ~dst ~query ~dest_table:"moved"
    with
    | Ok st -> st
    | Error fl -> Alcotest.fail (Lam.failure_message fl)
  in
  let notes = List.rev !notes in
  let total = List.length notes in
  Alcotest.(check int) "moved every row" n st.Lam.moved_rows;
  Alcotest.(check bool) "at least three chunks" true (total >= 3);
  List.iteri
    (fun k c ->
      Alcotest.(check int) "contiguous sequence" (k + 1) c.Lam.ck_seq;
      Alcotest.(check int) "stream length" total c.Lam.ck_total;
      Alcotest.(check int) "window" 4 c.Lam.ck_window;
      if k + 1 < total then Alcotest.(check int) "full chunk" 512 c.Lam.ck_rows)
    notes;
  Alcotest.(check int) "chunk rows sum to the moved rows" st.Lam.moved_rows
    (List.fold_left (fun a c -> a + c.Lam.ck_rows) 0 notes);
  let at_dst = List.assoc (Lam.site dst) (Netsim.World.per_site world) in
  Alcotest.(check int) "one data message" 1 at_dst.Netsim.World.recv_msgs;
  Alcotest.(check int) "relation plus ack"
    (Relation.size_bytes shipped + Lam.ack_bytes)
    at_dst.Netsim.World.recv_bytes

(* ---- semijoin reduction is reported only when applied ------------------ *)

let transfer_with_probe query =
  let world = Netsim.World.create () in
  let _, src =
    lam_service world "store" "ssite" "parts" parts_schema
      (List.init 20 (fun k -> [| i k; s (Printf.sprintf "part%d" k); f 1.5 |]))
  in
  let _, dst =
    lam_service world "market" "msite" "sales" sales_schema
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
          Alcotest.test_case "MOVE streams fixed-size chunks" `Quick
            test_move_streams_fixed_chunks;
        ] );
    ]
