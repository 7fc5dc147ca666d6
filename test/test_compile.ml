(* Randomized differential fuzz of the compiled expression closures
   against the reference interpreter in [Ref_eval], and the accounting of
   a MOVE's data message. *)
open Sqlcore
module Ast = Sqlfront.Ast
module Lam = Narada.Lam
module Compile = Ldbms.Compile

let col = Schema.column
let s x = Value.Str x
let i x = Value.Int x
let f x = Value.Float x
let big = (1 lsl 53) + 1

(* ---- differential fuzz: compiled closures vs the reference ------------- *)

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

(* Two enclosing rows: [o.n] is shadowed by the local [n] unless
   qualified, [k] exists only in the first, [a] is ambiguous there, and
   [z] lives only in the second. *)
let enclosing rng =
  let second =
    Ref_eval.env
      (Schema.requalify (Some "q") [ col "z" Ty.Str ])
      [| gen_value rng 2 |]
  in
  Ref_eval.env ~outer:second
    (Schema.requalify (Some "o") [ col "n" Ty.Int; col "k" Ty.Int; col "a" Ty.Int ]
    @ Schema.requalify (Some "p") [ col "a" Ty.Int ])
    [| gen_value rng 0; gen_value rng 4; gen_value rng 0; gen_value rng 4 |]

let outer_ref rng =
  match Random.State.int rng 6 with
  | 0 -> Ast.col "k"
  | 1 -> Ast.Col { qualifier = Some "o"; name = "n" }
  | 2 -> Ast.col "a"
  | 3 -> Ast.col "z"
  | 4 -> Ast.Col { qualifier = Some "p"; name = "a" }
  | _ -> Ast.col "nosuch"

(* The stubbed subquery callback answers by table name, so its result
   depends on the environment it is handed: [cur] returns the current
   row's first field, [enc] the enclosing row's. *)
let subquery_tables = [ "none"; "cur"; "enc"; "two"; "wide" ]

let subqueries =
  List.map
    (fun t -> (t, Sqlfront.Parser.parse_select ("SELECT v FROM " ^ t)))
    subquery_tables

let stub_subquery (env : Ref_eval.env) (q : Ast.select) =
  let one = [ col "v" Ty.Int ] in
  match (List.hd q.Ast.from).Ast.table with
  | "none" -> Relation.make one []
  | "cur" -> Relation.make one [ [| Row.get env.row 0 |] ]
  | "enc" ->
      Relation.make one
        [ [| (match env.outer with Some o -> Row.get o.row 0 | None -> Value.Null) |] ]
  | "two" -> Relation.make one [ [| i 1 |]; [| Value.Null |] ]
  | _ -> Relation.make (one @ one) [ [| i 1; i 2 |] ]

let gen_subquery rng =
  snd (List.nth subqueries (Random.State.int rng (List.length subqueries)))

(* random expressions spanning every node kind: literals, local and
   enclosing columns (shadowed, qualified, ambiguous, unknown),
   comparisons, arithmetic, Kleene connectives, IS NULL, LIKE, IN,
   BETWEEN, subqueries of every shape, and aggregates — including
   ill-typed ones, whose errors must match *)
let rec gen_expr rng depth =
  let open Ast in
  let leaf () =
    match Random.State.int rng 6 with
    | 0 | 1 -> col (col_name (Random.State.int rng 5))
    | 2 -> outer_ref rng
    | _ -> Lit (gen_value rng (Random.State.int rng 5))
  in
  if depth = 0 then leaf ()
  else
    match Random.State.int rng 16 with
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
    | 11 -> Scalar_subquery (gen_subquery rng)
    | 12 ->
        In_subquery
          {
            arg = gen_expr rng (depth - 1);
            query = gen_subquery rng;
            negated = Random.State.bool rng;
          }
    | 13 -> Exists (gen_subquery rng)
    | 14 ->
        let fn =
          List.nth [ Count_star; Count; Sum; Avg; Min; Max ] (Random.State.int rng 6)
        in
        let arg =
          if fn = Count_star || Random.State.int rng 8 = 0 then None
          else Some (gen_expr rng (depth - 1))
        in
        Agg { fn; distinct = Random.State.bool rng; arg }
    | _ -> leaf ()

let outcome f = try Ok (f ()) with e -> Error (Printexc.to_string e)

let show = function Ok v -> Value.to_string v | Error m -> m

(* Compile under a random context (no enclosing row, or the two above; no
   group, or a group of 0-3 random rows per evaluation), then compare the
   closure with the reference on five rows. *)
let test_fuzz_compile () =
  let rng = Random.State.make [| 4177 |] in
  let seen = Hashtbl.create 64 in
  let values = ref 0 in
  for _ = 1 to 3000 do
    let e = gen_expr rng 3 in
    let outer = if Random.State.bool rng then Some (enclosing rng) else None in
    let cell = if Random.State.bool rng then Some (ref []) else None in
    let closure =
      Compile.compile { Compile.outer; subquery = stub_subquery; group = cell }
        fuzz_schema e
    in
    for _ = 1 to 5 do
      let row = gen_row rng in
      let group =
        Option.map
          (fun cell ->
            cell := List.init (Random.State.int rng 4) (fun _ -> gen_row rng);
            !cell)
          cell
      in
      let want =
        outcome (fun () ->
            Ref_eval.eval
              { Ref_eval.subquery = stub_subquery; group }
              (Ref_eval.env ?outer fuzz_schema row)
              e)
      in
      let got = outcome (fun () -> closure row) in
      if compare want got <> 0 then
        Alcotest.failf "compiled closure diverges on %s: reference %s, compiled %s"
          (Sqlfront.Sql_pp.expr_to_string e) (show want) (show got);
      match want with
      | Ok _ -> incr values
      | Error m -> Hashtbl.replace seen m ()
    done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "fuzz computed values (%d)" !values)
    true (!values > 3000);
  (* the fuzz reached every error the compiler can raise on its own *)
  List.iter
    (fun m ->
      if not (Hashtbl.mem seen m) then Alcotest.failf "fuzz never raised %s" m)
    [
      "Ldbms.Eval.Unknown_column(\"nosuch\")";
      "Ldbms.Eval.Ambiguous_column(\"a\")";
      "Ldbms.Eval.Type_error(\"aggregate used outside an aggregate query\")";
      "Ldbms.Eval.Type_error(\"aggregate function needs an argument\")";
      "Ldbms.Eval.Type_error(\"scalar subquery returned more than one row\")";
      "Ldbms.Eval.Type_error(\"scalar subquery must return one column\")";
      "Ldbms.Eval.Type_error(\"IN subquery must return one column\")";
    ]

(* literal IN lists compile to a hashed membership test: fuzz it against
   the reference with lists of 0-40 constants, single-class and mixed,
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

let plain = { Compile.outer = None; subquery = stub_subquery; group = None }

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
    let closure = Compile.compile plain fuzz_schema e in
    for _ = 1 to 4 do
      let row = gen_row rng in
      let want =
        outcome (fun () ->
            Ref_eval.eval Ref_eval.plain (Ref_eval.env fuzz_schema row) e)
      in
      let got = outcome (fun () -> closure row) in
      if compare want got <> 0 then
        Alcotest.failf "hashed IN diverges on %s: reference %s, compiled %s"
          (Sqlfront.Sql_pp.expr_to_string e) (show want) (show got)
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

(* ---- a MOVE is one message ---------------------------------------------- *)

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

(* a 1,300-row transfer is charged as one message of the relation plus
   the ack *)
let test_move_is_one_message () =
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
  let st =
    match
      Lam.transfer ~cache:None ~reduce:None ~src ~dst ~query
        ~dest_table:"moved"
    with
    | Ok st -> st
    | Error fl -> Alcotest.fail (Lam.failure_message fl)
  in
  Alcotest.(check int) "moved every row" n st.Lam.moved_rows;
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
    Narada.Lam.transfer ~cache:None
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
            test_fuzz_compile;
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
      ( "move",
        [
          Alcotest.test_case "a MOVE is one message" `Quick
            test_move_is_one_message;
        ] );
    ]
