open Sqlcore

let value = Alcotest.testable Value.pp Value.equal

(* ---- Value ---------------------------------------------------------- *)

let test_value_compare () =
  Alcotest.(check bool) "null lowest" true (Value.compare Value.Null (Value.Int (-1)) < 0);
  Alcotest.(check bool) "int vs float" true (Value.compare (Value.Int 2) (Value.Float 2.5) < 0);
  Alcotest.(check bool) "float vs int eq" true (Value.compare (Value.Float 2.0) (Value.Int 2) = 0);
  Alcotest.(check bool) "strings" true (Value.compare (Value.Str "a") (Value.Str "b") < 0);
  Alcotest.(check bool) "numbers before strings" true
    (Value.compare (Value.Int 999) (Value.Str "0") < 0)

let test_value_equal () =
  (* equal must agree with compare, in both directions: a mixed Int/Float
     pair that compares 0 is equal *)
  Alcotest.(check bool) "int = float" true
    (Value.equal (Value.Int 1) (Value.Float 1.0));
  Alcotest.(check bool) "float = int" true
    (Value.equal (Value.Float 1.0) (Value.Int 1));
  Alcotest.(check bool) "int <> float" false
    (Value.equal (Value.Int 1) (Value.Float 1.5));
  Alcotest.(check bool) "float <> int" false
    (Value.equal (Value.Float 1.5) (Value.Int 1));
  Alcotest.(check bool) "same string" true (Value.equal (Value.Str "x") (Value.Str "x"));
  Alcotest.(check bool) "null eq null" true (Value.equal Value.Null Value.Null)

let test_value_compare_exact_bigint () =
  (* the cross-type comparison must not round the int to a double: above
     2^53 adjacent ints share a float image but stay distinct values *)
  let big = 9007199254740992 (* 2^53 *) in
  Alcotest.(check bool) "int = its float image" true
    (Value.compare (Value.Int big) (Value.Float 9007199254740992.0) = 0);
  Alcotest.(check bool) "2^53+1 above Float 2^53" true
    (Value.compare (Value.Int (big + 1)) (Value.Float 9007199254740992.0) > 0);
  Alcotest.(check bool) "Float 2^53 below 2^53+1" true
    (Value.compare (Value.Float 9007199254740992.0) (Value.Int (big + 1)) < 0);
  Alcotest.(check bool) "adjacent ints distinct" true
    (Value.compare (Value.Int big) (Value.Int (big + 1)) < 0);
  (* fractions and extremes *)
  Alcotest.(check bool) "int below its successor's fraction" true
    (Value.compare (Value.Int 2) (Value.Float 2.5) < 0);
  Alcotest.(check bool) "negative fraction" true
    (Value.compare (Value.Int (-3)) (Value.Float (-2.5)) < 0);
  Alcotest.(check bool) "huge float above max_int" true
    (Value.compare (Value.Int max_int) (Value.Float 1e19) < 0);
  Alcotest.(check bool) "huge negative float below min_int" true
    (Value.compare (Value.Int min_int) (Value.Float (-1e19)) > 0)

let test_hash_join_exact_bigint_keys () =
  (* regression: keys routed through string_of_float merge adjacent ints
     above 2^53 into one bucket, joining rows whose values differ *)
  let big = 9007199254740992 (* 2^53 *) in
  let mk name vals =
    Relation.make
      [ Schema.column name Ty.Int ]
      (List.map (fun n -> [| Value.Int n |]) vals)
  in
  let a = mk "x" [ big; big + 1 ] and b = mk "y" [ big; big + 1; big + 2 ] in
  let joined = Relation.hash_join a b ~keys:[ (0, 0) ] in
  Alcotest.(check int) "only exact matches join" 2
    (Relation.cardinality joined);
  List.iter
    (fun row -> Alcotest.check value "key columns agree" row.(0) row.(1))
    (Relation.rows joined);
  (* Int and integral Float still share a key across the type boundary *)
  let c =
    Relation.make
      [ Schema.column "z" Ty.Float ]
      [ [| Value.Float 9007199254740992.0 |] ]
  in
  Alcotest.(check int) "int matches its exact float image" 1
    (Relation.cardinality (Relation.hash_join a c ~keys:[ (0, 0) ]))

let test_equal_unordered_mixed () =
  (* Int/Float mixed multisets: sorting by compare interleaves the two
     classes, and equal agrees with the sort order, so numerically equal
     multisets match regardless of representation *)
  let open Value in
  let schema = [ Schema.column "x" Ty.Float ] in
  let a = Relation.make schema [ [| Int 1 |]; [| Float 2.0 |] ] in
  let b = Relation.make schema [ [| Float 1.0 |]; [| Int 2 |] ] in
  Alcotest.(check bool) "mixed multisets equal" true (Relation.equal_unordered a b);
  Alcotest.(check bool) "mixed multisets equal (flipped)" true
    (Relation.equal_unordered b a);
  let c = Relation.make schema [ [| Float 1.5 |]; [| Int 2 |] ] in
  Alcotest.(check bool) "distinct multisets differ" false
    (Relation.equal_unordered a c)

let test_value_literal_roundtrip () =
  let cases =
    [ Value.Null; Value.Int 42; Value.Int (-7); Value.Float 1.5; Value.Str "hello";
      Value.Str "it's"; Value.Str ""; Value.Bool true; Value.Bool false ]
  in
  List.iter
    (fun v ->
      Alcotest.check value "roundtrip" v (Value.of_literal_exn (Value.to_literal v)))
    cases

(* to_literal is what shipped SQL carries: six significant digits would
   send [price < 0.1234567] to a remote site as [price < 0.123457] *)
let test_value_float_literal () =
  let lit f = Value.to_literal (Value.Float f) in
  Alcotest.(check string) "seven digits kept" "0.1234567" (lit 0.1234567);
  Alcotest.(check string) "integral keeps its point" "45.0" (lit 45.0);
  Alcotest.(check string) "negative" "-2.5" (lit (-2.5));
  Alcotest.(check string) "exponent form" "1e+15" (lit 1e15);
  Alcotest.(check string) "16 digits when 15 do not read back"
    "1000000000000001.0" (lit (1e15 +. 1.));
  Alcotest.(check string) "17 digits when 16 do not read back"
    "0.30000000000000004" (lit (0.1 +. 0.2));
  (* the display form is unchanged *)
  Alcotest.(check string) "display still %g" "0.123457"
    (Value.to_string (Value.Float 0.1234567))

(* grouping keys: equal iff Value.equal *)
let test_value_key () =
  let open Value in
  let same a b = String.equal (key a) (key b) in
  Alcotest.(check bool) "int = integral float" true (same (Int 5) (Float 5.0));
  Alcotest.(check bool) "floats past the sixth digit" false
    (same (Float 0.1234561) (Float 0.1234562));
  Alcotest.(check bool) "1e15 vs 1e15+1" false
    (same (Float 1e15) (Float (1e15 +. 1.)));
  Alcotest.(check bool) "ints above 2^53" false
    (same (Int (1 lsl 53)) (Int ((1 lsl 53) + 1)));
  Alcotest.(check bool) "NULL has its own key" false (same Null (Str "z"));
  Alcotest.(check bool) "string vs number" false (same (Str "n1") (Int 1));
  Alcotest.(check bool) "NUL bytes cannot forge a composite key" false
    (String.equal (row_key [ Str "a\000sb"; Str "c" ]) (row_key [ Str "a"; Str "b\000sc" ]));
  let tbl = Tbl.create 4 in
  Tbl.add tbl (Int 5) "five";
  Tbl.add tbl (Int (1 lsl 53)) "2^53";
  Alcotest.(check (list string)) "Tbl: 5.0 finds Int 5" [ "five" ]
    (Tbl.find_all tbl (Float 5.0));
  Alcotest.(check (list string)) "Tbl: 2^53 + 1 stays apart" []
    (Tbl.find_all tbl (Int ((1 lsl 53) + 1)))

let test_value_to_string () =
  Alcotest.(check string) "null" "NULL" (Value.to_string Value.Null);
  Alcotest.(check string) "float int-valued" "45.0" (Value.to_string (Value.Float 45.0));
  Alcotest.(check string) "string unquoted" "abc" (Value.to_string (Value.Str "abc"));
  Alcotest.(check string) "literal quoted" "'it''s'" (Value.to_literal (Value.Str "it's"))

let test_value_size () =
  Alcotest.(check int) "str size" 5 (Value.size_bytes (Value.Str "hello"));
  Alcotest.(check int) "int size" 8 (Value.size_bytes (Value.Int 3))

(* ---- Ty -------------------------------------------------------------- *)

let test_ty_of_string () =
  Alcotest.(check bool) "int" true (Ty.of_string "integer" = Some Ty.Int);
  Alcotest.(check bool) "varchar" true (Ty.of_string "VARCHAR" = Some Ty.Str);
  Alcotest.(check bool) "date is str" true (Ty.of_string "DATE" = Some Ty.Str);
  Alcotest.(check bool) "unknown" true (Ty.of_string "blob" = None)

(* ---- Names ------------------------------------------------------------ *)

let test_names () =
  Alcotest.(check bool) "equal ci" true (Names.equal "Cars" "CARS");
  Alcotest.(check bool) "mem ci" true (Names.mem "RATE" [ "code"; "rate" ]);
  Alcotest.(check (option int)) "assoc ci" (Some 2)
    (Names.assoc_opt "Foo" [ ("bar", 1); ("FOO", 2) ])

(* ---- Like -------------------------------------------------------------- *)

let test_sql_like () =
  let check pattern s expected =
    Alcotest.(check bool)
      (Printf.sprintf "%s ~ %s" pattern s)
      expected
      (Like.sql_like ~pattern s)
  in
  check "abc" "abc" true;
  check "a%" "abc" true;
  check "%c" "abc" true;
  check "a_c" "abc" true;
  check "a_c" "abbc" false;
  check "%" "" true;
  check "_" "" false;
  check "%b%" "abc" true;
  check "s%n" "sedan" true;
  check "s%n" "suv" false

let test_identifier_match () =
  let check pattern s expected =
    Alcotest.(check bool)
      (Printf.sprintf "%s ~ %s" pattern s)
      expected
      (Like.identifier ~pattern s)
  in
  check "rate%" "rate" true;
  check "rate%" "rates" true;
  check "rate%" "RATES" true;
  check "%code" "code" true;
  check "%code" "vcode" true;
  check "%code" "codex" false;
  check "flight%" "flights" true;
  check "flight%" "fl838" false;
  (* '_' is a literal in identifiers, not a wildcard *)
  check "a_b" "a_b" true;
  check "a_b" "axb" false

let prop_like_vs_naive =
  (* compare against a naive reference matcher on alphabet {a,b,%} *)
  let gen =
    QCheck.Gen.(
      pair
        (string_size ~gen:(oneofl [ 'a'; 'b'; '%' ]) (0 -- 8))
        (string_size ~gen:(oneofl [ 'a'; 'b' ]) (0 -- 8)))
  in
  let rec naive p s =
    match p, s with
    | "", "" -> true
    | "", _ -> false
    | _ ->
        if p.[0] = '%' then
          naive (String.sub p 1 (String.length p - 1)) s
          || (s <> "" && naive p (String.sub s 1 (String.length s - 1)))
        else
          s <> ""
          && p.[0] = s.[0]
          && naive (String.sub p 1 (String.length p - 1)) (String.sub s 1 (String.length s - 1))
  in
  QCheck.Test.make ~name:"like agrees with naive matcher" ~count:500
    (QCheck.make gen) (fun (p, s) -> Like.sql_like ~pattern:p s = naive p s)

(* ---- Schema ------------------------------------------------------------- *)

let schema_abc =
  [ Schema.column "a" Ty.Int; Schema.column "b" Ty.Str; Schema.column "c" Ty.Float ]

let test_schema_lookup () =
  Alcotest.(check (option int)) "find b" (Some 1) (Schema.find_index schema_abc "B");
  Alcotest.(check (option int)) "missing" None (Schema.find_index schema_abc "z");
  let qualified = Schema.requalify (Some "t") schema_abc in
  Alcotest.(check (option int)) "qualified" (Some 0)
    (Schema.find_index qualified ~qualifier:"T" "a");
  Alcotest.(check (option int)) "wrong qualifier" None
    (Schema.find_index qualified ~qualifier:"u" "a")

let test_schema_ambiguity () =
  let dup = schema_abc @ [ Schema.column "a" Ty.Str ] in
  Alcotest.(check int) "two matches" 2 (List.length (Schema.find_indices dup "a"))

let test_schema_union_compat () =
  let other =
    [ Schema.column "x" Ty.Int; Schema.column "y" Ty.Str; Schema.column "z" Ty.Float ]
  in
  Alcotest.(check bool) "compatible" true (Schema.union_compatible schema_abc other);
  Alcotest.(check bool) "not equal (names)" false (Schema.equal schema_abc other);
  Alcotest.(check bool) "incompatible arity" false
    (Schema.union_compatible schema_abc (List.tl other))

(* ---- Relation ------------------------------------------------------------ *)

let rel rows = Relation.make schema_abc (List.map Row.of_list rows)
let r3 =
  rel
    [
      [ Value.Int 1; Value.Str "x"; Value.Float 1.0 ];
      [ Value.Int 2; Value.Str "y"; Value.Float 2.0 ];
      [ Value.Int 1; Value.Str "x"; Value.Float 1.0 ];
    ]

let test_relation_make_checks_arity () =
  Alcotest.check_raises "arity" (Invalid_argument "Relation.make: row arity 1, schema arity 3")
    (fun () -> ignore (Relation.make schema_abc [ Row.of_list [ Value.Int 1 ] ]))

let test_relation_distinct () =
  Alcotest.(check int) "distinct removes dup" 2 (Relation.cardinality (Relation.distinct r3))

(* regression: distinct keyed rows by their %g rendering, merging floats
   that differ after the sixth significant digit *)
let test_relation_distinct_exact_floats () =
  let r =
    Relation.make
      [ Schema.column "x" Ty.Float ]
      (List.map
         (fun x -> [| Value.Float x |])
         [ 0.1234561; 0.1234562; 1e15; 1e15 +. 1.; 0.1234561 ])
  in
  Alcotest.(check int) "four distinct floats" 4
    (Relation.cardinality (Relation.distinct r))

(* ---- hash join vs the filtered product ------------------------------------

   The reference is the product restricted to rows whose key columns are
   equal under SQL equality (NULL equals nothing): same rows, same order. *)
let join_agrees a b ~keys =
  let width_a = Schema.arity (Relation.schema a) in
  let key_eq row (ia, ib) =
    let va = row.(ia) and vb = row.(width_a + ib) in
    (not (Value.is_null va)) && Value.equal va vb
  in
  let want =
    Relation.filter
      (fun row -> List.for_all (key_eq row) keys)
      (Relation.product a b)
  in
  let got = Relation.hash_join a b ~keys in
  (Relation.equal got want, Relation.cardinality got)

let check_join name a b ~keys =
  let agrees, card = join_agrees a b ~keys in
  Alcotest.(check bool)
    (name ^ ": hash join = filtered product (rows and order)")
    true agrees;
  card

let i x = Value.Int x
let fl x = Value.Float x
let two_cols na nb = [ Schema.column na Ty.Int; Schema.column nb Ty.Int ]

let test_join_uniform () =
  let b =
    Relation.make (two_cols "b" "bk")
      (List.init 200 (fun k -> [| i k; i (k mod 50) |]))
  and a =
    Relation.make (two_cols "p" "pk")
      (List.init 170 (fun k -> [| i k; i (k mod 60) |]))
  in
  ignore (check_join "uniform" a b ~keys:[ (1, 1) ])

let test_join_skewed () =
  (* every build row lands in one bucket *)
  let b =
    Relation.make (two_cols "b" "bk") (List.init 120 (fun k -> [| i k; i 7 |]))
  and a =
    Relation.make (two_cols "p" "pk")
      (List.init 90 (fun k -> [| i k; i (if k mod 3 = 0 then 7 else k) |]))
  in
  ignore (check_join "skewed" a b ~keys:[ (1, 1) ])

let test_join_few_keys () =
  (* two distinct build keys, four probe keys: half the probes find no
     bucket, the rest fan out thirty ways *)
  let b =
    Relation.make (two_cols "b" "bk")
      (List.init 60 (fun k -> [| i k; i (k mod 2) |]))
  and a =
    Relation.make (two_cols "p" "pk")
      (List.init 40 (fun k -> [| i k; i (k mod 4) |]))
  in
  Alcotest.(check int) "few keys: 20 probes x 30 matches" 600
    (check_join "few distinct keys" a b ~keys:[ (1, 1) ])

let test_join_bigint_keys () =
  (* adjacent Ints above 2^53 share a float image but are distinct keys *)
  let big = 9007199254740992 (* 2^53 *) in
  let b =
    Relation.make (two_cols "b" "bk")
      [ [| i 0; i big |]; [| i 1; i (big + 1) |]; [| i 2; i (big + 2) |] ]
  and a =
    Relation.make (two_cols "p" "pk")
      [ [| i 10; i big |]; [| i 11; i (big + 1) |]; [| i 12; i (big + 3) |] ]
  in
  Alcotest.(check int) "bigint: exactly the two true matches" 2
    (check_join "bigint" a b ~keys:[ (1, 1) ])

let test_join_null_keys () =
  let b =
    Relation.make (two_cols "b" "bk")
      [ [| i 0; Value.Null |]; [| i 1; i 5 |]; [| i 2; Value.Null |] ]
  and a =
    Relation.make (two_cols "p" "pk")
      [ [| i 10; Value.Null |]; [| i 11; i 5 |] ]
  in
  Alcotest.(check int) "null keys: single non-null match" 1
    (check_join "null keys" a b ~keys:[ (1, 1) ])

let test_join_empty_sides () =
  let some =
    Relation.make (two_cols "x" "xk")
      (List.init 30 (fun k -> [| i k; i (k mod 5) |]))
  and none = Relation.make (two_cols "y" "yk") [] in
  List.iter
    (fun (name, a, b) ->
      Alcotest.(check int) (name ^ ": no rows") 0
        (check_join name a b ~keys:[ (1, 1) ]))
    [ ("empty build", some, none); ("empty probe", none, some);
      ("both empty", none, none) ]

let test_join_multikey_mixed () =
  (* two key columns, one mixing Int and Float values that compare equal
     across the classes, plus floats that differ past the sixth digit *)
  let schema k v = [ Schema.column k Ty.Int; Schema.column v Ty.Float ] in
  let b =
    Relation.make (schema "bk" "bv")
      (List.init 80 (fun k ->
           [| i (k mod 10);
              (if k mod 2 = 0 then i (k mod 4) else fl (float_of_int (k mod 4))) |])
      @ [ [| i 1; fl 0.1234561 |]; [| i 1; fl 0.1234562 |] ])
  and a =
    Relation.make (schema "pk" "pv")
      (List.init 70 (fun k ->
           [| i (k mod 12);
              (if k mod 3 = 0 then fl (float_of_int (k mod 4)) else i (k mod 4)) |])
      @ [ [| i 1; fl 0.1234561 |] ])
  in
  Alcotest.(check bool) "multikey: joins across Int/Float classes" true
    (check_join "multikey mixed" a b ~keys:[ (0, 0); (1, 1) ] > 0);
  (* string and int key columns together *)
  let sk = [ Schema.column "id" Ty.Int; Schema.column "k1" Ty.Str; Schema.column "k2" Ty.Int ] in
  let s x = Value.Str x in
  let a =
    Relation.make sk
      [ [| i 0; s "x"; i 1 |]; [| i 1; s "x"; i 2 |]; [| i 2; Value.Null; i 1 |] ]
  and b =
    Relation.make sk
      [ [| i 10; s "x"; i 1 |]; [| i 11; s "x"; i 1 |]; [| i 12; s "y"; i 2 |] ]
  in
  Alcotest.(check int) "string + int keys" 2
    (check_join "string + int keys" a b ~keys:[ (1, 1); (2, 2) ])

let test_relation_union_product () =
  let u = Relation.union r3 r3 in
  Alcotest.(check int) "union all" 6 (Relation.cardinality u);
  let p = Relation.product r3 r3 in
  Alcotest.(check int) "product" 9 (Relation.cardinality p);
  Alcotest.(check int) "product arity" 6 (Schema.arity (Relation.schema p))

let test_relation_order_limit () =
  let sorted = Relation.order_by (fun a b -> Value.compare b.(0) a.(0)) r3 in
  (match Relation.rows sorted with
  | first :: _ -> Alcotest.check value "max first" (Value.Int 2) first.(0)
  | [] -> Alcotest.fail "empty");
  Alcotest.(check int) "limit" 2 (Relation.cardinality (Relation.limit 2 r3));
  Alcotest.(check int) "limit over" 3 (Relation.cardinality (Relation.limit 10 r3))

let test_relation_equal_unordered () =
  let shuffled =
    rel
      [
        [ Value.Int 2; Value.Str "y"; Value.Float 2.0 ];
        [ Value.Int 1; Value.Str "x"; Value.Float 1.0 ];
        [ Value.Int 1; Value.Str "x"; Value.Float 1.0 ];
      ]
  in
  Alcotest.(check bool) "unordered equal" true (Relation.equal_unordered r3 shuffled);
  Alcotest.(check bool) "ordered not equal" false (Relation.equal r3 shuffled)

let prop_distinct_idempotent =
  let gen = QCheck.Gen.(list_size (0 -- 20) (int_bound 3)) in
  QCheck.Test.make ~name:"distinct idempotent" ~count:200 (QCheck.make gen)
    (fun ints ->
      let r =
        Relation.make
          [ Schema.column "n" Ty.Int ]
          (List.map (fun n -> [| Value.Int n |]) ints)
      in
      let d = Relation.distinct r in
      Relation.equal (Relation.distinct d) d)

let prop_union_cardinality =
  let gen = QCheck.Gen.(pair (small_list int) (small_list int)) in
  QCheck.Test.make ~name:"union cardinality adds" ~count:200 (QCheck.make gen)
    (fun (xs, ys) ->
      let mk l =
        Relation.make
          [ Schema.column "n" Ty.Int ]
          (List.map (fun n -> [| Value.Int n |]) l)
      in
      Relation.cardinality (Relation.union (mk xs) (mk ys))
      = List.length xs + List.length ys)

(* Hash join = filtered product (rows and order) over random inputs of
   either relative size, so the table is built on the left input as often
   as on the right. Keys come from a pool mixing the values SQL equality
   relates across classes (1 = 1.0, min_int = -2^62), NULL, a
   non-integral float, 2^62 (a float above every int) next to max_int,
   and a string that reads like a number; one key column or two. *)
let prop_hash_join_vs_product =
  let pool =
    [| i 1; fl 1.0; i 2; fl 2.5; Value.Null; i max_int; fl 0x1p62; i min_int;
       fl (-0x1p62); Value.Str "1" |]
  in
  let key = QCheck.Gen.(map (Array.get pool) (int_bound (Array.length pool - 1))) in
  let side = QCheck.Gen.(list_size (0 -- 25) (pair key key)) in
  let rel name keys =
    Relation.make
      [ Schema.column (name ^ "id") Ty.Int; Schema.column (name ^ "k1") Ty.Float;
        Schema.column (name ^ "k2") Ty.Float ]
      (List.mapi (fun n (k1, k2) -> [| i n; k1; k2 |]) keys)
  in
  QCheck.Test.make ~name:"hash join = filtered product, either side smaller"
    ~count:500
    (QCheck.make QCheck.Gen.(pair side side))
    (fun (ka, kb) ->
      let a = rel "a" ka and b = rel "b" kb in
      List.for_all
        (fun keys -> fst (join_agrees a b ~keys) && fst (join_agrees b a ~keys))
        [ [ (1, 1) ]; [ (1, 2) ]; [ (1, 1); (2, 2) ] ])

(* ---- Scan ------------------------------------------------------------------ *)

let test_scan_comments () =
  let sc = Scan.create "  -- hi\n /* multi \n line */ x" in
  Scan.skip_ws_and_comments sc;
  Alcotest.(check (option char)) "reaches x" (Some 'x') (Scan.peek sc)

let test_scan_string () =
  let sc = Scan.create "'it''s fine'" in
  Alcotest.(check string) "escaped quote" "it's fine" (Scan.quoted_string sc)

let test_scan_error_position () =
  let sc = Scan.create "ab\ncd" in
  Scan.advance sc;
  Scan.advance sc;
  Scan.advance sc;
  Alcotest.(check int) "line" 2 (Scan.line sc);
  Alcotest.(check int) "col" 1 (Scan.column sc)

(* every finite float survives to_literal -> of_literal_exn bit for bit *)
let prop_float_literal_roundtrip =
  let gen =
    QCheck.Gen.(
      oneof
        [ float; map Int64.float_of_bits int64;
          oneofl [ 0.1234567; 1e15; 1e15 +. 1.; -0.; 5e-324; max_float ] ])
  in
  QCheck.Test.make ~name:"float literal round-trip" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%h") gen)
    (fun f ->
      QCheck.assume (Float.is_finite f);
      match Value.of_literal_exn (Value.to_literal (Value.Float f)) with
      | Value.Float g -> Int64.equal (Int64.bits_of_float g) (Int64.bits_of_float f)
      | _ -> false)

(* The join planner defers a leaf's filter only when its comparisons
   cannot raise, judged by [Value.class_bit]: two values share a bit (or
   one is NULL) exactly when the evaluator compares them without a type
   error. *)
let prop_class_bits_match_comparison =
  let gen =
    QCheck.Gen.(
      oneofl
        [ Value.Null; Value.Int 0; Value.Int max_int; Value.Float 0.5;
          Value.Float Float.nan; Value.Str ""; Value.Str "a"; Value.Bool true;
          Value.Bool false ])
  in
  QCheck.Test.make ~name:"class bits match comparability" ~count:300
    (QCheck.make QCheck.Gen.(pair gen gen))
    (fun (a, b) ->
      let m = Value.class_bit a lor Value.class_bit b in
      let raises =
        match Ldbms.Eval.comparison Sqlfront.Ast.Lt a b with
        | _ -> false
        | exception Ldbms.Eval.Type_error _ -> true
      in
      raises = (m land (m - 1) <> 0))

let qtests = List.map QCheck_alcotest.to_alcotest
    [ prop_like_vs_naive; prop_distinct_idempotent; prop_union_cardinality;
      prop_float_literal_roundtrip; prop_hash_join_vs_product;
      prop_class_bits_match_comparison ]

let () =
  Alcotest.run "sqlcore"
    [
      ( "value",
        [
          Alcotest.test_case "compare" `Quick test_value_compare;
          Alcotest.test_case "compare exact above 2^53" `Quick
            test_value_compare_exact_bigint;
          Alcotest.test_case "equal" `Quick test_value_equal;
          Alcotest.test_case "literal roundtrip" `Quick test_value_literal_roundtrip;
          Alcotest.test_case "float literal exact" `Quick test_value_float_literal;
          Alcotest.test_case "key exact" `Quick test_value_key;
          Alcotest.test_case "to_string" `Quick test_value_to_string;
          Alcotest.test_case "size" `Quick test_value_size;
        ] );
      ("ty", [ Alcotest.test_case "of_string" `Quick test_ty_of_string ]);
      ("names", [ Alcotest.test_case "case-insensitive" `Quick test_names ]);
      ( "like",
        [
          Alcotest.test_case "sql like" `Quick test_sql_like;
          Alcotest.test_case "identifier match" `Quick test_identifier_match;
        ] );
      ( "schema",
        [
          Alcotest.test_case "lookup" `Quick test_schema_lookup;
          Alcotest.test_case "ambiguity" `Quick test_schema_ambiguity;
          Alcotest.test_case "union compat" `Quick test_schema_union_compat;
        ] );
      ( "relation",
        [
          Alcotest.test_case "arity check" `Quick test_relation_make_checks_arity;
          Alcotest.test_case "distinct" `Quick test_relation_distinct;
          Alcotest.test_case "distinct exact floats" `Quick
            test_relation_distinct_exact_floats;
          Alcotest.test_case "union/product" `Quick test_relation_union_product;
          Alcotest.test_case "order/limit" `Quick test_relation_order_limit;
          Alcotest.test_case "equal unordered" `Quick test_relation_equal_unordered;
          Alcotest.test_case "equal unordered mixed int/float" `Quick
            test_equal_unordered_mixed;
          Alcotest.test_case "hash join exact keys above 2^53" `Quick
            test_hash_join_exact_bigint_keys;
          Alcotest.test_case "uniform keys" `Quick test_join_uniform;
          Alcotest.test_case "skewed keys" `Quick test_join_skewed;
          Alcotest.test_case "few distinct keys" `Quick test_join_few_keys;
          Alcotest.test_case "bigint keys" `Quick test_join_bigint_keys;
          Alcotest.test_case "null keys" `Quick test_join_null_keys;
          Alcotest.test_case "empty sides" `Quick test_join_empty_sides;
          Alcotest.test_case "multikey mixed classes" `Quick
            test_join_multikey_mixed;
        ] );
      ( "scan",
        [
          Alcotest.test_case "comments" `Quick test_scan_comments;
          Alcotest.test_case "string escapes" `Quick test_scan_string;
          Alcotest.test_case "positions" `Quick test_scan_error_position;
        ] );
      ("properties", qtests);
    ]
