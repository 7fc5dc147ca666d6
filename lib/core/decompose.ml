module S = Sqlfront.Ast
module Names = Sqlcore.Names
module Schema = Sqlcore.Schema

exception Error of string

let err fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

type semijoin = {
  sj_col : string;
  sj_probe : Sqlfront.Ast.select;
}

(* why a shipped subquery was (not) semijoin-reduced; the size estimates
   are kept so EXPLAIN MULTIPLE can show what the pricing saw *)
type sj_gate =
  | Sj_applied of { key_bytes : int; est_bytes : int }
  | Sj_declined of { key_bytes : int; est_bytes : int }
  | Sj_no_stats
  | Sj_no_edge
  | Sj_off

type shipped = {
  sdb : string;
  subquery : Sqlfront.Ast.select;
  tmp_table : string;
  reduce : semijoin option;
  sj_gate : sj_gate;
}

type alternative = {
  alt_coordinator : string;
  alt_reduced : (string * bool) list;
  alt_ms : float;
  alt_bytes : int;
}

type plan = {
  coordinator : string;
  result_db : string;
  shipped : shipped list;
  modified : Sqlfront.Ast.select;
  cleanup : string list;
  alternatives : alternative list;
}

let label (g : Expand.global_ref) =
  Option.value g.Expand.galias ~default:g.Expand.gtable

(* ---- column-occurrence resolution ------------------------------------- *)

(* Index of the reference a column occurrence belongs to. *)
let resolver grefs =
  let labelled = List.mapi (fun i g -> (i, label g, g)) grefs in
  fun ?qualifier name ->
    let candidates =
      match qualifier with
      | Some q -> List.filter (fun (_, l, _) -> Names.equal l q) labelled
      | None ->
          List.filter
            (fun (_, _, g) -> Schema.mem g.Expand.gschema name)
            labelled
    in
    match candidates with
    | [ (i, _, _) ] -> i
    | [] ->
        err "column %s%s does not resolve to any table of the global query"
          (match qualifier with Some q -> q ^ "." | None -> "")
          name
    | _ :: _ :: _ ->
        err "column %s is ambiguous in the global query; qualify it" name

(* Walk an expression, calling [f] on each column occurrence. Subqueries
   are rejected: the decomposer handles flat join queries only. *)
let rec iter_cols f (e : S.expr) =
  match e with
  | S.Lit _ -> ()
  | S.Col { qualifier; name } -> f ?qualifier name
  | S.Binop (_, a, b) ->
      iter_cols f a;
      iter_cols f b
  | S.Unop (_, a) -> iter_cols f a
  | S.Is_null { arg; _ } | S.Like { arg; _ } -> iter_cols f arg
  | S.In_list { arg; items; _ } ->
      iter_cols f arg;
      List.iter (iter_cols f) items
  | S.Between { arg; lo; hi; _ } ->
      iter_cols f arg;
      iter_cols f lo;
      iter_cols f hi
  | S.Agg { arg; _ } -> Option.iter (iter_cols f) arg
  | S.Scalar_subquery _ | S.In_subquery _ | S.Exists _ ->
      err "global (cross-database) queries may not contain nested subqueries"

let rec map_cols f (e : S.expr) : S.expr =
  match e with
  | S.Lit _ -> e
  | S.Col { qualifier; name } -> f ?qualifier name
  | S.Binop (op, a, b) -> S.Binop (op, map_cols f a, map_cols f b)
  | S.Unop (op, a) -> S.Unop (op, map_cols f a)
  | S.Is_null r -> S.Is_null { r with arg = map_cols f r.arg }
  | S.Like r -> S.Like { r with arg = map_cols f r.arg }
  | S.In_list r ->
      S.In_list
        { r with arg = map_cols f r.arg; items = List.map (map_cols f) r.items }
  | S.Between r ->
      S.Between
        {
          r with
          arg = map_cols f r.arg;
          lo = map_cols f r.lo;
          hi = map_cols f r.hi;
        }
  | S.Agg r -> S.Agg { r with arg = Option.map (map_cols f) r.arg }
  | S.Scalar_subquery _ | S.In_subquery _ | S.Exists _ ->
      err "global (cross-database) queries may not contain nested subqueries"

(* ---- pricing -------------------------------------------------------------

   Every candidate plan is priced in virtual milliseconds with Netsim's
   per-message model: a message costs each endpoint's latency plus its
   bytes times the endpoint's per-byte cost, the engine's own node costing
   nothing. A candidate is a coordinator plus, for each shipped database,
   whether its MOVE is semijoin-reduced:

   - an unreduced MOVE is the command to the source and the data from the
     source to the coordinator;
   - a reduced MOVE first fetches the coordinator's distinct join keys (a
     round trip through the engine), sends them with the command, and
     ships half the data — the SDD-1 prior the reduction is priced with;
   - the MOVEs run concurrently, so the shipping phase costs the slowest;
   - the coordinator then runs Q' and drops its temporaries (two round
     trips), and a transfer whose target is not the coordinator MOVEs the
     result there.

   Sizes come from the IMPORT-time cardinalities and the column widths: a
   subquery's rows are the product of its tables' rows, [default_card] for
   a table never counted, and a reduction is priced only when every count
   is known. The model is blind to predicate selectivity. The cheapest
   candidate wins; ties go to fewer bytes, then to the first in a fixed
   enumeration — coordinators and shipped databases by canonical name,
   unreduced before reduced — so no choice depends on FROM order. *)

let default_card = 1000
let ack_bytes = Narada.Lam.ack_bytes

let col_width (g : Expand.global_ref) name =
  match
    List.find_opt
      (fun (c : Schema.column) -> Names.equal c.Schema.name name)
      g.Expand.gschema
  with
  | Some { Schema.ty = Sqlcore.Ty.Str; width; _ } -> Option.value width ~default:16
  | Some { Schema.ty = Sqlcore.Ty.Bool; _ } -> 1
  | Some _ | None -> 8

let schema_width (g : Expand.global_ref) =
  List.fold_left
    (fun a (c : Schema.column) -> a + col_width g c.Schema.name)
    0 g.Expand.gschema

(* ---- decomposition ------------------------------------------------------ *)

let decompose_with ?(site = fun _ -> Netsim.Site.make "default") ?target
    ~semijoin ~gselect ~grefs () =
  if grefs = [] then err "global query with empty FROM";
  (* unique labels *)
  let labels = List.map label grefs in
  List.iteri
    (fun i l ->
      List.iteri
        (fun j l' -> if i < j && Names.equal l l' then err "duplicate table label %s" l)
        labels)
    labels;
  let resolve = resolver grefs in
  let gref i = List.nth grefs i in

  (* which columns of each reference does the query use? Stored newest-first
     with a membership set alongside, so recording stays O(1) per
     occurrence; [used_cols] restores first-use order. *)
  let used : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let used_seen : (int * string, unit) Hashtbl.t = Hashtbl.create 32 in
  let record i name =
    let k = (i, Names.canon name) in
    if not (Hashtbl.mem used_seen k) then begin
      Hashtbl.add used_seen k ();
      Hashtbl.replace used i
        (name :: Option.value (Hashtbl.find_opt used i) ~default:[])
    end
  in
  let used_cols i = List.rev (Option.value (Hashtbl.find_opt used i) ~default:[]) in
  let collect_expr e = iter_cols (fun ?qualifier name -> record (resolve ?qualifier name) name) e in
  let star_ref q =
    match List.filter (fun (_, g) -> Names.equal (label g) q) (List.mapi (fun i g -> (i, g)) grefs) with
    | [ ig ] -> ig
    | [] -> err "unknown table label %s in %s.*" q q
    | _ :: _ :: _ -> err "ambiguous table label %s in %s.*" q q
  in
  List.iter
    (function
      | S.Star ->
          List.iteri
            (fun i g ->
              List.iter
                (fun (c : Schema.column) -> record i c.Schema.name)
                g.Expand.gschema)
            grefs
      | S.Qualified_star q ->
          let i, g = star_ref q in
          List.iter (fun (c : Schema.column) -> record i c.Schema.name) g.Expand.gschema
      | S.Proj_expr (e, _) -> collect_expr e)
    gselect.S.projections;
  Option.iter collect_expr gselect.S.where;
  List.iter collect_expr gselect.S.group_by;
  Option.iter collect_expr gselect.S.having;
  List.iter (fun (o : S.order_item) -> collect_expr o.S.sort_expr) gselect.S.order_by;

  (* group refs by database, preserving first-appearance order *)
  let dbs =
    List.fold_left
      (fun acc g ->
        if List.exists (Names.equal g.Expand.gdb) acc then acc
        else acc @ [ g.Expand.gdb ])
      [] grefs
  in
  let refs_of_db db =
    List.concat
      (List.mapi
         (fun i g -> if Names.equal g.Expand.gdb db then [ i ] else [])
         grefs)
  in

  (* conjunct ownership: Some db when every column of the conjunct lives in
     that db, None for cross-database conjuncts *)
  let all_conjuncts = Option.fold ~none:[] ~some:S.conjuncts gselect.S.where in
  let conjunct_owner c =
    let owner = ref None and mixed = ref false in
    iter_cols
      (fun ?qualifier name ->
        let db = (gref (resolve ?qualifier name)).Expand.gdb in
        match !owner with
        | None -> owner := Some db
        | Some d when Names.equal d db -> ()
        | Some _ -> mixed := true)
      c;
    if !mixed then None else !owner
  in
  let owned = List.map (fun c -> (c, conjunct_owner c)) all_conjuncts in
  let owned_by db =
    List.filter_map
      (fun (c, owner) ->
        match owner with Some d when Names.equal d db -> Some c | _ -> None)
      owned
  in

  (* the largest local subquery of a database: the columns the query uses
     from its tables, under every conjunct local to it. It does not depend
     on the coordinator. *)
  let subquery_of db =
    let idxs = refs_of_db db in
    let projections =
      List.concat_map
        (fun i ->
          let l = label (gref i) in
          match used_cols i with
          | [] ->
              (* keep cardinality with a constant column *)
              [ S.Proj_expr (S.Lit (Sqlcore.Value.Int 1), Some (l ^ "__one")) ]
          | cols ->
              List.map
                (fun c ->
                  S.Proj_expr
                    ( S.Col { qualifier = Some l; name = c },
                      Some (Names.canon l ^ "__" ^ Names.canon c) ))
                cols)
        idxs
    in
    let from =
      List.map
        (fun i ->
          let g = gref i in
          { S.table = g.Expand.gtable; alias = g.Expand.galias })
        idxs
    in
    S.select ~projections ~from ?where:(S.conjoin (owned_by db)) ()
  in
  let text_bytes sel = String.length (Sqlfront.Sql_pp.select_to_string sel) in
  let subqueries =
    List.map
      (fun db ->
        let sq = subquery_of db in
        (db, (sq, text_bytes sq)))
      dbs
  in
  let subquery db = snd (List.find (fun (d, _) -> Names.equal d db) subqueries) in

  (* ---- semijoin reduction (SDD-1 style) --------------------------------
     A shipped subquery linked to a coordinator table by a cross-database
     equi-join conjunct can be restricted, before it runs, to the distinct
     join-key values present at the coordinator. [edge ~coord db] is the
     first such conjunct, as ((shipped ref, column), (coordinator ref,
     column)). *)
  let edge ~coord db =
    List.find_map
      (fun (c, owner) ->
        match owner, c with
        | ( None,
            S.Binop
              ( S.Eq,
                S.Col { qualifier = qa; name = na },
                S.Col { qualifier = qb; name = nb } ) ) ->
            let ia = resolve ?qualifier:qa na and ib = resolve ?qualifier:qb nb in
            let da = (gref ia).Expand.gdb and db_b = (gref ib).Expand.gdb in
            if Names.equal da db && Names.equal db_b coord then
              Some ((ia, na), (ib, nb))
            else if Names.equal db_b db && Names.equal da coord then
              Some ((ib, nb), (ia, na))
            else None
        | _ -> None)
      owned
  in
  (* [SELECT DISTINCT key FROM coord_table WHERE ...]: the probe also
     applies the coordinator-local conjuncts confined to the joined table,
     so selective coordinator predicates shrink the key set too *)
  let probe_for (ci, coord_col) =
    let gc = gref ci in
    let confined c =
      let only_ci = ref true in
      iter_cols
        (fun ?qualifier name ->
          if resolve ?qualifier name <> ci then only_ci := false)
        c;
      !only_ci
    in
    S.select ~distinct:true
      ~projections:
        [ S.Proj_expr (S.Col { qualifier = Some (label gc); name = coord_col }, None) ]
      ~from:[ { S.table = gc.Expand.gtable; alias = gc.Expand.galias } ]
      ?where:(S.conjoin (List.filter confined (owned_by gc.Expand.gdb)))
      ()
  in

  (* ---- pricing (see the comment above [default_card]) ------------------ *)
  let sites = List.map (fun db -> (db, site db)) (dbs @ Option.to_list target) in
  let msg db bytes =
    let s = snd (List.find (fun (d, _) -> Names.equal d db) sites) in
    Netsim.Site.message_cost_ms s ~bytes
  in
  let link a b bytes = msg a bytes +. msg b bytes in
  let row_width i =
    match used_cols i with
    | [] -> 8
    | cols -> List.fold_left (fun a c -> a + col_width (gref i) c) 0 cols
  in
  let est_rows idxs =
    List.fold_left
      (fun a i -> a * Option.value (gref i).Expand.gcard ~default:default_card)
      1 idxs
  in
  let est_bytes idxs =
    est_rows idxs * List.fold_left (fun a i -> a + row_width i) 0 idxs
  in
  (* one shipped database's MOVE into [coord]: the gate reason when it
     cannot be reduced, or its unreduced gate numbers, and its priced
     options as (reduced, ms, bytes), unreduced first *)
  let price_move ~coord db =
    let idxs = refs_of_db db in
    let q = snd (subquery db) and est = est_bytes idxs in
    let off = (false, msg db q +. link db coord (est + ack_bytes), q + est + ack_bytes) in
    let reducible =
      if not semijoin then Stdlib.Error Sj_off
      else
        match edge ~coord db with
        | None -> Stdlib.Error Sj_no_edge
        | Some (_, ((ci, coord_col) as key)) -> (
            match (gref ci).Expand.gcard with
            | Some coord_card
              when List.for_all (fun i -> (gref i).Expand.gcard <> None) idxs ->
                Ok (key, coord_card * col_width (gref ci) coord_col)
            | Some _ | None -> Stdlib.Error Sj_no_stats)
    in
    match reducible with
    | Stdlib.Error why -> (why, [ off ])
    | Ok (key, key_bytes) ->
        let probe = text_bytes (probe_for key) in
        let kept = (est / 2) + ack_bytes in
        let on =
          ( true,
            msg coord probe
            +. msg coord (key_bytes + (2 * ack_bytes))
            +. msg db (q + key_bytes)
            +. link db coord kept,
            probe + key_bytes + (2 * ack_bytes) + q + key_bytes + kept )
        in
        (Sj_declined { key_bytes; est_bytes = est }, [ off; on ])
  in
  (* a transfer's result, MOVEd on when the target is not the coordinator:
     the largest table's rows at the projection's width *)
  let result_bytes () =
    let width =
      List.fold_left
        (fun a p ->
          a
          +
          match p with
          | S.Star -> List.fold_left (fun a g -> a + schema_width g) 0 grefs
          | S.Qualified_star q -> schema_width (snd (star_ref q))
          | S.Proj_expr (S.Col { qualifier; name }, _) ->
              col_width (gref (resolve ?qualifier name)) name
          | S.Proj_expr _ -> 8)
        0 gselect.S.projections
    in
    width
    * List.fold_left
        (fun a g -> max a (Option.value g.Expand.gcard ~default:default_card))
        0 grefs
  in
  let by_name =
    List.sort (fun a b -> String.compare (Names.canon a) (Names.canon b))
  in
  let price ~coord =
    let fixed_ms = 4.0 *. msg coord ack_bytes in
    let fixed_ms, fixed_bytes =
      match target with
      | Some t when not (Names.equal t coord) ->
          let r = result_bytes () + ack_bytes in
          (fixed_ms +. msg coord ack_bytes +. link coord t r, r)
      | Some _ | None -> (fixed_ms, 0)
    in
    let rec combos = function
      | [] -> [ ([], 0.0, 0) ]
      | (db, options) :: rest ->
          let tails = combos rest in
          List.concat_map
            (fun (reduced, ms, bytes) ->
              List.map
                (fun (choices, ms', bytes') ->
                  ((db, reduced) :: choices, Float.max ms ms', bytes + bytes'))
                tails)
            options
    in
    let shipped = List.filter (fun db -> not (Names.equal db coord)) (by_name dbs) in
    List.map
      (fun (alt_reduced, ms, bytes) ->
        {
          alt_coordinator = coord;
          alt_reduced;
          alt_ms = ms +. fixed_ms;
          alt_bytes = bytes + fixed_bytes;
        })
      (combos (List.map (fun db -> (db, snd (price_move ~coord db))) shipped))
  in
  let alternatives =
    List.concat_map (fun coord -> price ~coord) (by_name dbs)
    |> List.stable_sort (fun a b ->
           match Float.compare a.alt_ms b.alt_ms with
           | 0 -> Int.compare a.alt_bytes b.alt_bytes
           | c -> c)
  in
  let pick = List.hd alternatives in
  let coordinator = pick.alt_coordinator in

  (* shipped subqueries for the other databases, in FROM order *)
  let tmp_name i = Printf.sprintf "msql_tmp_%d" i in
  let shipped_dbs = List.filter (fun db -> not (Names.equal db coordinator)) dbs in
  let shipped =
    List.mapi
      (fun k db ->
        let why, _ = price_move ~coord:coordinator db in
        let reduce, sj_gate =
          match why, edge ~coord:coordinator db with
          | Sj_declined g, Some ((si, ship_col), key)
            when List.exists
                   (fun (d, r) -> r && Names.equal d db)
                   pick.alt_reduced ->
              ( Some
                  { sj_col = label (gref si) ^ "." ^ ship_col; sj_probe = probe_for key },
                Sj_applied { key_bytes = g.key_bytes; est_bytes = g.est_bytes } )
          | why, _ -> (None, why)
        in
        {
          sdb = db;
          subquery = fst (subquery db);
          tmp_table = tmp_name (k + 1);
          reduce;
          sj_gate;
        })
      shipped_dbs
  in

  (* rewrite a column occurrence for Q' *)
  let tmp_of_db db =
    List.find_opt (fun s -> Names.equal s.sdb db) shipped
    |> Option.map (fun s -> s.tmp_table)
  in
  let rewrite ?qualifier name =
    let i = resolve ?qualifier name in
    let g = gref i in
    match tmp_of_db g.Expand.gdb with
    | None -> S.Col { qualifier = Some (label g); name }
    | Some tmp ->
        S.Col
          {
            qualifier = Some tmp;
            name = Names.canon (label g) ^ "__" ^ Names.canon name;
          }
  in
  let rewrite_expr e = map_cols rewrite e in
  let projections =
    List.concat_map
      (function
        | S.Star ->
            List.concat_map
              (fun g ->
                List.map
                  (fun (c : Schema.column) ->
                    S.Proj_expr
                      (rewrite ?qualifier:(Some (label g)) c.Schema.name,
                       Some c.Schema.name))
                  g.Expand.gschema)
              grefs
        | S.Qualified_star q ->
            let _, g = star_ref q in
            List.map
              (fun (c : Schema.column) ->
                S.Proj_expr
                  (rewrite ?qualifier:(Some (label g)) c.Schema.name,
                   Some c.Schema.name))
              g.Expand.gschema
        | S.Proj_expr (e, alias) ->
            let alias =
              match alias, e with
              | Some a, _ -> Some a
              | None, S.Col { name; _ } -> Some name
              | None, _ -> None
            in
            [ S.Proj_expr (rewrite_expr e, alias) ])
      gselect.S.projections
  in
  let coord_from =
    List.concat_map
      (fun g ->
        if Names.equal g.Expand.gdb coordinator then
          [ { S.table = g.Expand.gtable; alias = g.Expand.galias } ]
        else [])
      grefs
    @ List.map (fun s -> { S.table = s.tmp_table; alias = None }) shipped
  in
  let remaining =
    List.filter_map
      (fun (c, owner) ->
        match owner with
        | Some d when not (Names.equal d coordinator) -> None
        | _ -> Some (rewrite_expr c))
      owned
  in
  let modified =
    {
      S.distinct = gselect.S.distinct;
      projections;
      from = coord_from;
      where = S.conjoin remaining;
      group_by = List.map rewrite_expr gselect.S.group_by;
      having = Option.map rewrite_expr gselect.S.having;
      order_by =
        List.map
          (fun (o : S.order_item) ->
            { o with S.sort_expr = rewrite_expr o.S.sort_expr })
          gselect.S.order_by;
    }
  in
  {
    coordinator;
    result_db = List.hd dbs;
    shipped;
    modified;
    cleanup = List.map (fun s -> s.tmp_table) shipped;
    alternatives;
  }

let decompose ~semijoin ~gselect ~grefs =
  decompose_with ~semijoin ~gselect ~grefs ()

let sj_gate_to_string = function
  | Sj_applied { key_bytes; est_bytes } ->
      Printf.sprintf
        "semijoin APPLIED: %d key byte(s) vs est. %d shipped byte(s), priced \
         faster"
        key_bytes est_bytes
  | Sj_declined { key_bytes; est_bytes } ->
      Printf.sprintf
        "semijoin DECLINED: %d key byte(s) vs est. %d shipped byte(s), priced \
         slower"
        key_bytes est_bytes
  | Sj_no_stats -> "semijoin not considered: no cardinality statistics"
  | Sj_no_edge -> "semijoin not applicable: no equi-join edge to the coordinator"
  | Sj_off -> "semijoin disabled"

let alternative_to_string a =
  Printf.sprintf "coordinator %s%s: est. %.2f ms, %d B" a.alt_coordinator
    (String.concat ""
       (List.map
          (fun (db, reduced) ->
            Printf.sprintf ", %s %s" db (if reduced then "reduced" else "full"))
          a.alt_reduced))
    a.alt_ms a.alt_bytes

let pp_plan ppf p =
  Format.fprintf ppf "coordinator: %s@\n" p.coordinator;
  Format.fprintf ppf "priced alternatives (cheapest first):@\n";
  List.iteri
    (fun k a ->
      Format.fprintf ppf "%s %s@\n"
        (if k = 0 then "  *" else "   ")
        (alternative_to_string a))
    p.alternatives;
  List.iter
    (fun s ->
      Format.fprintf ppf "ship %s <- [%s] %s@\n" s.tmp_table s.sdb
        (Sqlfront.Sql_pp.select_to_string s.subquery);
      Format.fprintf ppf "  %s@\n" (sj_gate_to_string s.sj_gate);
      match s.reduce with
      | None -> ()
      | Some sj ->
          Format.fprintf ppf "  semijoin %s IN (%s)@\n" sj.sj_col
            (Sqlfront.Sql_pp.select_to_string sj.sj_probe))
    p.shipped;
  Format.fprintf ppf "Q' @ %s: %s" p.coordinator
    (Sqlfront.Sql_pp.select_to_string p.modified)
