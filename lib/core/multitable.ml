module Relation = Sqlcore.Relation

type part = { part_db : string; part_table : Relation.t }
type t = part list

let make parts = parts
let parts t = t

let databases t =
  List.fold_left
    (fun acc p -> if List.mem p.part_db acc then acc else acc @ [ p.part_db ])
    [] t

let total_count t =
  List.fold_left (fun acc p -> acc + Relation.cardinality p.part_table) 0 t

let is_empty t = t = []

let find t db =
  match List.filter (fun p -> Sqlcore.Names.equal p.part_db db) t with
  | [] -> None
  | [ p ] -> Some p.part_table
  | p :: rest ->
      Some
        (List.fold_left
           (fun acc q ->
             if
               Sqlcore.Schema.union_compatible (Relation.schema acc)
                 (Relation.schema q.part_table)
             then Relation.union acc q.part_table
             else acc)
           p.part_table rest)

let flatten t =
  match t with
  | [] -> None
  | p :: rest ->
      List.fold_left
        (fun acc q ->
          match acc with
          | None -> None
          | Some r ->
              if
                Sqlcore.Schema.union_compatible (Relation.schema r)
                  (Relation.schema q.part_table)
              then Some (Relation.union r q.part_table)
              else None)
        (Some p.part_table) rest

type agg = Count | Sum | Avg | Min | Max

let column_values part name =
  match Sqlcore.Schema.find_index (Relation.schema part.part_table) name with
  | None -> None
  | Some i ->
      Some
        (List.filter_map
           (fun row ->
             let v = row.(i) in
             if Sqlcore.Value.is_null v then None else Some v)
           (Relation.rows part.part_table))

let compute_agg agg vs =
  let module V = Sqlcore.Value in
  match agg, vs with
  | Count, _ -> V.Int (List.length vs)
  | _, [] -> V.Null
  | Min, v :: rest ->
      List.fold_left (fun a v -> if V.compare v a < 0 then v else a) v rest
  | Max, v :: rest ->
      List.fold_left (fun a v -> if V.compare v a > 0 then v else a) v rest
  | (Sum | Avg), vs -> (
      let all_int = List.for_all (fun v -> V.as_int v <> None) vs in
      match agg with
      | Sum when all_int ->
          V.Int (List.fold_left (fun a v -> a + Option.get (V.as_int v)) 0 vs)
      | Sum | Avg -> (
          let floats = List.map V.as_float vs in
          if List.exists Option.is_none floats then V.Null
          else
            let total = List.fold_left (fun a f -> a +. Option.get f) 0.0 floats in
            match agg with
            | Avg -> V.Float (total /. float_of_int (List.length vs))
            | _ -> V.Float total)
      | Count | Min | Max -> assert false)

let aggregate t agg ~column =
  let vs = List.concat (List.filter_map (fun p -> column_values p column) t) in
  if List.for_all (fun p -> column_values p column = None) t then
    Sqlcore.Value.Null
  else compute_agg agg vs

let aggregate_per_part t agg ~column =
  List.filter_map
    (fun p ->
      column_values p column
      |> Option.map (fun vs -> (p.part_db, compute_agg agg vs)))
    t

let restrict t keep = List.filter (fun p -> keep p.part_db) t

let pp ppf t =
  let pp_part ppf p =
    Format.fprintf ppf "-- %s --@\n%a" p.part_db Relation.pp p.part_table
  in
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf "@\n")
    pp_part ppf t

let to_string t = Format.asprintf "%a" pp t
