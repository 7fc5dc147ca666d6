type t = Value.t array

let equal a b = Array.length a = Array.length b && Array.for_all2 Value.equal a b

let compare a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la && i >= lb then 0
    else if i >= la then -1
    else if i >= lb then 1
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let get row i =
  if i < 0 || i >= Array.length row then invalid_arg "Row.get: index out of range";
  row.(i)

let of_list = Array.of_list
let to_list = Array.to_list
let append = Array.append
let project idxs row = Array.map (fun i -> get row i) idxs

let size_bytes row =
  Array.fold_left (fun acc v -> acc + Value.size_bytes v) 0 row

let pp ppf row =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Value.pp)
    (to_list row)
