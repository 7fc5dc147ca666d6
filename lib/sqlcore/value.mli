(** Atomic values stored in relations.

    SQL three-valued logic is handled at the expression-evaluation level;
    here [Null] is an ordinary bottom element that compares lowest. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

val equal : t -> t -> bool
(** Equality as agreement of {!compare}: [Int 1] and [Float 1.0] {e are}
    equal, matching the evaluator's numeric coercion and the order used to
    sort multisets before pairwise comparison. *)

val compare : t -> t -> int
(** Total order used for ORDER BY, MIN/MAX and index lookups. [Null] sorts
    first; ints and floats compare numerically across the two types. The
    cross-type comparison is {e exact} (performed in the integer domain),
    so adjacent ints above 2^53 are not merged by a detour through
    double rounding and the order stays transitive. *)

val ty : t -> Ty.t option
(** Type of a non-null value; [None] for [Null]. *)

val is_null : t -> bool

val to_string : t -> string
(** Display form: [NULL], bare numbers, unquoted strings. *)

val to_literal : t -> string
(** SQL literal form: strings quoted with ['] and embedded quotes doubled;
    a finite float with the fewest of 15/16/17 significant digits that
    reads back to the same double, always with a [.] or an exponent. *)

val of_literal_exn : string -> t
(** Inverse of {!to_literal} for the simple literal forms; raises
    [Invalid_argument] on malformed input. Used by tests. *)

val canonical : t -> t
(** The representative of a value's {!equal} class: an integral [Float]
    in the OCaml int range becomes the [Int] it equals, every other value
    is itself. So [equal a b] iff [canonical a] and [canonical b] are
    structurally equal (with [compare]'s NaN convention), and
    [Hashtbl.hash (canonical v)] is a hash consistent with {!equal}. *)

val key : t -> string
(** Exact hashing key: [key a = key b] iff [equal a b] (NaN aside), so
    [Int 5] and [Float 5.0] share a key, while ints above 2^53 and floats
    differing in any digit do not. [Null] has a key of its own, for
    grouping and duplicate elimination. No key contains a NUL byte. *)

val row_key : t list -> string
(** The {!key}s of the values joined with NUL: equal iff the lists are
    pairwise {!equal}. *)

val pp : Format.formatter -> t -> unit

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by structural values under {!equal}, hashed through
    {!canonical}: [Int 1] and [Float 1.0] meet, ints above 2^53 stay
    apart, and looking a value up allocates no key. NULL is an ordinary
    key here; a join must not look it up, since NULL = x is never true. *)

val class_bit : t -> int
(** A bit per comparison class: numbers ([Int] and [Float] together),
    strings and booleans each have their own; [Null] has none, since it
    compares with anything without raising. Two non-NULL values compare
    without a type error iff their bits are equal, so a set of values is
    pairwise comparable iff the [lor] of their bits has at most one bit
    set. *)

val as_float : t -> float option
(** Numeric view of [Int] and [Float]; [None] otherwise. *)

val as_int : t -> int option

val size_bytes : t -> int
(** Approximate wire size of the value; used by the network simulator to
    charge data-shipping costs. *)
