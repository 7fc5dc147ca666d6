(** Immutable relations and the relational-algebra operators the executors
    are built from.

    Rows are kept in insertion order; [distinct], [union] and friends
    preserve the order of first occurrence so that results are
    deterministic. *)

type t

val make : Schema.t -> Row.t list -> t
(** Raises [Invalid_argument] if any row's arity differs from the schema's. *)

val view : Schema.t -> rev_rows:Row.t list -> rows:Row.t list -> t
(** A relation over lists someone already holds, without copying or
    checking them: [rows] in insertion order and [rev_rows], the same
    rows newest first. The caller guarantees both, and every row's arity;
    a stored table's current version is the one such caller. *)

val empty : Schema.t -> t
val schema : t -> Schema.t
val rows : t -> Row.t list
val cardinality : t -> int
val is_empty : t -> bool

val size_bytes : t -> int
(** Approximate wire size of the relation's rows. Memoized per relation:
    repeated calls (one per simulated network send) are O(1). *)

val equal : t -> t -> bool
(** Schema equality (names/types) and row-list equality in order. *)

val equal_unordered : t -> t -> bool
(** Schema equality and multiset equality of rows. *)

val filter : (Row.t -> bool) -> t -> t

val project : t -> int list -> Schema.t -> t
(** [project r idxs schema] keeps the fields at [idxs], in that order. *)

val distinct : t -> t
val union : t -> t -> t
(** Raises [Invalid_argument] if not union-compatible. Keeps duplicates
    (UNION ALL); compose with {!distinct} for set union. *)

val product : t -> t -> t
(** Cartesian product; schemas are concatenated. *)

val hash_join : t -> t -> keys:(int * int) list -> t
(** [hash_join a b ~keys] is [product a b] restricted to rows where field
    [ia] of the [a]-row equals field [ib] of the [b]-row for every
    [(ia, ib)] in [keys], computed with a hash table on the smaller input
    in one pass per side. Equality is {!Value.equal}: [Int]/[Float]
    compare numerically (keys hash their {!Value.canonical} form) and NULL
    keys never match. Row order matches the equivalent filtered product
    whichever side is built. [keys] must be non-empty for the call to be
    meaningful (an empty list degenerates to the full product). *)

val order_by : (Row.t -> Row.t -> int) -> t -> t
(** Stable sort. *)

val limit : int -> t -> t
val requalify : string option -> t -> t

val pp : Format.formatter -> t -> unit
(** ASCII table with a header, the display format of the shell and the
    examples. *)

val to_string : t -> string
