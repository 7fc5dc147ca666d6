(** Rows (tuples) of a relation. *)

type t = Value.t array

val equal : t -> t -> bool
val compare : t -> t -> int

val get : t -> int -> Value.t
(** [get row i] is the [i]-th field; raises [Invalid_argument] when out of
    range (schema/row mismatches are programming errors). *)

val of_list : Value.t list -> t
val to_list : t -> Value.t list
val append : t -> t -> t
val project : int array -> t -> t
(** The fields at the given positions, in that order. *)

val size_bytes : t -> int
val pp : Format.formatter -> t -> unit
