(** Mutable stored tables with table-granularity version chains. Row order
    is insertion order. The "current" rows are the latest committed
    version; older committed versions are retained (keyed by commit
    timestamp) while a snapshot that can still see them is active. *)

type t

val create : name:string -> Sqlcore.Schema.t -> t
val name : t -> string
val schema : t -> Sqlcore.Schema.t
val rows : t -> Sqlcore.Row.t list
val cardinality : t -> int

val insert : t -> Sqlcore.Row.t -> unit
(** Appends; raises [Invalid_argument] on arity mismatch. *)

val to_relation : t -> Sqlcore.Relation.t
val copy : t -> t

val version : t -> int
(** Bumped on every mutation; lets caches detect staleness. *)

val committed_at : t -> int
(** Commit timestamp of the current version; 0 for a freshly created
    table. A transaction whose snapshot is older than this must not write
    the table (first committer wins). *)

val rows_at : t -> ts:int -> Sqlcore.Row.t list
(** The rows of the newest version committed at or before [ts]; the empty
    list when no version was visible then. *)

val install : t -> ts:int -> keep_since:int -> Sqlcore.Row.t list -> unit
(** Commit a new version: the current rows move to the history chain and
    the given rows become current with commit timestamp [ts]. History
    entries invisible to every snapshot at or after [keep_since] are
    pruned. *)

val mark_committed : t -> ts:int -> unit
(** Stamp the current version with a commit timestamp without pushing a
    history entry; bulk loads use this so loaded data reads as committed. *)

val reserved_by : t -> int option
(** Transaction id holding a prepare-time write reservation, if any. *)

val reserve : t -> txn:int -> unit
val release_reservation : t -> txn:int -> unit
(** Releases only if [txn] holds the reservation; no-op otherwise. *)

val lookup_eq : t -> col:int -> Sqlcore.Value.t -> Sqlcore.Row.t list
(** Rows whose [col]-th field equals the value under SQL equality
    ({!Sqlcore.Value.key}; never matches NULL), via a
    lazily built hash map that is rebuilt when the table changes. Row
    order is preserved. Always reads the current version. *)
