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
(** Row count of the current version, in O(1). *)

val to_relation : t -> Sqlcore.Relation.t
(** The current version as a relation, in O(1) after the first call per
    version: a {!Sqlcore.Relation.view} of the stored row lists, which
    copies nothing. *)

val committed_at : t -> int
(** Commit timestamp of the current version; 0 for a freshly created
    table. A transaction whose snapshot is older than this must not write
    the table (first committer wins). *)

val rows_at : t -> ts:int -> Sqlcore.Row.t list
(** The rows of the newest version committed at or before [ts]; the empty
    list when no version was visible then. *)

val load : t -> ts:int -> Sqlcore.Row.t list -> unit
(** Bulk-load a fresh table: the given rows, in order, become the current
    version, stamped committed at [ts], and no history entry is pushed.
    Raises [Invalid_argument], changing nothing, when a row's arity is not
    the schema's. *)

val install : t -> ts:int -> keep_since:int -> Sqlcore.Row.t list -> unit
(** Commit a new version: the current rows move to the history chain and
    the given rows become current with commit timestamp [ts]. History
    entries invisible to every snapshot at or after [keep_since] are
    pruned.

    {!load} and [install] are the only ways to replace a table's rows, and
    each stamps a commit timestamp the database's oracle never reissues, so
    {!committed_at} names the current version: the per-version memos below
    are keyed on it. *)

val reserved_by : t -> int option
(** Transaction id holding a prepare-time write reservation, if any. *)

val reserve : t -> txn:int -> unit
val release_reservation : t -> txn:int -> unit
(** Releases only if [txn] holds the reservation; no-op otherwise. *)

val value_classes : t -> int array
(** Per column, the [lor] of the {!Sqlcore.Value.class_bit}s of the
    current version's values, computed once per version. A column
    declared [FLOAT] holds one class when every value was inserted
    through SQL, but [Database.load] stores values unchecked. *)

val lookup_eq : t -> col:int -> Sqlcore.Value.t -> Sqlcore.Row.t list
(** Rows whose [col]-th field equals the value under SQL equality
    ({!Sqlcore.Value.equal}; never matches NULL), in insertion order. The
    first call per version builds a {!Sqlcore.Value.Tbl} over the column
    holding every non-NULL row under its structural value, several
    bindings per key; later calls at that version probe it. Always reads
    the current version. [lookup_eq t ~col] fetches the map once, so a
    join applies it to each of its probe values while the table does not
    change. The executor reads it only for a join step that
    {!probe_pays} admits; a declared index builds no map. *)

val lookup_built : t -> col:int -> bool
(** Whether [col]'s lookup map is built for the current version. *)

val probe_pays : t -> col:int -> bool
(** Whether a join should probe [col]'s lookup map rather than scan the
    current version: true once a join has already asked at this version.
    A build reads every row once and then serves each later join of the
    version in as many steps as it has probe keys; a scan reads every row
    at each join. So the first join of a version scans, and a false
    answer records that it asked; a version that is joined twice pays for
    its map. This is the executor's only rule for reading a lookup map. *)
