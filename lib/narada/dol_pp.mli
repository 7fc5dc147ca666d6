(** Pretty-printer for DOL programs, matching the layout of the paper's
    §4.3 listing. Output round-trips through {!Dol_parser}. *)

val program_to_string : Dol_ast.program -> string
val cond_to_string : Dol_ast.cond -> string
