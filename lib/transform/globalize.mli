(** Globalization pass (paper §3.2): data used by spread/cross-cluster
    loops must be GLOBAL; the rest is CLUSTER; interface data follows the
    user-settable default. *)

type placement_default = Default_global | Default_cluster

val cross_cluster_uses : Fortran.Ast.stmt list -> Fortran.Ast_utils.SSet.t
(** Names used under any SDO/XDO loop, excluding loop indices and
    loop-local data at every level. *)

val apply :
  ?default:placement_default ->
  syms:Fortran.Symbols.t ->
  Fortran.Ast.punit ->
  Fortran.Ast.punit
(** Mark every declaration GLOBAL or CLUSTER and declare the undeclared
    names that must be GLOBAL.  [syms] may be the unit's table from
    before its body was transformed (the driver's): a name missing from
    it gets the entry [Symbols.of_unit] would give it. *)
