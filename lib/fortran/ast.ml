(** Abstract syntax for fortran77 extended with Cedar Fortran.

    A single AST covers both the sequential input language accepted by the
    restructurer (fortran77 plus fortran90 vector sections) and the parallel
    output language (Cedar Fortran: concurrent loops, visibility
    declarations, loop-local data, cascade synchronization).  The parser
    produces any of it; the restructurer introduces the parallel constructs;
    the printer emits Cedar Fortran source. *)

type dtype =
  | Integer
  | Real
  | Double
  | Logical
  | Character
[@@deriving show { with_path = false }, eq, ord]

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Pow
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or
[@@deriving show { with_path = false }, eq, ord]

type unop = Neg | Not [@@deriving show { with_path = false }, eq, ord]

(** One dimension of an array section: [lo:hi:stride].  A missing stride
    means 1; a plain subscript in a section position is [Elem]. *)
type 'e section_dim = Range of 'e option * 'e option * 'e option | Elem of 'e
[@@deriving show { with_path = false }, eq, ord]

type expr =
  | Int of int
  | Num of float  (** real/double literal *)
  | Str of string
  | Bool of bool
  | Var of string
  | Idx of string * expr list  (** array element reference *)
  | Section of string * expr section_dim list  (** vector section a(i:j, k) *)
  | Call of string * expr list  (** function (incl. intrinsic) call *)
  | Bin of binop * expr * expr
  | Un of unop * expr
[@@deriving show { with_path = false }, eq, ord]

type lhs =
  | LVar of string
  | LIdx of string * expr list
  | LSection of string * expr section_dim list
[@@deriving show { with_path = false }, eq, ord]

(** Cedar Fortran concurrent-loop classes.  [Seq] is an ordinary DO.
    The prefix letter selects the hardware level: C = all processors of one
    cluster, S = one processor of each cluster (spread), X = all processors
    of all clusters. *)
type loop_class =
  | Seq
  | Cdoall
  | Sdoall
  | Xdoall
  | Cdoacross
  | Sdoacross
  | Xdoacross
[@@deriving show { with_path = false }, eq, ord]

(** Data visibility on Cedar: a [Global] item has a single copy in global
    memory visible to every processor; a [Cluster] item has one copy per
    cluster in cluster memory.  [Default] defers to the unit's default. *)
type visibility = Default | Global | Cluster
[@@deriving show { with_path = false }, eq, ord]

type decl = {
  d_name : string;
  d_type : dtype;
  d_dims : (expr * expr) list;  (** (lo, hi) per dimension; [] for scalars *)
  d_vis : visibility;
}
[@@deriving show { with_path = false }, eq, ord]

(** A bare GLOBAL/CLUSTER line: a REAL scalar record that carries a
    visibility.  It says nothing about the name's type, which another
    record or the implicit rule gives. *)
let visibility_only d = d.d_dims = [] && d.d_vis <> Default && d.d_type = Real

type do_header = {
  index : string;
  lo : expr;
  hi : expr;
  step : expr option;  (** None means 1 *)
  cls : loop_class;
  locals : decl list;  (** Cedar loop-local declarations *)
}
[@@deriving show { with_path = false }, eq, ord]

type stmt =
  | Assign of lhs * expr
  | If of expr * stmt list * stmt list
  | Do of do_header * block
  | Where of expr * stmt list  (** masked vector assignment block *)
  | CallSt of string * expr list
  | Return
  | Stop
  | Continue
  | Goto of int
  | Labeled of int * stmt
  | Print of expr list
  | Read of lhs list

(** A concurrent loop body: the preamble runs once on each processor that
    joins the loop before it takes iterations; the postamble after it has
    finished its share (SDO/XDO only).  For sequential loops both are []. *)
and block = { preamble : stmt list; body : stmt list; postamble : stmt list }
[@@deriving show { with_path = false }, eq, ord]

type unit_kind =
  | Program
  | Subroutine of string list  (** formal parameter names *)
  | Function of dtype * string list
[@@deriving show { with_path = false }, eq, ord]

type common_block = {
  c_name : string;  (** "" for blank common *)
  c_vars : string list;
  c_process : bool;  (** Cedar PROCESS COMMON: one copy in global memory *)
}
[@@deriving show { with_path = false }, eq, ord]

type punit = {
  u_name : string;
  u_kind : unit_kind;
  u_decls : decl list;
  u_commons : common_block list;
  u_equivs : (string * string) list list;  (** EQUIVALENCE groups (name pairs) *)
  u_params : (string * expr) list;  (** PARAMETER constants *)
  u_body : stmt list;
}
[@@deriving show { with_path = false }, eq, ord]

type program = punit list [@@deriving show { with_path = false }, eq, ord]

let seq_block body = { preamble = []; body; postamble = [] }

let is_parallel = function
  | Seq -> false
  | Cdoall | Sdoall | Xdoall | Cdoacross | Sdoacross | Xdoacross -> true

let is_doacross = function
  | Cdoacross | Sdoacross | Xdoacross -> true
  | Seq | Cdoall | Sdoall | Xdoall -> false

let loop_keyword = function
  | Seq -> "DO"
  | Cdoall -> "CDOALL"
  | Sdoall -> "SDOALL"
  | Xdoall -> "XDOALL"
  | Cdoacross -> "CDOACROSS"
  | Sdoacross -> "SDOACROSS"
  | Xdoacross -> "XDOACROSS"

(** Textbook intrinsics understood by the front end, the interpreter and
    the cost model.  The Cedar runtime library's functions ([cedar_dotp],
    [cedar_iota], …) count as intrinsics too: they are compiler-introduced
    and never block parallelization the way an opaque user call does.
    Case-insensitive; a lowercase name (the lexer's spelling) allocates
    nothing. *)
let rec is_intrinsic name =
  if String.exists (fun c -> 'A' <= c && c <= 'Z') name then
    is_intrinsic (String.lowercase_ascii name)
  else
    match name with
    | "sqrt" | "abs" | "exp" | "log" | "sin" | "cos" | "tan" | "atan" | "sign"
    | "min" | "max" | "mod" | "int" | "float" | "real" | "dble" | "nint"
    | "sum" | "dotproduct" | "maxval" | "minval" ->
        true
    | _ -> String.length name > 6 && String.starts_with ~prefix:"cedar_" name
