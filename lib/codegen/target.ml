(** Codegen targets.

    The restructurer's output AST is target-neutral; a target picks the
    concrete surface syntax the service emits.  [Cedar] is the classic
    Cedar Fortran dialect (CDOALL/CDOACROSS, loop-local declarations,
    preamble/postamble blocks); [Openmp] lowers the same annotations to
    standard Fortran with OpenMP directives. *)

type t = Cedar | Openmp [@@deriving show { with_path = false }, eq]

let to_string = function Cedar -> "cedar" | Openmp -> "openmp"

let of_string s =
  match String.lowercase_ascii s with
  | "cedar" -> Some Cedar
  | "openmp" | "omp" -> Some Openmp
  | _ -> None

(** Wire encoding of a target (the byte after a Submit's trace id). *)
let code = function Cedar -> 0 | Openmp -> 1

let of_code = function 0 -> Some Cedar | 1 -> Some Openmp | _ -> None

let all = [ Cedar; Openmp ]
