(** Codegen targets: which surface syntax the service emits. *)

type t = Cedar | Openmp [@@deriving show, eq]

val to_string : t -> string

val of_string : string -> t option
(** Case-insensitive; accepts ["cedar"], ["openmp"] (and ["omp"]). *)

val code : t -> int
(** Wire encoding of a target (the byte after a Submit's trace id):
    0 = Cedar, 1 = OpenMP. *)

val of_code : int -> t option

val all : t list
