(** Array data-dependence testing for one loop: ZIV / strong SIV / GCD /
    Banerjee-style bounding on affine subscripts, combined per dimension,
    conservative on anything symbolic (which the run-time dependence test
    transformation then picks up). *)

type kind = Flow | Anti | Output

type distance =
  | Dist of int  (** definite iteration distance (source to sink) *)
  | Star  (** unknown direction / distance *)

type reason =
  | Affine  (** decided by the affine tests *)
  | Non_affine  (** a subscript was not affine *)
  | Symbolic of string  (** symbolic terms did not cancel (variable name) *)
  | Scalar  (** a scalar memory cell is reused across iterations *)

type dep = {
  d_array : string;
  d_kind : kind;
  d_src : int list;  (** statement path of the source reference *)
  d_dst : int list;
  d_carried : bool;  (** carried by the tested loop *)
  d_distance : distance;
  d_reason : reason;
}

val show_kind : kind -> string
val show_distance : distance -> string
val show_reason : reason -> string
val show_dep : dep -> string
val equal_kind : kind -> kind -> bool
val equal_distance : distance -> distance -> bool
val equal_reason : reason -> reason -> bool

val dependences :
  ?injective:Fortran.Ast_utils.SSet.t ->
  ?disequal:(string * string) list ->
  ?invariant:(string -> bool) ->
  env:Affine.t Fortran.Ast_utils.SMap.t ->
  index:string ->
  inner:string list ->
  trip:int option ->
  Loops.ref_info list ->
  dep list
(** All dependences among the references w.r.t. loop [index].
    [injective]: scalars taking a distinct value per iteration (monotonic
    GIVs).  [disequal]: variable pairs known unequal (IF guards, loop
    bounds).  [invariant]: loop-invariance of symbolic subscript terms
    (for the identical-subscript disambiguation).  [env]: affine closed
    forms of substituted induction variables. *)

val carried : dep list -> dep list
(** Dependences that prevent DOALL execution of the tested loop. *)
