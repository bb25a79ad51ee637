(** Nest-level memoization for the restructurer.

    Keys the driver's per-nest work (dependence analysis, technique
    recognition, cost-model ranking, applied transformation) by a digest
    of the {e normalized} nest — names numbered where one walk first
    meets them, closed by the names' sorted-rank permutation so that two
    nests share a key exactly when an order-preserving renaming maps one
    onto the other — together with the context slice the driver consults:
    symbol-table rows of the nest's names, interprocedural summaries of
    its callees, post-loop liveness, disequality facts over its names,
    and the options (minus inline limits, which act before nests exist).
    The driver looks up top-level nests only.
    A bounded, mutex-guarded LRU shared across worker domains caches the
    finished statements plus decision reports; replays are byte-identical
    with a direct run (fresh names are re-drawn from the live counter,
    not copied).  Exports [memo_hits_total] / [memo_misses_total] /
    [memo_bypass_total] (plus evictions and checksum corruptions) through
    {!Obs.Metrics.global}. *)

module SSet = Fortran.Ast_utils.SSet

type prep = {
  p_key : string;  (** digest of the normalized nest + context slice *)
  p_names : string array;
      (** the nest's data names, in the order the key numbers them *)
  p_safe : bool;
      (** renamed serving is unambiguous (no name collides with a report
          template word or a called routine) *)
}

val prepare :
  syms:Fortran.Symbols.t ->
  interproc:Analysis.Interproc.t ->
  opts:Options.t ->
  avail:bool * bool ->
  after_reads:SSet.t ->
  facts:(string * string) list ->
  Fortran.Ast.do_header ->
  Fortran.Ast.block ->
  prep option
(** [None] bypasses the memo (oversized nest; counted
    [memo_bypass_total]). *)

type 'r entry = {
  e_names : string array;
  e_stmts : Fortran.Ast.stmt list;
  e_reports : 'r list;  (** newest first, as the driver records them *)
  e_fresh : (string * string) list;
      (** the (prefix, name) fresh-name stream the transformation drew *)
  e_exact : bool;  (** serve only to identically-named nests *)
  e_sum : string Lazy.t;
}

type 'r t
(** The shared table; ['r] is the driver's report type. *)

val create : ?capacity:int -> ?corrupt:(unit -> bool) -> unit -> 'r t
(** [capacity] bounds the LRU (default 512 nests).  [corrupt] is the
    chaos hook: when it answers [true] at store time the entry's first
    sequential loop is flipped to CDOALL — self-consistently checksummed,
    so only the downstream validator gate can catch it. *)

val find : 'r t -> prep -> 'r entry option
(** LRU-touching lookup; checksum-verifies the entry (a mismatch drops
    it, counted [memo_corruptions_total]) and refuses cross-name serving
    of [e_exact] entries. *)

val store :
  'r t ->
  prep ->
  stmts:Fortran.Ast.stmt list ->
  reports:'r list ->
  fresh:(string * string) list ->
  unit

type replayed = {
  rp_stmts : Fortran.Ast.stmt list;
  rp_rename : string -> string;  (** identifier map (stored → live) *)
  rp_text : string -> string;  (** report-string map (token-wise) *)
}

val replay : 'r entry -> prep -> fresh:(string -> string) -> replayed
(** Materialize a stored entry at the current call site.  [fresh] draws
    replacement temporaries (normally {!Fortran.Ast_utils.fresh_name}) so
    numbering advances exactly as a direct run would. *)

type stats = {
  st_hits : int;
  st_misses : int;
  st_evictions : int;
  st_corruptions : int;
  st_size : int;
}

val stats : 'r t -> stats
val size : 'r t -> int
