(** Array data-dependence testing for one loop.

    Implements the classic subscript tests — ZIV, strong/weak SIV, the GCD
    test and Banerjee-style bound checking — on affine subscript forms, per
    dimension, combined conservatively.  Symbolic terms that do not cancel
    make the tester assume a dependence and record why; the run-time
    dependence test transformation keys off that reason, exactly as the
    paper describes for OCEAN's linearized subscripts. *)

open Fortran
module SMap = Ast_utils.SMap

type kind = Flow | Anti | Output [@@deriving show { with_path = false }, eq]

type distance =
  | Dist of int  (** definite iteration distance (source to sink) *)
  | Star  (** unknown direction / distance *)
[@@deriving show { with_path = false }, eq]

type reason =
  | Affine  (** decided by the affine tests *)
  | Non_affine  (** a subscript was not affine *)
  | Symbolic of string  (** symbolic terms did not cancel (variable name) *)
  | Scalar  (** a scalar memory cell is reused across iterations *)
[@@deriving show { with_path = false }, eq]

type dep = {
  d_array : string;
  d_kind : kind;
  d_src : int list;  (** statement path of the source reference *)
  d_dst : int list;
  d_carried : bool;  (** carried by the tested loop *)
  d_distance : distance;
  d_reason : reason;
}
[@@deriving show { with_path = false }]

(* ------------------------------------------------------------------ *)
(* Single-dimension test                                               *)
(* ------------------------------------------------------------------ *)

(** Which test proved a dimension (or pair) independent — exported to the
    metrics registry so a corpus run shows where the analysis earns its
    keep (cf. the paper's per-technique accounting in Tables 1–2). *)
type indep_proof =
  | P_ziv  (** constant subscripts differ *)
  | P_gcd  (** GCD test: the dependence equation has no integer solution *)
  | P_siv  (** strong SIV: non-integral or out-of-range distance *)
  | P_trip  (** Banerjee-style bound: distance exceeds the trip count *)
  | P_disequal  (** a guard/bound disequality separates the cells *)
  | P_distance  (** two dimensions demand conflicting distances *)

let proof_name = function
  | P_ziv -> "ziv"
  | P_gcd -> "gcd"
  | P_siv -> "siv"
  | P_trip -> "trip"
  | P_disequal -> "disequal"
  | P_distance -> "distance"

let all_proofs = [ P_ziv; P_gcd; P_siv; P_trip; P_disequal; P_distance ]

(* registered once; incremented in one batch per [dependences] call so
   the quadratic pair scan never touches a shared cache line per pair *)
let pairs_counter =
  Obs.Metrics.counter Obs.Metrics.global
    ~help:"reference pairs run through the subscript tests"
    "depend_pairs_tested_total"

let deps_counter =
  Obs.Metrics.counter Obs.Metrics.global
    ~help:"pairs where a dependence was assumed or proven"
    "depend_deps_found_total"

let proof_counter p =
  Obs.Metrics.counter Obs.Metrics.global
    ~help:"pairs proven independent, by deciding test"
    (Printf.sprintf "depend_indep_%s_total" (proof_name p))

let proof_counters = List.map (fun p -> (p, proof_counter p)) all_proofs

(** Feasible set of iteration distances d = i(sink) - i(source) allowed by
    one subscript dimension: empty, a singleton, or all of Z. *)
type dim_result =
  | Independent of indep_proof
      (** empty: this dimension proves there is no dependence *)
  | Distance of int  (** satisfied exactly at this iteration distance *)
  | Any  (** satisfiable at any distance (no constraint on tested index) *)
  | Unknown of reason  (** treated as Any, with a diagnosis *)

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(** One affine subscript dimension, split once per reference for the
    tested loop: [index] is the tested loop's index, [inner] the indices
    of loops nested inside it (free to differ between the two
    references). *)
type form = {
  f_index : int;  (** coefficient of the tested index *)
  f_inner : bool;  (** some inner index has a term *)
  f_inner_gcd : int;  (** gcd of the inner indices' coefficients *)
  f_const : int;
  f_sym : (string * int) list;
      (** the other variables' terms, in name order *)
}

let form_of ~index ~inner (a : Affine.t) : form =
  let coeff = ref 0 and has_inner = ref false and g = ref 0 in
  let sym =
    SMap.fold
      (fun v c acc ->
        let is_index = String.equal v index in
        if is_index then coeff := c;
        if List.mem v inner then begin
          has_inner := true;
          g := gcd !g c;
          acc
        end
        else if is_index then acc
        else (v, c) :: acc)
      a.Affine.coeffs []
  in
  {
    f_index = !coeff;
    f_inner = !has_inner;
    f_inner_gcd = !g;
    f_const = a.Affine.const;
    f_sym = List.rev sym;
  }

(* the first variable, in name order, whose coefficients differ between
   the two term lists: the symbolic part that does not cancel *)
let rec sym_leftover l1 l2 =
  match (l1, l2) with
  | [], [] -> None
  | (v, c) :: r1, [] -> if c <> 0 then Some v else sym_leftover r1 []
  | [], (v, c) :: r2 -> if c <> 0 then Some v else sym_leftover [] r2
  | (v1, c1) :: r1, (v2, c2) :: r2 ->
      let k = String.compare v1 v2 in
      if k = 0 then if c1 <> c2 then Some v1 else sym_leftover r1 r2
      else if k < 0 then if c1 <> 0 then Some v1 else sym_leftover r1 l2
      else if c2 <> 0 then Some v2
      else sym_leftover l1 r2

(** Test one subscript dimension on its two split forms.  [trip] is the
    tested loop's constant trip count when known (enables Banerjee-style
    bounding of the distance). *)
let test_forms ~trip (f1 : form) (f2 : form) : dim_result =
  match sym_leftover f1.f_sym f2.f_sym with
  | Some v -> Unknown (Symbolic v)
  | None ->
      let a1 = f1.f_index and a2 = f2.f_index in
      let c = f1.f_const - f2.f_const in
      (* equation: a1*i1 - a2*i2 + (inner terms) + c = 0 *)
      let coupled = f1.f_inner || f2.f_inner in
      if a1 = 0 && a2 = 0 && not coupled then
        (* ZIV: the cell does not depend on the tested index, so equal
           constants conflict at every iteration distance *)
        if c = 0 then Any else Independent P_ziv
      else if coupled then begin
        (* coupled with inner indices: GCD feasibility only *)
        let g = gcd (gcd (gcd a1 a2) f1.f_inner_gcd) f2.f_inner_gcd in
        if g <> 0 && c mod g <> 0 then Independent P_gcd else Any
      end
      else if a1 = a2 then
        (* strong SIV: a*i1 + c = a*i2  =>  d = i2 - i1 = c/a *)
        let a = a1 in
        if a = 0 then if c = 0 then Any else Independent P_ziv
        else if c mod a <> 0 then Independent P_siv
        else
          let d = c / a in
          let out_of_range =
            match trip with Some t -> abs d >= t | None -> false
          in
          if out_of_range then Independent P_trip else Distance d
      else
        (* weak SIV / MIV in the tested index: GCD then give up on
           direction *)
        let g = gcd a1 a2 in
        if g <> 0 && c mod g <> 0 then Independent P_gcd else Unknown Affine

(* ------------------------------------------------------------------ *)
(* Reference-pair test                                                 *)
(* ------------------------------------------------------------------ *)

(** Outcome of testing one reference pair, keeping the deciding proof when
    the pair is shown independent (for the metrics flush in
    [dependences]). *)
type pair_verdict =
  | V_indep of indep_proof
  | V_dep of bool * distance * reason

(** Does a dependence exist between two references of the same array,
    and is it carried by the tested loop?  [forms1] and [forms2] are the
    references' subscripts split by [form_of] ([None] where not affine).
    [injective] names scalars known to take a distinct value in every
    iteration of the loop nest (strictly monotonic generalized induction
    variables): a dimension subscripted by exactly such a variable on
    both sides can only conflict within one iteration. *)
let test_pair ~injective ~disequal ~invariant ~index ~inner ~trip
    (r1 : Loops.ref_info) forms1 (r2 : Loops.ref_info) forms2 : pair_verdict =
  let dim_override s1 s2 =
    match (s1, s2) with
    | Ast.Var v1, Ast.Var v2 when v1 = v2 && Ast_utils.SSet.mem v1 injective ->
        Some (Distance 0)
    | s1, s2
      when Ast.equal_expr s1 s2
           && (match Ast_utils.index_coeff index s1 with
              | Some c when c <> 0 ->
                  (* structurally identical, moving linearly with the
                     tested index, every other variable invariant (and
                     not an inner loop index): the two references only
                     meet in the same iteration *)
                  not
                    (Ast_utils.exists_var
                       (fun v ->
                         v <> index && ((not (invariant v)) || List.mem v inner))
                       s1)
              | _ -> false) ->
        Some (Distance 0)
    | Ast.Var v1, Ast.Var v2
      when v1 <> v2
           && (List.mem (v1, v2) disequal || List.mem (v2, v1) disequal) ->
        (* a known disequality (from an enclosing IF guard or from the
           loop bounds, e.g. DO j = k+1, n  =>  j <> k) separates the
           cells in this dimension *)
        Some (Independent P_disequal)
    | _ -> None
  in
  (* a dimension that is not affine on either side and has no override
     decides the pair before any dimension is combined *)
  let rec non_affine subs1 subs2 forms1 forms2 =
    match (subs1, subs2, forms1, forms2) with
    | s1 :: subs1, s2 :: subs2, f1 :: forms1, f2 :: forms2 ->
        ((Option.is_none f1 || Option.is_none f2)
         && Option.is_none (dim_override s1 s2))
        || non_affine subs1 subs2 forms1 forms2
    | _ -> false
  in
  (* intersect the per-dimension feasible distance sets left to right,
     stopping at the first dimension that proves independence *)
  let rec combine acc subs1 subs2 forms1 forms2 =
    match (subs1, subs2, forms1, forms2) with
    | s1 :: subs1, s2 :: subs2, f1 :: forms1, f2 :: forms2 -> (
        let r =
          match dim_override s1 s2 with
          | Some r -> r
          | None -> test_forms ~trip (Option.get f1) (Option.get f2)
        in
        match (acc, r) with
        | _, Independent p -> V_indep p
        | Distance d1, Distance d2 when d1 <> d2 -> V_indep P_distance
        (* a distance outranks Any and Unknown; the first Unknown keeps
           its reason *)
        | Any, _ | Unknown _, Distance _ -> combine r subs1 subs2 forms1 forms2
        | _ -> combine acc subs1 subs2 forms1 forms2)
    | _ -> (
        match acc with
        | Distance 0 -> V_dep (false, Dist 0, Affine)
        | Distance d -> V_dep (true, Dist d, Affine)
        | Any -> V_dep (true, Star, Affine)
        | Unknown r -> V_dep (true, Star, r)
        | Independent p -> V_indep p)
  in
  if non_affine r1.Loops.r_subs r2.Loops.r_subs forms1 forms2 then
    V_dep (true, Star, Non_affine)
  else combine Any r1.Loops.r_subs r2.Loops.r_subs forms1 forms2

let kind_of (a : Loops.ref_info) (b : Loops.ref_info) =
  match (a.r_access, b.r_access) with
  | Write, Read -> Some Flow
  | Read, Write -> Some Anti
  | Write, Write -> Some Output
  | Read, Read -> None

(** All dependences among the given references with respect to the tested
    loop.  For pairs with a definite distance the source is oriented to the
    earlier iteration; for unknown distances both orientations are
    reported once as [Star].  [env] substitutes recognized induction
    variables by their affine closed forms before testing. *)
let dependences ?(injective = Ast_utils.SSet.empty) ?(disequal = [])
    ?(invariant = fun _ -> false) ~env ~index ~inner ~trip
    (refs : Loops.ref_info list) : dep list =
  let deps = ref [] in
  (* tallied locally and flushed to the registry once per call: the pair
     scan is quadratic and runs on every worker domain, so per-pair
     shared-cacheline atomics would contend *)
  let pairs_tested = ref 0 and deps_found = ref 0 in
  let indep_tallies = List.map (fun (p, c) -> (p, ref 0, c)) proof_counters in
  let note_indep p =
    List.iter (fun (q, r, _) -> if q = p then incr r) indep_tallies
  in
  let arr = Array.of_list refs in
  let n = Array.length arr in
  (* next.(i): the next reference to the same array as i (n if none), so
     the scan visits only the pairs that can conflict, in (i, j) order *)
  let next = Array.make n n in
  let last_seen = ref [] in
  for i = n - 1 downto 0 do
    let name = arr.(i).Loops.r_array in
    match List.find_opt (fun (a, _) -> String.equal a name) !last_seen with
    | Some (_, j) ->
        next.(i) <- !j;
        j := i
    | None -> last_seen := (name, ref i) :: !last_seen
  done;
  (* each reference's subscripts, split once, when it first meets a
     partner it can conflict with *)
  let forms = Array.make n None in
  let forms_of i =
    match forms.(i) with
    | Some f -> f
    | None ->
        let f =
          List.map
            (fun s ->
              Option.map (form_of ~index ~inner) (Affine.of_expr ~env s))
            arr.(i).Loops.r_subs
        in
        forms.(i) <- Some f;
        f
  in
  for i = 0 to n - 1 do
    let a = arr.(i) in
    let j = ref i in
    while !j < n do
      (* quadratic in the reference count: poll the fuel hook so a huge
         nest cannot hold a worker domain past its deadline *)
      Fuel.tick ();
      let b = arr.(!j) in
      (* each unordered pair once, plus self-pairs of writes *)
      (if (i <> !j || a.Loops.r_access = Loops.Write) && kind_of a b <> None
       then
         let verdict =
           if List.compare_lengths a.Loops.r_subs b.Loops.r_subs <> 0 then
             (* reshaped access: give up *)
             V_dep (true, Star, Non_affine)
           else
             test_pair ~injective ~disequal ~invariant ~index ~inner ~trip a
               (forms_of i) b (forms_of !j)
         in
         match verdict with
         | V_indep p ->
             incr pairs_tested;
             note_indep p
         | V_dep (false, Dist 0, _) when i = !j ->
             (* a reference trivially "depends" on itself in the same
                iteration: not a dependence *)
             incr pairs_tested
         | V_dep (carried, dist, reason) ->
             incr pairs_tested;
             incr deps_found;
             let src, dst, dist =
               match dist with
               | Dist d when d < 0 -> (b, a, Dist (-d))
               | d -> (a, b, d)
             in
             (* orient kind with the chosen source *)
             let kind =
               match kind_of src dst with
               | Some k -> k
               | None -> assert false
             in
             (* a loop-independent dep whose source does not precede
                its sink lexically is really carried: within one
                iteration the source must come first *)
             let carried, dist =
               if
                 (not carried)
                 && (not (Loops.path_before src.Loops.r_path dst.Loops.r_path))
                 && src.Loops.r_path <> dst.Loops.r_path
               then (true, Star)
               else (carried, dist)
             in
             deps :=
               {
                 d_array = a.Loops.r_array;
                 d_kind = kind;
                 d_src = src.Loops.r_path;
                 d_dst = dst.Loops.r_path;
                 d_carried = carried;
                 d_distance = dist;
                 d_reason = reason;
               }
               :: !deps);
      j := next.(!j)
    done
  done;
  if !pairs_tested > 0 then Obs.Metrics.incr ~by:!pairs_tested pairs_counter;
  if !deps_found > 0 then Obs.Metrics.incr ~by:!deps_found deps_counter;
  List.iter
    (fun (_, r, c) -> if !r > 0 then Obs.Metrics.incr ~by:!r c)
    indep_tallies;
  List.rev !deps

(** Dependences that prevent running the tested loop as a DOALL. *)
let carried (deps : dep list) = List.filter (fun d -> d.d_carried) deps
