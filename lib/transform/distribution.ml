(** Loop distribution (paper §3.3).

    To substitute a library routine for a recurrence the restructurer must
    isolate the recurrence statements into their own loop, "which adds
    loop control overhead … the payoff comes from the wealth of algebraic
    insight" of the library.  Distribution of [DO i: S1; S2] into two
    loops is legal when no value flows backward: nothing written by a
    later group may be read or written by an earlier group in a later
    iteration.  We use the conservative statement-level check on
    read/write sets. *)

open Fortran
module SSet = Ast_utils.SSet

(** Split [body] at top level into the given consecutive groups (list of
    statement counts).  Returns [None] when illegal. *)
let distribute (h : Ast.do_header) (body : Ast.stmt list)
    (group_sizes : int list) : Ast.stmt list option =
  if
    List.fold_left ( + ) 0 group_sizes <> List.length body
    || Ast_utils.contains_goto body
    || Ast_utils.exists_stmt
         (function Ast.Labeled _ -> true | _ -> false)
         body
  then None
  else
    let rec split acc body = function
      | [] -> List.rev acc
      | n :: rest ->
          let rec take k xs =
            if k = 0 then ([], xs)
            else
              match xs with
              | [] -> ([], [])
              | x :: tl ->
                  let a, b = take (k - 1) tl in
                  (x :: a, b)
          in
          let g, remainder = take n body in
          split (g :: acc) remainder rest
    in
    let groups = split [] body group_sizes in
    (* legality: for groups A before B,
       - writes(B) must not touch anything A references (no backward dep);
       - values flowing forward (writes(A) ∩ reads(B)) must be arrays
         accessed elementwise-identically: B's iteration i must read what
         A's iteration i wrote.  A scalar written every iteration of A and
         read by B would deliver only its final value — illegal (the
         classic carried anti-dependence reversal). *)
    let elementwise_identical name a b =
      let refs =
        List.filter
          (fun r -> r.Analysis.Loops.r_array = name)
          (Analysis.Loops.collect_refs (a @ b))
      in
      match refs with
      | [] -> false (* a scalar: no array refs recorded *)
      | first :: rest ->
          (* the cell must move with the distributed index — a fixed cell
             (e.g. an accumulator indexed by an outer loop only) would see
             all of the earlier group's iterations instead of its own *)
          List.exists (Ast_utils.mentions h.Ast.index)
            first.Analysis.Loops.r_subs
          && List.for_all
               (fun r ->
                 List.length r.Analysis.Loops.r_subs
                 = List.length first.Analysis.Loops.r_subs
                 && List.for_all2 Fortran.Ast.equal_expr
                      r.Analysis.Loops.r_subs first.Analysis.Loops.r_subs)
               rest
    in
    let rec legal = function
      | [] | [ _ ] -> true
      | g :: rest ->
          let later_writes =
            List.fold_left
              (fun acc g' -> SSet.union acc (Ast_utils.writes_of g'))
              SSet.empty rest
          in
          let later_reads =
            List.fold_left
              (fun acc g' -> SSet.union acc (Ast_utils.reads_of g'))
              SSet.empty rest
          in
          let mine = Ast_utils.names_of g in
          SSet.is_empty (SSet.inter later_writes mine)
          && SSet.for_all
               (fun v ->
                 (not (SSet.mem v later_reads))
                 || elementwise_identical v g (List.concat rest))
               (Ast_utils.writes_of g)
          && legal rest
    in
    if not (legal groups) then None
    else
      Some
        (List.map
           (fun g -> Ast.Do ({ h with Ast.locals = [] }, Ast.seq_block g))
           groups)

(** Isolate statement [k] (0-based, top level) into its own loop:
    [before-loop; stmt-loop; after-loop] with empty groups dropped. *)
let isolate (h : Ast.do_header) (body : Ast.stmt list) (k : int) :
    Ast.stmt list option =
  let n = List.length body in
  if k < 0 || k >= n then None
  else
    let sizes = List.filter (fun s -> s > 0) [ k; 1; n - k - 1 ] in
    distribute h body sizes
