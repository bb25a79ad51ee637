(** Stripmining (paper §3.2).

    Turns a parallelizable loop into a concurrent loop over strips whose
    body processes one strip in vector form:

    {v
      DO i = 1, n                 GLOBAL a, b
        t = b(i)          ==>     XDOALL i = 1, n, strip
        a(i) = sqrt(t)              INTEGER upper, i3
      END DO                        REAL t(strip)
                                    i3 = MIN(strip, n - i + 1)
                                    upper = i + i3 - 1
                                    t(1:i3) = b(i:upper)
                                    a(i:upper) = sqrt(t(1:i3))
                                  END XDOALL
    v}

    Privatizable scalars are expanded into strip-sized loop-local arrays —
    the combination of privatization and scalar expansion the paper
    describes. *)

open Fortran

(* Cedar's prefetch depth *)
let default_strip = 32

(** Stripmine loop [h]/[body] into class [cls] with strip size [strip].
    [private_scalars] are the privatizable scalars of the body (they get
    expanded); fails (None) when the body shape cannot vectorize. *)
let apply ?(strip = default_strip) ~(cls : Ast.loop_class)
    ~(private_scalars : string list) (h : Ast.do_header)
    (body : Ast.stmt list) : Ast.stmt option =
  if h.Ast.step <> None && h.Ast.step <> Some (Ast.Int 1) then None
  else if not (Vectorize.vectorizable_shape body) then None
  else
    let i = h.Ast.index in
    let i3 = Ast_utils.fresh_name "i3_" in
    let upper = Ast_utils.fresh_name "iup_" in
    let expanded =
      List.map (fun v -> (v, Ast_utils.fresh_name (v ^ "_x"))) private_scalars
    in
    let lo_v = Ast.Var i in
    let hi_v = Ast.Var upper in
    let exp_range = Some (Ast.Int 1, Ast.Var i3) in
    match
      try
        Some
          (Vectorize.vector_stmts ~index:i ~lo:lo_v ~hi:hi_v ~exp_range
             ~expanded body)
      with Vectorize.Fail _ -> None
    with
    | None -> None
    | Some vbody ->
        let locals =
          [
            { Ast.d_name = i3; d_type = Ast.Integer; d_dims = []; d_vis = Ast.Default };
            { Ast.d_name = upper; d_type = Ast.Integer; d_dims = []; d_vis = Ast.Default };
          ]
          @ List.map
              (fun (_, arr) ->
                {
                  Ast.d_name = arr;
                  d_type = Ast.Real;
                  d_dims = [ (Ast.Int 1, Ast.Int strip) ];
                  d_vis = Ast.Default;
                })
              expanded
        in
        let setup =
          [
            Ast.Assign
              ( Ast.LVar i3,
                Ast.Call
                  ( "min",
                    [
                      Ast.Int strip;
                      Ast_utils.simplify
                        (Ast.Bin
                           ( Ast.Add,
                             Ast.Bin (Ast.Sub, h.Ast.hi, Ast.Var i),
                             Ast.Int 1 ));
                    ] ) );
            Ast.Assign
              ( Ast.LVar upper,
                Ast.Bin
                  ( Ast.Sub,
                    Ast.Bin (Ast.Add, Ast.Var i, Ast.Var i3),
                    Ast.Int 1 ) );
          ]
        in
        Some
          (Ast.Do
             ( {
                 Ast.index = i;
                 lo = h.Ast.lo;
                 hi = h.Ast.hi;
                 step = Some (Ast.Int strip);
                 cls;
                 locals;
               },
               Ast.seq_block (setup @ vbody) ))
