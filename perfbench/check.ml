(* Output checks that do not depend on timing: the modelled Cedar
   speedup of a reply, and the interpreter as an independent oracle for
   "restructuring never changes program output". *)

open Service.Server

let parse = Fortran.Parser.parse_program

(* perfmodel cycles of the original source over the reply's p_cycles *)
let speedup req p =
  match p.p_cycles with
  | None -> None
  | Some c -> (
      match
        Perfmodel.Model.evaluate ~cfg:req.req_options.Restructurer.Options.machine
          (parse req.req_source)
      with
      | run when c > 0.0 -> Some (run.Perfmodel.Model.cycles /. c)
      | _ -> None
      | exception _ -> None)

let program_names prog =
  List.filter_map
    (fun u -> if u.Fortran.Ast.u_kind = Fortran.Ast.Program then Some u.Fortran.Ast.u_name else None)
    prog

(* Run each PROGRAM unit of the request (a batch holds several) on the
   original and on the reply, and compare what they PRINT.  Returns
   (programs checked, mismatches); an exception is a mismatch. *)
let equivalent req p =
  let opts = req.req_options in
  let cfg = opts.Restructurer.Options.machine in
  let reply =
    match opts.Restructurer.Options.target with
    | Codegen.Target.Cedar -> Ok p.p_text
    | Codegen.Target.Openmp -> Codegen.Openmp.lift_source p.p_text
  in
  match (parse req.req_source, Result.map parse reply) with
  | orig, Ok out ->
      let output prog name =
        let keep u = u.Fortran.Ast.u_kind <> Fortran.Ast.Program || u.Fortran.Ast.u_name = name in
        (Interp.Exec.run ~cfg (List.filter keep prog)).Interp.Exec.output
      in
      List.fold_left
        (fun (n, bad) name ->
          let same = try String.equal (output orig name) (output out name) with _ -> false in
          (n + 1, if same then bad else bad + 1))
        (0, 0) (program_names orig)
  | _, Error _ | (exception _) -> (1, 1)
