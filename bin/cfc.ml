(* cfc — the Cedar Fortran restructurer CLI.

   Reads fortran77 source, runs the parallelizer, and writes Cedar
   Fortran.  The -T flag selects the technique set (the paper's
   "automatically compiled" 1991 parallelizer, or the "manually improved"
   advanced set with every §4.1 technique automated); -r prints the
   per-loop decision report. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let run input output techniques machine report_flag placement validate =
  let src = if input = "-" then In_channel.input_all stdin else read_file input in
  let prog =
    try Fortran.Parser.parse_program src
    with Fortran.Parser.Error (m, l) ->
      Printf.eprintf "cfc: parse error at line %d: %s\n" l m;
      exit 1
  in
  let cfg =
    match machine with
    | "cedar" -> Machine.Config.cedar_config1
    | "cedar2" -> Machine.Config.cedar_config2
    | "fx80" -> Machine.Config.fx80
    | m ->
        Printf.eprintf "cfc: unknown machine %s (cedar|cedar2|fx80)\n" m;
        exit 1
  in
  let opts =
    match techniques with
    | "auto" -> Restructurer.Options.auto_1991 cfg
    | "advanced" -> Restructurer.Options.advanced cfg
    | t ->
        Printf.eprintf "cfc: unknown technique set %s (auto|advanced)\n" t;
        exit 1
  in
  let opts =
    {
      opts with
      Restructurer.Options.placement_default =
        (match placement with
        | "cluster" -> Transform.Globalize.Default_cluster
        | "global" -> Transform.Globalize.Default_global
        | p ->
            Printf.eprintf "cfc: unknown placement default %s\n" p;
            exit 1);
    }
  in
  let opts = { opts with Restructurer.Options.validate } in
  let result = Restructurer.Driver.restructure opts prog in
  let text = Fortran.Printer.program_to_string result.Restructurer.Driver.program in
  (match output with
  | "-" -> print_string text
  | path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc);
  if report_flag then begin
    prerr_endline "--- restructuring report ---";
    List.iter
      (fun r -> prerr_endline (Restructurer.Driver.report_to_string r))
      result.Restructurer.Driver.reports;
    match result.Restructurer.Driver.inline_failures with
    | [] -> ()
    | fails ->
        prerr_endline "--- inline expansion failures ---";
        List.iter
          (fun f -> prerr_endline ("  " ^ Transform.Inline.show_failure f))
          fails
  end

let input_arg =
  Arg.(value & pos 0 string "-" & info [] ~docv:"INPUT" ~doc:"fortran77 source file (- for stdin)")

let output_arg =
  Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"OUTPUT" ~doc:"output file (- for stdout)")

let tech_arg =
  Arg.(
    value & opt string "auto"
    & info [ "T"; "techniques" ] ~docv:"SET"
        ~doc:"technique set: auto (the 1991 parallelizer) or advanced (all \
              §4.1 techniques)")

let machine_arg =
  Arg.(
    value & opt string "cedar"
    & info [ "m"; "machine" ] ~docv:"MACHINE" ~doc:"cedar, cedar2 or fx80")

let report_arg =
  Arg.(value & flag & info [ "r"; "report" ] ~doc:"print per-loop decisions to stderr")

let placement_arg =
  Arg.(
    value & opt string "cluster"
    & info [ "placement-default" ] ~docv:"P"
        ~doc:"default placement for interface data: cluster or global")

let validate_arg =
  Arg.(
    value & flag
    & info [ "V"; "validate" ]
        ~doc:"re-verify every transformed loop with the independent \
              checker; loops that fail are demoted to serial")

let cmd =
  let doc = "restructure fortran77 into Cedar Fortran" in
  Cmd.v
    (Cmd.info "cfc" ~doc)
    Term.(
      const run $ input_arg $ output_arg $ tech_arg $ machine_arg $ report_arg
      $ placement_arg $ validate_arg)

let () = exit (Cmd.eval cmd)
