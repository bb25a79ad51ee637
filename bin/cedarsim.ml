(* cedarsim — run a (Cedar) Fortran program on the simulated Cedar.

   Two engines (see DESIGN.md):
     --engine des      cycle-level discrete-event interpretation (default;
                       use for small problem sizes);
     --engine model    the analytic performance model (paper-scale sizes).

   With --restructure SET the input is first run through the parallelizer
   and both the serial and restructured runs are reported with the
   speedup. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let run input machine engine restructure clusters prefetch =
  let src = if input = "-" then In_channel.input_all stdin else read_file input in
  let prog =
    try Fortran.Parser.parse_program src
    with Fortran.Parser.Error (m, l) ->
      Printf.eprintf "cedarsim: parse error at line %d: %s\n" l m;
      exit 1
  in
  let cfg =
    match machine with
    | "cedar" -> Machine.Config.cedar_config1
    | "cedar2" -> Machine.Config.cedar_config2
    | "fx80" -> Machine.Config.fx80
    | m ->
        Printf.eprintf "cedarsim: unknown machine %s\n" m;
        exit 1
  in
  let cfg =
    match clusters with None -> cfg | Some k -> Machine.Config.with_clusters cfg k
  in
  let cfg = Machine.Config.with_prefetch cfg prefetch in
  let evaluate label prog =
    match engine with
    | "des" ->
        let r = Interp.Exec.run ~cfg prog in
        Printf.printf "[%s] %s: %.0f cycles (global %.0f words, cluster %.0f words)\n"
          cfg.Machine.Config.name label r.Interp.Exec.cycles
          r.Interp.Exec.global_words r.Interp.Exec.cluster_words;
        if r.Interp.Exec.output <> "" then begin
          print_string "--- program output ---\n";
          print_string r.Interp.Exec.output
        end;
        r.Interp.Exec.cycles
    | "model" ->
        let r = Perfmodel.Model.evaluate ~cfg prog in
        Printf.printf
          "[%s] %s: %.3e cycles (global %.3e words, cluster %.3e words, %.0f \
           page faults)\n"
          cfg.Machine.Config.name label r.Perfmodel.Model.cycles
          r.Perfmodel.Model.global_words r.Perfmodel.Model.cluster_words
          r.Perfmodel.Model.page_faults;
        r.Perfmodel.Model.cycles
    | e ->
        Printf.eprintf "cedarsim: unknown engine %s (des|model)\n" e;
        exit 1
  in
  match restructure with
  | None -> ignore (evaluate "program" prog)
  | Some set ->
      let opts =
        match set with
        | "auto" -> Restructurer.Options.auto_1991 cfg
        | "advanced" -> Restructurer.Options.advanced cfg
        | t ->
            Printf.eprintf "cedarsim: unknown technique set %s\n" t;
            exit 1
      in
      let serial = evaluate "serial" prog in
      let res = Restructurer.Driver.restructure opts prog in
      let par = evaluate "restructured" res.Restructurer.Driver.program in
      Printf.printf "speedup: %.2f\n" (serial /. par)

let input_arg =
  Arg.(value & pos 0 string "-" & info [] ~docv:"INPUT" ~doc:"source file (- for stdin)")

let machine_arg =
  Arg.(value & opt string "cedar" & info [ "m"; "machine" ] ~docv:"MACHINE" ~doc:"cedar, cedar2 or fx80")

let engine_arg =
  Arg.(value & opt string "des" & info [ "e"; "engine" ] ~docv:"ENGINE" ~doc:"des or model")

let restructure_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "R"; "restructure" ] ~docv:"SET"
        ~doc:"also restructure (auto|advanced) and report the speedup")

let clusters_arg =
  Arg.(value & opt (some int) None & info [ "clusters" ] ~docv:"K" ~doc:"override cluster count")

let prefetch_arg =
  Arg.(value & opt bool true & info [ "prefetch" ] ~docv:"BOOL" ~doc:"global-memory vector prefetch")

let cmd =
  let doc = "execute Fortran programs on the simulated Cedar machine" in
  Cmd.v
    (Cmd.info "cedarsim" ~doc)
    Term.(
      const run $ input_arg $ machine_arg $ engine_arg $ restructure_arg
      $ clusters_arg $ prefetch_arg)

let () = exit (Cmd.eval cmd)
