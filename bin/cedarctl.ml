(* cedarctl — command-line client for a cedard --serve instance.

   ping      round-trip a Ping frame (repeatable, prints RTT)
   submit    restructure a fortran77 file over the wire
   stats     render the service stats from the Prometheus text dump
   metrics   fetch the Prometheus text dump
   shutdown  ask the server to drain and exit
   drive     closed-loop socket load generator (Traffic over TCP)
   flood     park idle connections (the fiber gate's scaling probe)
   cluster   members, add, remove, stats, metrics against a cedarproxy

   Exit status: 0 success, 1 the server answered with a failure
   (Failed/Timeout/Overloaded/TooLarge/...), 2 usage, 3 transport
   error (could not connect or complete the request). *)

open Cmdliner

let client_cfg host port timeout_s =
  {
    (Net.Client.default_cfg ~port) with
    Net.Client.host;
    request_timeout_s = timeout_s;
  }

let with_client cfg f =
  match Net.Client.connect cfg with
  | Error msg ->
      Printf.eprintf "cedarctl: %s\n" msg;
      3
  | Ok c ->
      let code = f c in
      Net.Client.close c;
      code

let transport msg =
  Printf.eprintf "cedarctl: %s\n" msg;
  3

(* ---- common options ---- *)

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"server address")

let port_arg =
  Arg.(
    required
    & opt (some int) None
    & info [ "p"; "port" ] ~docv:"PORT" ~doc:"server port")

let timeout_arg =
  Arg.(
    value & opt float 120.0
    & info [ "timeout-s" ] ~docv:"S" ~doc:"request timeout in seconds")

(* ---- ping ---- *)

let ping host port timeout_s count =
  with_client (client_cfg host port timeout_s) @@ fun c ->
  let rec go i worst =
    if i > count then begin
      if count > 1 then Printf.printf "worst of %d: %.3f ms\n" count worst;
      0
    end
    else
      match Net.Client.ping c with
      | Ok rtt ->
          Printf.printf "pong from %s:%d: %.3f ms\n" host port (1e3 *. rtt);
          go (i + 1) (Float.max worst (1e3 *. rtt))
      | Error msg -> transport msg
  in
  go 1 0.0

let count_arg =
  Arg.(
    value & opt int 1
    & info [ "n"; "count" ] ~docv:"N" ~doc:"pings to send")

let ping_cmd =
  Cmd.v
    (Cmd.info "ping" ~doc:"round-trip a Ping frame")
    Term.(const ping $ host_arg $ port_arg $ timeout_arg $ count_arg)

(* ---- submit ---- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let submit host port timeout_s file name advanced validate target trace_id
    output quiet =
  match read_file file with
  | exception Sys_error msg ->
      Printf.eprintf "cedarctl: %s\n" msg;
      2
  | source -> (
      let options =
        let base =
          if advanced then
            Restructurer.Options.advanced Machine.Config.cedar_config1
          else Restructurer.Options.auto_1991 Machine.Config.cedar_config1
        in
        { base with Restructurer.Options.validate; target }
      in
      let name =
        match name with Some n -> n | None -> Filename.basename file
      in
      with_client (client_cfg host port timeout_s) @@ fun c ->
      match Net.Client.submit ~trace:trace_id c ~name ~options source with
      | Error msg -> transport msg
      | Ok
          (Net.Wire.R_done
             {
               r_cached;
               r_rung;
               r_text;
               r_cycles;
               r_global_words;
               r_notes;
               r_trace;
             }) ->
          if not quiet then begin
            Printf.printf "done%s rung=%s%s%s trace=%#x\n"
              (if r_cached then " (cached)" else "")
              (match r_rung with
              | Service.Server.Full -> "full"
              | Service.Server.Conservative -> "conservative"
              | Service.Server.Passthrough -> "passthrough")
              (match r_cycles with
              | Some cy -> Printf.sprintf " cycles=%.3g" cy
              | None -> "")
              (match r_global_words with
              | Some w -> Printf.sprintf " global-words=%.3g" w
              | None -> "")
              r_trace;
            List.iter
              (fun n ->
                Printf.printf "  %s/%s depth %d: %s%s\n" n.Net.Wire.n_unit
                  n.Net.Wire.n_index n.Net.Wire.n_depth n.Net.Wire.n_decision
                  (match n.Net.Wire.n_techniques with
                  | [] -> ""
                  | ts -> " [" ^ String.concat ", " ts ^ "]"))
              r_notes
          end;
          (match output with
          | Some "-" -> print_string r_text
          | Some path ->
              let oc = open_out_bin path in
              output_string oc r_text;
              close_out oc;
              if not quiet then Printf.printf "wrote %s\n" path
          | None -> ());
          0
      | Ok (Net.Wire.R_failed msg) ->
          Printf.eprintf "cedarctl: restructuring failed: %s\n" msg;
          1
      | Ok Net.Wire.R_timeout ->
          Printf.eprintf "cedarctl: job timed out at the server\n";
          1
      | Ok Net.Wire.R_cancelled ->
          Printf.eprintf "cedarctl: job cancelled (server shutting down)\n";
          1
      | Ok Net.Wire.R_overloaded ->
          Printf.eprintf "cedarctl: server overloaded, retry later\n";
          1
      | Ok (Net.Wire.R_too_large { limit; got }) ->
          Printf.eprintf
            "cedarctl: source too large: %d bytes exceeds the server's \
             %d-byte cap\n"
            got limit;
          1
      | Ok (Net.Wire.R_error msg) ->
          Printf.eprintf "cedarctl: protocol error: %s\n" msg;
          1)

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"fortran77 source file")

let name_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "name" ] ~docv:"NAME" ~doc:"job label (default: the file name)")

let advanced_arg =
  Arg.(
    value & flag
    & info [ "advanced" ]
        ~doc:"use the advanced technique set instead of auto_1991")

let validate_arg =
  Arg.(
    value & flag
    & info [ "validate" ] ~doc:"ask the server to verify the output")

let target_conv =
  let parse s =
    match Codegen.Target.of_string s with
    | Some t -> Ok t
    | None -> Error (`Msg (Printf.sprintf "unknown target %S (cedar|openmp)" s))
  in
  let print ppf t = Format.pp_print_string ppf (Codegen.Target.to_string t) in
  Arg.conv (parse, print)

let target_arg =
  Arg.(
    value
    & opt target_conv Codegen.Target.Cedar
    & info [ "target" ] ~docv:"TARGET"
        ~doc:"codegen target: $(b,cedar) (default) or $(b,openmp)")

let trace_id_arg =
  Arg.(
    value & opt int 0
    & info [ "trace-id" ] ~docv:"ID"
        ~doc:"propagate this trace id (0 = let the server mint one)")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"write the restructured text to $(docv) (- for stdout)")

let quiet_arg =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"suppress the job report")

let submit_cmd =
  Cmd.v
    (Cmd.info "submit" ~doc:"restructure a fortran77 file over the wire")
    Term.(
      const submit $ host_arg $ port_arg $ timeout_arg $ file_arg $ name_arg
      $ advanced_arg $ validate_arg $ target_arg $ trace_id_arg $ output_arg
      $ quiet_arg)

(* ---- stats / metrics / shutdown ---- *)

(* One query, one reply: [text] picks what to print out of the frame
   that answers [req].  A typed refusal is the server's answer (exit 1);
   only a request that got no reply at all is a transport error
   (exit 3). *)
let query req text host port timeout_s =
  with_client (client_cfg host port timeout_s) @@ fun c ->
  match Net.Client.request c req with
  | Error msg -> transport msg
  | Ok reply -> (
      match text reply with
      | Some s ->
          print_string s;
          if String.length s > 0 && s.[String.length s - 1] <> '\n' then
            print_newline ();
          0
      | None ->
          Printf.eprintf "cedarctl: %s\n"
            (match reply with
            | Net.Wire.Result (Net.Wire.R_error msg) -> msg
            | other ->
                Printf.sprintf "unexpected %s frame"
                  (Net.Wire.message_kind_name other));
          1)

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"machine-readable JSON instead of the human text")

(* the server sends the Prometheus text; every view is rendered here *)
let stats host port timeout_s json =
  query Net.Wire.Metrics_req
    (function
      | Net.Wire.Metrics_text s -> Some (Service.Stats.render ~json s)
      | _ -> None)
    host port timeout_s

let stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "render the service stats (a cedarproxy's: the cluster view) from \
          the metrics dump; latency percentiles are within 9.1% of exact")
    Term.(const stats $ host_arg $ port_arg $ timeout_arg $ json_arg)

let metrics host port timeout_s json =
  query Net.Wire.Metrics_req
    (function
      | Net.Wire.Metrics_text s ->
          Some (if json then Obs.Metrics.json_of_dump s else s)
      | _ -> None)
    host port timeout_s

let metrics_cmd =
  Cmd.v
    (Cmd.info "metrics" ~doc:"fetch the Prometheus metrics dump")
    Term.(const metrics $ host_arg $ port_arg $ timeout_arg $ json_arg)

let shutdown host port timeout_s =
  with_client (client_cfg host port timeout_s) @@ fun c ->
  match Net.Client.shutdown c with
  | Ok () ->
      print_endline "server acknowledged shutdown";
      0
  | Error msg -> transport msg

let shutdown_cmd =
  Cmd.v
    (Cmd.info "shutdown" ~doc:"ask the server to drain and exit")
    Term.(const shutdown $ host_arg $ port_arg $ timeout_arg)

(* ---- drive ---- *)

let drive host port timeout_s requests conns seed jitter batch validate
    target =
  let cfg = client_cfg host port timeout_s in
  let dcfg =
    {
      Net.Client.requests;
      conns = max 1 conns;
      seed;
      size_jitter = max 0 jitter;
      batch = max 1 batch;
      validate;
      target;
    }
  in
  let s = Net.Client.drive cfg dcfg in
  print_endline (Net.Client.drive_summary_to_string s);
  let resolved =
    s.Net.Client.d_done + s.Net.Client.d_failed + s.Net.Client.d_timeout
    + s.Net.Client.d_cancelled + s.Net.Client.d_overloaded
    + s.Net.Client.d_too_large + s.Net.Client.d_errors
  in
  if resolved = s.Net.Client.d_requests && s.Net.Client.d_errors = 0 then 0
  else 1

let requests_arg =
  Arg.(
    value & opt int 200
    & info [ "n"; "requests" ] ~docv:"N" ~doc:"total jobs to issue")

let conns_arg =
  Arg.(
    value & opt int 4
    & info [ "c"; "conns" ] ~docv:"N" ~doc:"concurrent connections")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"traffic seed")

let jitter_arg =
  Arg.(
    value & opt int 4
    & info [ "size-jitter" ] ~docv:"J" ~doc:"problem-size spread")

let batch_arg =
  Arg.(
    value & opt int 4
    & info [ "batch" ] ~docv:"K" ~doc:"sources concatenated per request")

let drive_validate_arg =
  Arg.(
    value & flag
    & info [ "validate" ] ~doc:"request validation on every job")

let drive_cmd =
  Cmd.v
    (Cmd.info "drive"
       ~doc:"closed-loop socket load generator over the workloads corpus")
    Term.(
      const drive $ host_arg $ port_arg $ timeout_arg $ requests_arg
      $ conns_arg $ seed_arg $ jitter_arg $ batch_arg $ drive_validate_arg
      $ target_arg)

(* ---- flood ---- *)

(* Park [conns] idle TCP connections against the server for [hold_s]
   seconds, then verify each one is still open (readable-with-data or
   EOF means the server hung up on us) and close them.  This is the CI
   lever for the fiber server's idle-connection claim: a harness floods
   a live cedard, measures its RSS growth from /proc, and drives real
   traffic through the parked crowd.  Exit 0 iff every connection opened
   and survived the hold. *)
let flood host port conns hold_s =
  ignore (Aio.raise_fd_limit ());
  let addr =
    try Unix.inet_addr_of_string host
    with _ -> (
      match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
      | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
      | _ ->
          Printf.eprintf "cedarctl: cannot resolve %s\n" host;
          exit 3)
  in
  let sockaddr = Unix.ADDR_INET (addr, port) in
  let opened = ref [] in
  let failed = ref 0 in
  (for _ = 1 to conns do
     match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
     | exception Unix.Unix_error _ -> incr failed
     | fd -> (
         match Unix.connect fd sockaddr with
         | () -> opened := fd :: !opened
         | exception Unix.Unix_error _ ->
             incr failed;
             Unix.close fd)
   done);
  let n_opened = List.length !opened in
  Printf.printf "flood: opened %d/%d idle connections, holding %.1fs\n%!"
    n_opened conns hold_s;
  Unix.sleepf (Float.max 0.0 hold_s);
  (* a held connection is healthy iff it is silent: any readability on a
     connection we never wrote to means the server spoke first — an
     Overloaded shed frame, a kill, or a plain close (EOF) *)
  let still_open =
    List.fold_left
      (fun acc fd ->
        let alive = not (Aio.poll_fd fd `Read ~timeout_s:0.0) in
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if alive then acc + 1 else acc)
      0 !opened
  in
  Printf.printf
    "{ \"requested\": %d, \"opened\": %d, \"failed\": %d, \"held_s\": %.1f, \
     \"still_open\": %d }\n"
    conns n_opened !failed hold_s still_open;
  if n_opened = conns && still_open = n_opened then 0 else 1

let flood_conns_arg =
  Arg.(
    value & opt int 1000
    & info [ "n"; "conns" ] ~docv:"N" ~doc:"idle connections to park")

let hold_arg =
  Arg.(
    value & opt float 30.0
    & info [ "hold-s" ] ~docv:"S" ~doc:"seconds to hold the connections open")

let flood_cmd =
  Cmd.v
    (Cmd.info "flood"
       ~doc:
         "park idle connections against the server (the fiber gate's \
          connection-scaling probe)")
    Term.(const flood $ host_arg $ port_arg $ flood_conns_arg $ hold_arg)

(* ---- cluster (against a cedarproxy) ---- *)

let cluster_members host port timeout_s =
  query Net.Wire.Members_req
    (function Net.Wire.Members_json s -> Some s | _ -> None)
    host port timeout_s

let cluster_members_cmd =
  Cmd.v
    (Cmd.info "members"
       ~doc:
         "fetch ring membership and shard health from a cedarproxy, as \
          JSON (the proxy's counters and each shard's replication \
          counters are in $(b,cluster stats --json))")
    Term.(const cluster_members $ host_arg $ port_arg $ timeout_arg)

let report_ack (ack : Net.Wire.cluster_ack) =
  if ack.Net.Wire.ack_ok then begin
    Printf.printf "%s (epoch %d)\n" ack.Net.Wire.ack_msg ack.Net.Wire.ack_epoch;
    0
  end
  else begin
    Printf.eprintf "cedarctl: %s\n" ack.Net.Wire.ack_msg;
    1
  end

let cluster_add host port timeout_s spec =
  match Cluster.Membership.parse_shards spec with
  | Error msg ->
      Printf.eprintf "cedarctl: %s\n" msg;
      2
  | Ok [ { Cluster.Membership.sh_id; sh_host; sh_port } ] -> (
      with_client (client_cfg host port timeout_s) @@ fun c ->
      match
        Net.Client.cluster_add c
          { Net.Wire.ca_id = sh_id; ca_host = sh_host; ca_port = sh_port }
      with
      | Ok ack -> report_ack ack
      | Error msg -> transport msg)
  | Ok _ ->
      Printf.eprintf "cedarctl: %S: expected one id=host:port\n" spec;
      2

let shard_spec_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SPEC" ~doc:"the shard to add, as id=host:port")

let cluster_add_cmd =
  Cmd.v
    (Cmd.info "add"
       ~doc:
         "add a shard to the member set at runtime: the proxy drains \
          in-flight relays, bumps the ring epoch, routes on the new \
          ring, and broadcasts the change to the other shards")
    Term.(
      const cluster_add $ host_arg $ port_arg $ timeout_arg $ shard_spec_arg)

let cluster_remove host port timeout_s shard_id =
  with_client (client_cfg host port timeout_s) @@ fun c ->
  match Net.Client.cluster_remove c shard_id with
  | Ok ack -> report_ack ack
  | Error msg -> transport msg

let shard_id_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SHARD" ~doc:"id of the shard to remove")

let cluster_remove_cmd =
  Cmd.v
    (Cmd.info "remove"
       ~doc:
         "remove a shard from the member set at runtime (refused for \
          the last member)")
    Term.(
      const cluster_remove $ host_arg $ port_arg $ timeout_arg $ shard_id_arg)

let cluster_stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "render the proxy's merged metrics dump as its counters and \
          member view, then every live shard's stats")
    Term.(const stats $ host_arg $ port_arg $ timeout_arg $ json_arg)

let cluster_metrics_cmd =
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "fetch the proxy's registry merged with every live shard's \
          (their samples labelled shard=ID)")
    Term.(const metrics $ host_arg $ port_arg $ timeout_arg $ json_arg)

let cluster_cmd =
  Cmd.group
    (Cmd.info "cluster"
       ~doc:
         "cluster-level queries against a cedarproxy (a plain shard \
          answers stats/metrics but has no membership view)")
    [
      cluster_members_cmd; cluster_add_cmd; cluster_remove_cmd;
      cluster_stats_cmd; cluster_metrics_cmd;
    ]

(* ---- entry ---- *)

let cmd =
  let doc = "client for a cedard --serve instance or a cedarproxy" in
  Cmd.group (Cmd.info "cedarctl" ~doc)
    [
      ping_cmd; submit_cmd; stats_cmd; metrics_cmd; shutdown_cmd; drive_cmd;
      flood_cmd; cluster_cmd;
    ]

let () = exit (Cmd.eval' cmd)
