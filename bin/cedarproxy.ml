(* cedarproxy — the cedar-cluster balancer.

   Routes cedarnet Submits across a static set of cedard shards by
   consistent hash of the content-addressed job key, with failover to
   the ring successor and membership health from a jittered ping probe.
   Speaks the same wire protocol as a single cedard, so clients
   (cedarctl, Net.Client.drive, anything else) need no changes. *)

open Cmdliner

let run shards_spec host port max_conns max_inflight failover vnodes
    probe_ms down_after timeout_s seed metrics_port =
  match Cluster.Membership.parse_shards shards_spec with
  | Error msg ->
      Printf.eprintf "cedarproxy: bad --shards spec: %s\n" msg;
      2
  | Ok shards ->
      let cfg =
        {
          Cluster.Proxy.host;
          port;
          max_conns;
          max_inflight;
          failover = max 1 failover;
          read_timeout_s = 30.0;
          shard_timeout_s = timeout_s;
        }
      in
      (* a fiber front-end is only bounded by descriptors; take the
         hard limit before accepting *)
      ignore (Aio.raise_fd_limit ());
      let proxy =
        Cluster.Proxy.create ~cfg ~vnodes ~probe_ms ~down_after ~seed shards
      in
      Option.iter
        (fun p ->
          Printf.printf "cedarproxy: metrics on http://%s:%d/metrics\n%!" host
            (Net.Metrics_http.start ~host ~port:p (Cluster.Proxy.front proxy)
               (fun () -> Obs.Metrics.dump Obs.Metrics.global)))
        metrics_port;
      let on_signal _ = Cluster.Proxy.request_stop proxy in
      Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
      Printf.printf
        "cedarproxy: balancing %d shard(s) on %s:%d (failover %d, %d \
         vnodes, probe %.0f ms, down after %d)\n%!"
        (List.length shards) host
        (Cluster.Proxy.port proxy)
        cfg.Cluster.Proxy.failover vnodes probe_ms down_after;
      List.iter
        (fun (s : Cluster.Membership.shard) ->
          Printf.printf "  shard %-12s %s:%d\n%!" s.Cluster.Membership.sh_id
            s.Cluster.Membership.sh_host s.Cluster.Membership.sh_port)
        shards;
      Cluster.Proxy.wait_stop proxy;
      Printf.printf "cedarproxy: draining...\n%!";
      Cluster.Proxy.drain proxy;
      Printf.printf
        "cedarproxy: routed %d submit(s), %d failover(s), shed %d, %d \
         topology change(s) (final epoch %d), %d read-repair(s), %d stale \
         route(s)\n"
        (Cluster.Proxy.routed_total proxy)
        (Cluster.Proxy.failover_total proxy)
        (Cluster.Proxy.shed_total proxy)
        (Cluster.Proxy.topology_changes_total proxy)
        (Cluster.Proxy.epoch proxy)
        (Cluster.Proxy.read_repair_total proxy)
        (Cluster.Proxy.stale_routes_total proxy);
      0

let shards_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "shards" ] ~docv:"SPEC"
        ~doc:
          "the static shard set as id=host:port,id=host:port,...  Must \
           match the --cluster list (and --vnodes) the shards were \
           started with, or routing and replication will disagree on \
           key placement")

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"bind address")

let port_arg =
  Arg.(
    value & opt int 0
    & info [ "p"; "port" ] ~docv:"PORT"
        ~doc:"TCP port to listen on (0 picks an ephemeral port)")

let max_conns_arg =
  Arg.(
    value & opt int 64
    & info [ "max-conns" ] ~docv:"N" ~doc:"accepted-connection budget")

let max_inflight_arg =
  Arg.(
    value & opt int 256
    & info [ "max-inflight" ] ~docv:"N"
        ~doc:"outstanding-submit budget across all connections")

let failover_arg =
  Arg.(
    value & opt int 2
    & info [ "failover" ] ~docv:"N"
        ~doc:
          "ring candidates tried per submit: the owner plus up to N-1 \
           successors")

let vnodes_arg =
  Arg.(
    value & opt int 64
    & info [ "vnodes" ] ~docv:"V"
        ~doc:"virtual nodes per shard on the consistent-hash ring")

let probe_arg =
  Arg.(
    value & opt float 500.0
    & info [ "probe-ms" ] ~docv:"MS"
        ~doc:"mean health-probe period (jittered +/-50 percent)")

let down_after_arg =
  Arg.(
    value & opt int 2
    & info [ "down-after" ] ~docv:"N"
        ~doc:"consecutive probe failures that remove a shard from the ring")

let timeout_arg =
  Arg.(
    value & opt float 60.0
    & info [ "timeout-s" ] ~docv:"S"
        ~doc:"per-shard connect and round-trip bound")

let seed_arg =
  Arg.(
    value & opt int 0x5eed
    & info [ "seed" ] ~docv:"SEED" ~doc:"probe-jitter seed")

let metrics_port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "metrics-port" ] ~docv:"PORT"
        ~doc:
          "also serve the Prometheus text dump over HTTP on $(docv) (0 \
           picks an ephemeral port)")

let cmd =
  let doc = "consistent-hash balancer for a cluster of cedard shards" in
  Cmd.v
    (Cmd.info "cedarproxy" ~doc)
    Term.(
      const run $ shards_arg $ host_arg $ port_arg $ max_conns_arg
      $ max_inflight_arg $ failover_arg $ vnodes_arg $ probe_arg
      $ down_after_arg $ timeout_arg $ seed_arg $ metrics_port_arg)

let () = exit (Cmd.eval' cmd)
