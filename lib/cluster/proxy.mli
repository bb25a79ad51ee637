(** The cluster balancer: a cedarnet server whose backend is other
    cedarnet servers.

    Speaks {!Net.Wire} on both sides.  Clients connect exactly as they
    would to a single cedard; each [Submit] is content-addressed with
    the same canonical key the shards use ({!Service.Server.cache_key})
    and routed to the key's ring owner, so the same program always
    lands on the same shard — and therefore in the same warm cache.

    The proxy is a {!Net.Server.serve} front end with a relay handler,
    so its connections, deadlines, budgets, corked writes and [net_*]
    metrics are exactly cedard's.  Requests pipeline: each admitted
    request is relayed by its own fiber on the front end's scheduler
    through a per-shard connection pool, and relayed replies come back
    in request order — the same contract as a shard.  [max_inflight]
    bounds how many relays are in flight; at most 16 round trips run
    against one shard at once and the rest park in FIFO order, which
    keeps the proxy's connections to a shard inside a shard's default
    connection budget.  A relay waiting on a silent shard delays no
    relay to another shard.

    Failure handling, in order of preference: a shard that answers
    typed (even [R_overloaded]) is believed; a transport failure demotes
    the shard in {!Membership} and the request retries on the ring
    successor (safe — submits are idempotent by content-addressed key);
    when every candidate is unreachable or saturated the proxy sheds
    with the protocol's existing [R_overloaded].

    The proxy also serves cluster-wide observability: [Metrics_req]
    answers with its own registry, its member view ([member]-labelled
    [cluster_member_fails] and [cluster_pool_idle]) and every live
    member's dump relabelled [shard="<id>"] (a Down one is not dialed),
    which {!Service.Stats.render} turns into the cluster view;
    [Members_req] reports ring membership at once without dialing a
    shard.

    {b Topology changes.}  [Cluster_add] / [Cluster_remove] frames
    (from [cedarctl cluster add/remove]) change the member set at
    runtime behind an epoch barrier: the proxy stops admitting new
    relays, drains the ones routed on the old ring, applies the
    membership mutation (bumping the ring epoch), and only then routes
    on the new ring — no request is ever relayed against a stale
    epoch ({!stale_routes_total} counts violations; it stays 0).  The
    applied change is then broadcast best-effort to the live shards so
    their replicators re-balance onto the new ring.

    {b Read-repair.}  A warm full-rung hit served by a shard that is
    not the key's current ring owner (failover, or ownership moved
    under a topology change) is pushed back to the owner off the
    critical path, so subsequent requests for the key land warm on the
    first candidate. *)

type cfg = {
  host : string;
  port : int;  (** 0 = ephemeral *)
  max_conns : int;
  max_inflight : int;  (** across all client connections *)
  failover : int;  (** ring candidates tried per submit (owner included) *)
  read_timeout_s : float;  (** client-side quiet timeout *)
  shard_timeout_s : float;
      (** per-shard connect bound, and the deadline on each relay
          attempt's whole round trip *)
}

val default_cfg : cfg
(** 127.0.0.1, ephemeral port, 64 conns, 256 in flight, failover 2,
    30 s reads, 60 s shard timeout. *)

type t

val create :
  ?cfg:cfg ->
  ?vnodes:int ->
  ?probe_ms:float ->
  ?down_after:int ->
  ?seed:int ->
  Membership.shard list ->
  t
(** Start the proxy over the given shards: builds the membership view,
    the per-shard pools and the front end, and spawns the view's
    jittered probe loop on the front end's event loop.  Ring parameters
    must match the shards' replicators ([vnodes], default 64).
    @raise Unix.Unix_error when the address cannot be bound (nothing
    has started then). *)

val port : t -> int
(** The bound TCP port. *)

val front : t -> Net.Server.t
(** The front end the proxy serves through; other loops can run on its
    event loop ({!Net.Server.spawn}), as cedarproxy's metrics endpoint
    does. *)

val membership : t -> Membership.t

val request_stop : t -> unit
(** Ask the proxy to stop (signal-handler safe). *)

val wait_stop : t -> unit
(** Block until {!request_stop} is called. *)

val drain : t -> unit
(** Stop accepting, stop probing, finish in-flight relays and
    read-repairs and flush their replies, close the pools.
    Idempotent. *)

val routed_total : t -> int
(** Submits relayed to a shard (first attempt or failover).  Like every
    [*_total] below, this proxy's own count, held in a child of a
    registry total (here [cluster_proxy_routed_total]) that sums every
    proxy in the process. *)

val failover_total : t -> int
(** Submits that succeeded only on a non-first candidate
    ([cluster_failover_total]). *)

val shed_total : t -> int
(** Requests the proxy refused itself: the front end's connection and
    in-flight budget sheds ([net_shed_total]) plus submits no live
    candidate could take ([cluster_proxy_shed_total]). *)

val epoch : t -> int
(** The membership view's current ring epoch. *)

val stale_routes_total : t -> int
(** Relays whose routing decision predated a topology change — the
    epoch barrier exists to keep this at 0
    ([cluster_proxy_stale_routes_total]). *)

val read_repair_total : t -> int
(** Misplaced warm hits pushed back to their current ring owner
    ([cluster_read_repair_total]). *)

val topology_changes_total : t -> int
(** Membership changes applied (successful add/remove frames)
    ([cluster_topology_changes_total]). *)
