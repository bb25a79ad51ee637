(** Cluster membership, shard health, and the ring epoch.

    The shard set is given at creation and is {e mutable} thereafter:
    {!add_shard} and {!remove_shard} change it at runtime (driven by
    [cedarctl cluster add/remove] through the proxy).  What this module
    tracks is which members are currently routable.  Health is probed
    with the protocol's own {!Net.Wire.Ping} on a seeded, jittered loop,
    so a fleet of proxies does not synchronize its probes; the loop
    ({!probe_loop}) is a fiber on the proxy's event loop.  Demotions
    also arrive from the data path — the proxy reports a transport
    error on a routed request via {!note_failure}, which is faster than
    waiting for the next probe tick.

    States: [Up] (routable), [Suspect] (missed probes, still routable —
    the failover path covers it), [Down] (missed [down_after]
    consecutive probes, removed from the ring until a probe succeeds
    again).  Transitions are monotone per observation: one success
    resets to [Up], failures only ever demote.

    {b Ring epoch.}  A monotonically-increasing counter, starting at 1,
    bumped under the membership lock exactly when the set of routable
    shards changes (a Down transition, a resurrection, an add, a
    remove).  A Suspect⇄Up oscillation does not move ownership and does
    not bump it.  Routing decisions snapshot [(ring, epoch)] together
    ({!ring_epoch}), so a caller can tell whether a decision was made
    against topology that has since changed. *)

type state = Up | Suspect | Down

val state_name : state -> string

type shard = { sh_id : string; sh_host : string; sh_port : int }

val check_shard : shard -> (shard, string) result
(** Check a shard where it enters a member view: a non-empty id of
    [[A-Za-z0-9_]] (ids become JSON strings and metric names), an IPv4
    literal host (the client dials [PF_INET] sockets to IP literals
    only), and a port in 1..65535. *)

val parse_shards : string -> (shard list, string) result
(** Parse ["id=host:port,id=host:port,..."], the shard spec every CLI
    takes.  Each shard is checked with {!check_shard}; the first bad
    entry is the [Error]. *)

type t

val create :
  ?vnodes:int ->
  ?probe_ms:float ->
  ?down_after:int ->
  ?timeout_s:float ->
  ?seed:int ->
  ?probe_loss:float ->
  shard list ->
  t
(** Start tracking the given shards (all initially [Up]).  Nothing is
    probed until {!probe_once} or {!probe_loop} runs.  [vnodes]
    (default 64) is per-shard ring weight; [probe_ms] (default 500)
    the mean probe period, jittered ±50% per tick; [down_after]
    (default 2) consecutive failures demote to [Down]; [timeout_s]
    (default 1) bounds each probe's connect and round trip; [seed]
    makes the jitter stream deterministic.  [probe_loss]
    (default 0) deterministically fails that fraction of probes before
    they touch the network — the seeded flapping injector. *)

val ring : t -> Ring.t
(** The current routing ring: every shard not [Down].  Falls back to
    the full member ring when {e every} shard is down — routing into a
    dead shard yields a typed error, whereas routing into an empty
    ring could only shed. *)

val epoch : t -> int
(** The current ring epoch (≥ 1, monotone). *)

val ring_epoch : t -> Ring.t * int
(** Ring and epoch in one locked snapshot — the pair a routing decision
    should be made against. *)

val vnodes : t -> int
(** Virtual nodes per shard on the ring. *)

val add_shard : t -> shard -> (int, string) result
(** Add a member at runtime (initially [Up]).  Returns the new epoch,
    or an error when the id is already a member or the shard fails the
    checks of {!parse_shards}. *)

val remove_shard : t -> string -> (int, string) result
(** Remove a member at runtime.  Returns the new epoch, or an error
    when the id is unknown or is the last member. *)

val snapshot : t -> (shard * state * int) list
(** Every shard with its state and consecutive-failure count. *)

val note_failure : t -> string -> unit
(** Data-path demotion: a routed request hit a transport error on this
    shard id.  Counts like a failed probe. *)

val note_success : t -> string -> unit
(** Data-path promotion: the shard answered; resets it to [Up]. *)

val probe_once : t -> unit
(** One probe pass over every shard (ping, apply transitions).  In a
    fiber it suspends only that fiber; on any other thread it blocks
    the thread. *)

val probe_loop : t -> unit
(** Probe forever: {!probe_once}, then {!Aio.sleep} for the jittered
    period.  A fiber body ([Cluster.Proxy] runs it with
    {!Net.Server.spawn}); it ends only by {!Aio.Cancelled}. *)

val members_json : t -> string
(** Membership as JSON:
    [{"epoch":E,"vnodes":V,"shards":[{"id":...,"host":...,"port":...,
    "state":...,"fails":...},...]}] *)
