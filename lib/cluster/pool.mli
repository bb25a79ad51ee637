(** A small pool of {!Net.Client} connections to one shard.

    The proxy runs one pool per shard; a request checks a connection
    out, does one round trip, and returns it.  A connection that saw a
    transport error is closed instead of returned, so the pool never
    recycles a socket in an unknown state.  Checkout never blocks: when
    the idle list is empty a fresh connection is dialed, so the caller
    bounds how many can exist at once (the proxy gates each shard to 16
    concurrent round trips, the replicator has one sender thread). *)

type t

val create : ?max_idle:int -> Net.Client.cfg -> t
(** A pool dialing with [cfg]; at most [max_idle] (default 8) idle
    connections are retained, extras are closed on return. *)

val with_client : t -> (Net.Client.t -> ('a, string) result) -> ('a, string) result
(** Check a connection out (dialing if necessary), run [f], return it.
    [Error] from [f] closes the connection and is returned verbatim;
    an exception from [f] closes the connection and re-raises. *)

val idle_count : t -> int
(** Idle connections currently retained (observability). *)

val close_all : t -> unit
(** Close every idle connection.  In-flight ones are closed by their
    holders on return (the pool is marked closed). *)
