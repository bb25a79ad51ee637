(** Minimal HTTP/1.0 scrape endpoint: every GET (any path) answers
    [200 OK] with the text produced by the [dump] thunk — intended to
    serve {!Obs.Metrics.dump} to a Prometheus scraper or [curl].  One
    request per connection, 2 s read / 5 s write deadlines.

    The endpoint runs on a {!Server}'s event loop: one accept fiber,
    started with {!Server.spawn}, and one fiber per scrape, so a scrape
    never waits behind a slow or silent connection.  It stops with the
    server: a stop request cancels the accept fiber, which closes the
    listening socket, and {!Server.drain} lets scrapes under way
    finish. *)

val start :
  ?host:string -> port:int -> Server.t -> (unit -> string) -> int
(** [start ~port front dump] binds (default host 127.0.0.1; [port = 0]
    picks an ephemeral one), serves on [front]'s event loop, and
    returns the actually-bound port.  [dump] runs on that loop.
    @raise Unix.Unix_error when the address cannot be bound. *)
