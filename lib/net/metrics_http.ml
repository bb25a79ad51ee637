(* Minimal HTTP/1.0 endpoint for the Prometheus text dump, on a
   Net.Server's event loop: one accept fiber, one short-lived fiber per
   scrape (read the request head, answer with the dump, close), so a
   silent connection holds up no other scrape.  Deliberately not a web
   server — just enough HTTP for `curl` and a Prometheus scraper. *)

let http_response body =
  Printf.sprintf
    "HTTP/1.0 200 OK\r\n\
     Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\
     \r\n\
     %s"
    (String.length body) body

let rec has_blank_line s i =
  i + 4 <= String.length s
  && (String.sub s i 4 = "\r\n\r\n" || has_blank_line s (i + 1))

(* Read until the blank line ending the request head (or 4 KiB, EOF or
   the deadline) — the request itself is ignored: every path serves the
   dump. *)
let drain_request fd ~deadline =
  let buf = Bytes.create 512 in
  let seen = Buffer.create 256 in
  let rec go () =
    if Buffer.length seen < 4096 then
      match Aio.read ~deadline fd buf 0 (Bytes.length buf) with
      | `Data n ->
          Buffer.add_subbytes seen buf 0 n;
          if not (has_blank_line (Buffer.contents seen) 0) then go ()
      | `Eof | `Deadline -> ()
  in
  go ()

let close fd = try Unix.close fd with Unix.Unix_error _ -> ()

let serve_one fd dump =
  Fun.protect ~finally:(fun () -> close fd) @@ fun () ->
  Unix.set_nonblock fd;
  drain_request fd ~deadline:(Aio.now () +. 2.0);
  let reply = Bytes.unsafe_of_string (http_response (dump ())) in
  ignore
    (Aio.write_all ~deadline:(Aio.now () +. 5.0) fd reply 0
       (Bytes.length reply))

let accept_loop listen_fd dump =
  Fun.protect ~finally:(fun () -> close listen_fd) @@ fun () ->
  let rec loop () =
    match Aio.accept listen_fd with
    | `Conn (fd, _) ->
        ignore (Aio.spawn (fun () -> serve_one fd dump));
        loop ()
    | `Deadline -> loop ()
    | `Error _ -> ()
  in
  loop ()

let start ?(host = "127.0.0.1") ~port front dump =
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  (try Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
   with e ->
     close listen_fd;
     raise e);
  Unix.listen listen_fd 16;
  Unix.set_nonblock listen_fd;
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  Server.spawn front (fun () -> accept_loop listen_fd dump);
  bound_port
