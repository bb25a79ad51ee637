(* See fuel.mli.  The counter and hook are Domain-local (same reasoning
   as Ast_utils.fresh_counter): each worker domain restructures its own
   job with its own deadline, so hooks must never leak across domains. *)

let interval = 1024

type state = { mutable countdown : int; mutable hook : (unit -> unit) option }

let key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { countdown = interval; hook = None })

let with_hook f body =
  let s = Domain.DLS.get key in
  let saved = s.hook in
  s.hook <- Some f;
  s.countdown <- interval;
  Fun.protect ~finally:(fun () -> s.hook <- saved) body

let tick () =
  let s = Domain.DLS.get key in
  s.countdown <- s.countdown - 1;
  if s.countdown <= 0 then begin
    s.countdown <- interval;
    match s.hook with Some f -> f () | None -> ()
  end
