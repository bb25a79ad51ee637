(* The closed-loop client: [clients] threads, each sending its next job
   only after the previous one has replied. *)

type result = {
  wall_s : float;  (** first submit to last reply *)
  lats : float array;  (** per-job submit-to-reply seconds, sorted *)
  jobs : int;
  failed : int;
}

(* [next ()] hands out the next job (under one lock, so a stateful
   generator needs no locking of its own) or [None] when the loop is
   over; [call client job] runs one job and says whether its reply was
   correct.  An exception from [call] counts as a failed job. *)
let run ~clients ~next ~call =
  let lock = Mutex.create () in
  let lats = ref [] and jobs = ref 0 and failed = ref 0 in
  let client c =
    let rec go () =
      match Mutex.protect lock next with
      | None -> ()
      | Some job ->
          let t0 = Unix.gettimeofday () in
          let ok =
            try call c job
            with e ->
              prerr_endline ("job raised: " ^ Printexc.to_string e);
              false
          in
          let dt = Unix.gettimeofday () -. t0 in
          Mutex.protect lock (fun () ->
              lats := dt :: !lats;
              incr jobs;
              if not ok then incr failed);
          go ()
    in
    go ()
  in
  let t0 = Unix.gettimeofday () in
  List.init (max 1 clients) (Thread.create client) |> List.iter Thread.join;
  let wall_s = Unix.gettimeofday () -. t0 in
  { wall_s; lats = Bstats.sorted !lats; jobs = !jobs; failed = !failed }

(* jobs [f 0], [f 1], ... until [seconds] have passed and at least
   [min_jobs] were handed out *)
let timed ~seconds ~min_jobs f =
  let deadline = Unix.gettimeofday () +. seconds in
  let issued = ref 0 in
  fun () ->
    if !issued >= min_jobs && Unix.gettimeofday () >= deadline then None
    else begin
      let i = !issued in
      incr issued;
      Some (f i)
    end

(* exactly the jobs [f 0] .. [f (n-1)] *)
let counted n f =
  let issued = ref 0 in
  fun () ->
    if !issued >= n then None
    else begin
      let i = !issued in
      incr issued;
      Some (f i)
    end
