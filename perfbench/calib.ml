(* How fast the host runs right now, from a fixed piece of work in the
   benchmark's own code.  A shared VM runs the same program 10-40%
   faster or slower from minute to minute; timing this work between the
   blocks of a run gives, for each block, how much slower than nominal
   the host was around it, and the timing metrics are divided by it.

   The work runs in a process of its own, forked before the program
   starts any domain, so none of the program's state -- its heap, its
   collections, its threads -- lands in it, and its memory and CPU time
   are not counted as the program's. *)

let words = 1 lsl 22 (* 32 MiB: past the caches, so the walk feels the
                        memory contention the program's heap does *)

(* a pseudo-random walk over [arena] with arithmetic at each step *)
let walk arena steps =
  let mask = words - 1 and i = ref 0 and acc = ref 0 in
  for _ = 1 to steps do
    let v = Array.unsafe_get arena !i in
    acc := (!acc * 31) + v;
    Array.unsafe_set arena !i (v + 1);
    i := ((!i * 1103515245) + v + 12345) land mask
  done;
  !acc

let steps = 30_000
let reps = 3

(* about what the walk takes on a quiet 2-vCPU x86-64 VM (OCaml 5.1);
   it only sets the scale the metrics read in *)
let nominal_s = 0.0036

(* the fastest of [reps] walks, in seconds *)
let time_walk arena =
  let best = ref infinity and sink = ref 0 in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    sink := !sink + walk arena steps;
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  if !sink = min_int then nan else !best

type t = { ask : Unix.file_descr; answer : in_channel; pid : int }

(* one byte asks for a sample; the process exits when [ask] closes *)
let serve ask answer =
  let arena = Array.make words 1 and b = Bytes.create 1 in
  let rec loop () =
    if Unix.read ask b 0 1 = 1 then begin
      let line = Printf.sprintf "%.17g\n" (time_walk arena) in
      ignore (Unix.write_substring answer line 0 (String.length line));
      loop ()
    end
  in
  (try loop () with _ -> ());
  Unix._exit 0

let start () =
  let ask_r, ask_w = Unix.pipe ~cloexec:true () in
  let ans_r, ans_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close ask_w;
      Unix.close ans_r;
      serve ask_r ans_w
  | pid ->
      Unix.close ask_r;
      Unix.close ans_w;
      { ask = ask_w; answer = Unix.in_channel_of_descr ans_r; pid }

(* the host's slowdown: the walk's time over [nominal_s] (1.0 on a
   quiet VM; 1.3 when the walk took 30% longer) *)
let slowdown t =
  match
    ignore (Unix.write_substring t.ask "x" 0 1);
    In_channel.input_line t.answer
  with
  | Some l -> (match float_of_string_opt l with Some s -> s /. nominal_s | None -> nan)
  | None | (exception Unix.Unix_error _) -> nan

let stop t =
  Unix.close t.ask;
  close_in_noerr t.answer;
  ignore (Unix.waitpid [] t.pid)
