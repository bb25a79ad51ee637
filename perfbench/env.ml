(* What a run records about its host, so a noisy run can be told apart
   from a regression: core count, CPU steal, memory high-water mark. *)

let lines path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> String.split_on_char '\n' s
  | exception Sys_error _ -> []

let fields l = String.split_on_char ' ' l |> List.filter (( <> ) "")

(* Ticks the hypervisor stole from this VM, all CPUs (the 8th value of
   the aggregate "cpu" line of /proc/stat); 0 where unavailable. *)
let steal_ticks () =
  match List.find_opt (String.starts_with ~prefix:"cpu ") (lines "/proc/stat") with
  | None -> 0
  | Some l -> (
      match List.nth_opt (fields l) 8 with
      | Some s -> Option.value ~default:0 (int_of_string_opt s)
      | None -> 0)

(* VmHWM: the process's peak resident set, in MB *)
let peak_rss_mb () =
  match List.find_opt (String.starts_with ~prefix:"VmHWM:") (lines "/proc/self/status") with
  | None -> 0.0
  | Some l -> (
      match fields l with
      | _ :: kb :: _ -> float_of_string kb /. 1024.0
      | _ -> 0.0)

(* user + system CPU seconds of the whole process, every domain and thread *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let nproc () = Domain.recommended_domain_count ()
