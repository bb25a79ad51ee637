(* Worker-pool restructuring server.  See server.mli for the contract.

   Concurrency structure: submitters and workers meet at a
   Bounded_queue of tickets; each ticket carries its own mutex/condition
   pair for the await rendezvous; each job count is a lock-free child of
   its registry total (Obs.Metrics.child), so the registry sums every
   server in the process; one stats mutex guards the breaker state; the
   worker slots and orphan list live behind a pool mutex.

   Robustness structure (inside-out):
   - every job attempt runs under an exception barrier, so an
     [assert false] deep in a transform becomes [Failed] with a captured
     backtrace instead of a dead domain;
   - a failed/timed-out/validator-rejected attempt retries down a
     degradation ladder (full techniques -> conservative set ->
     parse-and-print serial passthrough) with exponential backoff, each
     payload tagged with the rung that produced it;
   - an exception that escapes the barrier anyway (deliberately:
     injected domain death) unwinds the worker, whose own last act,
     under the pool mutex, is to requeue or fail its in-flight ticket
     (never leak it) and respawn its slot with a domain that joins it —
     so the pool runs one domain per worker and no other;
   - an optional watchdog thread (wedge detection) times out a job whose
     worker has gone silent past its deadline and respawns the slot;
   - a circuit breaker counts consecutive real (non-chaos) restructure
     failures and, once open, serves serial passthrough directly —
     degraded but alive — half-opening on a timer to probe recovery;
   - cache entries carry a digest of their payload text; a corrupted
     entry is detected on hit, dropped, and recomputed. *)

type request = {
  req_name : string;
  req_source : string;
  req_options : Restructurer.Options.t;
}

type rung = Full | Conservative | Passthrough

let rung_name = function
  | Full -> "full"
  | Conservative -> "conservative"
  | Passthrough -> "passthrough"

type payload = {
  p_name : string;
  p_text : string;
  p_reports : Restructurer.Driver.loop_report list;
  p_cycles : float option;
  p_global_words : float option;
  p_rung : rung;
}

type outcome =
  | Done of { payload : payload; cached : bool }
  | Failed of string
  | Timeout
  | Cancelled

type ticket = {
  tk_request : request;
  tk_trace : int;  (* trace id minted at submission, 0 when tracing is off *)
  tk_submitted : float;
  mutable tk_deadline : float;  (* refreshed when a retry starts *)
  tk_mutex : Mutex.t;
  tk_cond : Condition.t;
  mutable tk_outcome : outcome option;
  mutable tk_tainted : bool;  (* a visible injected fault touched this job *)
  mutable tk_requeues : int;  (* times requeued after a worker death *)
  mutable tk_watchers : (outcome -> unit) list;
      (* completion callbacks (newest first); fired exactly once, on
         whatever thread wins the resolution *)
}

(* One spawn of one worker.  Fresh per (re)spawn, so a replaced or
   orphaned worker can never scribble on its successor's bookkeeping. *)
type wstate = {
  mutable w_ticket : ticket option;  (* in flight *)
  mutable w_heartbeat : float;
}

type slot = {
  mutable s_domain : unit Domain.t option;
  mutable s_state : wstate;
}

type breaker_state = Br_closed | Br_open | Br_half_open

(* cache entries are self-checking: [e_digest] is the digest of the
   payload text at insertion; a mismatch on lookup means the bytes rotted
   (or chaos flipped them) and the entry must not be served *)
type entry = {
  e_digest : string;
  e_payload : payload;
  e_replica : bool;  (* arrived via warm-cache replication, not computed *)
}

module M = Obs.Metrics

type t = {
  queue : ticket Bounded_queue.t;
  cache : entry Cache.t;
  memo : Restructurer.Driver.memo option;
      (** nest-level memo shared by every worker domain; [None] when
          disabled.  Entries are reused across jobs — a nest analyzed
          for one request is replayed for every later request containing
          an equivalent nest, whatever its symbol names. *)
  fault : Fault.t;
  on_cache_fill : (key:string -> digest:string -> payload -> unit) option;
      (** fired after a fresh full-rung result lands in the cache; the
          cluster replicator hangs off this.  Never fired for admitted
          replicas (that would ping-pong entries around the ring). *)
  max_source_bytes : int;  (** 0 = unlimited *)
  timeout_s : float;  (** infinity = no deadline *)
  retry_base_s : float;
  breaker_threshold : int;
  breaker_cooldown_s : float;
  wedge_after_s : float;  (** infinity = wedge detection off *)
  started_at : float;
  stat_mutex : Mutex.t;
  pool_mutex : Mutex.t;
  mutable slots : slot array;
  mutable orphans : unit Domain.t list;  (* wedged workers, replaced *)
  mutable watchdog : Thread.t option;  (* wedge detection, when on *)
  mutable stopping : bool;
  mutable shut : bool;  (* a shutdown drain has started (idempotence) *)
  (* counts: children of the registry totals below, read by [stats] *)
  submitted : M.counter;
  completed : M.counter;
  failed : M.counter;
  timed_out : M.counter;
  cancelled : M.counter;
  retries : M.counter;
  rung_full : M.counter;
  rung_conservative : M.counter;
  rung_passthrough : M.counter;
  degraded : M.counter;  (* jobs served passthrough because breaker open *)
  respawns : M.counter;
  corrupt_dropped : M.counter;
  breaker_opened : M.counter;
  replica_admitted : M.counter;
  replica_rejected : M.counter;  (* checksum mismatch or rung/capacity *)
  replicated_hits : M.counter;  (* cache hits served from a replica *)
  replica_gc : M.counter;  (* replicas dropped because ownership moved *)
  (* under stat_mutex: the breaker *)
  mutable br_state : breaker_state;
  mutable br_failures : int;  (* consecutive real restructure failures *)
  mutable br_opened_at : float;
}

(* MD5 over (MD5 of the source || the options marshalled).  The source
   is digested in place, never copied into a marshal buffer.  Options.t
   is closure-free (records, variants, scalars), so Marshal gives a
   canonical byte string for it.  No_sharing matters: default
   marshalling emits back-references for physically shared blocks (e.g.
   equal float constants folded together by the compiler in the machine
   presets), so a structurally equal record rebuilt elsewhere — decoded
   off the wire, say — would marshal to different bytes and silently
   miss the cache.  Without sharing the bytes depend only on the
   structure, so two equal requests always produce the same key;
   distinct machine configs, technique sets or targets never collide
   with each other's results.  The fixed 16-byte source digest keeps the
   concatenation unambiguous. *)
let cache_key (r : request) =
  Cache.digest
    (Digest.string r.req_source
    ^ Marshal.to_string r.req_options [ Marshal.No_sharing ])

let now () = Unix.gettimeofday ()

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* ------------------------------------------------------------------ *)
(* Registry instruments (process-wide; handles resolved once)          *)
(* ------------------------------------------------------------------ *)

let m_submitted =
  M.counter M.global ~help:"jobs submitted" "service_jobs_submitted_total"

let m_completed =
  M.counter M.global ~help:"jobs completed" "service_jobs_completed_total"

let m_failed = M.counter M.global ~help:"jobs failed" "service_jobs_failed_total"

let m_timeout =
  M.counter M.global ~help:"jobs timed out" "service_jobs_timeout_total"

let m_cancelled =
  M.counter M.global ~help:"jobs cancelled" "service_jobs_cancelled_total"

let m_retries =
  M.counter M.global ~help:"ladder retries and requeues"
    "service_retries_total"

let m_rung rung =
  M.counter M.global ~help:"completed jobs, by producing rung"
    (Printf.sprintf "service_rung_%s_total" (rung_name rung))

let m_rung_full = m_rung Full
let m_rung_conservative = m_rung Conservative
let m_rung_passthrough = m_rung Passthrough

let m_degraded =
  M.counter M.global ~help:"jobs served passthrough because the breaker was open"
    "service_degraded_total"

let m_respawns =
  M.counter M.global
    ~help:"worker domains respawned after a death or a wedge"
    "service_worker_respawns_total"

let m_corrupt_dropped =
  M.counter M.global ~help:"cache entries dropped on digest mismatch"
    "service_cache_corrupt_dropped_total"

let m_breaker_opened =
  M.counter M.global ~help:"circuit breaker open transitions"
    "service_breaker_opened_total"

let m_replica_admitted =
  M.counter M.global ~help:"replicated cache entries admitted"
    "service_replica_admitted_total"

let m_replica_rejected =
  M.counter M.global
    ~help:"replicated cache entries rejected (checksum or capacity)"
    "service_replica_rejected_total"

let m_replicated_hits =
  M.counter M.global ~help:"cache hits served from a replicated entry"
    "service_replicated_hits_total"

let m_replica_gc =
  M.counter M.global
    ~help:"replicated cache entries dropped because ring ownership moved"
    "service_replica_gc_total"

let m_breaker_state =
  M.gauge M.global ~help:"breaker state (0 closed, 1 half-open, 2 open)"
    "service_breaker_state"

let m_queue_depth =
  M.gauge M.global ~help:"tickets waiting in the queue" "service_queue_depth"

let m_queue_high_water =
  M.gauge M.global ~help:"most tickets ever waiting in the queue"
    "service_queue_high_water"

let m_shard =
  M.info M.global ~help:"the server's cluster shard id, empty if standalone"
    "service_shard_info" ~key:"id"

(* whole milliseconds: an integral gauge dumps every digit *)
let m_start_time =
  M.gauge M.global ~help:"when the server started, in Unix milliseconds"
    "service_start_time_ms"

let m_workers_busy =
  M.gauge M.global ~help:"worker domains currently running a job"
    "service_workers_busy"

let m_job_seconds =
  M.histogram M.global ~help:"job latency, submit to resolve"
    ~buckets:Stats.latency_buckets "service_job_seconds"

let m_phase_parse =
  M.histogram M.global ~help:"parse phase duration"
    "service_phase_parse_seconds"

let m_phase_restructure =
  M.histogram M.global ~help:"restructure phase duration"
    "service_phase_restructure_seconds"

let m_phase_validate =
  M.histogram M.global ~help:"validate phase duration"
    "service_phase_validate_seconds"

let m_phase_perfmodel =
  M.histogram M.global ~help:"performance-model phase duration"
    "service_phase_perfmodel_seconds"

(* after a push: the live depth, and the high water; every pusher raises
   the gauge to at least what it read, so it ends exact *)
let note_queue t =
  M.set_gauge m_queue_depth (float_of_int (Bounded_queue.length t.queue));
  M.raise_gauge m_queue_high_water
    (float_of_int (Bounded_queue.high_water t.queue))

let breaker_gauge_value = function
  | Br_closed -> 0.0
  | Br_half_open -> 1.0
  | Br_open -> 2.0

(* span + phase histogram around one pipeline stage *)
let timed name hist f =
  Obs.Trace.with_span name (fun _ ->
      let t0 = now () in
      let r = f () in
      M.observe hist (now () -. t0);
      r)

(* Idempotent: the watchdog may time out a wedged worker's ticket while
   the abandoned worker later finishes and tries to resolve it too; only
   the first resolution counts and wakes the submitter. *)
let resolve t ticket outcome =
  let won, watchers =
    with_lock ticket.tk_mutex (fun () ->
        match ticket.tk_outcome with
        | Some _ -> (false, [])
        | None ->
            ticket.tk_outcome <- Some outcome;
            Condition.broadcast ticket.tk_cond;
            let ws = ticket.tk_watchers in
            ticket.tk_watchers <- [];
            (true, ws))
  in
  (* watchers run outside the ticket mutex: they may take arbitrary
     locks of their own (the aio completion bridge posts into a
     scheduler) and must not be able to deadlock against [await] *)
  List.iter (fun w -> w outcome) (List.rev watchers);
  if won then begin
    M.incr
      (match outcome with
      | Done { payload; _ } -> (
          M.incr t.completed;
          match payload.p_rung with
          | Full -> t.rung_full
          | Conservative -> t.rung_conservative
          | Passthrough -> t.rung_passthrough)
      | Failed _ -> t.failed
      | Timeout -> t.timed_out
      | Cancelled -> t.cancelled);
    M.observe m_job_seconds (now () -. ticket.tk_submitted)
  end

(* ------------------------------------------------------------------ *)
(* The degradation ladder                                              *)
(* ------------------------------------------------------------------ *)

(* conservative rung: drop the techniques whose failures are the most
   intricate to diagnose — DOACROSS synchronization, generalized
   induction substitution, and the run-time-tested two-version loops —
   mirroring the paper's "generate code in a conservative way" fallback *)
let ladder_options rung (opts : Restructurer.Options.t) =
  match rung with
  | Full | Passthrough -> opts
  | Conservative ->
      {
        opts with
        Restructurer.Options.techniques =
          {
            opts.Restructurer.Options.techniques with
            Restructurer.Options.doacross = false;
            giv_substitution = false;
            runtime_dep_test = false;
          };
      }

type attempt =
  | A_done of payload
  | A_failed of string  (* retryable on a lower rung *)
  | A_permanent of string  (* no rung can help (e.g. parse error) *)
  | A_timeout

let flip_middle_byte s =
  let n = String.length s in
  if n = 0 then s
  else begin
    let b = Bytes.of_string s in
    let i = n / 2 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
    Bytes.to_string b
  end

let cache_put t key payload =
  Obs.Trace.with_span "cache_fill" @@ fun _ ->
  let digest = Cache.digest payload.p_text in
  let stored =
    if Fault.fire t.fault Fault.Cache_corrupt then
      { payload with p_text = flip_middle_byte payload.p_text }
    else payload
  in
  Cache.add t.cache key { e_digest = digest; e_payload = stored; e_replica = false };
  (* replication rides the clean payload/digest, never the chaos-corrupted
     bytes — and a hook failure must not fail the job that filled *)
  match t.on_cache_fill with
  | None -> ()
  | Some hook -> ( try hook ~key ~digest payload with _ -> ())

let cache_find t key =
  match Cache.find t.cache key with
  | None -> None
  | Some e ->
      if Cache.digest e.e_payload.p_text = e.e_digest then begin
        if e.e_replica then M.incr t.replicated_hits;
        Some e.e_payload
      end
      else begin
        (* bytes rotted while resident: drop, recompute fresh *)
        Cache.remove t.cache key;
        M.incr t.corrupt_dropped;
        None
      end

(* Admit a replicated entry pushed by a ring peer.  The origin's digest
   is recomputed here — a push corrupted in flight (or a malicious one)
   is rejected, never served.  Goes straight to [Cache.add], not
   [cache_put]: an admitted replica must not re-fire the replication
   hook, or entries would ping-pong around the ring forever. *)
let admit_replica t ~key ~digest payload =
  let ok =
    payload.p_rung = Full
    && Cache.digest payload.p_text = digest
  in
  if ok then begin
    Cache.add t.cache key { e_digest = digest; e_payload = payload; e_replica = true };
    M.incr t.replica_admitted
  end
  else M.incr t.replica_rejected;
  ok

let backtrace_hint () =
  match String.split_on_char '\n' (Printexc.get_backtrace ()) with
  | [] | [ "" ] -> ""
  | lines ->
      let head =
        List.filteri (fun i _ -> i < 3) lines
        |> List.map String.trim
        |> List.filter (fun l -> l <> "")
      in
      if head = [] then "" else " [" ^ String.concat " ; " head ^ "]"

(* One attempt at one rung, under the exception barrier.  The only
   exception allowed to escape is the injected domain death — that is its
   entire point.  [key] is the job's cache key, which a full-fidelity
   result is stored under. *)
let execute_attempt t (ws : wstate) ticket ~key rung : attempt =
  Obs.Trace.with_span "attempt" ~attrs:[ ("rung", rung_name rung) ]
  @@ fun asp ->
  let r = ticket.tk_request in
  let taint () =
    if not (Fault.stealth t.fault) then ticket.tk_tainted <- true
  in
  if Fault.fire t.fault Fault.Exec_delay then begin
    taint ();
    Unix.sleepf (Fault.delay_s t.fault)
  end;
  if Fault.fire t.fault Fault.Worker_kill then begin
    taint ();
    raise (Fault.Injected Fault.Worker_kill)
  end;
  let over_deadline () =
    ws.w_heartbeat <- now ();
    now () > ticket.tk_deadline
  in
  let a =
  try
    let prog =
      timed "parse" m_phase_parse (fun () ->
          Fortran.Parser.parse_program r.req_source)
    in
    match rung with
    | Passthrough ->
        (* parse-and-print identity: serial semantics by construction,
           so it needs no validation — the reliable floor of the ladder *)
        let text =
          Codegen.Emit.program_to_string
            ~target:r.req_options.Restructurer.Options.target prog
        in
        let cycles, words =
          timed "perfmodel" m_phase_perfmodel (fun () ->
              match
                Perfmodel.Model.evaluate
                  ~cfg:r.req_options.Restructurer.Options.machine prog
              with
              | run ->
                  ( Some run.Perfmodel.Model.cycles,
                    Some run.Perfmodel.Model.global_words )
              | exception _ -> (None, None))
        in
        A_done
          {
            p_name = r.req_name;
            p_text = text;
            p_reports = [];
            p_cycles = cycles;
            p_global_words = words;
            p_rung = Passthrough;
          }
    | Full | Conservative -> (
        if Fault.fire t.fault Fault.Exec_raise then begin
          taint ();
          raise (Fault.Injected Fault.Exec_raise)
        end;
        let opts = ladder_options rung r.req_options in
        (* no extra span: the driver opens its own "restructure" span as a
           child of this attempt *)
        let t0 = now () in
        let result =
          Restructurer.Driver.restructure ~interrupt:over_deadline
            ?memo:t.memo opts prog
        in
        M.observe m_phase_restructure (now () -. t0);
        if over_deadline () then A_timeout
        else
          let text =
            Codegen.Emit.program_to_string
              ~target:opts.Restructurer.Options.target
              result.Restructurer.Driver.program
          in
          (* under --validate, re-verify the emitted text (print ->
             (lift ->) reparse -> independent dependence re-analysis);
             unverified output is neither cached nor returned *)
          let rejected =
            if not opts.Restructurer.Options.validate then None
            else
              timed "validate" m_phase_validate (fun () ->
                  match
                    Validate.check_output
                      ~target:opts.Restructurer.Options.target text
                  with
                  | Ok [] -> None
                  | Ok issues ->
                      Some
                        (Printf.sprintf "validator rejected emitted code: %s"
                           (String.concat "; "
                              (List.map Validate.issue_to_string issues)))
                  | Error msg ->
                      Some
                        (Printf.sprintf "emitted code does not reparse: %s" msg))
          in
          let rejected =
            match rejected with
            | Some _ -> rejected
            | None ->
                if Fault.fire t.fault Fault.Validator_reject then begin
                  taint ();
                  Some "validator rejected emitted code: injected spurious \
                        rejection"
                end
                else None
          in
          match rejected with
          | Some msg -> A_failed msg
          | None ->
              let cycles, words =
                timed "perfmodel" m_phase_perfmodel (fun () ->
                    match
                      Perfmodel.Model.evaluate
                        ~cfg:opts.Restructurer.Options.machine
                        result.Restructurer.Driver.program
                    with
                    | run ->
                        ( Some run.Perfmodel.Model.cycles,
                          Some run.Perfmodel.Model.global_words )
                    | exception _ -> (None, None))
              in
              let payload =
                {
                  p_name = r.req_name;
                  p_text = text;
                  p_reports = result.Restructurer.Driver.reports;
                  p_cycles = cycles;
                  p_global_words = words;
                  p_rung = rung;
                }
              in
              (* only full-fidelity results are cached: a degraded result
                 must not outlive the incident that forced it *)
              if rung = Full then cache_put t key payload;
              A_done payload)
  with
  | Fault.Injected Fault.Worker_kill as e -> raise e
  | Restructurer.Driver.Interrupted -> A_timeout
  | Fortran.Parser.Error (msg, line) ->
      A_permanent (Printf.sprintf "parse error, line %d: %s" line msg)
  | e ->
      A_failed
        (Printf.sprintf "%s rung raised: %s%s" (rung_name rung)
           (Printexc.to_string e) (backtrace_hint ()))
  in
  Obs.Trace.attr asp "result"
    (match a with
    | A_done _ -> "done"
    | A_failed _ -> "failed"
    | A_permanent _ -> "permanent"
    | A_timeout -> "timeout");
  a

(* The circuit breaker's health signal from one job: the restructure
   stage (non-passthrough rungs) succeeded, failed, or was never put to
   the test — a source that does not parse says nothing about it. *)
type health = Healthy | Sick | Inconclusive

(* Walk the ladder.  Returns the final outcome and the job's health
   signal. *)
let run_ladder t ws ticket ~key : outcome * health =
  let rungs = [| Full; Conservative; Passthrough |] in
  let rec go idx =
    match execute_attempt t ws ticket ~key rungs.(idx) with
    | A_done payload ->
        ( Done { payload; cached = false },
          if payload.p_rung <> Passthrough then Healthy else Sick )
    | A_permanent msg -> (Failed msg, Inconclusive)
    | (A_failed _ | A_timeout) when idx + 1 < Array.length rungs ->
        M.incr t.retries;
        (* exponential backoff, then a fresh deadline budget for the
           cheaper rung — the original deadline died with the attempt *)
        Obs.Trace.with_span "retry"
          ~attrs:[ ("next_rung", rung_name rungs.(idx + 1)) ]
          (fun _ -> Unix.sleepf (t.retry_base_s *. (2.0 ** float_of_int idx)));
        ticket.tk_deadline <- now () +. t.timeout_s;
        go (idx + 1)
    | A_failed msg -> (Failed msg, Sick)
    | A_timeout -> (Timeout, Sick)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Circuit breaker                                                     *)
(* ------------------------------------------------------------------ *)

let breaker_route t =
  let route =
    with_lock t.stat_mutex (fun () ->
        match t.br_state with
        | Br_closed -> `Normal
        | Br_half_open -> `Degraded  (* a probe is already in flight *)
        | Br_open ->
            if now () -. t.br_opened_at >= t.breaker_cooldown_s then begin
              t.br_state <- Br_half_open;
              `Probe
            end
            else `Degraded)
  in
  M.set_gauge m_breaker_state (breaker_gauge_value t.br_state);
  route

let breaker_note t ~probe health =
  with_lock t.stat_mutex (fun () ->
      (match health with
      | Inconclusive ->
          (* a chaos-injected failure or a client's unparseable source:
             never counts against real capability; an inconclusive
             probe re-opens and re-arms the timer rather than concluding
             anything *)
          if probe then begin
            t.br_state <- Br_open;
            t.br_opened_at <- now ()
          end
      | Healthy ->
          t.br_failures <- 0;
          if probe then t.br_state <- Br_closed
      | Sick when probe ->
          t.br_state <- Br_open;
          t.br_opened_at <- now ();
          M.incr t.breaker_opened
      | Sick ->
          t.br_failures <- t.br_failures + 1;
          if t.br_state = Br_closed && t.br_failures >= t.breaker_threshold
          then begin
            t.br_state <- Br_open;
            t.br_opened_at <- now ();
            M.incr t.breaker_opened;
            t.br_failures <- 0
          end);
      M.set_gauge m_breaker_state (breaker_gauge_value t.br_state))

(* ------------------------------------------------------------------ *)
(* Job lifecycle                                                       *)
(* ------------------------------------------------------------------ *)

let outcome_name = function
  | Done { cached = true; _ } -> "cached"
  | Done { cached = false; _ } -> "done"
  | Failed _ -> "failed"
  | Timeout -> "timeout"
  | Cancelled -> "cancelled"

let process t (ws : wstate) ticket =
  (* the submitter's trace id rides the ticket across the queue; every
     span below lands in that job's trace even though it runs on a worker
     domain *)
  Obs.Trace.with_trace_id ticket.tk_trace @@ fun () ->
  Obs.Trace.with_span "job"
    ~attrs:[ ("name", ticket.tk_request.req_name) ]
  @@ fun jsp ->
  let finish outcome =
    Obs.Trace.attr jsp "outcome" (outcome_name outcome);
    resolve t ticket outcome
  in
  Obs.Trace.completed ~start_s:ticket.tk_submitted ~stop_s:(now ())
    "queue_wait";
  if ticket.tk_outcome <> None then ()  (* already resolved; defensive *)
  else if now () > ticket.tk_deadline then finish Cancelled
  else
    (* keyed once: the lookup and the fill share it *)
    let key = cache_key ticket.tk_request in
    match
      Obs.Trace.with_span "cache_lookup" (fun csp ->
          let r = cache_find t key in
          Obs.Trace.attr csp "hit" (if r = None then "false" else "true");
          r)
    with
    | Some payload -> finish (Done { payload; cached = true })
    | None -> (
        match breaker_route t with
        | `Degraded -> (
            (* restructure stage is sick: serve the serial floor directly,
               degraded but alive *)
            match execute_attempt t ws ticket ~key Passthrough with
            | A_done payload ->
                M.incr t.degraded;
                Obs.Trace.attr jsp "degraded" "true";
                finish (Done { payload; cached = false })
            | A_permanent msg | A_failed msg -> finish (Failed msg)
            | A_timeout -> finish Timeout)
        | (`Normal | `Probe) as route ->
            let outcome, health = run_ladder t ws ticket ~key in
            breaker_note t ~probe:(route = `Probe)
              (if ticket.tk_tainted then Inconclusive else health);
            finish outcome)

let rec worker_loop t (slot : slot) (ws : wstate) =
  (* an orphaned worker (its slot was reassigned after a wedge) must
     stop competing for jobs *)
  if not (slot.s_state == ws) then ()
  else
    match Bounded_queue.pop t.queue with
    | None -> ()
    | Some ticket ->
        ws.w_ticket <- Some ticket;
        ws.w_heartbeat <- now ();
        M.set_gauge m_queue_depth (float_of_int (Bounded_queue.length t.queue));
        M.add_gauge m_workers_busy 1.0;
        Fun.protect
          ~finally:(fun () -> M.add_gauge m_workers_busy (-1.0))
          (fun () -> process t ws ticket);
        ws.w_ticket <- None;
        worker_loop t slot ws

(* ------------------------------------------------------------------ *)
(* Self-healing                                                        *)
(* ------------------------------------------------------------------ *)

let died = Failed "worker domain died while running this job"

(* Fail-or-requeue the in-flight ticket of a worker that will never
   finish it.  One requeue per ticket: a job must not ping-pong between
   dying workers forever. *)
let salvage_ticket t (ws : wstate) =
  match ws.w_ticket with
  | None -> ()
  | Some ticket ->
      ws.w_ticket <- None;
      if
        ticket.tk_outcome = None
        && ticket.tk_requeues < 1
        && not t.stopping
      then begin
        ticket.tk_requeues <- ticket.tk_requeues + 1;
        ticket.tk_deadline <- now () +. t.timeout_s;
        M.incr t.retries;
        (* never block a dying worker on backpressure; requeued at the
           head, the job still runs before every job submitted after it,
           which keeps a single-worker pool's order deterministic *)
        if Bounded_queue.try_push_front t.queue ticket then note_queue t
        else resolve t ticket died
      end
      else resolve t ticket died

(* A death (an exception past the barrier: injected chaos is the only
   source) heals the pool from the dying domain itself, under the pool
   mutex: it salvages its ticket and hands its slot to a fresh worker,
   which joins it (a domain cannot join itself) before taking a job.  A
   wedged worker's slot and job were already dealt with, so its death
   changes nothing; a death once shutdown has begun is left to
   [shutdown]. *)
let rec worker_main t slot ws =
  try worker_loop t slot ws
  with _ ->
    with_lock t.pool_mutex (fun () ->
        if not t.stopping then begin
          salvage_ticket t ws;
          if slot.s_state == ws then begin
            spawn_worker t slot ?predecessor:slot.s_domain;
            M.incr t.respawns
          end
        end)

(* under the pool mutex *)
and spawn_worker ?predecessor t slot =
  let ws = { w_ticket = None; w_heartbeat = now () } in
  slot.s_state <- ws;
  slot.s_domain <-
    Some
      (Domain.spawn (fun () ->
           Option.iter Domain.join predecessor;
           worker_main t slot ws))

(* ------------------------------------------------------------------ *)
(* Wedge detection                                                     *)
(* ------------------------------------------------------------------ *)

(* Alive but silent long past its job's deadline.  The domain cannot be
   killed, so it is orphaned (it exits on its own at the next fuel poll)
   and the slot respawned; its ticket resolves Timeout now. *)
let watchdog_sweep t =
  with_lock t.pool_mutex (fun () ->
      if not t.stopping then
        Array.iter
          (fun slot ->
            let ws = slot.s_state in
            match ws.w_ticket with
            | Some ticket
              when now () -. ws.w_heartbeat > t.wedge_after_s
                   && now () > ticket.tk_deadline ->
                ws.w_ticket <- None;
                resolve t ticket Timeout;
                Option.iter
                  (fun d -> t.orphans <- d :: t.orphans)
                  slot.s_domain;
                spawn_worker t slot;
                M.incr t.respawns
            | _ -> ())
          t.slots)

let watchdog_loop t =
  while not t.stopping do
    Thread.delay 0.002;
    watchdog_sweep t
  done

(* ------------------------------------------------------------------ *)
(* Construction / client API                                           *)
(* ------------------------------------------------------------------ *)

let create ?(queue_capacity = 64) ?(timeout_ms = 0.0) ?(oversubscribe = false)
    ?(fault = Fault.none) ?(retry_base_ms = 1.0) ?(breaker_threshold = 5)
    ?(breaker_cooldown_ms = 250.0) ?(wedge_after_ms = 0.0)
    ?(max_source_bytes = 0) ?(shard_id = "")
    ?(memo_capacity = 1024) ?on_cache_fill ~workers ~cache_capacity () =
  Printexc.record_backtrace true;
  let workers =
    if oversubscribe then max 1 workers
    else max 1 (min workers (Domain.recommended_domain_count ()))
  in
  let t =
    {
      queue = Bounded_queue.create ~capacity:queue_capacity;
      cache = Cache.create ~capacity:cache_capacity;
      memo =
        (if memo_capacity <= 0 then None
         else
           Some
             (Restructurer.Driver.create_memo ~capacity:memo_capacity
                ~corrupt:(fun () -> Fault.fire fault Fault.Memo_corrupt)
                ()));
      fault;
      on_cache_fill;
      max_source_bytes = max 0 max_source_bytes;
      timeout_s =
        (if timeout_ms > 0.0 then timeout_ms /. 1000.0 else infinity);
      retry_base_s = Float.max 0.0 retry_base_ms /. 1000.0;
      breaker_threshold = max 1 breaker_threshold;
      breaker_cooldown_s = Float.max 0.0 breaker_cooldown_ms /. 1000.0;
      wedge_after_s =
        (if wedge_after_ms > 0.0 then wedge_after_ms /. 1000.0 else infinity);
      started_at = now ();
      stat_mutex = Mutex.create ();
      pool_mutex = Mutex.create ();
      slots = [||];
      orphans = [];
      watchdog = None;
      stopping = false;
      shut = false;
      submitted = M.child m_submitted;
      completed = M.child m_completed;
      failed = M.child m_failed;
      timed_out = M.child m_timeout;
      cancelled = M.child m_cancelled;
      retries = M.child m_retries;
      rung_full = M.child m_rung_full;
      rung_conservative = M.child m_rung_conservative;
      rung_passthrough = M.child m_rung_passthrough;
      degraded = M.child m_degraded;
      respawns = M.child m_respawns;
      corrupt_dropped = M.child m_corrupt_dropped;
      breaker_opened = M.child m_breaker_opened;
      replica_admitted = M.child m_replica_admitted;
      replica_rejected = M.child m_replica_rejected;
      replicated_hits = M.child m_replicated_hits;
      replica_gc = M.child m_replica_gc;
      br_state = Br_closed;
      br_failures = 0;
      br_opened_at = 0.0;
    }
  in
  M.set_info m_shard shard_id;
  M.set_gauge m_start_time (Float.round (t.started_at *. 1000.0));
  with_lock t.pool_mutex (fun () ->
      t.slots <-
        Array.init workers (fun _ ->
            let slot =
              {
                s_domain = None;
                s_state = { w_ticket = None; w_heartbeat = now () };
              }
            in
            spawn_worker t slot;
            slot));
  if t.wedge_after_s < infinity then
    t.watchdog <- Some (Thread.create watchdog_loop t);
  t

let effective_workers t = Array.length t.slots

let source_too_large t request =
  t.max_source_bytes > 0 && String.length request.req_source > t.max_source_bytes

let oversize_message t request =
  Printf.sprintf "source too large: %d bytes exceeds the %d-byte limit"
    (String.length request.req_source)
    t.max_source_bytes

let make_ticket ?(trace = 0) t request =
  let submitted = now () in
  {
    tk_request = request;
    tk_trace =
      (if trace <> 0 then trace
       else if Obs.Trace.enabled () then Obs.Trace.fresh_trace_id ()
       else 0);
    tk_submitted = submitted;
    tk_deadline = submitted +. t.timeout_s;
    tk_mutex = Mutex.create ();
    tk_cond = Condition.create ();
    tk_outcome = None;
    tk_tainted = false;
    tk_requeues = 0;
    tk_watchers = [];
  }

let submit ?trace t request =
  let ticket = make_ticket ?trace t request in
  M.incr t.submitted;
  if source_too_large t request then
    (* request hygiene: reject before the source ever reaches a parser *)
    resolve t ticket (Failed (oversize_message t request))
  else if not (Bounded_queue.push t.queue ticket) then
    resolve t ticket Cancelled
  else
    note_queue t;
  ticket

(* Non-blocking admission for front-ends that must shed load instead of
   waiting on backpressure: [None] means the queue had no room (or was
   closed) and nothing was submitted. *)
let try_submit ?trace t request =
  if source_too_large t request then begin
    let ticket = make_ticket ?trace t request in
    M.incr t.submitted;
    resolve t ticket (Failed (oversize_message t request));
    Some ticket
  end
  else begin
    let ticket = make_ticket ?trace t request in
    if not (Bounded_queue.try_push t.queue ticket) then None
    else begin
      M.incr t.submitted;
      note_queue t;
      Some ticket
    end
  end

let await ticket =
  Mutex.lock ticket.tk_mutex;
  let rec wait () =
    match ticket.tk_outcome with
    | Some o -> o
    | None ->
        Condition.wait ticket.tk_cond ticket.tk_mutex;
        wait ()
  in
  let o = wait () in
  Mutex.unlock ticket.tk_mutex;
  o

(* Non-blocking completion hook: the fiber front-end registers one of
   these and suspends, instead of parking an OS thread in [await].  If
   the ticket is already resolved (an oversized source, or a submit to a
   closed server, resolves inside submit) the callback fires immediately
   on the caller. *)
let on_resolve ticket f =
  let immediate =
    with_lock ticket.tk_mutex (fun () ->
        match ticket.tk_outcome with
        | Some o -> Some o
        | None ->
            ticket.tk_watchers <- f :: ticket.tk_watchers;
            None)
  in
  match immediate with Some o -> f o | None -> ()

let run t request = await (submit t request)

let breaker_state_name t =
  match t.br_state with
  | Br_closed -> "closed"
  | Br_open -> "open"
  | Br_half_open -> "half-open"

(* every resident cache entry as (key, digest, payload): what the
   replicator re-pushes when the ring changes.  Rides [Cache.export],
   so recency is untouched. *)
let export_cache t =
  Cache.export t.cache
  |> List.map (fun (key, e) -> (key, e.e_digest, e.e_payload))

(* Replica garbage collection, fired by the cluster replicator on a
   topology change: an entry admitted as a replica whose key this shard
   no longer backs under the new ring is dead weight — its reads now
   route elsewhere, and keeping it would let stale bytes shadow a future
   legitimate re-admission.  Only replica-flagged entries are touched;
   locally computed results are this shard's own and stay. *)
let gc_replicas t ~keep =
  let dropped =
    List.fold_left
      (fun n (key, e) ->
        if e.e_replica && not (keep key) then begin
          Cache.remove t.cache key;
          n + 1
        end
        else n)
      0 (Cache.export t.cache)
  in
  if dropped > 0 then M.incr ~by:dropped t.replica_gc;
  dropped

let memo_stats t = Option.map Restructurer.Driver.memo_stats t.memo

(* a view over the counts: none of them is copied or guarded, so only
   the breaker state is read under the stats mutex *)
let stats t =
  let memo_hits, memo_misses =
    match memo_stats t with
    | None -> (0, 0)
    | Some m -> (m.Restructurer.Memo.st_hits, m.Restructurer.Memo.st_misses)
  in
  let breaker_state = with_lock t.stat_mutex (fun () -> breaker_state_name t) in
  let v = M.counter_value in
  let cache = Cache.stats t.cache in
  {
    Stats.submitted = v t.submitted;
    completed = v t.completed;
    failed = v t.failed;
    timed_out = v t.timed_out;
    cancelled = v t.cancelled;
    retries = v t.retries;
    rung_full = v t.rung_full;
    rung_conservative = v t.rung_conservative;
    rung_passthrough = v t.rung_passthrough;
    degraded = v t.degraded;
    respawns = v t.respawns;
    corrupt_dropped = v t.corrupt_dropped;
    breaker_opened = v t.breaker_opened;
    replica_admitted = v t.replica_admitted;
    replica_rejected = v t.replica_rejected;
    replicated_hits = v t.replicated_hits;
    replica_gc = v t.replica_gc;
    memo_hits;
    memo_misses;
    breaker_state;
    faults_injected = Fault.total_fired t.fault;
    queue_high_water = Bounded_queue.high_water t.queue;
    cache;
    cache_hit_rate = Cache.hit_rate cache;
    wall_s = now () -. t.started_at;
  }

(* Deterministic drain, reused verbatim by the SIGINT/SIGTERM path of
   [cedard --serve]:

   1. close the queue — every submit from this instant on resolves
      [Cancelled], so "did my late submit get served?" has one answer;
   2. stop respawning, and stop and join the watchdog if there is one;
   3. join the workers — they finish their in-flight job and whatever
      was already queued before the close, then exit on the drained
      queue (each respawned worker joined the one it replaced);
   4. salvage anything dead workers left behind;
   5. flush the final statistics.

   Idempotent: a second caller (e.g. a signal racing the normal exit
   path) just reads the statistics without re-running the drain. *)
let shutdown t =
  let first =
    with_lock t.pool_mutex (fun () ->
        if t.shut then false
        else begin
          t.shut <- true;
          true
        end)
  in
  if not first then stats t
  else begin
  Bounded_queue.close t.queue;
  with_lock t.pool_mutex (fun () -> t.stopping <- true);
  Option.iter Thread.join t.watchdog;
  Array.iter
    (fun slot ->
      match slot.s_domain with
      | Some d ->
          Domain.join d;
          slot.s_domain <- None
      | None -> ())
    t.slots;
  (* the pool is gone: salvage what the dead left behind — the in-flight
     tickets of workers that died once the drain began, then whatever is
     still queued (possible when every worker did) *)
  Array.iter (fun slot -> salvage_ticket t slot.s_state) t.slots;
  let rec drain () =
    match Bounded_queue.pop t.queue with
    | Some ticket ->
        resolve t ticket Cancelled;
        drain ()
    | None -> ()
  in
  drain ();
  List.iter Domain.join t.orphans;
  t.orphans <- [];
  stats t
  end
