(** Span tracing for the whole restructuring stack.

    A {e span} is a named, timed region of work with string attributes
    and integer counters; spans nest per domain (each worker domain keeps
    its own open-span stack, so concurrent jobs never interleave their
    trees).  A {e trace id} groups every span of one service job from
    submission to resolution, across queue wait, retries and validation.

    One tracer is installed process-wide ({!install}); instrumented code
    calls {!with_span} against the ambient tracer.  Two sinks exist:

    - {!memory} keeps finished span trees in memory — the test sink;
    - {!chrome} buffers events and writes a Chrome trace-event JSON file
      on {!flush} (open it in [chrome://tracing] or Perfetto).

    The disabled path is one atomic load and a branch: with the default
    {!disabled} tracer installed, {!with_span} calls its body with
    {!null_span} and records nothing — instrumentation left in hot paths
    costs effectively nothing when tracing is off. *)

type t
(** A tracer: a sink plus its buffered output. *)

type span
(** A live (open) span.  Attribute/counter writes on {!null_span} are
    no-ops, so instrumented code never branches on enablement itself. *)

val disabled : t
(** The no-op tracer; installed by default. *)

val memory : unit -> t
(** A tracer collecting finished root-span trees in memory. *)

val chrome : path:string -> t
(** A tracer buffering Chrome trace events; {!flush} writes them as a
    JSON object ([{"traceEvents": [...]}]) to [path]. *)

val install : t -> unit
(** Make [t] the ambient process-wide tracer.  Spans already open keep
    reporting to the tracer they started under. *)

val installed : unit -> t
val enabled : unit -> bool
(** [true] iff the ambient tracer is not {!disabled} — the cheap guard
    for skipping attribute construction entirely. *)

val null_span : span

val fresh_trace_id : unit -> int
(** Process-unique positive id (atomic counter). *)

val with_trace_id : int -> (unit -> 'a) -> 'a
(** Run the thunk with the given trace id as this domain's current trace
    context; spans opened inside carry it. *)

val current_trace_id : unit -> int
(** This domain's current trace id; 0 outside {!with_trace_id}. *)

val with_span : ?attrs:(string * string) list -> string -> (span -> 'a) -> 'a
(** [with_span name f] opens a span named [name] as a child of this
    domain's innermost open span (or as a new root), runs [f], and closes
    the span when [f] returns {e or raises}. *)

val attr : span -> string -> string -> unit
(** Set/replace a string attribute on an open span. *)

val count : span -> string -> int -> unit
(** Add to a per-span integer counter (created at 0). *)

val completed :
  ?attrs:(string * string) list ->
  start_s:float ->
  stop_s:float ->
  string ->
  unit
(** Record an already-elapsed region (e.g. queue wait, measured from the
    submission timestamp) as a child of the current open span, with
    explicit wall-clock bounds in seconds. *)

(** A finished span, as kept by the {!memory} sink. *)
type tree = {
  t_name : string;
  t_trace : int;  (** trace id; 0 when the span ran outside a trace *)
  t_attrs : (string * string) list;
  t_counts : (string * int) list;
  t_start_s : float;
  t_stop_s : float;
  t_domain : int;  (** id of the domain that ran the span *)
  t_children : tree list;  (** in completion order *)
}

val roots : t -> tree list
(** Finished root spans, oldest first.  Empty for {!chrome} sinks before
    and after {!flush} — chrome output is inspected from the file. *)

val flush : t -> unit
(** Write buffered output.  A no-op for {!disabled} and {!memory}. *)

val find_spans : (tree -> bool) -> tree list -> tree list
(** All spans (at any depth) of the given forests satisfying the
    predicate, preorder. *)

val json_escape : string -> string
(** The body of a JSON string literal for [s]: quote, backslash and
    control characters escaped.  The one escaper of the Chrome export
    and the service's stats JSON. *)
