(** Process-wide metrics registry: named counters, gauges, histograms
    and infos with a [/metrics]-style text dump, which parses back,
    merges with other dumps and renders as JSON.

    Counters and gauges are atomics, so increments from concurrent worker
    domains merge without locks; histograms take a short per-histogram
    lock on observe.  Instruments are get-or-create by name: the same
    name always yields the same instrument, so instrumentation points in
    different modules (or domains) share one time series. *)

type t
(** A registry. *)

val global : t
(** The process-wide default registry every subsystem reports into. *)

val create : unit -> t
(** A private registry (tests). *)

type counter
type gauge
type histogram

val counter : ?help:string -> t -> string -> counter
(** Get or create a monotonic counter.
    @raise Invalid_argument if [name] exists with a different type. *)

val child : counter -> counter
(** [child total] is a fresh counter at zero, registered nowhere: each
    increment of it also advances [total] (and [total]'s own parent, if
    it is a child).  A service instance counts into children of the
    registry's totals, so it reads its own count with {!counter_value}
    while the registry's total is, by construction, the sum over every
    instance.  {!find} and {!dump} see only [total];
    {!reset} leaves children untouched. *)

val incr : ?by:int -> counter -> unit
(** Advance a counter (by 1 by default) and every ancestor, lock-free;
    [incr c] allocates nothing. *)

val counter_value : counter -> int

val gauge : ?help:string -> t -> string -> gauge
val set_gauge : gauge -> float -> unit
val add_gauge : gauge -> float -> unit

val raise_gauge : gauge -> float -> unit
(** Set the gauge to [v] if [v] is larger (a high-water mark), lock-free. *)

val gauge_value : gauge -> float

val histogram : ?help:string -> ?buckets:float list -> t -> string -> histogram
(** Get or create a histogram with the given upper bucket bounds (a
    [+Inf] bucket is implicit; default bounds suit second-scale phase
    timings). *)

val observe : histogram -> float -> unit
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

type info

val info : ?help:string -> t -> string -> key:string -> info
(** Get or create a string-valued instrument, dumped as the gauge sample
    [name{key="value"} 1] ([""] until {!set_info}). *)

val set_info : info -> string -> unit

val find : t -> string -> [ `Counter of int | `Gauge of float | `None ]
(** Point read of a counter or gauge by name, without creating anything. *)

(** {2 The text format} *)

type sample = { metric : string; labels : (string * string) list; value : string }
type family = { name : string; kind : string; help : string; samples : sample list }
(** A stanza of the text: [kind] is ["counter"], ["gauge"] or
    ["histogram"], [help] is [""] without a [# HELP] line, and each
    sample's metric is the name or the name plus [_bucket]/[_sum]/[_count]. *)

val families : t -> family list
(** Every instrument, names sorted; an info is a gauge family. *)

val print : family list -> string
(** Text exposition, one stanza per name in name order: the first
    [# HELP] line, one [# TYPE] line, then the samples of every family of
    that name in list order, so relabelled dumps print as one. *)

val dump : t -> string
(** [print (families t)]: the [/metrics] page. *)

val parse : string -> family list
(** A {!print}ed text back, in text order, label values unescaped;
    other lines are skipped. *)

val json_of_dump : string -> string
(** A dump as one JSON object keyed by family name:
    [{"type":"counter","value":N}], [{"type":"gauge","value":V}] or
    [{"type":"histogram","count":N,"sum":S,"buckets":[{"le":B,"n":N},...]}]
    with per-bucket counts and no [+Inf] bucket.  Each labelled sample
    set ([le] aside) becomes an entry [{"labels":{...},...}] with the
    same fields in the family's ["series"] list.  Numbers are copied
    from the text, so a client renders the JSON of a dump it fetched. *)

val reset : t -> unit
(** Zero every instrument (tests); instruments stay registered. *)
