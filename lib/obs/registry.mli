(** The process-wide named-metric registry.

    Instrumented modules declare their metrics once, at module
    initialisation ([let requests = Registry.counter "search.requests"]),
    and update them from hot paths; exporters ({!Export}) walk the
    registry to build run manifests. Names are dotted paths grouped by
    subsystem — ["search.requests"], ["gen.mori.build_s"],
    ["sim.messages"] — catalogued in [doc/OBSERVABILITY.md].

    {b Get-or-create.} Requesting an existing name with the same
    metric kind returns the {e same} instance (so a metric can be
    declared from several modules); requesting it with a different
    kind raises — a name collision is a bug in the instrumentation,
    not something to silently paper over.

    {b The kill switch.} {!set_enabled}[ false] (the [--no-obs] flag
    of the harnesses) turns every instrumentation site into a
    single-branch no-op: sites guard clock reads, histogram observes
    and span bookkeeping behind {!enabled}[ ()]. Declaring metrics
    remains allowed — they simply stay at zero. *)

(** {1 Enabling} *)

val set_enabled : bool -> unit
(** Default [true]. Flip before the run starts, not mid-phase. *)

val enabled : unit -> bool

(** {1 Declaring metrics}

    All declare functions
    @raise Invalid_argument on an empty name, a name with characters
    outside [[A-Za-z0-9._/,-]] plus the double-quote character (commas
    and quotes are admitted because both exporters escape them;
    whitespace and control characters are not), or a name already
    registered as a different kind. *)

val counter : string -> Counter.t
val timer : string -> Timer.t

val histo : ?base:float -> string -> Histo.t
(** [base] is only used on first creation. *)

type gauge
(** A point-in-time float (queue depth, event rate): the one
    non-monotone metric kind, small enough to live here rather than
    in its own module. *)

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val gauge_set : gauge -> bool
(** Whether the gauge was ever set (distinguishes "0" from "never
    measured"). *)

(** {1 Domain-local gauge capture}

    Same contract as {!Counter.capture_begin}. A capture remembers the
    last value set per gauge; {!apply_gauges} replays them at the join
    barrier in task-index order, so "last write wins" is decided by
    index, not scheduling. Prefer the composed {!Shard} API.

    Get-or-create itself ({!counter}, {!timer}, {!histo}, {!gauge}) is
    protected by a mutex and safe to call from any domain — a few
    instrumentation sites register metrics lazily from hot paths. *)

type gauge_frame
type gauge_deltas

val gauge_capture_begin : unit -> gauge_frame
val gauge_capture_end : gauge_frame -> gauge_deltas
val apply_gauges : gauge_deltas -> unit

(** {1 Walking the registry} *)

type metric =
  | Counter of Counter.t
  | Timer of Timer.t
  | Histo of Histo.t
  | Gauge of gauge

val names : unit -> string list
(** All registered names, sorted. *)

val all : unit -> (string * metric) list
(** Sorted by name. *)
