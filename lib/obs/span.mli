(** Nestable spans: the phase structure of a run, as a forest of
    timed intervals.

    A span is opened around a phase ("experiments", "exp.T1",
    "search.trial") and closed when the phase ends; spans opened while
    another is live become its children, so a completed run leaves a
    forest mirroring the call structure — the "wall/CPU time per
    phase" section of the run manifest ({!Export.manifest_json}).

    State is a single implicit stack per process (the stack of the
    currently-open spans), matching the single-threaded harness. Spans
    open and close only through {!with_span}, which is exception-safe.
    When the registry is disabled ({!Registry.set_enabled}[ false]),
    {!with_span} runs its body without touching the clock or
    allocating.

    Span boundaries feed the wider observability layer: each span's
    opening and closing emit a [Begin]/[End] event to the {!Trace}
    stream (rendered as nested slices by the Perfetto exporter) and
    refresh the {!Gc_sample} runtime gauges. *)

type t
(** A {e completed} span. *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a fresh span; the span is
    closed (and attached to its parent, or to the root list) even if
    [f] raises. Inside a parallel task ({!Shard.capturing}), the span
    forest is not touched — it belongs to the pool's caller — but the
    [Begin]/[End] event pair still reaches the stream, so the phase
    keeps its Perfetto slice (doc/PARALLELISM.md). *)

(** {1 Reading the forest} *)

val roots : unit -> t list
(** Completed top-level spans, in completion order. Spans still open
    are not included. *)

val name : t -> string
val duration_s : t -> float
val children : t -> t list
(** Completed children in completion order. *)

val reset : unit -> unit
(** Drop all completed spans and abandon any open ones. *)
