(** The process-wide structured event stream: every oracle request,
    generator checkpoint and simulator event as a timestamped record,
    fanned out to pluggable sinks.

    The stream is the sequencing peer of the metric {!Registry}: a
    counter says {e how many} requests a run made, the stream says
    {e when} each one happened and what it revealed — the sequence of
    oracle requests that the paper's complexity measure counts
    (PAPER.md, Lemma 1). Sinks include the {!Flight} recorder, the
    JSONL stream and the Perfetto exporter ({!Trace_export}).

    {b Zero cost when disabled.} An emission site pays one branch when
    no sink is attached or when the registry kill switch
    ({!Registry.set_enabled}[ false], the [--no-obs] flag) is down; no
    event is allocated and no clock is read. Instrumentation sites
    that must {e prepare} payloads (e.g. the oracle collecting the
    revealed-vertex list) guard the preparation behind {!active}. *)

type arg =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Ints of int list  (** small vertex lists, e.g. revealed-by-request *)

type kind =
  | Begin  (** a phase opens (paired with [End] by name nesting) *)
  | End  (** the innermost open phase of this name closes *)
  | Instant  (** a point event — one oracle request, one checkpoint *)
  | Counter of float  (** a sampled value (queue depth, heap words) *)

type event = {
  seq : int;  (** 1-based global sequence number, gap-free per process *)
  ts : float;  (** seconds on the {!Timer.now_s} clock *)
  name : string;  (** dotted event name, same grammar as metric names *)
  kind : kind;
  args : (string * arg) list;  (** small payload, possibly empty *)
}

(** {1 Emitting} *)

val active : unit -> bool
(** True iff at least one sink is attached {e and} the registry is
    enabled. Sites with non-trivial payload preparation should guard
    on this before building [args]. *)

val emit : ?ts:float -> ?args:(string * arg) list -> string -> kind -> unit
(** Emit one event to every attached sink, in attach order. A no-op
    (single branch) when {!active} is false. [ts] overrides the
    {!Timer.now_s} stamp — for spans reconstructed after the fact from
    recorded clock readings (the server's stage breakdown, the load
    generator's per-request spans); pair such [Begin]/[End] events
    adjacently so renderer span stacks still match them up. *)

val instant : ?args:(string * arg) list -> string -> unit
val counter : ?args:(string * arg) list -> string -> float -> unit

(** {1 Domain-local capture}

    Sinks are plain closures and must only ever run on one domain.
    {!Sf_parallel.Pool} guarantees that by bracketing parallel tasks
    in a capture: while one is open on the current domain, {!emit}
    buffers events (with a zero [seq] and the emitting domain's
    timestamp) instead of touching the sinks; {!replay} at the join
    barrier — in task-index order, on the pool's caller — assigns the
    definitive sequence numbers and fans out. Sequence numbers are
    therefore gap-free and identical for a fixed seed at any job
    count; timestamps keep wall-clock truth and may interleave.
    Prefer the composed {!Shard} API over calling these directly. *)

type frame

val capturing : unit -> bool
(** True while a capture is open on the current domain — i.e. the code
    is running inside a parallel task. Sites that must side-step
    capture (e.g. attaching a sink) can refuse when this is set. *)

val capture_begin : unit -> frame
val capture_end : frame -> event list

val replay : event list -> unit
(** Re-emit captured events: assigns fresh sequence numbers and fans
    out to the attached sinks (dropped when none are attached), or
    re-buffers into the enclosing capture if one is open. *)

(** {1 Sinks} *)

type sink = {
  descr : string;  (** for diagnostics *)
  emit : event -> unit;  (** called synchronously per event *)
  close : unit -> unit;  (** flush and release; called exactly once on detach *)
}

type id

val attach : sink -> id
(** Attach; the sink sees every subsequent event until detached. *)

val detach : id -> unit
(** Remove the sink and call its [close]. Unknown ids are ignored. *)

val attached : unit -> int
(** Number of attached sinks. *)

(** {1 Rendering helpers} *)

val kind_tag : kind -> string
(** Chrome trace-event phase letter: ["B"], ["E"], ["i"], ["C"]. *)

val arg_to_string : arg -> string
(** Flat rendering ([Ints] joined with [';'] — the CSV trace idiom). *)

val event_to_line : event -> string
(** One human-readable line (the {!Flight} dump format). *)
