(** Per-task observability shards: the bridge between this library's
    single-domain mutable metrics and {!Sf_parallel.Pool}'s worker
    domains.

    The raw metric cells ({!Counter}, {!Timer}, {!Histo}, gauges) and
    the {!Trace} sinks are deliberately plain mutable state — the hot
    paths they instrument cannot afford atomics. Parallel execution
    keeps them safe by {e isolation}, not locking: the pool brackets
    every task in {!capture}, which opens a {!Capture} buffer on the
    current domain, so all metric updates land in private shadows of
    their targets and trace events are buffered; {!merge} folds the
    shards back on the pool's caller, in task-index order, at the join
    barrier, and is the one place that knows each kind's merge
    rule.

    That fixed merge order is the heart of the determinism contract
    (doc/PARALLELISM.md): counter totals, histogram contents, gauge
    last-writes and trace sequence numbers come out identical for a
    fixed seed at any job count. Wall-clock quantities (timer totals,
    event timestamps, span durations) stay truthful and therefore vary
    run to run.

    Captures nest: a {!capture} opened while another is in progress
    (a pool used inside a pool task) merges into the {e enclosing}
    shard, and the composition stays deterministic. *)

type t
(** The observability output of one completed task: the shadows of
    the counters, timers, histograms and gauges it touched, and its
    buffered trace events. *)

val capturing : unit -> bool
(** True while a capture is open on the current domain — i.e. the
    caller is running inside a parallel task. *)

val capture : (unit -> 'a) -> 'a * t
(** [capture f] runs [f] with all observability output redirected into
    a fresh shard and returns the result with the shard. If [f]
    raises, the partial shard is {e discarded} and the exception
    re-raised with its backtrace — totals must not depend on where an
    exception struck. *)

val merge : t -> unit
(** Fold a shard into the process-wide metrics and the attached trace
    sinks (or into the enclosing capture, when nested). Call on the
    domain that owns the sinks, in task-index order. *)

val merge_remote :
  proc:string ->
  counters:(string * int) list ->
  events:Trace.event list ->
  unit
(** Fold a {e relayed} shard — named counter deltas plus buffered
    trace events shipped from another process — into this process's
    registry and trace stream. Events are tagged with track name
    [proc] ({!Trace_export.tag}) before replay, so the merged Perfetto
    timeline shows them on the sender's own track; replay assigns
    fresh local sequence numbers in arrival order, which is the
    sender's emission order. Non-positive counter deltas are
    ignored. *)
