(** Accumulating wall-clock timers for phase and hot-path costs.

    A timer accumulates the total elapsed seconds and the number of
    timed intervals, so [total_s / count] is a mean cost per
    operation — the quantity the ROADMAP's "as fast as the hardware
    allows" goal is tracked against.

    {b Clock.} The default clock is [Unix.gettimeofday]. The image
    this library targets has no monotonic-clock binding in the
    standard library, so a harness that links one injects it with
    {!set_clock}; everything downstream — spans, manifests — then
    uses it. The harnesses do exactly that: [bin/obs_cli.ml] (all the
    [bin/*] tools) installs bechamel's
    [clock_gettime(CLOCK_MONOTONIC)] stub at session start, so phase
    timings there never depend on [Unix.gettimeofday]. Timings are
    measurements, never test assertions, so library code running
    without a harness (unit tests) still gets correct-enough wall
    clock from the default. *)

type t

val create : unit -> t
(** A fresh timer with no recorded intervals. Prefer
    {!Registry.timer} for metrics that should appear in manifests. *)

val time : t -> (unit -> 'a) -> 'a
(** [time t f] runs [f ()], adding its elapsed time to [t] (one
    interval), even if [f] raises. *)

val add_s : t -> float -> unit
(** Accumulate one externally measured interval of [dt] seconds — for
    stages whose endpoints are recorded clock readings rather than a
    wrappable closure (the server's per-request stage breakdown).
    Negative [dt] is clamped to zero; capture-aware like {!time}. *)

val count : t -> int
(** Number of accumulated intervals. *)

val total_s : t -> float
(** Total accumulated seconds. *)

val mean_s : t -> float
(** [total_s / count]; [0.] when nothing was recorded. *)

(** {1 Parallel tasks}

    Same contract as {!Counter}'s. While a {!Shard.capture} is open
    on this domain, {!time} and {!add_s} accumulate into the timer's
    private shadow; {!Shard.merge} folds it in at the join barrier.
    Interval {e counts} merge deterministically; the accumulated
    seconds are wall-clock and therefore vary run to run
    (doc/PARALLELISM.md, determinism contract). *)

(** {1 Clock injection} *)

val set_clock : (unit -> float) -> unit
(** Replace the clock (seconds as a float; only differences are
    used). Affects all timers and {!Span}s. *)

val now_s : unit -> float
(** Read the current clock. *)
