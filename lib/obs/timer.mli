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

val start : t -> unit
(** Open an interval by hand (for code that cannot be wrapped in a
    closure). A second [start] before {!stop} restarts the interval. *)

val stop : t -> unit
(** Close the interval opened by {!start} and accumulate it. A [stop]
    without a pending [start] is ignored. *)

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

(** {1 Domain-local capture}

    Same contract as {!Counter.capture_begin} — see there for the full
    story. While a capture is open on this domain, {!time},
    {!start}/{!stop} accumulate into a private delta (including the
    pending-interval state, so paired start/stop inside a parallel
    task never touches the shared cell); {!apply} folds closed deltas
    in at the join barrier. Interval {e counts} merge
    deterministically; the accumulated seconds are wall-clock and
    therefore vary run to run (doc/PARALLELISM.md, determinism
    contract). *)

type frame
type deltas

val capture_begin : unit -> frame
val capture_end : frame -> deltas
val apply : deltas -> unit

(** {1 Clock injection} *)

val set_clock : (unit -> float) -> unit
(** Replace the clock (seconds as a float; only differences are
    used). Affects all timers and {!Span}s. *)

val now_s : unit -> float
(** Read the current clock. *)
