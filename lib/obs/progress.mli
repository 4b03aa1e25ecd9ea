(** Live progress reporting for long harness runs: a single
    carriage-return-overwritten stderr line with per-phase counts,
    elapsed time and a linear-extrapolation ETA — the [--progress]
    flag of the [bin/*] tools.

    Display-only: nothing is registered in the metric registry and no
    trace events are emitted, so progress can stay on during [--no-obs]
    runs (it reports, it does not measure). *)

type t

val set_enabled : bool -> unit
(** Process-wide kill switch (default on). When off, reporters update
    their counts but write nothing — fabric {e worker} processes,
    which share the coordinator's terminal, turn this off so only the
    coordinator's consolidated line redraws. *)

val create : ?out:out_channel -> label:string -> total:int -> unit -> t
(** A reporter expecting [total] units of work ([total = 0] means
    unknown: counts are shown without an ETA). [out] defaults to
    [stderr].
    @raise Invalid_argument on negative [total]. *)

val step : ?detail:string -> t -> unit
(** One unit done; redraw the line. [detail] names the unit just
    finished (an experiment id, a trial number). *)

val finish : t -> unit
(** Final redraw terminated by a newline. Idempotent; further
    {!step}s are ignored. *)

val completed : t -> int
