(** The flight recorder: a bounded ring of the most recent trace
    events, kept in memory and dumped on demand — the "what just
    happened" view when a run raises or a strategy gives up.

    Attach one with [Trace.attach (Flight.sink recorder)]; the
    harnesses do this whenever [--trace] is active and {!arm} it to
    dump on a ["search.gave_up"] event, and dump it by hand from their
    top-level exception handler. The buffer is fixed at creation:
    recording is one array store, no allocation, so the recorder can
    ride along any traced run. *)

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 512 events.
    @raise Invalid_argument if [capacity < 1]. *)

val sink : t -> Trace.sink
(** The recorder as an attachable sink. One recorder should back at
    most one attachment. *)

(** {1 Reading} *)

val events : t -> Trace.event list
(** The retained events, oldest first (at most [capacity]). *)

val length : t -> int
(** Events currently retained. *)

val seen : t -> int
(** Events ever recorded. *)

val dropped : t -> int
(** Events overwritten: [seen - capacity] when positive. *)

(** {1 Triggered dumps} *)

val arm : t -> trigger:(Trace.event -> bool) -> action:(t -> unit) -> unit
(** Run [action recorder] on the first recorded event satisfying
    [trigger] (the triggering event is already in the buffer). The
    trigger then disarms itself — re-arm to fire again — so a
    gave-up storm dumps once, not per run. *)

val dump : ?out:out_channel -> t -> unit
(** Human-readable dump ({!Trace.event_to_line} per event) to [out]
    (default [stderr]), flushed. *)

val install_sigusr1 : ?out:out_channel -> t -> bool
(** Install a [SIGUSR1] handler dumping the ring to [out] (default
    [stderr]), so a stuck run can be inspected with
    [kill -USR1 <pid>] without killing it. Returns [false] on
    platforms without the signal. The harnesses install this whenever
    [--trace] arms a recorder; a later call replaces the earlier
    handler. *)
