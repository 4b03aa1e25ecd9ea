(** Trace-context propagation: compact trace/span ids correlating one
    logical request across process boundaries.

    A context is two non-negative 63-bit integers. The {e trace} id is
    shared by every span of one logical operation — the client's
    [load.request] span, the server's queue/batch/search/reply stage
    spans, a fabric worker's trial span — while the {e span} id names
    one process's piece. Both are derived by pure splitmix-style
    integer mixing from [(seed, request id)]: no [Random], no clock,
    so a fixed seed yields the same ids (and the same wire bytes) on
    every run, preserving the repo's byte-identical-output contract
    even with tracing on.

    Carriage is the transport's business: [Sf_serve.Wire] flags a
    search request and appends the two ids as varints;
    [Sf_fabric] derives per-task contexts from the grid seed on both
    sides, so nothing extra crosses the control socket. *)

type t = { trace : int; span : int }

val derive : seed:int -> id:int -> t
(** Root context for logical operation [id] (a request id, a grid task
    index) under [seed]. Deterministic; both ids are in
    [\[0, max_int\]]. *)

val child : t -> key:int -> t
(** Same trace, fresh span: the receiving process derives its own span
    under key [key] (callers pick small distinct keys per stage). *)

val to_hex : int -> string
(** 16 lowercase hex digits, zero-padded — the rendering used in trace
    event args and docs. *)

val args : t -> (string * Trace.arg) list
(** [[("trace", Str hex); ("span", Str hex)]] — the standard event-arg
    encoding of a context. *)
