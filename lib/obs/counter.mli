(** Monotonic event counters — the unit of account of the paper's
    complexity measure.

    Lemma 1 (and every bound built on it) is a statement about the
    {e number of oracle requests} a searcher makes; a counter is the
    runtime object that carries such a count out of a hot loop and
    into a run manifest. Counters are plain single-word mutable cells:
    OCaml mutates one machine word per [incr], so they are
    lock-free-by-construction — no locks, no atomics, no allocation
    on the update path.

    Counters only ever grow ({!incr}, {!add} with a non-negative
    delta); {!reset} exists for tests, not for instrumented code. *)

type t

val create : unit -> t
(** A fresh counter at zero. Prefer {!Registry.counter} for metrics
    that should appear in manifests. *)

val incr : t -> unit
(** Add one. *)

val add : t -> int -> unit
(** Add a non-negative delta.
    @raise Invalid_argument on a negative delta (counters are
    monotone; use a {!Registry.gauge} for values that move both
    ways). *)

val value : t -> int
(** Current count. *)

val reset : t -> unit
(** Back to zero — for tests. *)

(** {1 Domain-local capture}

    The raw mutable cells above are {e not} safe under concurrent
    update. {!Sf_parallel.Pool} makes them safe by bracketing every
    parallel task in a capture: between {!capture_begin} and
    {!capture_end} on a given domain, {!incr}/{!add} accumulate into a
    private delta list instead of the shared cell, and the pool folds
    the deltas in with {!apply} — in task-index order, at the join
    barrier, on one domain. Sequential code never opens a capture and
    pays one domain-local read per update. Prefer the composed
    {!Shard} API over calling these directly.

    {!value} and {!reset} always address the shared cell: reads inside
    a capture do not see the deltas buffered so far. *)

type frame
(** Token restoring the enclosing capture (if any) — captures nest. *)

type deltas
(** The updates recorded by one closed capture. *)

val capture_begin : unit -> frame
(** Start buffering this domain's counter updates. *)

val capture_end : frame -> deltas
(** Stop buffering and return the recorded updates; the enclosing
    capture (or direct mode) is restored. *)

val apply : deltas -> unit
(** Fold recorded updates into their counters. Capture-aware: applied
    inside another capture, the deltas merge into {e that} capture —
    this is what makes nested pools compose. *)
