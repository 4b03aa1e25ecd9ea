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

(** {1 Parallel tasks}

    The cell above is {e not} safe under concurrent update.
    {!Sf_parallel.Pool} makes it safe by bracketing every parallel
    task in a {!Shard.capture}: while one is open on a domain,
    {!incr}/{!add} land in the counter's private shadow
    ({!Capture}), and {!Shard.merge} adds the shadows in, in
    task-index order, at the join barrier. Sequential code pays one
    domain-local read per update.

    {!value} and {!reset} always address the shared cell: reads inside
    a capture do not see the updates buffered so far. *)
