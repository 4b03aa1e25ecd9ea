(** A small persistent domain pool with {e deterministic} fork-join —
    the execution engine behind the trial grids of
    {!Sf_core.Searchability}, the experiment fan-out and the bench
    harness.

    The paper's bounds are statistical claims over thousands of
    independent search trials (PAPER.md, Theorems 1–2); the trials are
    embarrassingly parallel because every one owns a split random
    stream ([Rng.split_at master key]). This pool adds the missing
    piece: {b scheduling must not be observable}. Tasks are claimed
    from a shared atomic index by [jobs - 1] persistent worker domains
    plus the caller, but each task runs inside an
    {!Sf_obs.Shard.capture} and the shards are merged on the caller in
    task-index order at the join barrier — so results, metric totals
    and the trace stream are identical for a fixed seed at any job
    count. The full contract lives in doc/PARALLELISM.md.

    With [jobs = 1] (or a single chunk, or a pool created inside
    another pool's task) no domain is spawned and the same
    capture/merge bracket runs inline — the sequential fallback is the
    same code shape, not a separate path. *)

type t

(** {1 Lifecycle} *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] persistent worker domains
    (none when [jobs = 1]). Default: {!default_jobs}. Inside another
    pool's task the pool silently degrades to [jobs = 1] — nested
    spawning would oversubscribe the machine.
    @raise Invalid_argument when [jobs < 1]. *)

val jobs : t -> int
(** The effective job count (caller included). *)

val shutdown : t -> unit
(** Stop and join the workers. Idempotent. Using the pool afterwards
    raises. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool f] brackets [f] between {!create} and {!shutdown},
    shutting down even if [f] raises. *)

(** {1 Deterministic parallel maps} *)

val map_chunks : t -> chunk:int -> int -> (int -> 'a) -> 'a array
(** [map_chunks t ~chunk n f] computes [[| f 0; …; f (n-1) |]],
    dealing indices to the workers in contiguous chunks of [chunk].
    Each chunk is bracketed in an {!Sf_obs.Shard.capture}; shards are
    merged in chunk order at the join barrier. If any [f i] raises,
    the exception with the {e smallest index} is re-raised (with its
    backtrace) after the barrier and no shard of the batch is merged.
    [f] must not touch shared mutable state other than through
    [Sf_obs]; it may freely read the (immutable) captured environment.
    @raise Invalid_argument when [chunk < 1], [n < 0] or the pool is
    shut down. *)

val mapi : t -> int -> (int -> 'a) -> 'a array
(** [map_chunks] with [chunk = 1] — the right grain for search trials,
    where one task is milliseconds of work. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map t f arr] = [mapi] over [arr]'s indices. *)

(** {1 Job-count defaults} *)

val default_jobs : unit -> int
(** The process default: {!set_default_jobs} if called, else a valid
    [SCALEFREE_JOBS] environment variable, else
    [Domain.recommended_domain_count ()] capped at 8: trial workloads
    stop scaling well before the core count on big machines, and CI
    runners overstate their parallelism.
    The resolution is sticky — the environment is read once. *)

val set_default_jobs : int -> unit
(** Set the process default ([--jobs] lands here).
    @raise Invalid_argument when [jobs < 1]. *)
