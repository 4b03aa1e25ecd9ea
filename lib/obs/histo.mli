(** Log-bucketed histograms for latency and degree distributions.

    Scale-free quantities (degrees, request counts, queue latencies)
    span orders of magnitude, so buckets grow geometrically: with the
    default base 2, bucket 0 holds every value [<= 1], and bucket
    [i >= 1] holds the half-open range [(base^(i-1), base^i]].
    Observation is O(1) (one [log], one array increment) and the
    memory footprint is a fixed 64-slot array regardless of the value
    range — safe to keep hot.

    This is the observability twin of [Sf_stats.Histogram]: that one
    renders a {e finished} sample for a table, this one is a mutable
    accumulator cheap enough to live inside generators and search
    loops, exported via {!Export}. *)

type t

val create : ?base:float -> unit -> t
(** [base] (default [2.0]) is the geometric bucket growth factor.
    @raise Invalid_argument if [base <= 1]. *)

val observe : t -> float -> unit
(** Record one value. Values [<= 1] (including negatives) land in
    bucket 0. *)

val observe_int : t -> int -> unit

val count : t -> int
(** Number of observations. *)

val sum : t -> float
val min_value : t -> float
(** Smallest observation; [nan] when empty. *)

val max_value : t -> float
(** Largest observation; [nan] when empty. *)

val mean : t -> float
(** [sum / count]; [0.] when empty. *)

val bucket_index : t -> float -> int
(** The bucket a value falls into — exposed so tests can pin the
    boundary behaviour: [bucket_index h v = 0] iff [v <= 1], and for
    [i >= 1] the bucket covers [(base^(i-1), base^i]]. *)

val bucket_count : t -> int -> int
(** Observations in the given bucket index. *)

val buckets : t -> (float * int) list
(** Non-empty buckets as [(upper_bound, count)], ascending. Bucket
    0's upper bound is [1.]. *)

val quantile : t -> float -> float
(** [quantile h q] for [q] in [[0, 1]]: the upper bound of the first
    bucket whose cumulative count reaches [q * count] — an upper
    estimate with relative error bounded by the bucket base. [nan]
    when empty. @raise Invalid_argument if [q] is outside [[0,1]]. *)

(** {1 Domain-local capture}

    Same contract as {!Counter.capture_begin} — see there for the full
    story. A capture gives each touched histogram a private shadow
    (same base and bucket layout) absorbing its observations; {!apply}
    merges shadows into the shared accumulators at the join barrier.
    Bucket counts, totals and min/max merge exactly; the running [sum]
    is a float whose association order follows the merge order, which
    the pool keeps fixed (task-index order) so a given seed produces
    the same sum at any job count. *)

type frame
type deltas

val capture_begin : unit -> frame
val capture_end : frame -> deltas
val apply : deltas -> unit
