(** The regression-comparison engine: robust verdicts on two recorded
    benchmark runs.

    Timing samples are skewed, heavy-tailed, and polluted by scheduler
    noise, so everything here is order-statistics based:

    - the point estimate of a benchmark's cost is the {e median},
    - its uncertainty is a bootstrap confidence interval of the median
      (deterministic resampling, {!Sf_prng.Rng}),
    - the significance test is {!Sf_stats.Tests.mann_whitney_u}
      (two-sided, tie-corrected) — no normality assumption.

    A benchmark is only classified [Regressed] (or [Improved]) when
    {e all three} agree: the median moved beyond the noise floor, the
    Mann–Whitney p-value clears [alpha], and the two bootstrap
    intervals are disjoint. A <2 % drift therefore never flags, no
    matter how statistically "significant" a large sample makes it —
    the noise floor is a magnitude requirement, not a confidence
    one.

    Short series cannot clear [alpha] at all: two 3-run samples give
    p ≥ 0.08 even when every candidate run is slower than every
    baseline run. When the two sample sizes cannot reach [p < alpha],
    the Mann–Whitney condition is dropped and the verdict rests on
    the other two; at 3 runs a side, disjoint intervals mean every
    candidate run lies beyond every baseline run. *)

type verdict = Improved | Unchanged | Regressed

type result = {
  name : string;
  unit_label : string;  (** the baseline series' unit, see {!fmt_value} *)
  base_median : float;
  cand_median : float;
  change_pct : float;  (** [(cand/base - 1) * 100]; positive = slower *)
  base_ci : float * float;  (** bootstrap 95 % CI of the baseline median *)
  cand_ci : float * float;
  u : float;  (** Mann–Whitney U of the baseline sample *)
  p : float;  (** two-sided p-value *)
  verdict : verdict;
}

type policy = {
  noise_floor_pct : float;
      (** median drifts below this magnitude are always [Unchanged]
          (default 2.0) *)
  alpha : float;  (** Mann–Whitney significance level (default 0.01) *)
  bootstrap_iters : int;  (** resamples per CI (default 400) *)
  bootstrap_seed : int;
      (** the resampling PRNG seed — fixed so verdicts are
          reproducible (default 2007) *)
}

val default_policy : policy

val bootstrap_median_ci : policy -> float array -> float * float
(** Percentile-bootstrap 95 % confidence interval of the median. A
    single-sample array collapses to a point interval.
    @raise Invalid_argument on an empty array. *)

val samples :
  policy -> unit_label:string -> name:string -> base:float array -> cand:float array -> result
(** Compare two raw sample arrays of the same unit.
    @raise Invalid_argument if either is empty. *)

type file_comparison = {
  results : result list;  (** benchmarks present in both, baseline order *)
  only_base : string list;  (** recorded in the baseline, gone from the candidate *)
  only_cand : string list;  (** new in the candidate *)
}

val files : policy -> base:Bench_file.t -> cand:Bench_file.t -> file_comparison

val fmt_value : unit_label:string -> float -> string
(** A value in its unit: ["ns"] as human time (["1.23 us"],
    ["4.56 ms"], …), ["bytes"] as MB (["44.76 MB"]), any other unit
    as the number followed by its label. *)

val render : result list -> string
(** One table row per result: medians, change, p-value, verdict. *)
