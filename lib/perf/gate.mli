(** The CI perf gate: a pass/fail decision between a baseline BENCH
    file and a candidate.

    The gate fails — [passed] is [false], and [bin/sfbench gate] exits
    non-zero — when any of these hold:

    - a benchmark is a {e confirmed} regression ({!Compare.verdict} is
      [Regressed]: beyond the noise floor, Mann–Whitney-significant
      where the sample sizes allow it, disjoint bootstrap CIs) {e and}
      its median slowdown exceeds [max_regression_pct];
    - a benchmark recorded in the baseline is missing from the
      candidate (a lost benchmark is a lost instrument, the same rule
      the manifest shape check applies to metric names);
    - the two files were recorded in different modes ([quick], [full]
      and [e2e] timings are not comparable).

    Host differences do {e not} fail the gate — CI baselines are
    routinely recorded on other machines — but they are reported, and
    the relative medians are still meaningful on a same-class host.
    New candidate-only benchmarks are reported and tolerated (new
    instrumentation lands before the baseline is refreshed). *)

type policy = {
  compare : Compare.policy;
  max_regression_pct : float;
      (** confirmed regressions up to this slowdown are tolerated
          (default 10.0) *)
}

val default_policy : policy

type outcome = {
  comparison : Compare.file_comparison;
  failures : Compare.result list;  (** confirmed regressions beyond the cap *)
  missing : string list;  (** baseline benchmarks absent from the candidate *)
  mode_mismatch : (string * string) option;  (** [(base, cand)] when they differ *)
  host_mismatch : (string * string) option;  (** informational only *)
}

val run : policy -> base:Bench_file.t -> cand:Bench_file.t -> outcome
val passed : outcome -> bool

val render : outcome -> string
(** The full comparison table followed by the verdict lines the CI log
    shows. *)
