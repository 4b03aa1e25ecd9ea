(** The recordable benchmark suite — the single source of truth for
    what [sfbench record] times.

    Two producers feed the trajectory:

    - {!run_micro}: the bechamel microbenchmarks of the hot paths
      behind the experiment tables (generation, search, simulation,
      exact math), as {e raw} samples.
    - {!run_phases}: the experiment phase timers — each registry
      experiment's wall time over repeated full passes.

    Both return plain [(name, samples)] pairs in nanoseconds so
    {!Bench_file} can persist them and {!Compare} can re-analyse them
    later. *)

val run_micro : quick:bool -> unit -> (string * float array) list
(** Run every microbenchmark; per benchmark, one ns-per-run sample per
    raw bechamel measurement (total time of a batch divided by its run
    count). Sorted by name (["sf/..."]). [quick] divides the input
    sizes by 8 and cuts the bechamel quota from 1 s to 0.25 s per
    benchmark (200-sample limit, GC stabilisation on either way). *)

val run_phases : quick:bool -> seed:int -> repeats:int -> (string * float array) list
(** Run the full experiment registry [repeats] times on the default
    pool; per experiment, the wall-clock ns of each pass, named
    ["exp.<id>"]. Results and observability side effects are the
    deterministic ones of {!Sf_experiments.Registry.run_all}; only the
    timings vary. Sorted by name.
    @raise Invalid_argument if [repeats < 1]. *)
