(** The measurement harness confronting strategies with the lower
    bounds of PAPER.md: run (graph model × strategy × size) grids,
    aggregate request counts with confidence intervals, fit scaling
    exponents against Theorem 1's [Ω(√n)].

    Every trial owns a split random stream derived from the master
    seed and the trial index, so grids are bit-reproducible under any
    execution order.

    Measurement rides on the instrumented runner: each trial advances
    the [search.*] counters and the [search.requests_per_run]
    histogram (doc/OBSERVABILITY.md), so a grid run with
    [--metrics obs.json] leaves a manifest whose totals cross-check
    the {!point} aggregates reported here. *)

type point = {
  n : int; (** problem size (vertices of the searched graph) *)
  strategy : string;
  trials : int;
  mean : float; (** mean requests under the chosen metric *)
  ci95 : float; (** 95% half-width *)
  median : float;
  q90 : float;
  timeouts : int; (** trials truncated by the budget (their cost is
                      counted as the budget: a conservative
                      under-estimate, safe for lower-bound checks) *)
  gave_up : int; (** trials where the strategy ran out of moves *)
}

type metric =
  | To_neighbor
      (** requests until the target's closed neighbourhood is touched
          — the paper's complexity measure *)
  | To_target  (** requests until the target itself is discovered *)

type spec = {
  trials : int;
  metric : metric;
  budget : int -> int; (** request budget as a function of [n] *)
  source : [ `Oldest | `Random ];
      (** where searches start: vertex 1 (the old, well-connected
          core — the searcher-friendly choice) or a uniform non-target
          vertex *)
}

val default_spec : spec
(** 30 trials, {!To_neighbor}, budget [4n + 64], oldest-vertex
    start. *)

val measure :
  ?jobs:int ->
  Sf_prng.Rng.t ->
  make:(Sf_prng.Rng.t -> int -> Sf_graph.Ugraph.t * int) ->
  strategies:Sf_search.Strategy.t list ->
  sizes:int list ->
  spec:spec ->
  point list
(** [make rng n] must return a connected graph for problem size [n]
    together with the search target. One fresh graph per trial.

    Trials run on an {!Sf_parallel.Pool} of [jobs] domains (default
    {!Sf_parallel.Pool.default_jobs}); every trial owns the split
    stream [Rng.split_at master key] and aggregation folds results in
    trial order, so points, metrics and trace output are identical for
    a fixed seed at any job count (doc/PARALLELISM.md).

    @raise Invalid_argument when [spec.trials < 1] or [spec.budget]
    returns a non-positive budget for any requested size — a budget of
    zero would silently record every trial as a timeout. *)

(** {2 The grid, one task at a time}

    [measure] is [run_grid_task] fanned over a {!Sf_parallel.Pool}
    followed by [aggregate]; the pieces are public so the distributed
    fabric ([lib/fabric]) can run shards of the same flattened task
    range in worker {e processes} and still merge to byte-identical
    output (doc/FABRIC.md). *)

val validate_grid : sizes:int list -> spec:spec -> unit
(** The argument checks {!measure} performs.
    @raise Invalid_argument as {!measure}. *)

val n_grid_tasks : sizes:int list -> strategies:'a list -> spec:spec -> int
(** [|sizes| * |strategies| * spec.trials] — the flattened task count. *)

val run_grid_task :
  Sf_prng.Rng.t ->
  spec:spec ->
  make:(Sf_prng.Rng.t -> int -> Sf_graph.Ugraph.t * int) ->
  strategies:Sf_search.Strategy.t array ->
  sizes:int array ->
  int ->
  float * bool * bool
(** Run flattened grid task [task] (ascending in (size, strategy,
    trial) order, trial innermost) on its own {!trial_rng} stream and
    return [(cost, truncated, gave_up)]. Depends only on the master
    stream and the task index — any process may run any task in any
    order. *)

val aggregate :
  sizes:int list ->
  strategies:string list ->
  spec:spec ->
  (float * bool * bool) array ->
  point list
(** Fold a full flat outcome array (as indexed by {!run_grid_task})
    into points, in (size, strategy) order with trials folded in trial
    order — bit-identical to a sequential loop.
    @raise Invalid_argument when the array length is not the grid's
    task count. *)

val trial_rng :
  Sf_prng.Rng.t -> size_idx:int -> strat_idx:int -> trial:int -> Sf_prng.Rng.t
(** The split stream a {!measure} grid hands to the given (size,
    strategy, trial) cell. Exposed so [sfcorpus build] can pre-generate
    exactly the graphs a later grid run will request from the corpus
    cache (doc/STORAGE.md). *)

(** {2 Instance makers}

    The three makers below build one fresh problem instance per trial.
    Each routes through {!Sf_store.Corpus.instance}: with no corpus
    configured they generate directly; with one ([--corpus] /
    [SCALEFREE_CORPUS]), generated graphs are stored in the binary
    format keyed by (generator, parameters, n, trial stream) and
    replayed on later runs — byte-identical results either way, since
    a cache hit also restores the post-generation rng state. *)

val mori_instance :
  p:float -> m:int -> Sf_prng.Rng.t -> int -> Sf_graph.Ugraph.t * int
(** The Theorem 1 workload: the merged Móri graph ({!Sf_gen.Mori.graph})
    sized [graph_size] from {!Lower_bound.theorem1} (so the equivalence
    window exists), target = vertex [n]. *)

val cooper_frieze_instance :
  Sf_gen.Cooper_frieze.params -> Sf_prng.Rng.t -> int -> Sf_graph.Ugraph.t * int
(** The Theorem 2 workload: CF graph
    ({!Sf_gen.Cooper_frieze.generate_n_vertices}) grown to [n + ⌊√n⌋]
    vertices, target = vertex [n]. *)

val config_model_instance :
  exponent:float -> Sf_prng.Rng.t -> int -> Sf_graph.Ugraph.t * int
(** The Adamic et al. workload: largest component of a power-law
    configuration graph; the target is a uniform vertex distinct from
    the source-designate (vertex 1 after relabelling). *)

val instance_of_model :
  string ->
  p:float ->
  m:int ->
  alpha:float ->
  exponent:float ->
  (Sf_prng.Rng.t -> int -> Sf_graph.Ugraph.t * int, string) result
(** The maker a [--model] name selects: [mori] ({!mori_instance} with
    [p], [m]), [cooper-frieze] ({!cooper_frieze_instance} with the
    default parameters at [alpha]) or [config]
    ({!config_model_instance} with [exponent]). An unknown name gives
    [Error "unknown model: NAME (mori | cooper-frieze | config)"]. *)

val exponent_fit : point list -> strategy:string -> Sf_stats.Regression.fit
(** Log–log fit of [mean] against [n] for one strategy's points.
    @raise Invalid_argument with fewer than two sizes. *)

val points_of_strategy : point list -> strategy:string -> point list

val points_to_csv : point list -> string
(** CSV export of a measurement grid (header: n, strategy, trials,
    mean, ci95, median, q90, timeouts, gave_up) — the bridge to
    external plotting tools. *)
