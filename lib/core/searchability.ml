module Rng = Sf_prng.Rng
module Runner = Sf_search.Runner
module Strategy = Sf_search.Strategy
module Ugraph = Sf_graph.Ugraph

type point = {
  n : int;
  strategy : string;
  trials : int;
  mean : float;
  ci95 : float;
  median : float;
  q90 : float;
  timeouts : int;
  gave_up : int;
}

type metric = To_neighbor | To_target

type spec = {
  trials : int;
  metric : metric;
  budget : int -> int;
  source : [ `Oldest | `Random ];
}

let default_spec =
  { trials = 30; metric = To_neighbor; budget = (fun n -> (4 * n) + 64); source = `Oldest }

let pick_source rng spec g target =
  match spec.source with
  | `Oldest -> if target = 1 && Ugraph.n_vertices g > 1 then 2 else 1
  | `Random ->
    let n = Ugraph.n_vertices g in
    let rec draw () =
      let v = 1 + Rng.int rng n in
      if v = target then draw () else v
    in
    draw ()

let trial_cost spec outcome =
  let recorded =
    match spec.metric with
    | To_neighbor -> outcome.Runner.to_neighbor
    | To_target -> outcome.Runner.to_target
  in
  match recorded with
  | Some r -> (float_of_int r, false)
  | None -> (float_of_int outcome.Runner.total_requests, true)

(* A unique, order-independent stream per cell and trial.  Public so
   sfcorpus build can pre-generate exactly the graphs a later measure
   grid will request from the corpus cache (lib/store). *)
let trial_rng master ~size_idx ~strat_idx ~trial =
  let key = (((size_idx * 97) + strat_idx) * 65_537) + trial in
  Rng.split_at master key

(* One independent trial: the parallel unit of work.  Everything here
   is either freshly built from the trial's split stream or routed
   through the capture-aware Sf_obs layer, so trials may run on any
   domain in any order. *)
let run_trial master spec ~make ~strategy ~n ~size_idx ~strat_idx ~trial =
  let rng = trial_rng master ~size_idx ~strat_idx ~trial in
  (* Trace events, not Span.with_span: thousands of trials would bloat
     the manifest's span forest, while the stream costs nothing with no
     sink attached. *)
  let tracing = Sf_obs.Trace.active () in
  if tracing then
    Sf_obs.Trace.emit "search.trial" Sf_obs.Trace.Begin
      ~args:
        [
          ("n", Sf_obs.Trace.Int n);
          ("strategy", Sf_obs.Trace.Str strategy.Strategy.name);
          ("trial", Sf_obs.Trace.Int trial);
        ];
  let g, target = make rng n in
  let source = pick_source rng spec g target in
  let stop_at =
    match spec.metric with To_neighbor -> Runner.At_neighbor | To_target -> Runner.At_target
  in
  let outcome = Runner.search ~budget:(spec.budget n) ~stop_at ~rng g strategy ~source ~target in
  let cost, truncated = trial_cost spec outcome in
  if tracing then
    Sf_obs.Trace.emit "search.trial" Sf_obs.Trace.End
      ~args:
        [
          ("cost", Sf_obs.Trace.Float cost);
          ("truncated", Sf_obs.Trace.Bool truncated);
          ("gave_up", Sf_obs.Trace.Bool outcome.Runner.gave_up);
        ];
  (cost, truncated, outcome.Runner.gave_up)

let validate_grid ~sizes ~spec =
  if spec.trials < 1 then invalid_arg "Searchability.measure: need trials >= 1";
  List.iter
    (fun n ->
      let b = spec.budget n in
      if b < 1 then
        invalid_arg
          (Printf.sprintf "Searchability.measure: budget must be positive (got %d for n = %d)"
             b n))
    sizes

let n_grid_tasks ~sizes ~strategies ~spec =
  List.length sizes * List.length strategies * spec.trials

(* The (size, strategy, trial) cell of a flattened task, trial
   innermost: the one place that inverts the task index. *)
let grid_cell ~n_strats ~trials task =
  let cell = task / trials in
  (cell / n_strats, cell mod n_strats, task mod trials)

(* One flattened grid task, ascending in exactly the order the old
   sequential triple loop visited (size, strategy, trial).  This
   decomposition is the unit both Pool.mapi (below) and the lib/fabric
   worker processes execute, so a shard of [lo, hi) tasks run in
   another process is draw-for-draw the same work as positions
   [lo, hi) of an in-process run. *)
let run_grid_task master ~spec ~make ~strategies ~sizes task =
  let size_idx, strat_idx, trial =
    grid_cell ~n_strats:(Array.length strategies) ~trials:spec.trials task
  in
  run_trial master spec ~make ~strategy:strategies.(strat_idx) ~n:sizes.(size_idx) ~size_idx
    ~strat_idx ~trial

(* Statistical aggregation over the flat outcome array, folding trial
   results in trial order — bit-identical to the sequential loop, and
   shared by measure and the fabric coordinator's shard merge. *)
let aggregate ~sizes ~strategies ~spec outcomes =
  let sizes_a = Array.of_list sizes in
  let strategies_a = Array.of_list strategies in
  let n_strats = Array.length strategies_a in
  let expected = Array.length sizes_a * n_strats * spec.trials in
  if Array.length outcomes <> expected then
    invalid_arg
      (Printf.sprintf "Searchability.aggregate: %d outcomes for a %d-task grid"
         (Array.length outcomes) expected);
  let points = ref [] in
  Array.iteri
    (fun size_idx n ->
      Array.iteri
        (fun strat_idx strategy ->
          let summary = Sf_stats.Summary.create () in
          let costs = Array.make spec.trials 0. in
          let timeouts = ref 0 and gave_up = ref 0 in
          for trial = 0 to spec.trials - 1 do
            let task = ((((size_idx * n_strats) + strat_idx) * spec.trials) + trial) in
            let cost, truncated, gup = outcomes.(task) in
            if truncated then incr timeouts;
            if gup then incr gave_up;
            Sf_stats.Summary.add summary cost;
            costs.(trial) <- cost
          done;
          let point =
            {
              n;
              strategy;
              trials = spec.trials;
              mean = Sf_stats.Summary.mean summary;
              ci95 = Sf_stats.Summary.ci95_halfwidth summary;
              median = Sf_stats.Quantile.median costs;
              q90 = Sf_stats.Quantile.quantile costs ~q:0.9;
              timeouts = !timeouts;
              gave_up = !gave_up;
            }
          in
          points := point :: !points)
        strategies_a)
    sizes_a;
  List.rev !points

let measure ?jobs master ~make ~strategies ~sizes ~spec =
  validate_grid ~sizes ~spec;
  let sizes_a = Array.of_list sizes in
  let strategies_a = Array.of_list strategies in
  let n_tasks = n_grid_tasks ~sizes ~strategies ~spec in
  (* Flattened task index — the pool merges per-task observability
     shards in this order, so metrics and trace come out identical at
     any job count. *)
  let outcomes =
    Sf_parallel.Pool.with_pool ?jobs (fun pool ->
        Sf_parallel.Pool.mapi pool n_tasks
          (run_grid_task master ~spec ~make ~strategies:strategies_a ~sizes:sizes_a))
  in
  aggregate ~sizes ~strategies:(List.map (fun s -> s.Strategy.name) strategies) ~spec outcomes

(* --- corpus-cached instance makers (doc/STORAGE.md) ----------------

   [cached] routes a maker through the ambient corpus cache: with no
   corpus configured it is the maker itself; with one, each (gen,
   params, n, trial-stream) coordinate is generated once, stored in
   the binary format, and replayed — including the post-generation rng
   state, so results are byte-identical either way.  The [params] list
   must render every value the maker closes over. *)

let fparam = Printf.sprintf "%.17g"

let cached ~gen ~params make rng n = Sf_store.Corpus.instance ~gen ~params make rng n

let mori_instance ~p ~m rng n =
  cached ~gen:"mori"
    ~params:[ ("p", fparam p); ("m", string_of_int m) ]
    (fun rng n ->
      let bound = Lower_bound.theorem1 ~p ~m ~n in
      (Sf_gen.Mori.graph rng ~p ~m ~n:bound.Lower_bound.graph_size, n))
    rng n

let cf_params_rendered (params : Sf_gen.Cooper_frieze.params) =
  let dist d =
    d
    |> List.map (fun (v, prob) -> Printf.sprintf "%d:%s" v (fparam prob))
    |> String.concat ";"
  in
  [
    ("alpha", fparam params.Sf_gen.Cooper_frieze.alpha);
    ("beta", fparam params.Sf_gen.Cooper_frieze.beta);
    ("gamma", fparam params.Sf_gen.Cooper_frieze.gamma);
    ("delta", fparam params.Sf_gen.Cooper_frieze.delta);
    ("q", dist params.Sf_gen.Cooper_frieze.q);
    ("p_dist", dist params.Sf_gen.Cooper_frieze.p_dist);
    ( "pref",
      match params.Sf_gen.Cooper_frieze.preference with
      | Sf_gen.Cooper_frieze.In_degree -> "in"
      | Sf_gen.Cooper_frieze.Total_degree -> "total" );
  ]

let cooper_frieze_instance params rng n =
  cached ~gen:"cooper-frieze" ~params:(cf_params_rendered params)
    (fun rng n ->
      let extra = int_of_float (sqrt (float_of_int n)) in
      (Sf_gen.Cooper_frieze.generate_n_vertices rng params ~n:(n + extra), n))
    rng n

let config_model_instance ~exponent rng n =
  cached ~gen:"config-giant"
    ~params:[ ("exponent", fparam exponent) ]
    (fun rng n ->
      let u = Sf_gen.Config_model.searchable_power_law rng ~n ~exponent () in
      let n' = Ugraph.n_vertices u in
      let target = if n' <= 1 then 1 else 2 + Rng.int rng (n' - 1) in
      (u, target))
    rng n

let instance_of_model model ~p ~m ~alpha ~exponent =
  match model with
  | "mori" -> Ok (mori_instance ~p ~m)
  | "cooper-frieze" ->
    Ok (cooper_frieze_instance { Sf_gen.Cooper_frieze.default with Sf_gen.Cooper_frieze.alpha })
  | "config" -> Ok (config_model_instance ~exponent)
  | other -> Error ("unknown model: " ^ other ^ " (mori | cooper-frieze | config)")

let points_to_csv points =
  Sf_stats.Csv.to_string
    ~header:[ "n"; "strategy"; "trials"; "mean"; "ci95"; "median"; "q90"; "timeouts"; "gave_up" ]
    ~rows:
      (List.map
         (fun pt ->
           [
             string_of_int pt.n;
             pt.strategy;
             string_of_int pt.trials;
             Printf.sprintf "%.6g" pt.mean;
             Printf.sprintf "%.6g" pt.ci95;
             Printf.sprintf "%.6g" pt.median;
             Printf.sprintf "%.6g" pt.q90;
             string_of_int pt.timeouts;
             string_of_int pt.gave_up;
           ])
         points)

let points_of_strategy points ~strategy =
  List.filter (fun pt -> pt.strategy = strategy) points

let exponent_fit points ~strategy =
  let series =
    points_of_strategy points ~strategy
    |> List.map (fun pt -> (float_of_int pt.n, Float.max pt.mean 1e-9))
  in
  Sf_stats.Regression.log_log series
