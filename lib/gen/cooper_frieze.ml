module Rng = Sf_prng.Rng
module Bigvec = Sf_graph.Bigvec

(* Observability: NEW/OLD step mix and degree-update costs
   (doc/OBSERVABILITY.md). The out-degree histogram records how many
   edges each step had to wire — the per-step degree-update cost. *)
let obs_build_timer = Sf_obs.Registry.timer "gen.cf.build_s"
let obs_new_steps = Sf_obs.Registry.counter "gen.cf.steps.new"
let obs_old_steps = Sf_obs.Registry.counter "gen.cf.steps.old"
let obs_edges = Sf_obs.Registry.counter "gen.cf.edges"
let obs_step_out_degree = Sf_obs.Registry.histo "gen.cf.step_out_degree"

type out_degree_dist = (int * float) list
type preference = In_degree | Total_degree

type params = {
  alpha : float;
  beta : float;
  gamma : float;
  delta : float;
  q : out_degree_dist;
  p_dist : out_degree_dist;
  preference : preference;
}

let default =
  {
    alpha = 0.5;
    beta = 0.5;
    gamma = 0.5;
    delta = 0.5;
    q = [ (1, 0.5); (2, 0.5) ];
    p_dist = [ (1, 0.5); (2, 0.5) ];
    preference = In_degree;
  }

let validate_dist name dist =
  if dist = [] then Error (name ^ ": empty distribution")
  else if List.exists (fun (v, _) -> v < 1) dist then Error (name ^ ": out-degree values must be >= 1")
  else if List.exists (fun (_, p) -> p < 0.) dist then Error (name ^ ": negative probability")
  else begin
    let total = List.fold_left (fun acc (_, p) -> acc +. p) 0. dist in
    if Float.abs (total -. 1.) > 1e-9 then Error (name ^ ": probabilities must sum to 1")
    else Ok ()
  end

let validate params =
  let in_unit name x = if x < 0. || x > 1. then Error (name ^ ": must lie in [0, 1]") else Ok () in
  let ( let* ) = Result.bind in
  let* () = in_unit "alpha" params.alpha in
  let* () = in_unit "beta" params.beta in
  let* () = in_unit "gamma" params.gamma in
  let* () = in_unit "delta" params.delta in
  let* () = validate_dist "q" params.q in
  validate_dist "p_dist" params.p_dist

let sample_dist rng dist =
  let u = Rng.unit_float rng in
  let rec go acc = function
    | [] -> fst (List.hd (List.rev dist))
    | (v, p) :: rest ->
      let acc = acc +. p in
      if u < acc then v else go acc rest
  in
  go 0. dist

let mean_out_degree dist = List.fold_left (fun acc (v, p) -> acc +. (float_of_int v *. p)) 0. dist

(* Growth state: flat int32 edge endpoints plus the endpoint list
   [ends] realising degree-proportional choice (one uniform index draw
   is one preferential draw, O(1)).  For indegree preference [ends]
   records edge destinations; for total degree, both endpoints. *)
type state = {
  srcs : Bigvec.t;
  dsts : Bigvec.t;
  ends : Bigvec.t;
  mutable n : int;
  preference : preference;
}

let initial preference =
  let st =
    { srcs = Bigvec.create (); dsts = Bigvec.create (); ends = Bigvec.create (); n = 1; preference }
  in
  Bigvec.push st.srcs 1;
  Bigvec.push st.dsts 1;
  Bigvec.push st.ends 1;
  if preference = Total_degree then Bigvec.push st.ends 1;
  st

let preferential_vertex st rng = Bigvec.unsafe_get st.ends (Rng.int rng (Bigvec.length st.ends))
let uniform_vertex st rng = 1 + Rng.int rng st.n

let record_edge st ~src ~dst =
  if Sf_obs.Registry.enabled () then Sf_obs.Counter.incr obs_edges;
  Bigvec.push st.srcs src;
  Bigvec.push st.dsts dst;
  Bigvec.push st.ends dst;
  if st.preference = Total_degree then Bigvec.push st.ends src

let step st rng params =
  let obs = Sf_obs.Registry.enabled () in
  if Rng.bernoulli rng params.alpha then begin
    (* NEW: the new vertex is not a candidate endpoint of its own edges
       (endpoints are chosen among "existing" vertices first). *)
    let count = sample_dist rng params.q in
    if obs then begin
      Sf_obs.Counter.incr obs_new_steps;
      Sf_obs.Histo.observe_int obs_step_out_degree count
    end;
    let targets =
      Array.init count (fun _ ->
          if Rng.bernoulli rng params.beta then preferential_vertex st rng
          else uniform_vertex st rng)
    in
    st.n <- st.n + 1;
    Array.iter (fun dst -> record_edge st ~src:st.n ~dst) targets
  end
  else begin
    let src =
      if Rng.bernoulli rng params.delta then uniform_vertex st rng
      else preferential_vertex st rng
    in
    let count = sample_dist rng params.p_dist in
    if obs then begin
      Sf_obs.Counter.incr obs_old_steps;
      Sf_obs.Histo.observe_int obs_step_out_degree count
    end;
    for _ = 1 to count do
      let dst =
        if Rng.bernoulli rng params.gamma then preferential_vertex st rng
        else uniform_vertex st rng
      in
      record_edge st ~src ~dst
    done
  end

let check params =
  match validate params with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Cooper_frieze: " ^ msg)

let ugraph_of st = Sf_graph.Ugraph.of_csr (Sf_graph.Csr.of_bigvecs ~n:st.n st.srcs st.dsts)

let trace_size st =
  [ ("vertices", Sf_obs.Trace.Int st.n); ("edges", Sf_obs.Trace.Int (Bigvec.length st.srcs)) ]

(* Steps until [progress st steps] reaches [target], inside the grow
   span with a checkpoint every [target / 8] of progress, as for Mori. *)
let grow rng (params : params) ~target ~progress =
  let st = initial params.preference in
  let tracing = Sf_obs.Trace.active () in
  if tracing then
    Sf_obs.Trace.emit "gen.cf.grow" Sf_obs.Trace.Begin
      ~args:[ ("target", Sf_obs.Trace.Int target) ];
  let run () =
    let every = max 1 (target / 8) in
    let next = ref every and steps = ref 0 in
    while progress st !steps < target do
      step st rng params;
      incr steps;
      if tracing && progress st !steps >= !next then begin
        Sf_obs.Trace.instant "gen.cf.checkpoint" ~args:(trace_size st);
        next := !next + every
      end
    done
  in
  if Sf_obs.Registry.enabled () then Sf_obs.Timer.time obs_build_timer run else run ();
  if tracing then Sf_obs.Trace.emit "gen.cf.grow" Sf_obs.Trace.End ~args:(trace_size st);
  ugraph_of st

let generate rng params ~steps =
  check params;
  if steps < 0 then invalid_arg "Cooper_frieze.generate: steps must be non-negative";
  grow rng params ~target:steps ~progress:(fun _ k -> k)

let check_n_vertices name params ~n =
  check params;
  if n < 1 then invalid_arg ("Cooper_frieze." ^ name ^ ": need n >= 1");
  if params.alpha <= 0. then invalid_arg ("Cooper_frieze." ^ name ^ ": alpha must be positive")

let generate_n_vertices rng params ~n =
  check_n_vertices "generate_n_vertices" params ~n;
  grow rng params ~target:n ~progress:(fun st _ -> st.n)

let generate_n_vertices_traced rng (params : params) ~n =
  check_n_vertices "generate_n_vertices_traced" params ~n;
  let st = initial params.preference in
  let arrival = Array.make n 0 in
  arrival.(0) <- 1 (* vertex 1 is born with its self-loop *);
  while st.n < n do
    let born = st.n and edges = Bigvec.length st.srcs in
    step st rng params;
    if st.n > born then arrival.(st.n - 1) <- Bigvec.length st.srcs - edges
  done;
  (ugraph_of st, arrival)
