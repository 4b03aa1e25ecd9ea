module Digraph = Sf_graph.Digraph

let lemma1 ~set_size ~event_prob =
  if set_size < 0 then invalid_arg "Lower_bound.lemma1: negative set size";
  if event_prob < 0. || event_prob > 1. then
    invalid_arg "Lower_bound.lemma1: event_prob outside [0, 1]";
  float_of_int set_size *. event_prob /. 2.

type bound = {
  n : int;
  m : int;
  p : float;
  a : int;
  b : int;
  graph_size : int;
  set_size : int;
  event_prob : float;
  requests : float;
}

let theorem1 ~p ~m ~n =
  if n < 3 then invalid_arg "Lower_bound.theorem1: need n >= 3";
  if m < 1 then invalid_arg "Lower_bound.theorem1: need m >= 1";
  let a = n - 1 in
  let a_tree = a * m in
  let w = max 1 (int_of_float (sqrt (float_of_int (a_tree - 1))) / m) in
  let b_tree = a_tree + (w * m) in
  (* E asks every tree vertex of the window's blocks to attach inside
     the core [1, a·m]; then the w merged blocks are interchangeable. *)
  let event_prob = Events.prob_exact ~p ~a:a_tree ~b:b_tree in
  {
    n;
    m;
    p;
    a;
    b = a + w;
    graph_size = a + w;
    set_size = w;
    event_prob;
    requests = lemma1 ~set_size:w ~event_prob;
  }

type window_choice = { width : int; event_prob : float; requests : float }

let window_tradeoff ~p ~a ~widths =
  List.map
    (fun w ->
      if w < 0 then invalid_arg "Lower_bound.window_tradeoff: negative width";
      let event_prob = Events.prob_exact ~p ~a ~b:(a + w) in
      { width = w; event_prob; requests = lemma1 ~set_size:w ~event_prob })
    widths

let optimal_window ~p ~a ?max_width () =
  if a < 2 then invalid_arg "Lower_bound.optimal_window: need a >= 2";
  let max_width =
    match max_width with
    | Some w -> w
    | None -> max 4 (8 * int_of_float (sqrt (float_of_int a)))
  in
  (* incremental product over the step probabilities: O(max_width) *)
  let best = ref { width = 0; event_prob = 1.; requests = 0. } in
  let prob = ref 1. in
  for w = 1 to max_width do
    prob := !prob *. Events.step_prob ~p ~a ~k:(a + w);
    let requests = float_of_int w *. !prob /. 2. in
    if requests > !best.requests then
      best := { width = w; event_prob = !prob; requests }
  done;
  !best

let asymptotic_theorem1 ~p ~n =
  if n < 1 then invalid_arg "Lower_bound.asymptotic_theorem1: need n >= 1";
  sqrt (float_of_int n) *. Events.lemma3_bound ~p /. 2.

let strong_model_exponent ~p =
  if p <= 0. || p > 1. then invalid_arg "Lower_bound.strong_model_exponent: need 0 < p <= 1";
  0.5 -. p

let cf_event_holds g ~arrival ~n ~window =
  if window < 1 || window >= n then invalid_arg "Lower_bound.cf_event_holds: bad window";
  if Digraph.n_vertices g < n then invalid_arg "Lower_bound.cf_event_holds: graph too small";
  let core_top = n - window in
  let ok = ref true in
  for v = n - window + 1 to n do
    if Digraph.out_degree g v <> arrival.(v - 1) then ok := false
    else if Digraph.in_degree g v <> 0 then ok := false
    else
      Digraph.iter_out_edges g v (fun e -> if e.Digraph.dst > core_top then ok := false)
  done;
  !ok

type cf_estimate = {
  n : int;
  window : int;
  trials : int;
  event_rate : float;
  event_rate_se : float;
  mean_class_size : float;
  requests : float;
}

let largest_out_degree_class g ~n ~window =
  let counts = Hashtbl.create 8 in
  for v = n - window + 1 to n do
    let d = Digraph.out_degree g v in
    let prev = try Hashtbl.find counts d with Not_found -> 0 in
    Hashtbl.replace counts d (prev + 1)
  done;
  Hashtbl.fold (fun _ c acc -> max c acc) counts 0

let theorem2_estimate rng params ~n ?window ~trials () =
  if trials < 1 then invalid_arg "Lower_bound.theorem2_estimate: need trials >= 1";
  let window =
    match window with
    | Some w -> w
    | None -> max 1 (int_of_float (sqrt (float_of_int n)))
  in
  let hits = ref 0 and class_sum = ref 0 in
  for _ = 1 to trials do
    let u, arrival = Sf_gen.Cooper_frieze.generate_n_vertices_traced rng params ~n in
    let g = Sf_graph.Ugraph.to_digraph u in
    if cf_event_holds g ~arrival ~n ~window then begin
      incr hits;
      class_sum := !class_sum + largest_out_degree_class g ~n ~window
    end
  done;
  let ft = float_of_int trials in
  let event_rate = float_of_int !hits /. ft in
  {
    n;
    window;
    trials;
    event_rate;
    event_rate_se = sqrt (event_rate *. (1. -. event_rate) /. ft);
    mean_class_size =
      (if !hits = 0 then 0. else float_of_int !class_sum /. float_of_int !hits);
    (* E[1_E · class]/2: the Lemma 1 shape with the class standing in
       for |V|. *)
    requests = float_of_int !class_sum /. ft /. 2.;
  }
