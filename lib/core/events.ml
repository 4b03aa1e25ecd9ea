let window_end ~a =
  if a < 2 then invalid_arg "Events.window_end: need a >= 2";
  a + int_of_float (sqrt (float_of_int (a - 1)))

let step_prob ~p ~a ~k =
  if a < 2 || k <= a then invalid_arg "Events.step_prob: need 2 <= a < k";
  if p <= 0. || p > 1. then invalid_arg "Events.step_prob: need 0 < p <= 1";
  let fk = float_of_int k and fa = float_of_int a in
  (p *. (fk -. 2.)) +. ((1. -. p) *. fa)
  |> fun num -> num /. ((p *. (fk -. 2.)) +. ((1. -. p) *. (fk -. 1.)))

let prob_exact ~p ~a ~b =
  if a < 2 || b < a then invalid_arg "Events.prob_exact: need 2 <= a <= b";
  let log_sum = ref 0. in
  for k = a + 1 to b do
    log_sum := !log_sum +. log (step_prob ~p ~a ~k)
  done;
  exp !log_sum

let lemma3_bound ~p =
  if p <= 0. || p > 1. then invalid_arg "Events.lemma3_bound: need 0 < p <= 1";
  exp (-.(1. -. p))

let holds g ~a ~b =
  if a < 2 || b < a || b > Sf_graph.Ugraph.n_vertices g then
    invalid_arg "Events.holds: bad window";
  let ok = ref true in
  for k = a + 1 to b do
    if Sf_gen.Mori.father g k > a then ok := false
  done;
  !ok

let prob_monte_carlo rng ~p ~a ~b ~trials =
  if trials < 1 then invalid_arg "Events.prob_monte_carlo: need trials >= 1";
  let hits = ref 0 in
  for _ = 1 to trials do
    let g = Sf_gen.Mori.tree rng ~p ~t:b in
    if holds g ~a ~b then incr hits
  done;
  let est = float_of_int !hits /. float_of_int trials in
  let se = sqrt (est *. (1. -. est) /. float_of_int trials) in
  (est, se)
