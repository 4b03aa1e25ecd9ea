module Rng = Sf_prng.Rng
module Digraph = Sf_graph.Digraph
module Bigvec = Sf_graph.Bigvec

(* Observability: attachment-step accounting (doc/OBSERVABILITY.md).
   The father-age histogram records which vertex each arrival attached
   to — the measured face of the age-degree law behind Lemma 2. *)
let obs_build_timer = Sf_obs.Registry.timer "gen.mori.build_s"
let obs_vertices = Sf_obs.Registry.counter "gen.mori.vertices"
let obs_pref_steps = Sf_obs.Registry.counter "gen.mori.steps.pref"
let obs_unif_steps = Sf_obs.Registry.counter "gen.mori.steps.unif"
let obs_father_age = Sf_obs.Registry.histo "gen.mori.father_age"

let check_params ~p ~t =
  if t < 2 then invalid_arg "Mori: need t >= 2";
  if p <= 0. || p > 1. then invalid_arg "Mori: need 0 < p <= 1";
  if t - 1 > Sf_graph.Csr.max_edges then invalid_arg "Mori: t - 1 edges exceed Csr.max_edges"

(* The growth loop: entry k-2 of the result is the father of vertex k.
   Steps k in (a, b] attach inside [1..a] (the conditioned sampler of
   Lemma 2); a = b conditions nothing.  [dsts] is flat int32 storage in
   which vertex u appears exactly indegree(u) times, so one uniform
   index draw is one indegree-preferential draw, O(1) per edge; and
   conditional on the event prefix every entry is already <= a, so the
   restricted preferential branch needs no filtering. *)
let grow rng ~p ~t ~a ~b =
  let obs = Sf_obs.Registry.enabled () in
  if obs then Sf_obs.Timer.start obs_build_timer;
  let tracing = Sf_obs.Trace.active () in
  (* at most 8 growth checkpoints per build, so tracing a microbench
     full of small builds stays proportionate *)
  let checkpoint_every = max 1 (t / 8) in
  if tracing then
    Sf_obs.Trace.emit "gen.mori.grow" Sf_obs.Trace.Begin
      ~args:[ ("t", Sf_obs.Trace.Int t); ("p", Sf_obs.Trace.Float p) ];
  let dsts = Bigvec.create ~capacity:(max 16 (t - 1)) () in
  Bigvec.push dsts 1;
  for k = 3 to t do
    let window = if k > a && k <= b then a else k - 1 in
    let pref_mass = p *. float_of_int (k - 2) in
    let unif_mass = (1. -. p) *. float_of_int window in
    let father =
      if Rng.unit_float rng *. (pref_mass +. unif_mass) < pref_mass then begin
        if obs then Sf_obs.Counter.incr obs_pref_steps;
        Bigvec.unsafe_get dsts (Rng.int rng (Bigvec.length dsts))
      end
      else begin
        if obs then Sf_obs.Counter.incr obs_unif_steps;
        1 + Rng.int rng window
      end
    in
    if obs then Sf_obs.Histo.observe_int obs_father_age father;
    if tracing && k mod checkpoint_every = 0 then
      Sf_obs.Trace.instant "gen.mori.checkpoint"
        ~args:
          [ ("vertices", Sf_obs.Trace.Int k); ("last_father", Sf_obs.Trace.Int father) ];
    Bigvec.push dsts father
  done;
  if tracing then Sf_obs.Trace.emit "gen.mori.grow" Sf_obs.Trace.End;
  if obs then begin
    Sf_obs.Counter.add obs_vertices t;
    Sf_obs.Timer.stop obs_build_timer
  end;
  dsts

(* the oriented view: vertex k's one out-edge, id k-2, to its father *)
let digraph_of_fathers ~t fathers =
  let g = Digraph.create ~expected_vertices:t () in
  Digraph.add_vertices g t;
  for k = 2 to t do
    ignore (Digraph.add_edge g ~src:k ~dst:(Bigvec.unsafe_get fathers (k - 2)))
  done;
  g

let tree_fathers rng ~p ~t =
  check_params ~p ~t;
  grow rng ~p ~t ~a:t ~b:t

let tree rng ~p ~t = digraph_of_fathers ~t (tree_fathers rng ~p ~t)

let tree_conditioned rng ~p ~t ~a ~b =
  check_params ~p ~t;
  if a < 2 || a > b || b > t then invalid_arg "Mori.tree_conditioned: need 2 <= a <= b <= t";
  digraph_of_fathers ~t (grow rng ~p ~t ~a ~b)

let graph rng ~p ~m ~n =
  if m < 1 || n < 1 then invalid_arg "Mori.graph: need m >= 1 and n >= 1";
  (* n * m - 1 <= max_edges, checked before any growth and before
     n * m can overflow *)
  if n > (Sf_graph.Csr.max_edges + 1) / m then
    invalid_arg "Mori.graph: n * m - 1 edges exceed Csr.max_edges";
  if n * m < 2 then invalid_arg "Mori.graph: need n * m >= 2";
  let t = n * m in
  let fathers = tree_fathers rng ~p ~t in
  (* edge j of the tree joins vertex j+2 to fathers.(j); merging maps
     vertex v to group ((v-1)/m)+1, preserving edge ids and order *)
  let srcs_buf = Bigvec.create_buf (t - 1) in
  let dsts_buf = Bigvec.create_buf (t - 1) in
  let group v = ((v - 1) / m) + 1 in
  for j = 0 to t - 2 do
    Bigarray.Array1.unsafe_set srcs_buf j (Int32.of_int (group (j + 2)));
    Bigarray.Array1.unsafe_set dsts_buf j (Int32.of_int (group (Bigvec.unsafe_get fathers j)))
  done;
  Sf_graph.Ugraph.of_csr (Sf_graph.Csr.of_endpoint_bufs ~n srcs_buf dsts_buf)

let father g k =
  match Digraph.out_edges g k with
  | [ e ] -> e.Digraph.dst
  | [] -> invalid_arg "Mori.father: vertex has no out-edge"
  | _ -> invalid_arg "Mori.father: vertex has several out-edges"

let fathers g =
  let t = Digraph.n_vertices g in
  Array.init (t - 1) (fun i -> father g (i + 2))

let merge ~m g =
  if m < 1 then invalid_arg "Mori.merge: need m >= 1";
  let nm = Digraph.n_vertices g in
  if nm mod m <> 0 then invalid_arg "Mori.merge: m must divide the vertex count";
  if m = 1 then Digraph.copy g
  else begin
    let n = nm / m in
    let group v = ((v - 1) / m) + 1 in
    let g' = Digraph.create ~expected_vertices:n () in
    Digraph.add_vertices g' n;
    Digraph.iter_edges g (fun e ->
        ignore (Digraph.add_edge g' ~src:(group e.Digraph.src) ~dst:(group e.Digraph.dst)));
    g'
  end

let expected_degree_exponent ~p =
  if p <= 0. || p > 1. then invalid_arg "Mori.expected_degree_exponent: need 0 < p <= 1";
  1. +. (1. /. p)
