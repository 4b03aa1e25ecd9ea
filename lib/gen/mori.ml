module Rng = Sf_prng.Rng
module Bigvec = Sf_graph.Bigvec
module Ugraph = Sf_graph.Ugraph

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
  let t0 = if obs then Sf_obs.Timer.now_s () else 0. in
  let tracing = Sf_obs.Trace.active () in
  (* at most 8 growth checkpoints per build, so tracing a microbench
     full of small builds stays proportionate *)
  let checkpoint_every = max 1 (t / 8) in
  if tracing then
    Sf_obs.Trace.emit "gen.mori.grow" Sf_obs.Trace.Begin
      ~args:[ ("t", Sf_obs.Trace.Int t); ("p", Sf_obs.Trace.Float p) ];
  let dsts = Bigvec.create ~capacity:(max 16 (t - 1)) () in
  Bigvec.push dsts 1;
  let pref_steps = ref 0 in
  for k = 3 to t do
    let window = if k > a && k <= b then a else k - 1 in
    let pref_mass = p *. float_of_int (k - 2) in
    let father =
      if Rng.unit_float rng *. (pref_mass +. ((1. -. p) *. float_of_int window)) < pref_mass
      then begin
        incr pref_steps;
        Bigvec.unsafe_get dsts (Rng.int rng (Bigvec.length dsts))
      end
      else 1 + Rng.int rng window
    in
    Bigvec.push dsts father;
    if tracing && k mod checkpoint_every = 0 then
      Sf_obs.Trace.instant "gen.mori.checkpoint"
        ~args:
          [ ("vertices", Sf_obs.Trace.Int k); ("last_father", Sf_obs.Trace.Int father) ]
  done;
  if tracing then Sf_obs.Trace.emit "gen.mori.grow" Sf_obs.Trace.End;
  if obs then begin
    (* the step counters are bumped once and the father-age histogram
       is filled from the finished buffer, in arrival order, so the
       growth loop carries no metric updates *)
    Sf_obs.Counter.add obs_pref_steps !pref_steps;
    Sf_obs.Counter.add obs_unif_steps (t - 2 - !pref_steps);
    for j = 1 to Bigvec.length dsts - 1 do
      Sf_obs.Histo.observe_int obs_father_age (Bigvec.unsafe_get dsts j)
    done;
    Sf_obs.Counter.add obs_vertices t;
    Sf_obs.Timer.add_s obs_build_timer (Sf_obs.Timer.now_s () -. t0)
  end;
  dsts

(* Edge j of the tree joins vertex j+2 to fathers.(j).  Merging blocks
   of m maps vertex v to group ((v-1)/m)+1, preserving edge ids and
   order; m = 1 is the tree itself. *)
let freeze ~m ~n fathers =
  let e = Bigvec.length fathers in
  let srcs_buf = Bigvec.create_buf e in
  let dsts_buf = Bigvec.create_buf e in
  let group v = ((v - 1) / m) + 1 in
  for j = 0 to e - 1 do
    Bigarray.Array1.unsafe_set srcs_buf j (Int32.of_int (group (j + 2)));
    Bigarray.Array1.unsafe_set dsts_buf j (Int32.of_int (group (Bigvec.unsafe_get fathers j)))
  done;
  Ugraph.of_csr (Sf_graph.Csr.of_endpoint_bufs ~n srcs_buf dsts_buf)

let tree_fathers rng ~p ~t =
  check_params ~p ~t;
  grow rng ~p ~t ~a:t ~b:t

let tree rng ~p ~t = freeze ~m:1 ~n:t (tree_fathers rng ~p ~t)

let tree_conditioned rng ~p ~t ~a ~b =
  check_params ~p ~t;
  if a < 2 || a > b || b > t then invalid_arg "Mori.tree_conditioned: need 2 <= a <= b <= t";
  freeze ~m:1 ~n:t (grow rng ~p ~t ~a ~b)

let graph rng ~p ~m ~n =
  if m < 1 || n < 1 then invalid_arg "Mori.graph: need m >= 1 and n >= 1";
  (* n * m - 1 <= max_edges, checked before any growth and before
     n * m can overflow *)
  if n > (Sf_graph.Csr.max_edges + 1) / m then
    invalid_arg "Mori.graph: n * m - 1 edges exceed Csr.max_edges";
  if n * m < 2 then invalid_arg "Mori.graph: need n * m >= 2";
  freeze ~m ~n (tree_fathers rng ~p ~t:(n * m))

(* vertex k's one out-edge is edge k-2 *)
let father g k =
  if k < 2 || k - 2 >= Ugraph.n_edges g then invalid_arg "Mori.father: vertex has no out-edge";
  let s, d = Ugraph.endpoints g (k - 2) in
  if s <> k then invalid_arg "Mori.father: edge k-2 does not leave vertex k";
  d

let fathers g =
  let t = Ugraph.n_vertices g in
  Array.init (t - 1) (fun i -> father g (i + 2))

let merge ~m g =
  if m < 1 then invalid_arg "Mori.merge: need m >= 1";
  let nm = Ugraph.n_vertices g in
  if nm mod m <> 0 then invalid_arg "Mori.merge: m must divide the vertex count";
  let e = Ugraph.n_edges g in
  let srcs = Bigvec.create_buf e and dsts = Bigvec.create_buf e in
  let group v = ((v - 1) / m) + 1 in
  for id = 0 to e - 1 do
    let s, d = Ugraph.endpoints g id in
    Bigarray.Array1.unsafe_set srcs id (Int32.of_int (group s));
    Bigarray.Array1.unsafe_set dsts id (Int32.of_int (group d))
  done;
  Ugraph.of_csr (Sf_graph.Csr.of_endpoint_bufs ~n:(nm / m) srcs dsts)

let expected_degree_exponent ~p =
  if p <= 0. || p > 1. then invalid_arg "Mori.expected_degree_exponent: need 0 < p <= 1";
  1. +. (1. /. p)
