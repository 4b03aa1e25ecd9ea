module Rng = Sf_prng.Rng
module Bigvec = Sf_graph.Bigvec

let generate rng ~n ~m =
  if n < 2 then invalid_arg "Barabasi_albert.generate: need n >= 2";
  if m < 1 then invalid_arg "Barabasi_albert.generate: need m >= 1";
  let edges = 1 + ((n - 2) * m) in
  let srcs = Bigvec.create ~capacity:edges () and dsts = Bigvec.create ~capacity:edges () in
  (* [ends] holds every edge endpoint; a uniform entry is a vertex drawn
     proportionally to total degree. *)
  let ends = Bigvec.create ~capacity:(2 * edges) () in
  let add src dst =
    Bigvec.push srcs src;
    Bigvec.push dsts dst;
    Bigvec.push ends src;
    Bigvec.push ends dst
  in
  add 2 1;
  for v = 3 to n do
    for _ = 1 to m do
      add v (Bigvec.unsafe_get ends (Rng.int rng (Bigvec.length ends)))
    done
  done;
  Sf_graph.Ugraph.of_csr (Sf_graph.Csr.of_bigvecs ~n srcs dsts)
