module Rng = Sf_prng.Rng
module Bigvec = Sf_graph.Bigvec

(* Seed: vertices 1, 2 and the edge 2 -> 1; each later vertex k sends
   [m] edges to independently uniform vertices of [1..k-1]. *)
let grow rng ~n ~m =
  let edges = 1 + ((n - 2) * m) in
  let srcs = Bigvec.create ~capacity:edges () and dsts = Bigvec.create ~capacity:edges () in
  Bigvec.push srcs 2;
  Bigvec.push dsts 1;
  for k = 3 to n do
    for _ = 1 to m do
      Bigvec.push srcs k;
      Bigvec.push dsts (1 + Rng.int rng (k - 1))
    done
  done;
  Sf_graph.Ugraph.of_csr (Sf_graph.Csr.of_bigvecs ~n srcs dsts)

let tree rng ~t =
  if t < 2 then invalid_arg "Uniform_attachment.tree: need t >= 2";
  grow rng ~n:t ~m:1

let graph rng ~n ~m =
  if n < 2 then invalid_arg "Uniform_attachment.graph: need n >= 2";
  if m < 1 then invalid_arg "Uniform_attachment.graph: need m >= 1";
  grow rng ~n ~m
