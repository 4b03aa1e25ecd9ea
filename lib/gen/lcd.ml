module Rng = Sf_prng.Rng
module Bigvec = Sf_graph.Bigvec

(* The m = 1 process on [1..t] as endpoint buffers: edge k-1 leaves
   vertex k. [ends] lists one entry per edge endpoint; when vertex k
   chooses, its own fresh out-endpoint is already in the list,
   realising the 1/(2k-1) self-loop probability of the LCD
   convention. *)
let grow rng ~t =
  let srcs = Bigvec.create ~capacity:t () and dsts = Bigvec.create ~capacity:t () in
  let ends = Bigvec.create ~capacity:(2 * t) () in
  for v = 1 to t do
    Bigvec.push ends v;
    let target = Bigvec.unsafe_get ends (Rng.int rng (Bigvec.length ends)) in
    Bigvec.push srcs v;
    Bigvec.push dsts target;
    Bigvec.push ends target
  done;
  (srcs, dsts)

let tree1 rng ~t =
  if t < 1 then invalid_arg "Lcd.tree1: need t >= 1";
  let srcs, dsts = grow rng ~t in
  Sf_graph.Ugraph.of_csr (Sf_graph.Csr.of_bigvecs ~n:t srcs dsts)

let generate rng ~n ~m =
  if n < 1 then invalid_arg "Lcd.generate: need n >= 1";
  if m < 1 then invalid_arg "Lcd.generate: need m >= 1";
  let srcs, dsts = grow rng ~t:(n * m) in
  (* contract blocks of m in place, as Mori.merge does, without
     freezing the n·m-vertex tree first *)
  let group v = ((v - 1) / m) + 1 in
  for id = 0 to (n * m) - 1 do
    Bigvec.set srcs id (group (Bigvec.unsafe_get srcs id));
    Bigvec.set dsts id (group (Bigvec.unsafe_get dsts id))
  done;
  Sf_graph.Ugraph.of_csr (Sf_graph.Csr.of_bigvecs ~n srcs dsts)

let max_degree_exponent = 0.5
