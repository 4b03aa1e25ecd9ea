module Rng = Sf_prng.Rng
module Bigvec = Sf_graph.Bigvec

let generate rng ~n ~k ~beta =
  if k < 2 || k mod 2 <> 0 then invalid_arg "Watts_strogatz.generate: k must be even and >= 2";
  if n <= k then invalid_arg "Watts_strogatz.generate: need n > k";
  if beta < 0. || beta > 1. then invalid_arg "Watts_strogatz.generate: beta outside [0, 1]";
  let edges = n * k / 2 in
  let srcs = Bigvec.create ~capacity:edges () and dsts = Bigvec.create ~capacity:edges () in
  (* adjacency set to keep the rewired graph simple *)
  let present = Hashtbl.create (2 * n * k) in
  let key u v = (min u v, max u v) in
  let add u v =
    Hashtbl.replace present (key u v) ();
    Bigvec.push srcs u;
    Bigvec.push dsts v
  in
  let mem u v = Hashtbl.mem present (key u v) in
  (* ring lattice: j-th neighbour clockwise for j = 1..k/2 *)
  for v = 1 to n do
    for j = 1 to k / 2 do
      let u = ((v - 1 + j) mod n) + 1 in
      let src, dst =
        if Rng.bernoulli rng beta then begin
          (* rewire the far endpoint to a fresh uniform vertex *)
          let rec draw () =
            let w = 1 + Rng.int rng n in
            if w = v || mem v w then draw () else w
          in
          (v, draw ())
        end
        else (v, u)
      in
      if not (mem src dst) then add src dst
      else begin
        (* the lattice edge already exists (can only happen after a
           rewire landed on it); fall back to a fresh endpoint so the
           edge count stays exactly nk/2 *)
        let rec draw () =
          let w = 1 + Rng.int rng n in
          if w = v || mem v w then draw () else w
        in
        add v (draw ())
      end
    done
  done;
  Sf_graph.Ugraph.of_csr (Sf_graph.Csr.of_bigvecs ~n srcs dsts)
