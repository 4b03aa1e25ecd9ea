module Rng = Sf_prng.Rng
module Bigvec = Sf_graph.Bigvec

let gnm rng ~n ~m =
  if n < 0 || m < 0 then invalid_arg "Erdos_renyi.gnm: negative parameter";
  let max_edges = n * (n - 1) / 2 in
  if m > max_edges then invalid_arg "Erdos_renyi.gnm: too many edges requested";
  let srcs = Bigvec.create ~capacity:m () and dsts = Bigvec.create ~capacity:m () in
  let seen = Hashtbl.create (2 * m) in
  let added = ref 0 in
  while !added < m do
    let u = 1 + Rng.int rng n and v = 1 + Rng.int rng n in
    if u <> v then begin
      let key = (min u v, max u v) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        Bigvec.push srcs u;
        Bigvec.push dsts v;
        incr added
      end
    end
  done;
  Sf_graph.Ugraph.of_csr (Sf_graph.Csr.of_bigvecs ~n srcs dsts)

let gnp rng ~n ~p =
  if n < 0 then invalid_arg "Erdos_renyi.gnp: negative n";
  if p < 0. || p > 1. then invalid_arg "Erdos_renyi.gnp: p must lie in [0, 1]";
  let srcs = Bigvec.create () and dsts = Bigvec.create () in
  if p > 0. then begin
    (* Enumerate present pairs directly: jump over absent pairs with
       geometric gaps in the linearised pair order. *)
    let total = n * (n - 1) / 2 in
    let unrank k =
      (* Pair index k (0-based) in lexicographic (u, v) order, u < v. *)
      let rec find u acc =
        let row = n - u in
        if k < acc + row then (u, u + 1 + (k - acc)) else find (u + 1) (acc + row)
      in
      find 1 0
    in
    let pos = ref (if p >= 1. then 0 else Sf_prng.Dist.geometric rng ~p) in
    while !pos < total do
      let u, v = unrank !pos in
      Bigvec.push srcs u;
      Bigvec.push dsts v;
      pos := !pos + 1 + (if p >= 1. then 0 else Sf_prng.Dist.geometric rng ~p)
    done
  end;
  Sf_graph.Ugraph.of_csr (Sf_graph.Csr.of_bigvecs ~n srcs dsts)
