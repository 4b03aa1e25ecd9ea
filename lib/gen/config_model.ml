module Rng = Sf_prng.Rng
module Bigvec = Sf_graph.Bigvec
module Ugraph = Sf_graph.Ugraph

let of_degree_sequence rng deg =
  let n = Array.length deg in
  Array.iter (fun d -> if d < 0 then invalid_arg "Config_model: negative degree") deg;
  let total = Array.fold_left ( + ) 0 deg in
  if total mod 2 <> 0 then invalid_arg "Config_model: degree sum must be even";
  (* One stub per half-edge; a uniform shuffle then pairing adjacent
     stubs is a uniform perfect matching. *)
  let stubs = Array.make total 0 in
  let idx = ref 0 in
  Array.iteri
    (fun i d ->
      for _ = 1 to d do
        stubs.(!idx) <- i + 1;
        incr idx
      done)
    deg;
  Sf_prng.Shuffle.in_place rng stubs;
  let srcs = Bigvec.create ~capacity:(total / 2) () in
  let dsts = Bigvec.create ~capacity:(total / 2) () in
  let i = ref 0 in
  while !i + 1 < total do
    Bigvec.push srcs stubs.(!i);
    Bigvec.push dsts stubs.(!i + 1);
    i := !i + 2
  done;
  Ugraph.of_csr (Sf_graph.Csr.of_bigvecs ~n srcs dsts)

let natural_cutoff ~n ~exponent =
  let c = int_of_float (float_of_int n ** (1. /. (exponent -. 1.))) in
  max 1 (min c (n - 1))

let power_law_degrees rng ~n ~exponent ~d_min ?d_max () =
  if n < 1 then invalid_arg "Config_model.power_law_degrees: need n >= 1";
  if d_min < 1 then invalid_arg "Config_model.power_law_degrees: need d_min >= 1";
  let d_max = match d_max with Some d -> d | None -> max d_min (natural_cutoff ~n ~exponent) in
  if d_max < d_min then invalid_arg "Config_model.power_law_degrees: d_max < d_min";
  let deg = Sf_prng.Dist.discrete_power_law_sequence rng ~exponent ~d_min ~d_max ~n in
  let total = Array.fold_left ( + ) 0 deg in
  if total mod 2 <> 0 then begin
    let v = Rng.int rng n in
    deg.(v) <- deg.(v) + 1
  end;
  deg

let power_law rng ~n ~exponent ?(d_min = 1) ?d_max () =
  of_degree_sequence rng (power_law_degrees rng ~n ~exponent ~d_min ?d_max ())

let simple_graph g =
  let m = Ugraph.n_edges g in
  let seen = Hashtbl.create m in
  let srcs = Bigvec.create ~capacity:m () and dsts = Bigvec.create ~capacity:m () in
  for id = 0 to m - 1 do
    let s, d = Ugraph.endpoints g id in
    if s <> d then begin
      (* the unordered pair, packed into one int key *)
      let key = (min s d lsl 31) lor max s d in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        Bigvec.push srcs s;
        Bigvec.push dsts d
      end
    end
  done;
  Ugraph.of_csr (Sf_graph.Csr.of_bigvecs ~n:(Ugraph.n_vertices g) srcs dsts)

let searchable_power_law rng ~n ~exponent ?(d_min = 2) ?d_max () =
  let g = power_law rng ~n ~exponent ~d_min ?d_max () in
  fst (Sf_graph.Subgraph.largest_component (simple_graph g))
