type t = int array

let identity n = Array.init n (fun i -> i + 1)

let is_valid p =
  let n = Array.length p in
  let seen = Array.make n false in
  let ok = ref true in
  Array.iter
    (fun v ->
      if v < 1 || v > n || seen.(v - 1) then ok := false
      else seen.(v - 1) <- true)
    p;
  !ok

let apply_vertex p v =
  if v < 1 || v > Array.length p then invalid_arg "Permute.apply_vertex: out of range";
  p.(v - 1)

let compose s2 s1 =
  if Array.length s2 <> Array.length s1 then invalid_arg "Permute.compose: size mismatch";
  Array.init (Array.length s1) (fun i -> s2.(s1.(i) - 1))

let inverse p =
  let inv = Array.make (Array.length p) 0 in
  Array.iteri (fun i v -> inv.(v - 1) <- i + 1) p;
  inv

let transposition n u v =
  let p = identity n in
  if u < 1 || u > n || v < 1 || v > n then invalid_arg "Permute.transposition: out of range";
  p.(u - 1) <- v;
  p.(v - 1) <- u;
  p

let of_subrange_permutation ~n ~lo ~images =
  let k = Array.length images in
  if lo < 1 || lo + k - 1 > n then invalid_arg "Permute.of_subrange_permutation: window out of range";
  let p = identity n in
  Array.iteri
    (fun i img ->
      if img < lo || img > lo + k - 1 then invalid_arg "Permute.of_subrange_permutation: image outside window";
      p.(lo - 1 + i) <- img)
    images;
  if not (is_valid p) then invalid_arg "Permute.of_subrange_permutation: images not a permutation";
  p

let random_of_subrange rng ~n ~lo ~hi =
  if lo < 1 || hi > n || hi < lo then invalid_arg "Permute.random_of_subrange: bad window";
  let images = Array.init (hi - lo + 1) (fun i -> lo + i) in
  Sf_prng.Shuffle.in_place rng images;
  of_subrange_permutation ~n ~lo ~images

let apply sigma g =
  let n = Ugraph.n_vertices g and m = Ugraph.n_edges g in
  if Array.length sigma <> n then invalid_arg "Permute.apply: size mismatch";
  if not (is_valid sigma) then invalid_arg "Permute.apply: not a permutation";
  let srcs = Bigvec.create_buf m and dsts = Bigvec.create_buf m in
  for id = 0 to m - 1 do
    let s, d = Ugraph.endpoints g id in
    Bigarray.Array1.unsafe_set srcs id (Int32.of_int sigma.(s - 1));
    Bigarray.Array1.unsafe_set dsts id (Int32.of_int sigma.(d - 1))
  done;
  Ugraph.of_csr (Csr.of_endpoint_bufs ~n srcs dsts)
