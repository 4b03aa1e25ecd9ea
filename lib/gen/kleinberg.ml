module Rng = Sf_prng.Rng
module Bigvec = Sf_graph.Bigvec

type t = { graph : Sf_graph.Ugraph.t; side : int; r : float }

let vertex_of_coord ~side ~row ~col =
  let wrap x = ((x mod side) + side) mod side in
  (wrap row * side) + wrap col + 1

let coord_of_vertex ~side v = ((v - 1) / side, (v - 1) mod side)

let lattice_distance ~side u v =
  let ru, cu = coord_of_vertex ~side u and rv, cv = coord_of_vertex ~side v in
  let axis a b =
    let d = abs (a - b) in
    min d (side - d)
  in
  axis ru rv + axis cu cv

(* Offsets (dr, dc) grouped by toroidal distance, packed as dr*side+dc. *)
let offsets_by_distance side =
  let max_d = 2 * (side / 2) in
  let groups = Array.make (max_d + 1) [] in
  for dr = 0 to side - 1 do
    for dc = 0 to side - 1 do
      if dr <> 0 || dc <> 0 then begin
        let d = min dr (side - dr) + min dc (side - dc) in
        groups.(d) <- ((dr * side) + dc) :: groups.(d)
      end
    done
  done;
  Array.map Array.of_list groups

let generate rng ~side ~r ?(q = 1) () =
  if side < 2 then invalid_arg "Kleinberg.generate: need side >= 2";
  if r < 0. then invalid_arg "Kleinberg.generate: need r >= 0";
  if q < 0 then invalid_arg "Kleinberg.generate: need q >= 0";
  let n = side * side in
  let srcs = Bigvec.create ~capacity:((2 + q) * n) () in
  let dsts = Bigvec.create ~capacity:((2 + q) * n) () in
  let add src dst =
    Bigvec.push srcs src;
    Bigvec.push dsts dst
  in
  (* Short-range lattice edges: right and down from each vertex covers
     every adjacent pair once. *)
  for row = 0 to side - 1 do
    for col = 0 to side - 1 do
      let v = vertex_of_coord ~side ~row ~col in
      add v (vertex_of_coord ~side ~row ~col:(col + 1));
      add v (vertex_of_coord ~side ~row:(row + 1) ~col)
    done
  done;
  if q > 0 then begin
    let groups = offsets_by_distance side in
    let weights =
      Array.mapi
        (fun d offs ->
          if d = 0 then 0.
          else float_of_int (Array.length offs) *. (float_of_int d ** -.r))
        groups
    in
    let dist_sampler = Sf_prng.Discrete.Alias.create weights in
    for row = 0 to side - 1 do
      for col = 0 to side - 1 do
        let v = vertex_of_coord ~side ~row ~col in
        for _ = 1 to q do
          let d = Sf_prng.Discrete.Alias.sample dist_sampler rng in
          let offs = groups.(d) in
          let packed = offs.(Rng.int rng (Array.length offs)) in
          let dr = packed / side and dc = packed mod side in
          add v (vertex_of_coord ~side ~row:(row + dr) ~col:(col + dc))
        done
      done
    done
  end;
  { graph = Sf_graph.Ugraph.of_csr (Sf_graph.Csr.of_bigvecs ~n srcs dsts); side; r }

let n_vertices t = Sf_graph.Ugraph.n_vertices t.graph
