type vertex = int

(* The view is exactly a frozen CSR structure; every query delegates.
   Keeping the type abstract lets the mmap loader (lib/store) hand out
   file-backed views through the same interface. *)
type t = Csr.t

let of_csr c = c
let csr t = t

let of_edges ~n pairs =
  let srcs = Bigvec.create () and dsts = Bigvec.create () in
  List.iter
    (fun (s, d) ->
      Bigvec.push srcs s;
      Bigvec.push dsts d)
    pairs;
  Csr.of_bigvecs ~n srcs dsts

let n_vertices = Csr.n_vertices
let n_edges = Csr.n_edges
let mem_vertex = Csr.mem_vertex

let check_vertex t v name =
  if not (mem_vertex t v) then invalid_arg ("Ugraph." ^ name ^ ": vertex out of range")

let degree t v =
  check_vertex t v "degree";
  Csr.degree t v

let incident_nth t v i =
  check_vertex t v "incident_nth";
  Csr.incident_nth t v i

let iter_incident t v f =
  check_vertex t v "iter_incident";
  Csr.iter_incident t v f

let incident t v =
  check_vertex t v "incident";
  let d = Csr.degree t v in
  let out = Array.make d 0 in
  for i = 0 to d - 1 do
    out.(i) <- Csr.incident_nth t v i
  done;
  out

let endpoints t id =
  if id < 0 || id >= Csr.n_edges t then invalid_arg "Ugraph.endpoints: edge id out of range";
  (Csr.src t id, Csr.dst t id)

(* reads the two ends directly: the pair from [endpoints] would cost
   an allocation on every weak request *)
let other_endpoint t ~edge_id v =
  if edge_id < 0 || edge_id >= Csr.n_edges t then
    invalid_arg "Ugraph.endpoints: edge id out of range";
  let s = Csr.src t edge_id and d = Csr.dst t edge_id in
  if v = s then d
  else if v = d then s
  else invalid_arg "Ugraph.other_endpoint: vertex is not an endpoint"

let iter_neighbors t v f =
  check_vertex t v "iter_neighbors";
  Csr.iter_neighbors t v f

let neighbors t v =
  let acc = ref [] in
  iter_neighbors t v (fun u -> acc := u :: !acc);
  List.rev !acc

let max_degree = Csr.max_degree
let memory_bytes = Csr.memory_bytes

let sorted_edge_pairs t =
  let pairs = Array.init (Csr.n_edges t) (fun id -> (Csr.src t id, Csr.dst t id)) in
  Array.sort compare pairs;
  pairs

let equal_structure a b =
  n_vertices a = n_vertices b
  && n_edges a = n_edges b
  && sorted_edge_pairs a = sorted_edge_pairs b

let canonical_key t =
  let buf = Buffer.create (16 + (8 * n_edges t)) in
  Buffer.add_string buf (string_of_int (n_vertices t));
  Array.iter
    (fun (s, d) ->
      Buffer.add_char buf '|';
      Buffer.add_string buf (string_of_int s);
      Buffer.add_char buf '>';
      Buffer.add_string buf (string_of_int d))
    (sorted_edge_pairs t);
  Buffer.contents buf
