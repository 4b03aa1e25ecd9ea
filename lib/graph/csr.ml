type vertex = int
type buf = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  n : int;
  m : int;
  srcs : buf; (* edge id -> src, length m *)
  dsts : buf; (* edge id -> dst, length m *)
  inc_start : buf; (* vertex-1 -> first slot in inc, length n+1 *)
  inc : buf; (* incident edge ids, id-ascending within each row *)
}

let max_vertices = Bigvec.max_value
let max_edges = Int32.to_int Int32.max_int / 2

let n_vertices t = t.n
let n_edges t = t.m
let mem_vertex t v = v >= 1 && v <= t.n

let get (b : buf) i = Int32.to_int (Bigarray.Array1.unsafe_get b i)
let set (b : buf) i v = Bigarray.Array1.unsafe_set b i (Int32.of_int v)

let src t id = get t.srcs id
let dst t id = get t.dsts id

let check_vertex t v name =
  if not (mem_vertex t v) then invalid_arg ("Csr." ^ name ^ ": vertex out of range")

let degree t v =
  check_vertex t v "degree";
  get t.inc_start v - get t.inc_start (v - 1)

let incident_nth t v i =
  check_vertex t v "incident_nth";
  let lo = get t.inc_start (v - 1) in
  if i < 0 || lo + i >= get t.inc_start v then
    invalid_arg "Csr.incident_nth: slot out of range";
  get t.inc (lo + i)

let iter_incident t v f =
  check_vertex t v "iter_incident";
  for slot = get t.inc_start (v - 1) to get t.inc_start v - 1 do
    f (get t.inc slot)
  done

let iter_neighbors t v f =
  check_vertex t v "iter_neighbors";
  for slot = get t.inc_start (v - 1) to get t.inc_start v - 1 do
    let id = get t.inc slot in
    let s = get t.srcs id in
    f (if v = s then get t.dsts id else s)
  done

let max_degree t =
  let best = ref 0 in
  for v = 1 to t.n do
    best := max !best (get t.inc_start v - get t.inc_start (v - 1))
  done;
  !best

let memory_bytes t =
  4 * (Bigarray.Array1.dim t.srcs + Bigarray.Array1.dim t.dsts
      + Bigarray.Array1.dim t.inc_start + Bigarray.Array1.dim t.inc)

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let check_counts ~n ~m =
  if n < 0 || n > max_vertices then invalid_arg "Csr: vertex count out of range";
  if m < 0 || m > max_edges then invalid_arg "Csr: edge count out of range"

(* Build the incidence sections from endpoint arrays: two counting-sort
   passes over the edges, O(n + m), no boxed intermediates.  Scanning
   ids in ascending order keeps every row id-sorted — the invariant the
   oracle's handle lists rely on.  A
   self-loop occupies one incidence slot (Ugraph's observable-degree
   convention). *)
let build ~n ~m (srcs : buf) (dsts : buf) =
  check_counts ~n ~m;
  if Bigarray.Array1.dim srcs <> m || Bigarray.Array1.dim dsts <> m then
    invalid_arg "Csr: endpoint arrays disagree with edge count";
  let inc_start = Bigvec.create_buf (n + 1) in
  Bigarray.Array1.fill inc_start 0l;
  (* slot v-1 of the prefix array temporarily holds vertex v's count;
     the exclusive scan below turns it into the row-start offsets *)
  let bump v = set inc_start (v - 1) (get inc_start (v - 1) + 1) in
  for id = 0 to m - 1 do
    let s = get srcs id and d = get dsts id in
    if s < 1 || s > n || d < 1 || d > n then
      invalid_arg (Printf.sprintf "Csr: edge endpoint outside 1..%d" n);
    bump s;
    if d <> s then bump d
  done;
  let total = ref 0 in
  for v = 0 to n do
    let c = get inc_start v in
    set inc_start v !total;
    total := !total + c
  done;
  let inc = Bigvec.create_buf !total in
  let fill = Bigvec.create_buf (max n 1) in
  if n > 0 then Bigarray.Array1.blit (Bigarray.Array1.sub inc_start 0 n) fill;
  for id = 0 to m - 1 do
    let s = get srcs id and d = get dsts id in
    set inc (get fill (s - 1)) id;
    set fill (s - 1) (get fill (s - 1) + 1);
    if d <> s then begin
      set inc (get fill (d - 1)) id;
      set fill (d - 1) (get fill (d - 1) + 1)
    end
  done;
  { n; m; srcs; dsts; inc_start; inc }

let of_endpoint_bufs ~n srcs dsts = build ~n ~m:(Bigarray.Array1.dim srcs) srcs dsts

let of_bigvecs ~n srcs dsts =
  if Bigvec.length srcs <> Bigvec.length dsts then
    invalid_arg "Csr.of_bigvecs: endpoint vectors disagree";
  build ~n ~m:(Bigvec.length srcs) (Bigvec.to_buf srcs) (Bigvec.to_buf dsts)

let of_sections ~n ~m ~srcs ~dsts ~inc_start ~inc = { n; m; srcs; dsts; inc_start; inc }

(* ------------------------------------------------------------------ *)
(* Whole-structure checks                                              *)
(* ------------------------------------------------------------------ *)

let validate t =
  let fail fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
  let dim = Bigarray.Array1.dim in
  if t.n < 0 || t.m < 0 then fail "negative counts"
  else if dim t.srcs <> t.m || dim t.dsts <> t.m then fail "endpoint section length mismatch"
  else if dim t.inc_start <> t.n + 1 then fail "offset section length mismatch"
  else begin
    let bad = ref None in
    for id = 0 to t.m - 1 do
      if !bad = None then begin
        let s = get t.srcs id and d = get t.dsts id in
        if s < 1 || s > t.n || d < 1 || d > t.n then
          bad := Some (Printf.sprintf "edge %d endpoint outside 1..%d" id t.n)
      end
    done;
    match !bad with
    | Some msg -> Error msg
    | None ->
      if get t.inc_start 0 <> 0 then fail "offsets do not start at 0"
      else begin
        let mono = ref true in
        for v = 1 to t.n do
          if get t.inc_start v < get t.inc_start (v - 1) then mono := false
        done;
        if not !mono then fail "offsets not monotone"
        else if get t.inc_start t.n <> dim t.inc then fail "incidence length disagrees with offsets"
        else begin
          (* rebuild the incidence from the endpoints and require an
             exact match — catches id-order violations, not just
             shape errors *)
          let reference = build ~n:t.n ~m:t.m t.srcs t.dsts in
          let same = ref true in
          for slot = 0 to dim t.inc - 1 do
            if get t.inc slot <> get reference.inc slot then same := false
          done;
          for v = 0 to t.n do
            if get t.inc_start v <> get reference.inc_start v then same := false
          done;
          if !same then Ok () else fail "incidence disagrees with endpoint arrays"
        end
      end
  end

let equal a b =
  a.n = b.n && a.m = b.m
  && (let same = ref true in
      for id = 0 to a.m - 1 do
        if get a.srcs id <> get b.srcs id || get a.dsts id <> get b.dsts id then same := false
      done;
      !same)
