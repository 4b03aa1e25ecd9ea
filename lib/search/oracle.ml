module Rng = Sf_prng.Rng
module Ugraph = Sf_graph.Ugraph
module Vec = Sf_graph.Vec

(* Observability: the oracle is where the paper's complexity measure
   is paid, so the request counters live here (see
   doc/OBSERVABILITY.md; search.requests is Lemma 1's count). *)
let obs_requests = Sf_obs.Registry.counter "search.requests"
let obs_requests_weak = Sf_obs.Registry.counter "search.requests.weak"
let obs_requests_strong = Sf_obs.Registry.counter "search.requests.strong"
let obs_discoveries = Sf_obs.Registry.counter "search.discoveries"
let obs_oracles = Sf_obs.Registry.counter "search.oracles"

(* One "search.request" trace event per paid request — the paper's
   complexity measure as a sequence rather than a count.  Runner's
   run_traced and the --trace exporters are both fed from here. *)
let request_event_name = "search.request"

type vertex = int
type handle = int
type model = Weak | Strong

(* The search state of a query lives in an arena that its domain
   reuses from one query to the next, so [start] costs O(deg target),
   not O(n) (doc/SCALING.md).

   [slot] is the only per-vertex array: one int32 per vertex, in a
   Bigarray outside the GC heap. 0 means "nothing known", [near] marks
   the target's closed neighbourhood until discovery, and [i + 1] the
   vertex discovered [i]-th; ranks stay below n <= 2^31 - 1, so every
   code fits. [release] puts back the zeros that the query wrote: the
   target's closed neighbourhood and the discovered vertices, O(deg
   target + discovered), the order of the work already done.

   [paid] holds one byte per public id, nonzero once a weak request
   paid for that handle; it grows on demand to the largest id paid
   for. A paid handle is in its owner's list, and the owner was
   discovered, so [release] clears every paid byte by walking the
   discovered handle lists, at one store per handle that discovery
   already exposed.

   Everything else is indexed by discovery rank and grows with the
   search: the discovery sequence, the discovery-tree parent (0 for
   the source), the handle lists, and [mark] — twice the number of the
   last strong request that listed the vertex, plus 1 once the vertex
   was itself strong-requested. *)
type arena = {
  slot : Sf_graph.Bigvec.buf;
  mutable paid : Bytes.t;
  mutable order : int array;
  mutable parent : int array;
  mutable handle_lists : int array array;
  mutable mark : int array;
  mutable scratch : int array; (* request_strong's distinct neighbours *)
}

let near = -1l

let new_arena n =
  let cap = min n 64 in
  let slot = Sf_graph.Bigvec.create_buf n in
  Bigarray.Array1.fill slot 0l;
  {
    slot;
    paid = Bytes.make 64 '\000';
    order = Array.make cap 0;
    parent = Array.make cap 0;
    handle_lists = Array.make cap [||];
    mark = Array.make cap 0;
    scratch = [||];
  }

let capacity a = Bigarray.Array1.dim a.slot

(* Discovery can never outgrow the vertex count, so neither do the
   rank-indexed buffers. *)
let grow a =
  let cap = min (capacity a) (2 * Array.length a.order) in
  let extend old fill =
    let arr = Array.make cap fill in
    Array.blit old 0 arr 0 (Array.length old);
    arr
  in
  a.order <- extend a.order 0;
  a.parent <- extend a.parent 0;
  a.handle_lists <- extend a.handle_lists [||];
  a.mark <- extend a.mark 0

let grow_paid a h =
  let paid = Bytes.make (max (h + 1) (2 * Bytes.length a.paid)) '\000' in
  Bytes.blit a.paid 0 paid 0 (Bytes.length a.paid);
  a.paid <- paid

(* The domain keeps at most one free arena. The cell is atomic because
   systhreads of one domain share it. *)
let free_arena : arena option Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make None)

let take_arena n =
  match Atomic.exchange (Domain.DLS.get free_arena) None with
  | Some a when capacity a >= n -> a
  | Some _ | None -> new_arena n

let return_arena a =
  let cell = Domain.DLS.get free_arena in
  match Atomic.get cell with
  | Some kept when capacity kept >= capacity a -> ()
  | cur -> ignore (Atomic.compare_and_set cell cur (Some a))

type t = {
  model : model;
  g : Ugraph.t;
  target : vertex;
  source : vertex;
  rng : Rng.t;
  obfuscate : bool;
  pub_of_real : (int, int) Hashtbl.t;
  real_of_pub : Vec.t;
  arena : arena;
  slot : Sf_graph.Bigvec.buf; (* arena.slot *)
  mutable count : int; (* vertices discovered *)
  mutable released : bool;
  mutable request_count : int;
  mutable found_at : int option;
  mutable neighbor_at : int option;
}

let live t name = if t.released then invalid_arg ("Oracle." ^ name ^ ": oracle released")

(* [v] must be a vertex of the graph; [slot] is at least that long. *)
let code t v = Bigarray.Array1.unsafe_get t.slot (v - 1)
let known t v = code t v > 0l
let rank t v = Int32.to_int (code t v) - 1

let publicize t real_id =
  if not t.obfuscate then real_id
  else
    match Hashtbl.find_opt t.pub_of_real real_id with
    | Some pub -> pub
    | None ->
      let pub = Vec.length t.real_of_pub in
      Vec.push t.real_of_pub real_id;
      Hashtbl.replace t.pub_of_real real_id pub;
      pub

let realize t pub =
  if not t.obfuscate then begin
    if pub < 0 || pub >= Ugraph.n_edges t.g then invalid_arg "Oracle: unknown handle";
    pub
  end
  else if pub < 0 || pub >= Vec.length t.real_of_pub then invalid_arg "Oracle: unknown handle"
  else Vec.get t.real_of_pub pub

let discover ?(via = 0) t v =
  let c = code t v in
  if c <= 0l then begin
    if Sf_obs.Registry.enabled () then Sf_obs.Counter.incr obs_discoveries;
    let a = t.arena in
    let i = t.count in
    if i = Array.length a.order then grow a;
    a.order.(i) <- v;
    a.parent.(i) <- via;
    a.mark.(i) <- 0;
    t.count <- i + 1;
    (* written once [order] lists [v], so that release clears it *)
    Bigarray.Array1.unsafe_set t.slot (v - 1) (Int32.of_int (i + 1));
    (* an explicit ascending loop: publicize assigns public ids in
       first-exposure order, so the fill order is load-bearing *)
    let d = Ugraph.degree t.g v in
    let pubs = Array.make d 0 in
    for k = 0 to d - 1 do
      pubs.(k) <- publicize t (Ugraph.incident_nth t.g v k)
    done;
    if t.obfuscate then Sf_prng.Shuffle.in_place t.rng pubs;
    a.handle_lists.(i) <- pubs;
    if c = near && t.neighbor_at = None then t.neighbor_at <- Some t.request_count;
    if v = t.target && t.found_at = None then t.found_at <- Some t.request_count
  end

let start ?(obfuscate = true) ~rng model g ~source ~target =
  if not (Ugraph.mem_vertex g source) then invalid_arg "Oracle.start: bad source";
  if not (Ugraph.mem_vertex g target) then invalid_arg "Oracle.start: bad target";
  let arena = take_arena (Ugraph.n_vertices g) in
  let slot = arena.slot in
  slot.{target - 1} <- near;
  Ugraph.iter_neighbors g target (fun u -> slot.{u - 1} <- near);
  let t =
    {
      model;
      g;
      target;
      source;
      rng = Rng.split rng;
      obfuscate;
      pub_of_real = Hashtbl.create 64;
      real_of_pub = Vec.create ();
      arena;
      slot;
      count = 0;
      released = false;
      request_count = 0;
      found_at = None;
      neighbor_at = None;
    }
  in
  if Sf_obs.Registry.enabled () then Sf_obs.Counter.incr obs_oracles;
  discover t source;
  t

let release t =
  if not t.released then begin
    t.released <- true;
    let a = t.arena and slot = t.slot in
    slot.{t.target - 1} <- 0l;
    Ugraph.iter_neighbors t.g t.target (fun u -> slot.{u - 1} <- 0l);
    let paid = a.paid in
    let n_paid = Bytes.length paid in
    for i = 0 to t.count - 1 do
      slot.{a.order.(i) - 1} <- 0l;
      let hs = a.handle_lists.(i) in
      for k = 0 to Array.length hs - 1 do
        if hs.(k) < n_paid then Bytes.unsafe_set paid hs.(k) '\000'
      done;
      (* so that the free arena pins none of this query's handle lists *)
      a.handle_lists.(i) <- [||]
    done;
    return_arena a
  end

let model t =
  live t "model";
  t.model

let n_vertices t =
  live t "n_vertices";
  Ugraph.n_vertices t.g

let target t =
  live t "target";
  t.target

let source t =
  live t "source";
  t.source

let requests t =
  live t "requests";
  t.request_count

let is_discovered t v =
  live t "is_discovered";
  Ugraph.mem_vertex t.g v && known t v

let discovered_count t =
  live t "discovered_count";
  t.count

let discovered_nth t i =
  live t "discovered_nth";
  if i < 0 || i >= t.count then invalid_arg "Oracle.discovered_nth: index out of bounds";
  t.arena.order.(i)

(* The discovery rank of [v], read with one load and compare. *)
let rank_of_discovered t v name =
  live t name;
  let r = if Ugraph.mem_vertex t.g v then rank t v else -1 in
  if r < 0 then invalid_arg ("Oracle." ^ name ^ ": vertex not discovered");
  r

let discovery_rank t v = rank_of_discovered t v "discovery_rank"

let handles t v = t.arena.handle_lists.(rank_of_discovered t v "handles")

let degree t v = Array.length (handles t v)

let handle_requested t h =
  live t "handle_requested";
  let paid = t.arena.paid in
  h >= 0 && h < Bytes.length paid && Bytes.unsafe_get paid h <> '\000'

let endpoints_if_known t h =
  live t "endpoints_if_known";
  let real = realize t h in
  let s, d = Ugraph.endpoints t.g real in
  if known t s && known t d then Some (s, d) else None

let trace_request t ~kind ~at ~before =
  let after = t.count in
  let revealed = List.init (after - before) (fun i -> t.arena.order.(before + i)) in
  Sf_obs.Trace.emit request_event_name Sf_obs.Trace.Instant
    ~args:
      [
        ("index", Sf_obs.Trace.Int t.request_count);
        ("kind", Sf_obs.Trace.Str kind);
        ("at", Sf_obs.Trace.Int at);
        ("revealed", Sf_obs.Trace.Ints revealed);
        ("discovered_total", Sf_obs.Trace.Int after);
      ]

let request_weak t ~owner h =
  live t "request_weak";
  if t.model <> Weak then invalid_arg "Oracle.request_weak: not a weak-model instance";
  ignore (rank_of_discovered t owner "request_weak");
  let real = realize t h in
  let far = Ugraph.other_endpoint t.g ~edge_id:real owner in
  if Sf_obs.Registry.enabled () then begin
    Sf_obs.Counter.incr obs_requests;
    Sf_obs.Counter.incr obs_requests_weak
  end;
  let tracing = Sf_obs.Trace.active () in
  let before = t.count in
  t.request_count <- t.request_count + 1;
  let a = t.arena in
  if h >= Bytes.length a.paid then grow_paid a h;
  Bytes.unsafe_set a.paid h '\001';
  discover ~via:owner t far;
  if tracing then trace_request t ~kind:"weak-edge" ~at:owner ~before;
  far

(* Multiplicity is collapsed with [mark]: a neighbour is listed when
   its mark does not yet carry this request's number. The distinct
   neighbours collect in [scratch], in first-occurrence order. *)
let request_strong t v =
  live t "request_strong";
  if t.model <> Strong then invalid_arg "Oracle.request_strong: not a strong-model instance";
  let iv = rank_of_discovered t v "request_strong" in
  if Sf_obs.Registry.enabled () then begin
    Sf_obs.Counter.incr obs_requests;
    Sf_obs.Counter.incr obs_requests_strong
  end;
  let tracing = Sf_obs.Trace.active () in
  let before = t.count in
  t.request_count <- t.request_count + 1;
  let a = t.arena in
  a.mark.(iv) <- a.mark.(iv) lor 1;
  let d = Ugraph.degree t.g v in
  if Array.length a.scratch < d then a.scratch <- Array.make (max d (2 * Array.length a.scratch)) 0;
  let stamp = t.request_count lsl 1 in
  let listed = ref 0 in
  Ugraph.iter_neighbors t.g v (fun u ->
      discover ~via:v t u;
      let i = rank t u in
      let m = a.mark.(i) in
      if m lsr 1 <> t.request_count then begin
        a.mark.(i) <- stamp lor (m land 1);
        a.scratch.(!listed) <- u;
        incr listed
      end);
  if tracing then trace_request t ~kind:"strong-vertex" ~at:v ~before;
  let acc = ref [] in
  for k = !listed - 1 downto 0 do
    acc := a.scratch.(k) :: !acc
  done;
  !acc

let is_explored t v = t.arena.mark.(rank_of_discovered t v "is_explored") land 1 = 1

let discovery_parent t v =
  match t.arena.parent.(rank_of_discovered t v "discovery_parent") with
  | 0 -> None
  | parent -> Some parent

let discovery_path t v =
  ignore (rank_of_discovered t v "discovery_path");
  let parent = t.arena.parent in
  let rec climb v acc =
    match parent.(rank t v) with 0 -> v :: acc | p -> climb p (v :: acc)
  in
  climb v []

let target_found t =
  live t "target_found";
  t.found_at <> None

let requests_when_found t =
  live t "requests_when_found";
  t.found_at

let requests_when_neighbor t =
  live t "requests_when_neighbor";
  t.neighbor_at
