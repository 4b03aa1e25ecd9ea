module Rng = Sf_prng.Rng
module Ugraph = Sf_graph.Ugraph

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

   The handles of all discovered vertices live in one flat buffer,
   [handles], in discovery order: the vertex of rank [i] owns
   [handles.(first.(i)) .. handles.(first.(i + 1) - 1)], so
   [first.(count)] ends the used prefix. [real_of_pub] maps a public
   id back to its physical edge; ids are dense from 0, so a query
   overwrites the prefix it uses and [release] need not clear it.
   [pub_of_real] is its inverse. It keeps its bucket array at the
   high-water size, so a query does not regrow it, and [release]
   removes exactly the keys the query added, [real_of_pub.(0 ..
   n_pub - 1)]. A [Hashtbl.clear] would cost the high-water bucket
   count on every later query, and a [Hashtbl.reset] would bring the
   regrowth back. [real_of_pub] is int32 storage outside the GC heap,
   like [slot]: the GC sizes its heap from live data, and the kept
   bucket array already adds to that; with both in the GC heap a
   2-worker [sffabric] grid peaked about 1 MB higher.

   [paid] holds one byte per public id, nonzero once a weak request
   paid for that handle; it grows on demand to the largest id paid
   for. A paid handle is in its owner's range, and the owner was
   discovered, so [release] clears every paid byte with one walk over
   the used prefix of [handles].

   Everything else is indexed by discovery rank and grows with the
   search: the discovery sequence, the discovery-tree parent (0 for
   the source), [first], and [mark], 1 once the vertex was
   strong-requested. Every buffer stays at its high-water mark for
   the next query. *)
type arena = {
  slot : Sf_graph.Bigvec.buf;
  mutable paid : Bytes.t;
  mutable order : int array;
  mutable parent : int array;
  mutable mark : int array;
  mutable first : int array; (* one longer than [order] *)
  mutable handles : int array;
  mutable real_of_pub : Sf_graph.Bigvec.buf;
  pub_of_real : (int, int) Hashtbl.t;
}

let near = -1

let new_arena n =
  let cap = min n 64 in
  let slot = Sf_graph.Bigvec.create_buf n in
  Bigarray.Array1.fill slot 0l;
  {
    slot;
    paid = Bytes.make 64 '\000';
    order = Array.make cap 0;
    parent = Array.make cap 0;
    mark = Array.make cap 0;
    first = Array.make (cap + 1) 0;
    handles = Array.make 256 0;
    real_of_pub = Sf_graph.Bigvec.create_buf 256;
    pub_of_real = Hashtbl.create 64;
  }

let capacity a = Bigarray.Array1.dim a.slot

let extend old len =
  let arr = Array.make len 0 in
  Array.blit old 0 arr 0 (Array.length old);
  arr

(* Discovery can never outgrow the vertex count, so neither do the
   rank-indexed buffers. *)
let grow a =
  let cap = min (capacity a) (2 * Array.length a.order) in
  a.order <- extend a.order cap;
  a.parent <- extend a.parent cap;
  a.mark <- extend a.mark cap;
  a.first <- extend a.first (cap + 1)

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
  mutable n_pub : int; (* public ids handed out, the used prefix of real_of_pub *)
  arena : arena;
  slot : Sf_graph.Bigvec.buf; (* arena.slot *)
  mutable count : int; (* vertices discovered *)
  mutable released : bool;
  mutable request_count : int;
  mutable found_at : int option;
  mutable neighbor_at : int option;
}

let live t name = if t.released then invalid_arg ("Oracle." ^ name ^ ": oracle released")

(* [v] must be a vertex of the graph; [slot] is at least that long.
   The int32 becomes an int inside [code]: ocamlopt without flambda
   does not inline [code] into its callers, and an int32 result would
   be boxed, 24 bytes on every read. [set_code] names the buffer's
   type: a slot left polymorphic in its element kind compiles to the
   generic C store, which boxes the int32, 24 bytes on every write. *)
let code t v = Int32.to_int (Bigarray.Array1.unsafe_get t.slot (v - 1))

let set_code (slot : Sf_graph.Bigvec.buf) v c =
  Bigarray.Array1.unsafe_set slot (v - 1) (Int32.of_int c)

let known t v = code t v > 0
let rank t v = code t v - 1

let publicize t real_id =
  if not t.obfuscate then real_id
  else
    let a = t.arena in
    match Hashtbl.find a.pub_of_real real_id with
    | pub -> pub
    | exception Not_found ->
      let pub = t.n_pub in
      if pub = Bigarray.Array1.dim a.real_of_pub then begin
        let rop = Sf_graph.Bigvec.create_buf (2 * pub) in
        Bigarray.Array1.blit a.real_of_pub (Bigarray.Array1.sub rop 0 pub);
        a.real_of_pub <- rop
      end;
      Bigarray.Array1.unsafe_set a.real_of_pub pub (Int32.of_int real_id);
      t.n_pub <- pub + 1;
      Hashtbl.replace a.pub_of_real real_id pub;
      pub

let realize t pub =
  if not t.obfuscate then begin
    if pub < 0 || pub >= Ugraph.n_edges t.g then invalid_arg "Oracle: unknown handle";
    pub
  end
  else if pub < 0 || pub >= t.n_pub then invalid_arg "Oracle: unknown handle"
  else Int32.to_int (Bigarray.Array1.unsafe_get t.arena.real_of_pub pub)

let discover t v ~via =
  let c = code t v in
  if c <= 0 then begin
    if Sf_obs.Registry.enabled () then Sf_obs.Counter.incr obs_discoveries;
    let a = t.arena in
    let i = t.count in
    if i = Array.length a.order then grow a;
    a.order.(i) <- v;
    a.parent.(i) <- via;
    a.mark.(i) <- 0;
    t.count <- i + 1;
    (* written once [order] lists [v], so that release clears it *)
    set_code t.slot v (i + 1);
    (* an explicit ascending loop: publicize assigns public ids in
       first-exposure order, so the fill order is load-bearing *)
    let d = Ugraph.degree t.g v in
    let lo = a.first.(i) in
    if lo + d > Array.length a.handles then
      a.handles <- extend a.handles (max (lo + d) (2 * Array.length a.handles));
    for k = 0 to d - 1 do
      a.handles.(lo + k) <- publicize t (Ugraph.incident_nth t.g v k)
    done;
    a.first.(i + 1) <- lo + d;
    if t.obfuscate then Sf_prng.Shuffle.in_place_sub t.rng a.handles ~pos:lo ~len:d;
    if c = near && t.neighbor_at = None then t.neighbor_at <- Some t.request_count;
    if v = t.target && t.found_at = None then t.found_at <- Some t.request_count
  end

let start ?(obfuscate = true) ~rng model g ~source ~target =
  if not (Ugraph.mem_vertex g source) then invalid_arg "Oracle.start: bad source";
  if not (Ugraph.mem_vertex g target) then invalid_arg "Oracle.start: bad target";
  let arena = take_arena (Ugraph.n_vertices g) in
  let slot = arena.slot in
  set_code slot target near;
  Ugraph.iter_neighbors g target (fun u -> set_code slot u near);
  let t =
    {
      model;
      g;
      target;
      source;
      rng = Rng.split rng;
      obfuscate;
      n_pub = 0;
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
  discover t source ~via:0;
  t

let release t =
  if not t.released then begin
    t.released <- true;
    let a = t.arena and slot = t.slot in
    set_code slot t.target 0;
    Ugraph.iter_neighbors t.g t.target (fun u -> set_code slot u 0);
    for i = 0 to t.count - 1 do
      set_code slot a.order.(i) 0
    done;
    let paid = a.paid in
    let n_paid = Bytes.length paid in
    for k = 0 to a.first.(t.count) - 1 do
      let h = a.handles.(k) in
      if h < n_paid then Bytes.unsafe_set paid h '\000'
    done;
    for pub = 0 to t.n_pub - 1 do
      Hashtbl.remove a.pub_of_real (Int32.to_int (Bigarray.Array1.unsafe_get a.real_of_pub pub))
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

let degree t v =
  let r = rank_of_discovered t v "degree" in
  t.arena.first.(r + 1) - t.arena.first.(r)

let handle t v i =
  let r = rank_of_discovered t v "handle" in
  let a = t.arena in
  let lo = a.first.(r) in
  if i < 0 || lo + i >= a.first.(r + 1) then invalid_arg "Oracle.handle: index out of bounds";
  a.handles.(lo + i)

let handles t v =
  let r = rank_of_discovered t v "handles" in
  let a = t.arena in
  Array.sub a.handles a.first.(r) (a.first.(r + 1) - a.first.(r))

let handle_requested t h =
  live t "handle_requested";
  let paid = t.arena.paid in
  h >= 0 && h < Bytes.length paid && Bytes.unsafe_get paid h <> '\000'

let far_endpoint t ~owner h =
  live t "far_endpoint";
  let far = Ugraph.other_endpoint t.g ~edge_id:(realize t h) owner in
  if known t owner && known t far then far else 0

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
  discover t far ~via:owner;
  if tracing then trace_request t ~kind:"weak-edge" ~at:owner ~before;
  far

(* Neighbours are discovered in incidence order, as
   [Ugraph.iter_neighbors] visits them, without a closure. *)
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
  t.arena.mark.(iv) <- 1;
  for k = 0 to Ugraph.degree t.g v - 1 do
    let u = Ugraph.other_endpoint t.g ~edge_id:(Ugraph.incident_nth t.g v k) v in
    discover t u ~via:v
  done;
  if tracing then trace_request t ~kind:"strong-vertex" ~at:v ~before

let is_explored t v = t.arena.mark.(rank_of_discovered t v "is_explored") = 1

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
  Option.is_some t.found_at

let requests_when_found t =
  live t "requests_when_found";
  t.found_at

let requests_when_neighbor t =
  live t "requests_when_neighbor";
  t.neighbor_at
