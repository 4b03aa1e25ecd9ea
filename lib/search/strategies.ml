module Rng = Sf_prng.Rng
module Vec = Sf_graph.Vec
open Strategy

(* Feed every not-yet-seen discovery to [f]; strategies call this at
   each step to ingest what the previous request revealed. Steppers
   build [f] and their [pick] loop once, in [prepare], so that a step
   allocates no closure. *)
let sync oracle seen f =
  let count = Oracle.discovered_count oracle in
  while !seen < count do
    f (Oracle.discovered_nth oracle !seen);
    incr seen
  done

let best_first ~name ~description ~score =
  let prepare _rng oracle =
    let cur = Cursor.create () in
    let heap = Heap.create () in
    let seen = ref 0 in
    let ingest v = Heap.push heap ~priority:(score oracle v) v in
    let rec pick () =
      if Heap.length heap = 0 then Give_up
      else begin
        let v = Heap.top heap in
        let h = Cursor.next_handle cur oracle ~skip_known:true v in
        if h = Cursor.none then begin
          ignore (Heap.pop_max heap);
          pick ()
        end
        else begin
          (* Keep the vertex live for its remaining handles. *)
          Heap.requeue heap;
          Request_edge (v, h)
        end
      end
    in
    fun () ->
      sync oracle seen ingest;
      pick ()
  in
  { name; description; model = Oracle.Weak; prepare }

let strong_best_first ~name ~description ~score =
  let prepare _rng oracle =
    let heap = Heap.create () in
    let seen = ref 0 in
    let ingest v = Heap.push heap ~priority:(score oracle v) v in
    let rec pick () =
      if Heap.length heap = 0 then Give_up
      else begin
        let v = Heap.pop_max heap in
        if Oracle.is_explored oracle v then pick () else Request_vertex v
      end
    in
    fun () ->
      sync oracle seen ingest;
      pick ()
  in
  { name; description; model = Oracle.Strong; prepare }

let bfs =
  let prepare _rng oracle =
    let cur = Cursor.create () in
    let front = ref 0 in
    let rec pick () =
      if !front >= Oracle.discovered_count oracle then Give_up
      else begin
        let v = Oracle.discovered_nth oracle !front in
        let h = Cursor.next_handle cur oracle ~skip_known:true v in
        if h <> Cursor.none then Request_edge (v, h)
        else begin
          incr front;
          pick ()
        end
      end
    in
    pick
  in
  {
    name = "bfs";
    description = "breadth-first flooding in discovery order";
    model = Oracle.Weak;
    prepare;
  }

let dfs =
  let prepare _rng oracle =
    let cur = Cursor.create () in
    let stack = Vec.create () in
    let seen = ref 0 in
    let ingest v = Vec.push stack v in
    let rec pick () =
      if Vec.is_empty stack then Give_up
      else begin
        let v = Vec.get stack (Vec.length stack - 1) in
        let h = Cursor.next_handle cur oracle ~skip_known:true v in
        if h <> Cursor.none then Request_edge (v, h)
        else begin
          ignore (Vec.pop stack);
          pick ()
        end
      end
    in
    fun () ->
      sync oracle seen ingest;
      pick ()
  in
  {
    name = "dfs";
    description = "depth-first probing";
    model = Oracle.Weak;
    prepare;
  }

let random_edge ~skip_known =
  let prepare rng oracle =
    (* One slot per (vertex, handle-index) pair; uniform swap-remove
       sampling with lazy usefulness checks. *)
    let owners = Vec.create () and indices = Vec.create () in
    let seen = ref 0 in
    let ingest v =
      for i = 0 to Oracle.degree oracle v - 1 do
        Vec.push owners v;
        Vec.push indices i
      done
    in
    let rec pick () =
      if Vec.is_empty owners then Give_up
      else begin
        let j = Rng.int rng (Vec.length owners) in
        let v = Vec.get owners j and i = Vec.get indices j in
        let last = Vec.length owners - 1 in
        Vec.set owners j (Vec.get owners last);
        Vec.set indices j (Vec.get indices last);
        ignore (Vec.pop owners);
        ignore (Vec.pop indices);
        let h = Oracle.handle oracle v i in
        if
          Oracle.handle_requested oracle h
          || (skip_known && Oracle.far_endpoint oracle ~owner:v h <> 0)
        then pick ()
        else Request_edge (v, h)
      end
    in
    fun () ->
      sync oracle seen ingest;
      pick ()
  in
  {
    name = (if skip_known then "rand-edge+skip" else "rand-edge");
    description = "uniform random unexplored handle of the discovered region";
    model = Oracle.Weak;
    prepare;
  }

(* A walk at [pos] that last requested handle [h] (-1: none yet) steps
   to the far endpoint once it is known. *)
let move oracle pos h =
  if h >= 0 then
    match Oracle.far_endpoint oracle ~owner:!pos h with 0 -> () | far -> pos := far

let random_walk =
  let prepare rng oracle =
    let pos = ref (Oracle.source oracle) in
    (* the handle last requested from [pos], or -1 before the first *)
    let last = ref (-1) in
    fun () ->
      (* Move to wherever the previous request led. *)
      move oracle pos !last;
      let d = Oracle.degree oracle !pos in
      if d = 0 then Give_up
      else begin
        let h = Oracle.handle oracle !pos (Rng.int rng d) in
        last := h;
        Request_edge (!pos, h)
      end
  in
  {
    name = "rand-walk";
    description = "memoryless uniform random walk, one request per hop";
    model = Oracle.Weak;
    prepare;
  }

let degree_score oracle v = float_of_int (Oracle.degree oracle v)
let label_score oracle v = -.Float.abs (float_of_int (v - Oracle.target oracle))
let age_score _oracle v = -.float_of_int v

let high_degree =
  best_first ~name:"high-degree"
    ~description:"Adamic et al.: request from the highest-degree discovered vertex"
    ~score:degree_score

let min_label_distance =
  best_first ~name:"min-label-dist"
    ~description:"request from the vertex whose identity is closest to the target's"
    ~score:label_score

let oldest_label =
  best_first ~name:"oldest-label"
    ~description:"request from the oldest (smallest-identity) discovered vertex"
    ~score:age_score

let strong_seq =
  let prepare _rng oracle =
    let front = ref 0 in
    let rec pick () =
      if !front >= Oracle.discovered_count oracle then Give_up
      else begin
        let v = Oracle.discovered_nth oracle !front in
        if Oracle.is_explored oracle v then begin
          incr front;
          pick ()
        end
        else Request_vertex v
      end
    in
    pick
  in
  {
    name = "s-bfs";
    description = "strong model: explore vertices in discovery order";
    model = Oracle.Strong;
    prepare;
  }

let strong_random =
  let prepare rng oracle =
    let pool = Vec.create () in
    let seen = ref 0 in
    let ingest v = Vec.push pool v in
    let rec pick () =
      if Vec.is_empty pool then Give_up
      else begin
        let j = Rng.int rng (Vec.length pool) in
        let v = Vec.get pool j in
        let lastv = Vec.get pool (Vec.length pool - 1) in
        Vec.set pool j lastv;
        ignore (Vec.pop pool);
        if Oracle.is_explored oracle v then pick () else Request_vertex v
      end
    in
    fun () ->
      sync oracle seen ingest;
      pick ()
  in
  {
    name = "s-rand";
    description = "strong model: explore a uniform unexplored discovered vertex";
    model = Oracle.Strong;
    prepare;
  }

let strong_random_walk =
  let prepare rng oracle =
    let pos = ref (Oracle.source oracle) in
    let moved = ref false in
    fun () ->
      (* One request per hop, revisits included — the node-visit cost
         model of Adamic et al. *)
      if !moved then begin
        (* The previous step strong-requested [pos], so each of its
           handles resolves to a discovered neighbour. *)
        let v = !pos in
        let d = Oracle.degree oracle v in
        if d > 0 then move oracle pos (Oracle.handle oracle v (Rng.int rng d))
      end;
      moved := true;
      Request_vertex !pos
  in
  {
    name = "s-rand-walk";
    description = "strong model: random walk paying one request per hop";
    model = Oracle.Strong;
    prepare;
  }

let strong_high_degree =
  strong_best_first ~name:"s-high-degree"
    ~description:"strong model: explore the highest-degree unexplored vertex"
    ~score:degree_score

let strong_min_label =
  strong_best_first ~name:"s-min-label"
    ~description:"strong model: explore the vertex with identity closest to the target"
    ~score:label_score

let epsilon_greedy ~epsilon =
  if epsilon < 0. || epsilon > 1. then invalid_arg "Strategies.epsilon_greedy: need epsilon in [0,1]";
  let greedy = best_first ~name:"" ~description:"" ~score:degree_score in
  let random = random_edge ~skip_known:true in
  let prepare rng oracle =
    let greedy_step = greedy.prepare (Rng.split rng) oracle in
    let random_step = random.prepare (Rng.split rng) oracle in
    fun () ->
      if Rng.bernoulli rng epsilon then
        match random_step () with Give_up -> greedy_step () | step -> step
      else
        match greedy_step () with Give_up -> random_step () | step -> step
  in
  {
    name = Printf.sprintf "eps-greedy-%.2f" epsilon;
    description = "high-degree greedy with an epsilon of uniform exploration";
    model = Oracle.Weak;
    prepare;
  }

let restart_walk ~restart =
  if restart < 0. || restart >= 1. then
    invalid_arg "Strategies.restart_walk: need restart in [0,1)";
  let prepare rng oracle =
    let pos = ref (Oracle.source oracle) in
    let last = ref (-1) in
    fun () ->
      move oracle pos !last;
      (* teleport home with the restart probability - the classic
         remedy for walks drifting into the periphery *)
      if Rng.bernoulli rng restart then pos := Oracle.source oracle;
      let d = Oracle.degree oracle !pos in
      if d = 0 then Give_up
      else begin
        let h = Oracle.handle oracle !pos (Rng.int rng d) in
        last := h;
        Request_edge (!pos, h)
      end
  in
  {
    name = Printf.sprintf "restart-walk-%.2f" restart;
    description = "random walk with teleport-to-source restarts";
    model = Oracle.Weak;
    prepare;
  }

let timestamp_cheat =
  let prepare _rng oracle =
    (* In a Móri tree with raw edge ids, edge id e is the out-edge of
       vertex e + 2, so the target's own edge has id (target - 2) and
       becomes *visible* in its father's handle list the moment the
       father is discovered - no request needed to see it.  Scan every
       newly discovered vertex for that id; fall back to high-degree
       exploration (fathers of late vertices are degree-biased, so
       hubs are the right place to look). *)
    let target_edge = Oracle.target oracle - 2 in
    let cur = Cursor.create () in
    let heap = Heap.create () in
    let seen = ref 0 in
    let jackpot = ref None in
    let ingest v =
      Heap.push heap ~priority:(degree_score oracle v) v;
      if !jackpot = None then
        for i = 0 to Oracle.degree oracle v - 1 do
          if Oracle.handle oracle v i = target_edge then jackpot := Some v
        done
    in
    let rec pick () =
      if Heap.length heap = 0 then Give_up
      else begin
        let v = Heap.top heap in
        let h = Cursor.next_handle cur oracle ~skip_known:true v in
        if h = Cursor.none then begin
          ignore (Heap.pop_max heap);
          pick ()
        end
        else begin
          Heap.requeue heap;
          Request_edge (v, h)
        end
      end
    in
    fun () ->
      sync oracle seen ingest;
      match !jackpot with
      | Some v when not (Oracle.handle_requested oracle target_edge) ->
        Request_edge (v, target_edge)
      | _ -> pick ()
  in
  {
    name = "timestamp-cheat";
    description =
      "exploits raw edge-id timestamps (only works on non-obfuscated oracles over trees)";
    model = Oracle.Weak;
    prepare;
  }

let weak_portfolio () =
  [
    bfs;
    dfs;
    random_edge ~skip_known:true;
    random_walk;
    high_degree;
    min_label_distance;
    oldest_label;
  ]

let strong_portfolio () =
  [ strong_seq; strong_random; strong_high_degree; strong_min_label; strong_random_walk ]
