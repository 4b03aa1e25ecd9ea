module Rng = Sf_prng.Rng
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

(* A handle is useless once paid for and, with [skip_known], once
   both its endpoints are known: requesting it can discover nothing.
   Either stays true for the rest of the query. *)
let useless ~skip_known oracle v h =
  Oracle.handle_requested oracle h || (skip_known && Oracle.far_endpoint oracle ~owner:v h <> 0)

(* The first index from [i] on of a useful handle of [v], or its
   degree when none is left. The handles skipped stay useless, so a
   walk may resume from the answer. *)
let rec skip oracle v i =
  if i < Oracle.degree oracle v && useless ~skip_known:true oracle v (Oracle.handle oracle v i)
  then skip oracle v (i + 1)
  else i

(* The next useful handle of frontier entry [k], whose index moves up
   to it, or -1 when the entry's vertex has none left. *)
let next_handle oracle f k =
  let v = Frontier.vertex f k in
  let i = skip oracle v (Frontier.index f k) in
  Frontier.set_index f k i;
  if i < Oracle.degree oracle v then Oracle.handle oracle v i else -1

let best_first ~name ~description ~score =
  let prepare _rng oracle =
    let heap = Oracle.frontier oracle in
    let seen = ref 0 in
    let ingest v = Frontier.push heap ~priority:(score oracle v) v in
    let rec pick () =
      if Frontier.length heap = 0 then Give_up
      else begin
        let v = Frontier.vertex heap 0 in
        let h = next_handle oracle heap 0 in
        if h < 0 then begin
          ignore (Frontier.pop_max heap);
          pick ()
        end
        else begin
          (* Keep the vertex live for its remaining handles. *)
          Frontier.requeue heap;
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
    let heap = Oracle.frontier oracle in
    let seen = ref 0 in
    let ingest v = Frontier.push heap ~priority:(score oracle v) v in
    let rec pick () =
      if Frontier.length heap = 0 then Give_up
      else begin
        let v = Frontier.pop_max heap in
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
    (* the front vertex's rank and its next handle index *)
    let front = ref 0 and next = ref 0 in
    let rec pick () =
      if !front >= Oracle.discovered_count oracle then Give_up
      else begin
        let v = Oracle.discovered_nth oracle !front in
        next := skip oracle v !next;
        if !next < Oracle.degree oracle v then Request_edge (v, Oracle.handle oracle v !next)
        else begin
          incr front;
          next := 0;
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
    let stack = Oracle.frontier oracle in
    let seen = ref 0 in
    let ingest v = Frontier.add stack v 0 in
    let rec pick () =
      let top = Frontier.length stack - 1 in
      if top < 0 then Give_up
      else begin
        let h = next_handle oracle stack top in
        if h >= 0 then Request_edge (Frontier.vertex stack top, h)
        else begin
          Frontier.drop_last stack;
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
    (* One entry per (vertex, handle index); uniform swap-remove
       sampling with lazy usefulness checks. *)
    let pool = Oracle.frontier oracle in
    let seen = ref 0 in
    let ingest v =
      for i = 0 to Oracle.degree oracle v - 1 do
        Frontier.add pool v i
      done
    in
    let rec pick () =
      if Frontier.length pool = 0 then Give_up
      else begin
        let j = Rng.int rng (Frontier.length pool) in
        let v = Frontier.vertex pool j and i = Frontier.index pool j in
        Frontier.take pool j;
        let h = Oracle.handle oracle v i in
        if useless ~skip_known oracle v h then pick () else Request_edge (v, h)
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
    let pool = Oracle.frontier oracle in
    let seen = ref 0 in
    let ingest v = Frontier.add pool v 0 in
    let rec pick () =
      if Frontier.length pool = 0 then Give_up
      else begin
        let j = Rng.int rng (Frontier.length pool) in
        let v = Frontier.vertex pool j in
        Frontier.take pool j;
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
  let prepare rng oracle =
    (* In a Móri tree with raw edge ids, edge id e is the out-edge of
       vertex e + 2, so the target's own edge has id (target - 2) and
       becomes *visible* in its father's handle list the moment the
       father is discovered - no request needed to see it.  Scan every
       newly discovered vertex for that id; fall back to high-degree
       exploration (fathers of late vertices are degree-biased, so
       hubs are the right place to look). *)
    let target_edge = Oracle.target oracle - 2 in
    let fallback = high_degree.prepare rng oracle in
    let seen = ref 0 in
    (* the vertex whose list shows the target's edge, 0 until seen *)
    let jackpot = ref 0 in
    let scan v =
      if !jackpot = 0 then
        for i = 0 to Oracle.degree oracle v - 1 do
          if Oracle.handle oracle v i = target_edge then jackpot := v
        done
    in
    fun () ->
      sync oracle seen scan;
      if !jackpot <> 0 && not (Oracle.handle_requested oracle target_edge) then
        Request_edge (!jackpot, target_edge)
      else fallback ()
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
