module Rng = Sf_prng.Rng
module Query_sim = Sf_sim.Query_sim
module Network = Sf_sim.Network
module Table = Sf_stats.Table

type row = {
  name : string;
  hit_rate : float;
  mean_messages : float;
  mean_time : float;
}

let run_protocol ~rng net (name, protocol) ~trials =
  let n = Network.n_nodes net in
  let hits = ref 0 in
  let messages = Sf_stats.Summary.create () in
  let times = Sf_stats.Summary.create () in
  for trial = 1 to trials do
    let trial_rng = Rng.split_at rng trial in
    let source = 1 + Rng.int trial_rng n in
    let target = 1 + Rng.int trial_rng n in
    if source <> target then begin
      let res =
        Query_sim.query ~rng:trial_rng net protocol ~source
          ~holders:(Query_sim.single_target net target)
      in
      Sf_stats.Summary.add_int messages res.Query_sim.messages;
      if res.Query_sim.hit then begin
        incr hits;
        match res.Query_sim.hit_time with
        | Some t -> Sf_stats.Summary.add times t
        | None -> ()
      end
    end
  done;
  {
    name;
    hit_rate = float_of_int !hits /. float_of_int trials;
    mean_messages = Sf_stats.Summary.mean messages;
    mean_time = Sf_stats.Summary.mean times;
  }

let t19_protocol_tradeoff ~quick ~seed =
  let n = Exp.pick ~quick:3_000 ~full:20_000 quick in
  let trials = Exp.pick ~quick:10 ~full:30 quick in
  let master = Rng.of_seed seed in
  let g =
    Sf_gen.Config_model.searchable_power_law (Rng.split_at master 1900) ~n ~exponent:2.3 ()
  in
  let net = Network.create ~latency:(Network.Uniform (0.5, 1.5)) g in
  let n' = Network.n_nodes net in
  let walker_ttl = max 200 (n' / 8) in
  let protocols =
    [
      ("flood ttl=7", Query_sim.Flood { ttl = 7 });
      ("1 walker", Query_sim.K_walkers { k = 1; ttl = walker_ttl });
      ("16 walkers", Query_sim.K_walkers { k = 16; ttl = walker_ttl });
      ("64 walkers", Query_sim.K_walkers { k = 64; ttl = walker_ttl });
      ("percolation q=0.5 ttl=10", Query_sim.Percolation { q = 0.5; ttl = 10 });
    ]
  in
  let rows =
    List.mapi
      (fun i proto -> run_protocol ~rng:(Rng.split_at master (1910 + i)) net proto ~trials)
      protocols
  in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Exp.section
       (Printf.sprintf
          "T19: query dissemination as a distributed system (power-law overlay, %s peers)"
          (Sf_stats.Table.fmt_int_grouped n')));
  Buffer.add_string buf
    "Discrete-event simulation: per-message latency ~ Uniform(0.5, 1.5); the run\n\
     stops at the first delivery to the content holder.\n\n";
  Buffer.add_string buf
    (Table.render
       ~headers:[ "protocol"; "hit rate"; "mean messages"; "mean time to hit" ]
       ~rows:
         (List.map
            (fun r ->
              [
                r.name;
                Exp.fmt ~digits:2 r.hit_rate;
                Exp.fmt ~digits:0 r.mean_messages;
                Exp.fmt ~digits:1 r.mean_time;
              ])
            rows)
       ());
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Sf_stats.Plot.render ~x_log:true ~y_log:false ~x_label:"mean messages"
       ~y_label:"mean time to hit"
       (List.mapi
          (fun i r ->
            {
              Sf_stats.Plot.label = r.name;
              glyph = Sf_stats.Plot.default_glyphs.(i mod Array.length Sf_stats.Plot.default_glyphs);
              points = [ (Float.max 1. r.mean_messages, r.mean_time) ];
            })
          rows));
  let find name = List.find (fun r -> r.name = name) rows in
  let flood = find "flood ttl=7" in
  let walkers64 = find "64 walkers" in
  let walkers16 = find "16 walkers" in
  let checks =
    [
      ( Printf.sprintf "flooding reliable (hit rate %.2f >= 0.9)" flood.hit_rate,
        flood.hit_rate >= 0.9 );
      ( Printf.sprintf "64 walkers reliable (hit rate %.2f >= 0.8)" walkers64.hit_rate,
        walkers64.hit_rate >= 0.8 );
      ( Printf.sprintf "walkers cut traffic (%.0f < 0.7 x %.0f)" walkers64.mean_messages
          flood.mean_messages,
        walkers64.mean_messages < 0.7 *. flood.mean_messages );
      ( Printf.sprintf "flooding is faster (%.1f < %.1f)" flood.mean_time walkers64.mean_time,
        flood.mean_time < walkers64.mean_time );
      ( Printf.sprintf "more walkers, less waiting (%.1f < %.1f)" walkers64.mean_time
          walkers16.mean_time,
        walkers64.mean_time < walkers16.mean_time );
    ]
  in
  {
    Exp.id = "T19";
    title = "Flooding vs k-walkers vs percolation: the traffic/latency tradeoff";
    output = Buffer.contents buf;
    checks;
  }

(* ------------------------------------------------------------------ *)
(* T20: Cohen-Shenker square-root replication                          *)
(* ------------------------------------------------------------------ *)

let normalise weights =
  let total = Array.fold_left ( +. ) 0. weights in
  Array.map (fun w -> w /. total) weights

(* allocate [budget] replicas to items with the given weights, at
   least one each, largest remainders first *)
let allocate ~budget weights =
  let m = Array.length weights in
  let shares = normalise weights in
  let base = Array.map (fun s -> max 1 (int_of_float (s *. float_of_int budget))) shares in
  let used = Array.fold_left ( + ) 0 base in
  let leftover = max 0 (budget - used) in
  (* hand leftovers to the largest fractional parts *)
  let order = Array.init m Fun.id in
  Array.sort
    (fun i j ->
      compare
        (shares.(j) *. float_of_int budget -. Float.of_int base.(j))
        (shares.(i) *. float_of_int budget -. Float.of_int base.(i)))
    order;
  for i = 0 to leftover - 1 do
    let item = order.(i mod m) in
    base.(item) <- base.(item) + 1
  done;
  base

let place_replicas rng ~n ~count =
  let holders = Array.make n false in
  Array.iter
    (fun v -> holders.(v) <- true)
    (Sf_prng.Shuffle.sample_without_replacement rng ~k:(min count n) ~n);
  holders

let t20_sqrt_replication ~quick ~seed =
  let n = Exp.pick ~quick:3_000 ~full:20_000 quick in
  let queries = Exp.pick ~quick:40 ~full:150 quick in
  let m_items = 8 in
  let master = Rng.of_seed seed in
  let g =
    Sf_gen.Config_model.searchable_power_law (Rng.split_at master 2000) ~n ~exponent:2.3 ()
  in
  let net = Network.create g in
  let n' = Network.n_nodes net in
  (* steep popularity law so the square-root gain is visible *)
  let popularity = normalise (Array.init m_items (fun i -> 1. /. ((float_of_int (i + 1)) ** 2.))) in
  let budget = m_items * int_of_float (sqrt (float_of_int n')) in
  let policies =
    [
      ("uniform", Array.make m_items 1.);
      ("proportional", popularity);
      ("square-root", Array.map sqrt popularity);
    ]
  in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Exp.section
       (Printf.sprintf
          "T20: Cohen-Shenker replication - %d items, Zipf^2 popularity, %d replicas, %s peers"
          m_items budget
          (Sf_stats.Table.fmt_int_grouped n')));
  let results = Hashtbl.create 4 in
  let rows =
    List.mapi
      (fun pi (name, weights) ->
        let rng = Rng.split_at master (2010 + pi) in
        let counts = allocate ~budget weights in
        let popularity_sampler = Sf_prng.Discrete.Alias.create popularity in
        let costs = Sf_stats.Summary.create () in
        let misses = ref 0 in
        for q = 1 to queries do
          let qrng = Rng.split_at rng (100 + q) in
          let item = Sf_prng.Discrete.Alias.sample popularity_sampler qrng in
          (* fresh random placement per query: the comparison is over
             the placement ensemble, not one lucky draw (replica-set
             degree sums are heavy-tailed) *)
          let holders = place_replicas qrng ~n:n' ~count:counts.(item) in
          let source = 1 + Rng.int qrng n' in
          let res =
            Query_sim.query ~rng:qrng net
              (Query_sim.K_walkers { k = 1; ttl = 16 * n' })
              ~source ~holders
          in
          if res.Query_sim.hit then Sf_stats.Summary.add_int costs res.Query_sim.messages
          else incr misses
        done;
        Hashtbl.replace results name (Sf_stats.Summary.mean costs);
        [
          name;
          String.concat "," (Array.to_list (Array.map string_of_int counts));
          Exp.fmt ~digits:1 (Sf_stats.Summary.mean costs);
          Exp.fmt ~digits:1 (Sf_stats.Summary.ci95_halfwidth costs);
          string_of_int !misses;
        ])
      policies
  in
  Buffer.add_string buf
    (Table.render
       ~headers:[ "policy"; "replicas per item"; "mean walk cost"; "±95%"; "misses" ]
       ~rows ());
  let cost name = Hashtbl.find results name in
  (* theory: E[cost] ∝ Σ q_i / r_i; uniform and proportional tie at
     M/R (up to integer rounding), square-root wins by
     (Σ√q)²/M *)
  let sqrt_gain =
    let s = Array.fold_left (fun acc q -> acc +. sqrt q) 0. popularity in
    s *. s /. float_of_int m_items
  in
  Buffer.add_string buf
    (Printf.sprintf
       "\ntheory: uniform and proportional tie; square-root cuts the expected cost\n\
        by the factor (sum sqrt(q))^2 / M = %.2f.\n"
       sqrt_gain);
  let checks =
    ( Printf.sprintf "square-root beats uniform (%.0f < %.0f)" (cost "square-root")
        (cost "uniform"),
      cost "square-root" < cost "uniform" )
    ::
    (if quick then []
     else
       [
         ( Printf.sprintf "square-root beats proportional (%.0f < %.0f)" (cost "square-root")
             (cost "proportional"),
           cost "square-root" < cost "proportional" );
       ])
  in
  {
    Exp.id = "T20";
    title = "Square-root replication minimises random-walk search cost";
    output = Buffer.contents buf;
    checks;
  }

(* ------------------------------------------------------------------ *)
(* T22: churn                                                          *)
(* ------------------------------------------------------------------ *)

let t22_churn ~quick ~seed =
  let n = Exp.pick ~quick:3_000 ~full:15_000 quick in
  let trials = Exp.pick ~quick:15 ~full:40 quick in
  let master = Rng.of_seed seed in
  let g =
    Sf_gen.Config_model.searchable_power_law (Rng.split_at master 2200) ~n ~exponent:2.3 ()
  in
  let net = Network.create g in
  let n' = Network.n_nodes net in
  (* replicate the content modestly so queries are findable at all *)
  let replicas = max 8 (n' / 200) in
  let uptimes = Exp.pick ~quick:[ 1.0; 0.6 ] ~full:[ 1.0; 0.9; 0.75; 0.6; 0.45 ] quick in
  let protocols =
    [
      ("flood ttl=6", Query_sim.Flood { ttl = 6 });
      ("32 walkers", Query_sim.K_walkers { k = 32; ttl = n' / 8 });
      ("1 walker", Query_sim.K_walkers { k = 1; ttl = n' / 8 });
    ]
  in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Exp.section
       (Printf.sprintf
          "T22: lookups under churn (%s peers, %d replicas, mean downtime 10 latency units)"
          (Sf_stats.Table.fmt_int_grouped n')
          replicas));
  let hit_rates = Hashtbl.create 32 in
  let rows = ref [] in
  List.iteri
    (fun ui uptime ->
      List.iteri
        (fun pi (pname, protocol) ->
          let rng = Rng.split_at master (2210 + (ui * 10) + pi) in
          let hits = ref 0 in
          let dropped = Sf_stats.Summary.create () in
          for trial = 1 to trials do
            let trial_rng = Rng.split_at rng trial in
            let holders = place_replicas trial_rng ~n:n' ~count:replicas in
            let source = 1 + Rng.int trial_rng n' in
            let res =
              if uptime >= 1. then begin
                let r = Query_sim.query ~rng:trial_rng net protocol ~source ~holders in
                {
                  Sf_sim.Churn_sim.hit = r.Query_sim.hit;
                  hit_time = r.Query_sim.hit_time;
                  messages = r.Query_sim.messages;
                  dropped = r.Query_sim.dropped;
                  duration = r.Query_sim.duration;
                }
              end
              else begin
                let mean_down = 10. in
                let churn =
                  {
                    Sf_sim.Churn_sim.mean_up = uptime /. (1. -. uptime) *. mean_down;
                    mean_down;
                  }
                in
                Sf_sim.Churn_sim.query ~rng:trial_rng net churn protocol ~source ~holders
              end
            in
            if res.Sf_sim.Churn_sim.hit then incr hits;
            Sf_stats.Summary.add_int dropped res.Sf_sim.Churn_sim.dropped
          done;
          let rate = float_of_int !hits /. float_of_int trials in
          Hashtbl.replace hit_rates (pname, uptime) rate;
          rows :=
            [
              Exp.fmt ~digits:2 uptime;
              pname;
              Exp.fmt ~digits:2 rate;
              Exp.fmt ~digits:0 (Sf_stats.Summary.mean dropped);
            ]
            :: !rows)
        protocols)
    uptimes;
  Buffer.add_string buf
    (Table.render
       ~headers:[ "uptime"; "protocol"; "hit rate"; "mean dropped messages" ]
       ~rows:(List.rev !rows) ());
  let rate p u = try Hashtbl.find hit_rates (p, u) with Not_found -> nan in
  let low_uptime = List.nth uptimes (List.length uptimes - 1) in
  let checks =
    [
      ( "no churn: flooding always finds replicated content",
        rate "flood ttl=6" 1.0 >= 0.95 );
      ( Printf.sprintf "churn hurts the single walker (%.2f < %.2f)"
          (rate "1 walker" low_uptime) (rate "1 walker" 1.0),
        rate "1 walker" low_uptime < rate "1 walker" 1.0 );
      ( Printf.sprintf "redundancy buys robustness at uptime %.2f (flood %.2f >= 1-walker %.2f)"
          low_uptime
          (rate "flood ttl=6" low_uptime)
          (rate "1 walker" low_uptime),
        rate "flood ttl=6" low_uptime >= rate "1 walker" low_uptime );
      ( Printf.sprintf "many walkers beat one under churn (%.2f >= %.2f)"
          (rate "32 walkers" low_uptime) (rate "1 walker" low_uptime),
        rate "32 walkers" low_uptime >= rate "1 walker" low_uptime );
    ]
  in
  {
    Exp.id = "T22";
    title = "Churn: redundant dissemination survives, single walkers die";
    output = Buffer.contents buf;
    checks;
  }
