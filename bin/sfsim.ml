(* sfsim: run one query-dissemination simulation and print its cost
   profile.

   Examples:
     sfsim --protocol flood --ttl 7 -n 20000
     sfsim --protocol walkers -k 32 --ttl 4000 -n 20000 --trials 30
     sfsim --protocol percolation -q 0.5 --ttl 10 --latency exp:2.0 *)

open Cmdliner

let parse_latency s =
  match String.split_on_char ':' s with
  | [ "const"; c ] -> Sf_sim.Network.Constant (float_of_string c)
  | [ "uniform"; lo; hi ] -> Sf_sim.Network.Uniform (float_of_string lo, float_of_string hi)
  | [ "exp"; mean ] -> Sf_sim.Network.Exponential (float_of_string mean)
  | _ -> failwith "latency: const:C | uniform:LO:HI | exp:MEAN"

let run protocol_name n exponent ttl k q trials seed latency graph_file (obs : Obs_cli.t) =
  Obs_cli.with_session obs ~tool:"sfsim" ~seed ~mode:protocol_name @@ fun () ->
  let rng = Sf_prng.Rng.of_seed seed in
  let protocol =
    match protocol_name with
    | "flood" -> Sf_sim.Query_sim.Flood { ttl }
    | "walkers" -> Sf_sim.Query_sim.K_walkers { k; ttl }
    | "percolation" -> Sf_sim.Query_sim.Percolation { q; ttl }
    | other -> failwith ("unknown protocol: " ^ other ^ " (flood | walkers | percolation)")
  in
  let g, overlay_desc =
    match graph_file with
    | Some path ->
      (Obs_cli.load_graph path, Printf.sprintf "loaded from %s" path)
    | None ->
      ( Sf_gen.Config_model.searchable_power_law rng ~n ~exponent (),
        Printf.sprintf "power-law giant component, exponent %.2f" exponent )
  in
  let net = Sf_sim.Network.create ~latency:(parse_latency latency) g in
  let n' = Sf_sim.Network.n_nodes net in
  Printf.printf "overlay: %s peers (%s)\n" (Sf_stats.Table.fmt_int_grouped n') overlay_desc;
  let hits = ref 0 in
  let messages = Sf_stats.Summary.create () in
  let contacted = Sf_stats.Summary.create () in
  let times = Sf_stats.Summary.create () in
  let progress =
    if obs.Obs_cli.progress then
      Some (Sf_obs.Progress.create ~label:"queries" ~total:trials ())
    else None
  in
  for trial = 1 to trials do
    let trial_rng = Sf_prng.Rng.split_at rng trial in
    let source = 1 + Sf_prng.Rng.int trial_rng n' in
    let target = 1 + Sf_prng.Rng.int trial_rng n' in
    if source <> target then begin
      let res =
        Sf_sim.Query_sim.query ~rng:trial_rng net protocol ~source
          ~holders:(Sf_sim.Query_sim.single_target net target)
      in
      Sf_stats.Summary.add_int messages res.Sf_sim.Query_sim.messages;
      Sf_stats.Summary.add_int contacted res.Sf_sim.Query_sim.contacted;
      if res.Sf_sim.Query_sim.hit then begin
        incr hits;
        Option.iter (Sf_stats.Summary.add times) res.Sf_sim.Query_sim.hit_time
      end
    end;
    Option.iter
      (fun pr ->
        Sf_obs.Progress.step pr ~detail:(Printf.sprintf "%d hits" !hits))
      progress
  done;
  Option.iter Sf_obs.Progress.finish progress;
  Printf.printf "trials:          %d\n" trials;
  Printf.printf "hit rate:        %.2f\n" (float_of_int !hits /. float_of_int trials);
  Printf.printf "mean messages:   %.0f (max %.0f)\n" (Sf_stats.Summary.mean messages)
    (Sf_stats.Summary.max_value messages);
  Printf.printf "mean contacted:  %.0f peers (%.3f of the overlay)\n"
    (Sf_stats.Summary.mean contacted)
    (Sf_stats.Summary.mean contacted /. float_of_int n');
  if !hits > 0 then
    Printf.printf "mean hit time:   %.2f (min %.2f, max %.2f)\n" (Sf_stats.Summary.mean times)
      (Sf_stats.Summary.min_value times)
      (Sf_stats.Summary.max_value times);
  0

let protocol_arg =
  Arg.(value & opt string "flood" & info [ "protocol" ] ~doc:"flood | walkers | percolation")

let n_arg = Arg.(value & opt int 20_000 & info [ "n" ] ~doc:"Overlay size")
let exponent_arg = Arg.(value & opt float 2.3 & info [ "exponent" ] ~doc:"Degree exponent")
let ttl_arg = Arg.(value & opt int 7 & info [ "ttl" ] ~doc:"Hop budget per message/walker")
let k_arg = Arg.(value & opt int 16 & info [ "k" ] ~doc:"Number of walkers")
let q_arg = Arg.(value & opt float 0.5 & info [ "q" ] ~doc:"Percolation forwarding probability")
let trials_arg = Arg.(value & opt int 20 & info [ "trials" ] ~doc:"Independent queries")
let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed")
let latency_arg =
  Arg.(value & opt string "uniform:0.5:1.5" & info [ "latency" ] ~doc:"const:C | uniform:LO:HI | exp:MEAN")

let graph_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "graph" ]
        ~doc:
          "Use this graph file as the overlay (an SFGB v2 container, mapped, or a \
           text edge list) instead of generating a configuration model")

let cmd =
  let doc = "simulate P2P query dissemination protocols" in
  Cmd.v (Cmd.info "sfsim" ~doc)
    Term.(
      const run $ protocol_arg $ n_arg $ exponent_arg $ ttl_arg $ k_arg $ q_arg $ trials_arg
      $ seed_arg $ latency_arg $ graph_arg $ Obs_cli.term)

let () = exit (Cmd.eval' cmd)
