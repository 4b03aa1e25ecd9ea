(* sfcorpus: manage a content-addressed graph corpus cache
   (doc/STORAGE.md).

   Examples:
     sfcorpus build corpus/ --model mori -p 0.5 --sizes 200,400 --trials 30 --strategies 4
     sfcorpus ls corpus/
     sfcorpus verify corpus/
     sfcorpus gc corpus/ --budget 256M

   `build` pre-generates exactly the graphs a later measurement grid
   will request: the trial streams are derived with
   Sf_core.Searchability.trial_rng from the same master seed, so a
   subsequent `sfexp`/`bench` run over the same grid with
   --corpus DIR is all cache hits. *)

open Cmdliner

let dir_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc:"Corpus cache directory")

let open_cache dir =
  let cache = Sf_store.Cache.open_dir dir in
  Sf_store.Corpus.set_cache (Some cache);
  cache

let fmt_bytes b =
  if b >= 1 lsl 30 then Printf.sprintf "%.1f GiB" (float_of_int b /. float_of_int (1 lsl 30))
  else if b >= 1 lsl 20 then Printf.sprintf "%.1f MiB" (float_of_int b /. float_of_int (1 lsl 20))
  else if b >= 1 lsl 10 then Printf.sprintf "%.1f KiB" (float_of_int b /. float_of_int (1 lsl 10))
  else Printf.sprintf "%d B" b

(* ------------------------------------------------------------------ *)
(* build                                                               *)
(* ------------------------------------------------------------------ *)

let parse_sizes s =
  String.split_on_char ',' s |> List.map String.trim
  |> List.filter (( <> ) "")
  |> List.map (fun tok ->
         match int_of_string_opt tok with
         | Some v when v > 0 -> v
         | _ -> failwith ("bad size: " ^ tok))

let build dir model p m alpha exponent sizes trials strategies seed (obs : Obs_cli.t) =
  Obs_cli.with_session obs ~tool:"sfcorpus" ~seed ~mode:("build-" ^ model) @@ fun () ->
  let sizes = parse_sizes sizes in
  if sizes = [] then failwith "--sizes: need at least one size";
  if trials < 1 then failwith "--trials: need at least 1";
  if strategies < 1 then failwith "--strategies: need at least 1";
  let cache = open_cache dir in
  let before = List.length (Sf_store.Cache.entries cache) in
  let make =
    match Sf_core.Searchability.instance_of_model model ~p ~m ~alpha ~exponent with
    | Ok make -> make
    | Error msg -> failwith msg
  in
  let master = Sf_prng.Rng.of_seed seed in
  let total = List.length sizes * strategies * trials in
  let progress =
    if obs.Obs_cli.progress then
      Some (Sf_obs.Progress.create ~label:"instances" ~total ())
    else None
  in
  (* visit coordinates in exactly the grid order of
     Searchability.measure, so this loop touches every stream a later
     run will request — no more, no fewer *)
  List.iteri
    (fun size_idx n ->
      for strat_idx = 0 to strategies - 1 do
        for trial = 0 to trials - 1 do
          let rng = Sf_core.Searchability.trial_rng master ~size_idx ~strat_idx ~trial in
          ignore (make rng n);
          Option.iter
            (fun pr -> Sf_obs.Progress.step pr ~detail:(Printf.sprintf "n=%d" n))
            progress
        done
      done)
    sizes;
  Option.iter Sf_obs.Progress.finish progress;
  let after = List.length (Sf_store.Cache.entries cache) in
  Printf.printf "built %d instance(s) (%d new, %d already cached) in %s: %d entries, %s\n"
    total (after - before)
    (total - (after - before))
    dir after
    (fmt_bytes (Sf_store.Cache.total_bytes cache));
  0

(* ------------------------------------------------------------------ *)
(* ls / verify / gc                                                    *)
(* ------------------------------------------------------------------ *)

let ls dir =
  let cache = open_cache dir in
  let entries = Sf_store.Cache.entries cache in
  if entries = [] then Printf.printf "%s: empty corpus\n" dir
  else begin
    print_string
      (Sf_stats.Table.render
         ~aligns:
           [
             Sf_stats.Table.Left;
             Sf_stats.Table.Right;
             Sf_stats.Table.Right;
             Sf_stats.Table.Right;
             Sf_stats.Table.Left;
           ]
         ~headers:[ "fingerprint"; "n"; "bytes"; "seq"; "coordinate" ]
         ~rows:
           (List.map
              (fun (e : Sf_store.Cache.entry) ->
                [
                  String.sub e.Sf_store.Cache.fp 0 12;
                  string_of_int e.Sf_store.Cache.n;
                  string_of_int e.Sf_store.Cache.bytes;
                  string_of_int e.Sf_store.Cache.seq;
                  e.Sf_store.Cache.desc;
                ])
              entries)
         ());
    Printf.printf "%d entries, %s (least recently used first)\n" (List.length entries)
      (fmt_bytes (Sf_store.Cache.total_bytes cache))
  end;
  0

let verify dir =
  let cache = open_cache dir in
  let results = Sf_store.Cache.verify cache in
  let bad = ref 0 in
  List.iter
    (fun ((e : Sf_store.Cache.entry), status) ->
      match status with
      | Ok () -> Printf.printf "ok       %s  %s\n" (String.sub e.Sf_store.Cache.fp 0 12) e.Sf_store.Cache.desc
      | Error msg ->
        incr bad;
        Printf.printf "CORRUPT  %s  %s: %s\n" (String.sub e.Sf_store.Cache.fp 0 12)
          e.Sf_store.Cache.desc msg)
    results;
  Printf.printf "%d entries verified, %d corrupt\n" (List.length results) !bad;
  if !bad = 0 then 0 else 1

(* budgets read naturally as "256M"; accept bare bytes and K/M/G
   binary suffixes *)
let parse_budget s =
  let len = String.length s in
  if len = 0 then failwith "--budget: empty";
  let mult, digits =
    match s.[len - 1] with
    | 'k' | 'K' -> (1 lsl 10, String.sub s 0 (len - 1))
    | 'm' | 'M' -> (1 lsl 20, String.sub s 0 (len - 1))
    | 'g' | 'G' -> (1 lsl 30, String.sub s 0 (len - 1))
    | '0' .. '9' -> (1, s)
    | c -> failwith (Printf.sprintf "--budget: bad suffix '%c' (want K, M or G)" c)
  in
  match int_of_string_opt digits with
  | Some v when v >= 0 -> v * mult
  | _ -> failwith ("--budget: bad number: " ^ digits)

let gc dir budget =
  let cache = open_cache dir in
  let budget_bytes = parse_budget budget in
  let before = Sf_store.Cache.total_bytes cache in
  let evicted = Sf_store.Cache.gc cache ~budget_bytes in
  List.iter
    (fun (e : Sf_store.Cache.entry) ->
      Printf.printf "evicted  %s  %s (%s)\n" (String.sub e.Sf_store.Cache.fp 0 12)
        e.Sf_store.Cache.desc (fmt_bytes e.Sf_store.Cache.bytes))
    evicted;
  Printf.printf "%s -> %s (budget %s, %d evicted)\n" (fmt_bytes before)
    (fmt_bytes (Sf_store.Cache.total_bytes cache))
    (fmt_bytes budget_bytes) (List.length evicted);
  0

(* ------------------------------------------------------------------ *)
(* command line                                                        *)
(* ------------------------------------------------------------------ *)

let model_arg =
  Arg.(value & opt string "mori" & info [ "model" ] ~doc:"mori | cooper-frieze | config")

let p_arg = Arg.(value & opt float 0.5 & info [ "p" ] ~doc:"Mori parameter")
let m_arg = Arg.(value & opt int 1 & info [ "m" ] ~doc:"Mori merge factor")
let alpha_arg = Arg.(value & opt float 0.5 & info [ "alpha" ] ~doc:"Cooper-Frieze alpha")
let exponent_arg = Arg.(value & opt float 2.3 & info [ "exponent" ] ~doc:"Config-model exponent")

let sizes_arg =
  Arg.(
    value & opt string "1000"
    & info [ "sizes" ] ~docv:"N1,N2,..." ~doc:"Comma-separated problem sizes of the grid")

let trials_arg = Arg.(value & opt int 30 & info [ "trials" ] ~doc:"Trials per grid cell")

let strategies_arg =
  Arg.(
    value & opt int 1
    & info [ "strategies" ] ~docv:"K"
        ~doc:
          "Number of strategies the later grid will run: trial streams are derived per \
           (size, strategy, trial) cell, so the count must match for the warm run to hit")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Master seed of the later grid run")

let budget_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "budget" ] ~docv:"BYTES"
        ~doc:"Byte budget to evict down to; accepts K/M/G suffixes (binary)")

let build_cmd =
  Cmd.v
    (Cmd.info "build" ~doc:"pre-generate the graphs of a measurement grid into the corpus")
    Term.(
      const build $ dir_arg $ model_arg $ p_arg $ m_arg $ alpha_arg $ exponent_arg $ sizes_arg
      $ trials_arg $ strategies_arg $ seed_arg $ Obs_cli.term)

let ls_cmd = Cmd.v (Cmd.info "ls" ~doc:"list corpus entries, least recently used first") Term.(const ls $ dir_arg)

let verify_cmd =
  Cmd.v
    (Cmd.info "verify" ~doc:"decode every object against its checksum; nonzero exit on corruption")
    Term.(const verify $ dir_arg)

let gc_cmd =
  Cmd.v
    (Cmd.info "gc" ~doc:"evict least-recently-used entries down to a byte budget")
    Term.(const gc $ dir_arg $ budget_arg)

let cmd =
  let doc = "manage the content-addressed graph corpus cache" in
  Cmd.group (Cmd.info "sfcorpus" ~doc) [ build_cmd; ls_cmd; verify_cmd; gc_cmd ]

let () = exit (Cmd.eval' cmd)
