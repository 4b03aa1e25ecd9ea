type entry = { index : int; path : string; file : Bench_file.t }

let load ~dir =
  List.fold_left
    (fun (entries, errors) (index, path) ->
      match Bench_file.read ~path with
      | Ok file -> ({ index; path; file } :: entries, errors)
      | Error msg -> (entries, msg :: errors))
    ([], [])
    (Bench_file.list_dir ~dir)
  |> fun (entries, errors) -> (List.rev entries, List.rev errors)

let names entries =
  List.concat_map (fun e -> Bench_file.names e.file) entries
  |> List.sort_uniq compare

let series entries name =
  List.filter_map
    (fun e ->
      Bench_file.find e.file name
      |> Option.map (fun (b : Bench_file.benchmark) ->
             (float_of_int e.index, Sf_stats.Quantile.median b.samples)))
    entries

let ramp = "_.-~=+*#%@"

let sparkline values =
  match values with
  | [] -> ""
  | vs ->
    let lo = List.fold_left Float.min Float.infinity vs in
    let hi = List.fold_left Float.max Float.neg_infinity vs in
    let levels = String.length ramp in
    String.concat ""
      (List.map
         (fun v ->
           if hi <= lo then "-"
           else begin
             let i = int_of_float ((v -. lo) /. (hi -. lo) *. float_of_int (levels - 1)) in
             String.make 1 ramp.[max 0 (min (levels - 1) i)]
           end)
         vs)

let trend_table entries =
  let rows =
    List.map
      (fun name ->
        let points = series entries name in
        let medians = List.map snd points in
        let first = List.hd medians in
        let last = List.nth medians (List.length medians - 1) in
        let change =
          if first > 0. then ((last /. first) -. 1.) *. 100. else 0.
        in
        let unit_label =
          List.find_map (fun e -> Bench_file.find e.file name) entries
          |> Option.fold ~none:"ns" ~some:(fun (b : Bench_file.benchmark) -> b.unit_label)
        in
        [
          name;
          string_of_int (List.length points);
          Compare.fmt_value ~unit_label first;
          Compare.fmt_value ~unit_label last;
          Printf.sprintf "%+.1f%%" change;
          sparkline medians;
        ])
      (names entries)
  in
  Sf_stats.Table.render
    ~aligns:
      [
        Sf_stats.Table.Left; Sf_stats.Table.Right; Sf_stats.Table.Right;
        Sf_stats.Table.Right; Sf_stats.Table.Right; Sf_stats.Table.Left;
      ]
    ~headers:[ "benchmark"; "runs"; "first"; "latest"; "change"; "trend" ]
    ~rows ()

let trend_plot ?(width = 72) ?(height = 24) ?only entries =
  let wanted =
    match only with
    | Some names -> names
    | None -> names entries
  in
  let glyphs = Sf_stats.Plot.default_glyphs in
  let series_list =
    List.mapi
      (fun i name ->
        {
          Sf_stats.Plot.label = name;
          glyph = glyphs.(i mod Array.length glyphs);
          points = series entries name;
        })
      wanted
  in
  Sf_stats.Plot.render ~width ~height ~y_log:true ~x_label:"bench file index"
    ~y_label:"median ns" series_list
