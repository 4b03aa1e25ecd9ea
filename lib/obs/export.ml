let buf_add = Buffer.add_string

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> buf_add b "\\\""
      | '\\' -> buf_add b "\\\\"
      | '\n' -> buf_add b "\\n"
      | '\r' -> buf_add b "\\r"
      | '\t' -> buf_add b "\\t"
      | c when Char.code c < 0x20 -> buf_add b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float f = if Float.is_finite f then Printf.sprintf "%.9g" f else "null"

let metric_json = function
  | Registry.Counter c -> Printf.sprintf {|{"kind":"counter","value":%d}|} (Counter.value c)
  | Registry.Timer t ->
    Printf.sprintf {|{"kind":"timer","count":%d,"total_s":%s,"mean_s":%s}|} (Timer.count t)
      (json_float (Timer.total_s t))
      (json_float (Timer.mean_s t))
  | Registry.Gauge g ->
    Printf.sprintf {|{"kind":"gauge","value":%s,"set":%b}|}
      (json_float (Registry.gauge_value g))
      (Registry.gauge_set g)
  | Registry.Histo h ->
    let buckets =
      Histo.buckets h
      |> List.map (fun (ub, n) -> Printf.sprintf "[%s,%d]" (json_float ub) n)
      |> String.concat ","
    in
    let q p = if Histo.count h = 0 then "null" else json_float (Histo.quantile h p) in
    Printf.sprintf
      {|{"kind":"histogram","count":%d,"sum":%s,"min":%s,"max":%s,"p50":%s,"p90":%s,"p95":%s,"p99":%s,"p999":%s,"buckets":[%s]}|}
      (Histo.count h)
      (json_float (Histo.sum h))
      (json_float (Histo.min_value h))
      (json_float (Histo.max_value h))
      (q 0.5) (q 0.9) (q 0.95) (q 0.99) (q 0.999) buckets

let metrics_json () =
  let b = Buffer.create 1024 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (name, m) ->
      if i > 0 then Buffer.add_char b ',';
      buf_add b (json_string name);
      Buffer.add_char b ':';
      buf_add b (metric_json m))
    (Registry.all ());
  Buffer.add_char b '}';
  Buffer.contents b

let metrics_csv () =
  let b = Buffer.create 1024 in
  buf_add b "name,kind,value,count,mean\n";
  List.iter
    (fun (name, m) ->
      let kind, value, count, mean =
        match m with
        | Registry.Counter c -> ("counter", string_of_int (Counter.value c), "", "")
        | Registry.Timer t ->
          ( "timer",
            Printf.sprintf "%.9f" (Timer.total_s t),
            string_of_int (Timer.count t),
            Printf.sprintf "%.9f" (Timer.mean_s t) )
        | Registry.Gauge g ->
          ("gauge", Printf.sprintf "%.9g" (Registry.gauge_value g), "", "")
        | Registry.Histo h ->
          ( "histogram",
            Printf.sprintf "%.9g" (Histo.sum h),
            string_of_int (Histo.count h),
            Printf.sprintf "%.9g" (Histo.mean h) )
      in
      buf_add b
        (Printf.sprintf "%s,%s,%s,%s,%s\n" (Sf_stats.Csv.escape_field name) kind value count
           mean))
    (Registry.all ());
  Buffer.contents b

let rec span_json s =
  Printf.sprintf {|{"name":%s,"seconds":%s,"children":[%s]}|}
    (json_string (Span.name s))
    (json_float (Span.duration_s s))
    (String.concat "," (List.map span_json (Span.children s)))

let spans_json () = "[" ^ String.concat "," (List.map span_json (Span.roots ())) ^ "]"

let manifest_json ?(extra = []) ~tool ~seed ~mode () =
  let b = Buffer.create 4096 in
  buf_add b "{\n";
  buf_add b (Printf.sprintf {|  "tool": %s,|} (json_string tool));
  buf_add b "\n";
  buf_add b (Printf.sprintf {|  "seed": %d,|} seed);
  buf_add b "\n";
  buf_add b (Printf.sprintf {|  "mode": %s,|} (json_string mode));
  buf_add b "\n";
  buf_add b (Printf.sprintf {|  "ocaml": %s,|} (json_string Sys.ocaml_version));
  buf_add b "\n";
  List.iter
    (fun (k, raw_json) -> buf_add b (Printf.sprintf "  %s: %s,\n" (json_string k) raw_json))
    extra;
  buf_add b (Printf.sprintf {|  "spans": %s,|} (spans_json ()));
  buf_add b "\n";
  buf_add b (Printf.sprintf {|  "metrics": %s|} (metrics_json ()));
  buf_add b "\n}\n";
  Buffer.contents b

let write_manifest ?extra ~tool ~seed ~mode ~path () =
  let doc = manifest_json ?extra ~tool ~seed ~mode () in
  if path = "-" then begin
    (* [--metrics -]: the manifest goes to stdout so a caller (sfbench,
       CI scripts) can capture it without a temp file *)
    print_string doc;
    flush stdout
  end
  else begin
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc doc)
  end

let write_manifest_checked ?extra ~tool ~seed ~mode ~path () =
  if not (Registry.enabled ()) then begin
    Printf.eprintf
      "%s: observability is disabled (--no-obs); not writing the run manifest to %s\n%!" tool
      path;
    `Skipped_disabled
  end
  else
    try
      write_manifest ?extra ~tool ~seed ~mode ~path ();
      `Written
    with Sys_error msg -> `Error msg
