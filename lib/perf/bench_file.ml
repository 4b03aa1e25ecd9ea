module Json = Sf_obs.Json

let schema_id = "scalefree.bench/1"

type host = { hostname : string; os : string; word_size : int; ocaml : string }
type benchmark = { name : string; unit_label : string; samples : float array }

type t = {
  commit : string;
  date : string;
  host : host;
  jobs : int;
  seed : int;
  mode : string;
  benchmarks : benchmark list;
}

let current_host () =
  {
    hostname = Unix.gethostname ();
    os = Sys.os_type;
    word_size = Sys.word_size;
    ocaml = Sys.ocaml_version;
  }

(* --- rendering ----------------------------------------------------- *)

let jstr = Sf_obs.Export.json_string
let jnum = Sf_obs.Export.json_float

let to_json t =
  let b = Buffer.create 4096 in
  let add = Buffer.add_string b in
  add "{\n";
  add (Printf.sprintf {|  "schema": %s,|} (jstr schema_id));
  add "\n";
  add (Printf.sprintf {|  "commit": %s,|} (jstr t.commit));
  add "\n";
  add (Printf.sprintf {|  "date": %s,|} (jstr t.date));
  add "\n";
  add
    (Printf.sprintf
       {|  "host": {"hostname": %s, "os": %s, "word_size": %d, "ocaml": %s},|}
       (jstr t.host.hostname) (jstr t.host.os) t.host.word_size (jstr t.host.ocaml));
  add "\n";
  add (Printf.sprintf {|  "jobs": %d,|} t.jobs);
  add "\n";
  add (Printf.sprintf {|  "seed": %d,|} t.seed);
  add "\n";
  add (Printf.sprintf {|  "mode": %s,|} (jstr t.mode));
  add "\n";
  add "  \"benchmarks\": [\n";
  List.iteri
    (fun i bench ->
      if i > 0 then add ",\n";
      let samples =
        Array.to_list bench.samples |> List.map jnum |> String.concat ","
      in
      add
        (Printf.sprintf {|    {"name": %s, "unit": %s, "samples": [%s]}|}
           (jstr bench.name) (jstr bench.unit_label) samples))
    t.benchmarks;
  add "\n  ]\n}\n";
  Buffer.contents b

(* --- parsing and validation ---------------------------------------- *)

let field name json conv =
  match Option.bind (Json.member name json) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or mistyped field %S" name)

let ( let* ) = Result.bind

let benchmark_of_json seen i json =
  let ctx msg = Printf.sprintf "benchmarks[%d]: %s" i msg in
  let* name = Result.map_error ctx (field "name" json Json.as_str) in
  let* unit_label = Result.map_error ctx (field "unit" json Json.as_str) in
  let* raw = Result.map_error ctx (field "samples" json Json.as_arr) in
  if name = "" then Error (ctx "empty benchmark name")
  else if Hashtbl.mem seen name then
    Error (ctx (Printf.sprintf "duplicate benchmark name %S" name))
  else begin
    Hashtbl.add seen name ();
    if raw = [] then Error (ctx (Printf.sprintf "%S has no samples" name))
    else begin
      let* samples =
        List.fold_left
          (fun acc v ->
            let* acc = acc in
            match Json.as_num v with
            | Some f when Float.is_finite f && f >= 0. -> Ok (f :: acc)
            | Some _ | None ->
              Error (ctx (Printf.sprintf "%S has a non-finite or negative sample" name)))
          (Ok []) raw
      in
      Ok { name; unit_label; samples = Array.of_list (List.rev samples) }
    end
  end

let of_json src =
  let* json = Result.map_error (fun e -> "not valid JSON: " ^ e) (Json.parse src) in
  let* schema = field "schema" json Json.as_str in
  if schema <> schema_id then
    Error (Printf.sprintf "unsupported schema %S (this reader knows %S)" schema schema_id)
  else
    let* commit = field "commit" json Json.as_str in
    let* date = field "date" json Json.as_str in
    let* host_json =
      match Json.member "host" json with
      | Some h -> Ok h
      | None -> Error "missing or mistyped field \"host\""
    in
    let* hostname = field "hostname" host_json Json.as_str in
    let* os = field "os" host_json Json.as_str in
    let* word_size = field "word_size" host_json Json.as_int in
    let* ocaml = field "ocaml" host_json Json.as_str in
    let* jobs = field "jobs" json Json.as_int in
    let* seed = field "seed" json Json.as_int in
    let* mode = field "mode" json Json.as_str in
    let* bench_json = field "benchmarks" json Json.as_arr in
    if jobs < 1 then Error "jobs must be positive"
    else if mode = "" then Error "empty mode"
    else begin
      let seen = Hashtbl.create 64 in
      let* benchmarks =
        List.fold_left
          (fun acc (i, bj) ->
            let* acc = acc in
            let* bench = benchmark_of_json seen i bj in
            Ok (bench :: acc))
          (Ok [])
          (List.mapi (fun i bj -> (i, bj)) bench_json)
      in
      Ok
        {
          commit;
          date;
          host = { hostname; os; word_size; ocaml };
          jobs;
          seed;
          mode;
          benchmarks = List.rev benchmarks;
        }
    end

let write ~path t =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_json t))

let read ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | src -> Result.map_error (fun e -> Printf.sprintf "%s: %s" path e) (of_json src)
  | exception Sys_error msg -> Error msg

let find t name = List.find_opt (fun b -> b.name = name) t.benchmarks
let names t = List.map (fun b -> b.name) t.benchmarks

(* --- the history naming convention --------------------------------- *)

let filename i =
  if i < 1 then invalid_arg "Bench_file.filename: need a positive index";
  Printf.sprintf "BENCH_%04d.json" i

let index_of_filename base =
  let prefix = "BENCH_" and suffix = ".json" in
  let pn = String.length prefix and sn = String.length suffix in
  let n = String.length base in
  if n <= pn + sn
     || not (String.starts_with ~prefix base)
     || not (String.ends_with ~suffix base)
  then None
  else
    let digits = String.sub base pn (n - pn - sn) in
    if String.for_all (fun c -> c >= '0' && c <= '9') digits then
      match int_of_string_opt digits with Some i when i >= 1 -> Some i | _ -> None
    else None

let list_dir ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
    Array.to_list entries
    |> List.filter_map (fun base ->
           Option.map (fun i -> (i, Filename.concat dir base)) (index_of_filename base))
    |> List.sort compare

let next_index ~dir =
  match List.rev (list_dir ~dir) with [] -> 1 | (i, _) :: _ -> i + 1
