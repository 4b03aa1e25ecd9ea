module E = Sf_obs.Export

let obs_hit = Sf_obs.Registry.counter "cache.hit"
let obs_miss = Sf_obs.Registry.counter "cache.miss"
let obs_evict = Sf_obs.Registry.counter "cache.evict"
let obs_corrupt = Sf_obs.Registry.counter "cache.corrupt"

type entry = {
  fp : string;
  desc : string;
  gen : string;
  n : int;
  target : int;
  rng_after : string;
  bytes : int;
  seq : int;
}

type t = {
  root : string;
  objects : string;
  table : (string, entry) Hashtbl.t;
  mutable seq : int;
  mutable index_oc : out_channel option;
  lock : Mutex.t;
}

let dir t = t.root
let index_path t = Filename.concat t.root "index.jsonl"
let object_path t fp = Filename.concat t.objects (fp ^ ".sfg")

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ------------------------------------------------------------------ *)
(* Index lines                                                         *)
(* ------------------------------------------------------------------ *)

let entry_line e =
  Printf.sprintf
    "{\"fp\":%s,\"gen\":%s,\"desc\":%s,\"n\":%d,\"target\":%d,\"rng\":%s,\"bytes\":%d,\"seq\":%d}"
    (E.json_string e.fp) (E.json_string e.gen) (E.json_string e.desc) e.n e.target
    (E.json_string e.rng_after) e.bytes e.seq

let touch_line fp seq = Printf.sprintf "{\"touch\":%s,\"seq\":%d}" (E.json_string fp) seq

let hex_only s = s <> "" && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

(* Replay is deliberately tolerant: a line that does not parse or
   lacks a field is dropped — losing an index line only costs a
   regeneration, never a wrong answer. *)
let apply_line t line =
  match Sf_obs.Json.parse line with
  | Error _ -> ()
  | Ok j -> (
    let field conv name = Option.bind (Sf_obs.Json.member name j) conv in
    let str = field Sf_obs.Json.as_str and int = field Sf_obs.Json.as_int in
    match str "touch" with
    | Some fp -> (
      match (Hashtbl.find_opt t.table fp, int "seq") with
      | Some e, Some seq ->
        Hashtbl.replace t.table fp { e with seq };
        t.seq <- max t.seq seq
      | _ -> ())
    | None -> (
      match
        (str "fp", str "gen", str "desc", int "n", int "target", str "rng", int "bytes", int "seq")
      with
      | Some fp, Some gen, Some desc, Some n, Some target, Some rng_after, Some bytes, Some seq
        when hex_only fp && String.length rng_after = 64 && hex_only rng_after ->
        Hashtbl.replace t.table fp { fp; gen; desc; n; target; rng_after; bytes; seq };
        t.seq <- max t.seq seq
      | _ -> ()))

let mkdir_p path =
  if not (Sys.file_exists path) then (
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  if not (Sys.is_directory path) then raise (Sys_error (path ^ ": not a directory"))

let open_dir root =
  mkdir_p root;
  let objects = Filename.concat root "objects" in
  mkdir_p objects;
  let t =
    { root; objects; table = Hashtbl.create 64; seq = 0; index_oc = None; lock = Mutex.create () }
  in
  let index = index_path t in
  if Sys.file_exists index then begin
    let ic = open_in index in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try
          while true do
            apply_line t (input_line ic)
          done
        with End_of_file -> ())
  end;
  (* drop index entries whose object file vanished *)
  Hashtbl.iter
    (fun fp _ -> if not (Sys.file_exists (object_path t fp)) then Hashtbl.remove t.table fp)
    (Hashtbl.copy t.table);
  t.index_oc <- Some (open_out_gen [ Open_append; Open_creat ] 0o644 index);
  t

let append_line t line =
  match t.index_oc with
  | None -> raise (Sys_error "Cache: closed")
  | Some oc ->
    output_string oc (line ^ "\n");
    flush oc

(* ------------------------------------------------------------------ *)
(* Instrumentation helpers                                             *)
(* ------------------------------------------------------------------ *)

let trace_cache event (key : Fingerprint.key) fp =
  if Sf_obs.Trace.active () then
    Sf_obs.Trace.instant event
      ~args:
        [
          ("fp", Sf_obs.Trace.Str fp);
          ("coordinate", Sf_obs.Trace.Str (Fingerprint.describe key));
        ]

let count c = if Sf_obs.Registry.enabled () then Sf_obs.Counter.incr c

(* ------------------------------------------------------------------ *)
(* The protocol                                                        *)
(* ------------------------------------------------------------------ *)

let mem t key = with_lock t (fun () -> Hashtbl.mem t.table (Fingerprint.hex key))

let drop_entry t fp =
  (* caller holds the lock *)
  if Hashtbl.mem t.table fp then begin
    Hashtbl.remove t.table fp;
    (try Sys.remove (object_path t fp) with Sys_error _ -> ())
  end

let find t key =
  let fp = Fingerprint.hex key in
  let entry = with_lock t (fun () -> Hashtbl.find_opt t.table fp) in
  match entry with
  | None ->
    count obs_miss;
    trace_cache "cache.miss" key fp;
    None
  | Some e -> (
    match Codec.read_graph_file ~path:(object_path t fp) with
    | g ->
      count obs_hit;
      trace_cache "cache.hit" key fp;
      with_lock t (fun () ->
          t.seq <- t.seq + 1;
          let e = { e with seq = t.seq } in
          Hashtbl.replace t.table fp e;
          append_line t (touch_line fp t.seq));
      Some (g, e)
    | exception (Codec_error.Error _ | Sys_error _) ->
      (* missing, truncated or bit-rotted object: evict and report a
         miss so the caller regenerates *)
      count obs_corrupt;
      trace_cache "cache.corrupt" key fp;
      with_lock t (fun () -> drop_entry t fp);
      None)

(* The ugraph variants serve both container versions through one
   address space: objects keep the same <fp>.sfg name and the version
   byte in the file decides the read path, so gc, verify and the index
   never care which container an object uses. *)
let find_ugraph t key =
  let fp = Fingerprint.hex key in
  let entry = with_lock t (fun () -> Hashtbl.find_opt t.table fp) in
  match entry with
  | None ->
    count obs_miss;
    trace_cache "cache.miss" key fp;
    None
  | Some e -> (
    let path = object_path t fp in
    let load () =
      match Csr_codec.sniff_version path with
      | Some v when v = Csr_codec.version -> Csr_codec.map_ugraph_file ~path ()
      | _ -> Sf_graph.Ugraph.of_digraph (Codec.read_graph_file ~path)
    in
    match load () with
    | g ->
      count obs_hit;
      trace_cache "cache.hit" key fp;
      with_lock t (fun () ->
          t.seq <- t.seq + 1;
          let e = { e with seq = t.seq } in
          Hashtbl.replace t.table fp e;
          append_line t (touch_line fp t.seq));
      Some (g, e)
    | exception (Codec_error.Error _ | Sys_error _) ->
      count obs_corrupt;
      trace_cache "cache.corrupt" key fp;
      with_lock t (fun () -> drop_entry t fp);
      None)

let register t key ~target ~rng_after ~path =
  let fp = Fingerprint.hex key in
  let bytes = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
  with_lock t (fun () ->
      t.seq <- t.seq + 1;
      let e =
        {
          fp;
          desc = Fingerprint.describe key;
          gen = key.Fingerprint.gen;
          n = key.Fingerprint.n;
          target;
          rng_after;
          bytes;
          seq = t.seq;
        }
      in
      Hashtbl.replace t.table fp e;
      append_line t (entry_line e))

let add_ugraph t key ~graph ~target ~rng_after ~format =
  let path = object_path t (Fingerprint.hex key) in
  (match format with
  | `V1 -> Codec.write_graph_file (Codec.digraph_of_ugraph graph) ~path
  | `V2 -> Csr_codec.write_ugraph_file graph ~path);
  register t key ~target ~rng_after ~path

let add t key ~graph ~target ~rng_after =
  let fp = Fingerprint.hex key in
  let path = object_path t fp in
  Codec.write_graph_file graph ~path;
  let bytes = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
  with_lock t (fun () ->
      t.seq <- t.seq + 1;
      let e =
        {
          fp;
          desc = Fingerprint.describe key;
          gen = key.Fingerprint.gen;
          n = key.Fingerprint.n;
          target;
          rng_after;
          bytes;
          seq = t.seq;
        }
      in
      Hashtbl.replace t.table fp e;
      append_line t (entry_line e))

let entries t =
  with_lock t (fun () ->
      Hashtbl.fold (fun _ e acc -> e :: acc) t.table []
      |> List.sort (fun (a : entry) (b : entry) -> compare a.seq b.seq))

let total_bytes t =
  with_lock t (fun () -> Hashtbl.fold (fun _ e acc -> acc + e.bytes) t.table 0)

let rewrite_index t =
  (* caller holds the lock; compact the log to one line per entry *)
  (match t.index_oc with
  | Some oc ->
    close_out_noerr oc;
    t.index_oc <- None
  | None -> ());
  let sorted =
    Hashtbl.fold (fun _ e acc -> e :: acc) t.table []
    |> List.sort (fun (a : entry) (b : entry) -> compare a.seq b.seq)
  in
  let tmp = Printf.sprintf "%s.tmp.%d" (index_path t) (Unix.getpid ()) in
  let oc = open_out tmp in
  List.iter (fun e -> output_string oc (entry_line e ^ "\n")) sorted;
  close_out oc;
  Sys.rename tmp (index_path t);
  t.index_oc <- Some (open_out_gen [ Open_append; Open_creat ] 0o644 (index_path t))

let gc t ~budget_bytes =
  if budget_bytes < 0 then invalid_arg "Cache.gc: negative budget";
  with_lock t (fun () ->
      let sorted =
        Hashtbl.fold (fun _ e acc -> e :: acc) t.table []
        |> List.sort (fun (a : entry) (b : entry) -> compare a.seq b.seq)
      in
      let total = List.fold_left (fun acc e -> acc + e.bytes) 0 sorted in
      let evicted = ref [] in
      let remaining = ref total in
      List.iter
        (fun e ->
          if !remaining > budget_bytes then begin
            drop_entry t e.fp;
            count obs_evict;
            remaining := !remaining - e.bytes;
            evicted := e :: !evicted
          end)
        sorted;
      if !evicted <> [] then rewrite_index t;
      List.rev !evicted)

let verify t =
  entries t
  |> List.map (fun e ->
         (* the checksum is the integrity guarantee; no plausibility
            checks against the coordinate — e.g. config-giant stores
            its giant component, legitimately smaller than the
            requested n *)
         let path = object_path t e.fp in
         let status =
           match Csr_codec.sniff_version path with
           | Some v when v = Csr_codec.version -> (
             (* giant container: CRC plus the deep structural audit —
                the mmap read path skips the latter, so verify is
                where it runs *)
             match Csr_codec.map_ugraph_file ~path () with
             | u -> (
               match Sf_graph.Csr.validate (Sf_graph.Ugraph.csr u) with
               | Ok () -> Ok ()
               | Error msg -> Error msg)
             | exception Codec_error.Error err -> Error (Codec_error.to_string err)
             | exception Sys_error msg -> Error msg)
           | _ -> (
             match Codec.decode (In_channel.with_open_bin path In_channel.input_all) with
             | (_ : Sf_graph.Digraph.t) -> Ok ()
             | exception Codec_error.Error err -> Error (Codec_error.to_string err)
             | exception Sys_error msg -> Error msg)
         in
         (e, status))

let remove t fp =
  with_lock t (fun () ->
      let present = Hashtbl.mem t.table fp in
      if present then begin
        drop_entry t fp;
        rewrite_index t
      end;
      present)

let flush t =
  with_lock t (fun () -> match t.index_oc with Some oc -> flush oc | None -> ())

let close t =
  with_lock t (fun () ->
      match t.index_oc with
      | Some oc ->
        close_out_noerr oc;
        t.index_oc <- None
      | None -> ())
