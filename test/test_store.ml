(* The storage battery for lib/store: container exactness, read
   strictness under mutilated input, cache protocol (hit / miss /
   evict / corrupt-fallback), and the corpus determinism contract —
   cold and warm measurement grids byte-identical at any job count
   (doc/STORAGE.md). *)

module Csr_codec = Sf_store.Csr_codec
module Codec_error = Sf_store.Codec_error
module Varint = Sf_store.Varint
module Crc32 = Sf_store.Crc32
module Cache = Sf_store.Cache
module Corpus = Sf_store.Corpus
module Fingerprint = Sf_store.Fingerprint
module Ugraph = Sf_graph.Ugraph
module Rng = Sf_prng.Rng
module Registry = Sf_obs.Registry
module Searchability = Sf_core.Searchability

(* the registry hands back the same instance cache.ml declared, so the
   tests can assert on the real counters *)
let c_hit = Registry.counter "cache.hit"
let c_miss = Registry.counter "cache.miss"
let c_evict = Registry.counter "cache.evict"
let c_corrupt = Registry.counter "cache.corrupt"

let temp_counter = ref 0

let with_temp_dir body =
  incr temp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sf-store-test-%d-%d" (Unix.getpid ()) !temp_counter)
  in
  Unix.mkdir dir 0o755;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> body dir)

let with_cache body =
  with_temp_dir (fun dir ->
      let cache = Cache.open_dir dir in
      Fun.protect ~finally:(fun () -> Cache.close cache) (fun () -> body dir cache))

(* exact equality: same vertex count and the same (src, dst) per edge
   id — stronger than isomorphism, since ids double as timestamps *)
let same_ugraph a b = Sf_graph.Csr.equal (Ugraph.csr a) (Ugraph.csr b)

let check_same_ugraph what a b =
  Alcotest.(check bool) (what ^ ": exact round trip") true (same_ugraph a b)

let ugraph = Ugraph.of_edges

let write_file path bytes = Out_channel.with_open_bin path (fun oc -> output_string oc bytes)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let object_path dir k = Filename.concat (Filename.concat dir "objects") (Fingerprint.hex k ^ ".sfg")

(* write to [dir]/g.sfg and map it back *)
let file_roundtrip dir u =
  let path = Filename.concat dir "g.sfg" in
  Csr_codec.write_ugraph_file u ~path;
  Csr_codec.map_ugraph_file ~path ()

(* A genuine SFGB version-1 object, as the retired varint codec wrote
   it for the path 1-2-3-4: header, n = 4, m = 3, out-degrees, one
   zigzag dst delta per edge, then the CRC *)
let v1_object =
  let buf = Buffer.create 16 in
  Buffer.add_string buf "SFGB\x01\x00\x04\x03\x01\x01\x01\x00\x02\x02\x02";
  Crc32.seal buf

let key ?(gen = "test") ?(params = []) ?(n = 10) ?(stream = String.make 64 '0') () =
  { Fingerprint.gen; params; n; stream }

(* ---------------------------------------------------------------- *)
(* Varint and CRC32                                                  *)
(* ---------------------------------------------------------------- *)

let test_varint_roundtrip () =
  let cases = [ 0; 1; 127; 128; 255; 16_383; 16_384; 1 lsl 40; max_int ] in
  List.iter
    (fun v ->
      let buf = Buffer.create 10 in
      Varint.write buf v;
      let s = Buffer.contents buf in
      let v', pos = Varint.read s ~pos:0 in
      Alcotest.(check int) (Printf.sprintf "varint %d" v) v v';
      Alcotest.(check int) "consumed all bytes" (String.length s) pos)
    cases;
  List.iter
    (fun v ->
      let buf = Buffer.create 10 in
      Varint.write_signed buf v;
      let v', _ = Varint.read_signed (Buffer.contents buf) ~pos:0 in
      Alcotest.(check int) (Printf.sprintf "signed varint %d" v) v v')
    (* zigzag needs one spare bit: the representable range is
       |v| <= 2^61 - 1, far beyond any vertex delta *)
    [ 0; -1; 1; -64; 64; -16_384; (1 lsl 60) - 1; -(1 lsl 60) ]

let test_varint_truncation () =
  let buf = Buffer.create 10 in
  Varint.write buf (1 lsl 40);
  let s = Buffer.contents buf in
  for len = 0 to String.length s - 1 do
    match Varint.read (String.sub s 0 len) ~pos:0 with
    | _ -> Alcotest.failf "varint accepted a %d-byte truncation" len
    | exception Codec_error.Error (Codec_error.Truncated _) -> ()
  done

let test_crc32_known_value () =
  (* the standard test vector for reflected CRC-32 (0xEDB88320) *)
  Alcotest.(check int32)
    "crc32 of '123456789'" 0xCBF43926l
    (Crc32.string "123456789")

(* ---------------------------------------------------------------- *)
(* The graph container (SFGB v2)                                     *)
(* ---------------------------------------------------------------- *)

let test_codec_small_graphs () =
  with_temp_dir (fun dir ->
      List.iter
        (fun (what, u) -> check_same_ugraph what u (file_roundtrip dir u))
        [
          ("empty", ugraph ~n:0 []);
          ("single vertex", ugraph ~n:1 []);
          ("loops and parallels", ugraph ~n:3 [ (1, 1); (1, 2); (1, 2); (3, 1); (2, 2) ]);
        ])

let test_codec_preserves_insertion_order () =
  (* edges out of source order: vertex 1 gains an edge after vertex 3
     already has one *)
  with_temp_dir (fun dir ->
      let u = file_roundtrip dir (ugraph ~n:3 [ (3, 1); (1, 2); (2, 3); (1, 3) ]) in
      Alcotest.(check (list (pair int int)))
        "edge ids double as timestamps"
        [ (3, 1); (1, 2); (2, 3); (1, 3) ]
        (List.init (Ugraph.n_edges u) (Ugraph.endpoints u));
      Alcotest.(check (array int)) "incidence in id order" [| 0; 1; 3 |] (Ugraph.incident u 1))

let random_model_graph rng =
  match Rng.int rng 3 with
  | 0 -> Sf_gen.Mori.graph rng ~p:0.6 ~m:(1 + Rng.int rng 3) ~n:(2 + Rng.int rng 60)
  | 1 ->
    Sf_gen.Cooper_frieze.generate_n_vertices rng Sf_gen.Cooper_frieze.default
      ~n:(2 + Rng.int rng 60)
  | _ ->
    let n = 2 + Rng.int rng 60 in
    Sf_gen.Erdos_renyi.gnm rng ~n ~m:(Rng.int rng (max 1 (n * (n - 1) / 4)))

let test_csr_codec_roundtrip () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "g.sfg" in
      let u = Sf_gen.Mori.graph (Rng.of_seed 61) ~p:0.6 ~m:2 ~n:300 in
      Csr_codec.write_ugraph_file u ~path;
      Alcotest.(check int)
        "file size is the documented arithmetic"
        (Csr_codec.file_bytes ~n:(Ugraph.n_vertices u) ~m:(Ugraph.n_edges u)
           ~inc_len:(Bigarray.Array1.dim (Ugraph.csr u).Sf_graph.Csr.inc))
        (Unix.stat path).Unix.st_size;
      let mapped = Csr_codec.map_ugraph_file ~path () in
      Alcotest.(check bool) "mapped graph identical" true (same_ugraph u mapped);
      (match Sf_graph.Csr.validate (Ugraph.csr mapped) with
      | Ok () -> ()
      | Error msg -> Alcotest.fail ("mapped CSR invalid: " ^ msg));
      let unverified = Csr_codec.map_ugraph_file ~verify:false ~path () in
      Alcotest.(check bool) "verify:false agrees" true (same_ugraph u unverified);
      (* a mapped graph must drive searches exactly like the original *)
      let search g =
        Sf_search.Runner.search ~budget:600 ~rng:(Rng.of_seed 62) g
          Sf_search.Strategies.high_degree ~source:1 ~target:(Ugraph.n_vertices g)
      in
      Alcotest.(check bool) "search replay identical" true (search u = search mapped))

let qcheck_csr_codec_roundtrip =
  QCheck.Test.make ~count:40 ~name:"giant container round-trips model graphs exactly"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let u = random_model_graph (Rng.of_seed seed) in
      with_temp_dir (fun dir ->
          let u' = file_roundtrip dir u in
          (* structural equality plus a search replay: the mapped graph
             must drive a search to the same outcome from the same
             stream *)
          let search g =
            let n = Ugraph.n_vertices g in
            Sf_search.Runner.search ~budget:(4 * n) ~rng:(Rng.of_seed (seed + 1)) g
              Sf_search.Strategies.high_degree ~source:1 ~target:n
          in
          same_ugraph u u' && search u = search u'))

(* both branches of the [--graph] loader reproduce model graphs: the
   mapped container and the text edge list *)
let qcheck_ugraph_roundtrip =
  QCheck.Test.make ~count:40 ~name:"ugraph codec round trip is exact"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let u = random_model_graph (Rng.of_seed seed) in
      with_temp_dir (fun dir ->
          let sfg = Filename.concat dir "g.sfg" and txt = Filename.concat dir "g.edges" in
          Csr_codec.write_ugraph_file u ~path:sfg;
          Sf_graph.Gio.write_edge_list u ~path:txt;
          same_ugraph u (Csr_codec.load_ugraph ~path:sfg ())
          && same_ugraph u (Csr_codec.load_ugraph ~path:txt ())))

let expect_csr_codec_error what thunk =
  match thunk () with
  | (_ : Ugraph.t) -> Alcotest.failf "%s: map accepted malformed input" what
  | exception Codec_error.Error _ -> ()

let expect_unsupported_version what v thunk =
  match thunk () with
  | (_ : Ugraph.t) -> Alcotest.failf "%s: accepted a version-%d file" what v
  | exception Codec_error.Error (Codec_error.Unsupported_version v') ->
    Alcotest.(check int) (what ^ ": reported version") v v'

let test_decode_rejects_basics () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "g.sfg" and bad = Filename.concat dir "bad.sfg" in
      Csr_codec.write_ugraph_file (ugraph ~n:4 [ (1, 2); (2, 3); (3, 4) ]) ~path;
      let good = read_file path in
      let map () = Csr_codec.map_ugraph_file ~path:bad () in
      write_file bad "";
      expect_csr_codec_error "empty" map;
      write_file bad ("NOPE" ^ String.sub good 4 (String.length good - 4));
      expect_csr_codec_error "bad magic" map;
      List.iter
        (fun v ->
          let bumped = Bytes.of_string good in
          Bytes.set bumped 4 (Char.chr v);
          write_file bad (Bytes.to_string bumped);
          expect_unsupported_version "bumped version byte" v map)
        [ 1; 0x7f ];
      write_file bad v1_object;
      expect_unsupported_version "version-1 object" 1 map;
      write_file bad (good ^ "\x00");
      expect_csr_codec_error "trailing garbage" map)

let test_csr_codec_rejects_truncations () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "g.sfg" and cut = Filename.concat dir "cut.sfg" in
      Csr_codec.write_ugraph_file (ugraph ~n:5 [ (1, 2); (1, 3); (2, 4); (4, 5) ]) ~path;
      let good = read_file path in
      for len = 0 to String.length good - 1 do
        write_file cut (String.sub good 0 len);
        expect_csr_codec_error
          (Printf.sprintf "truncation to %d bytes" len)
          (fun () -> Csr_codec.map_ugraph_file ~path:cut ())
      done)

let test_csr_codec_rejects_bit_flips () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "g.sfg" and bad = Filename.concat dir "bad.sfg" in
      Csr_codec.write_ugraph_file (Sf_gen.Mori.graph (Rng.of_seed 63) ~p:0.5 ~m:1 ~n:40) ~path;
      let good = read_file path in
      let rng = Rng.of_seed 64 in
      String.iteri
        (fun i _ ->
          let mutated = Bytes.of_string good in
          Bytes.set mutated i (Char.chr (Char.code (Bytes.get mutated i) lxor (1 lsl Rng.int rng 8)));
          write_file bad (Bytes.to_string mutated);
          expect_csr_codec_error
            (Printf.sprintf "bit flip at byte %d" i)
            (fun () -> Csr_codec.map_ugraph_file ~path:bad ()))
        good)

(* The [--graph] loader must refuse every mutilated container: a
   damaged header either fails the version check or, once the magic is
   gone, the edge-list parse — it never yields a graph *)
let expect_load_rejects what path =
  match Csr_codec.load_ugraph ~path () with
  | (_ : Ugraph.t) -> Alcotest.failf "%s: the loader accepted malformed input" what
  | exception (Codec_error.Error _ | Failure _) -> ()

let test_decode_rejects_truncations () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "g.sfg" and cut = Filename.concat dir "cut.sfg" in
      Csr_codec.write_ugraph_file (ugraph ~n:5 [ (1, 2); (1, 3); (2, 4); (4, 5); (5, 1) ]) ~path;
      let good = read_file path in
      for len = 0 to String.length good - 1 do
        write_file cut (String.sub good 0 len);
        expect_load_rejects (Printf.sprintf "truncation to %d bytes" len) cut
      done)

let test_decode_rejects_bit_flips () =
  with_temp_dir (fun dir ->
      let rng = Rng.of_seed 99 in
      let path = Filename.concat dir "g.sfg" and bad = Filename.concat dir "bad.sfg" in
      Csr_codec.write_ugraph_file (Sf_gen.Mori.graph rng ~p:0.5 ~m:2 ~n:40) ~path;
      let good = read_file path in
      String.iteri
        (fun i _ ->
          let mutated = Bytes.of_string good in
          Bytes.set mutated i (Char.chr (Char.code (Bytes.get mutated i) lxor (1 lsl Rng.int rng 8)));
          write_file bad (Bytes.to_string mutated);
          expect_load_rejects (Printf.sprintf "bit flip at byte %d" i) bad)
        good)

let test_load_ugraph_dispatch () =
  with_temp_dir (fun dir ->
      let u = Ugraph.of_edges ~n:3 [ (1, 2); (2, 3) ] in
      let v1 = Filename.concat dir "v1.sfg"
      and v2 = Filename.concat dir "v2.sfg"
      and txt = Filename.concat dir "g.edges"
      and broken = Filename.concat dir "broken.edges" in
      write_file v1 v1_object;
      Csr_codec.write_ugraph_file u ~path:v2;
      Sf_graph.Gio.write_edge_list u ~path:txt;
      write_file broken "3 2\n1 2\n";
      Alcotest.(check (option int)) "v1 sniffs 1" (Some 1) (Csr_codec.sniff_version v1);
      Alcotest.(check (option int)) "v2 sniffs 2" (Some 2) (Csr_codec.sniff_version v2);
      Alcotest.(check (option int)) "text sniffs none" None (Csr_codec.sniff_version txt);
      List.iter
        (fun (what, path) ->
          Alcotest.(check bool) (what ^ " loads identically") true
            (same_ugraph u (Csr_codec.load_ugraph ~path ())))
        [ ("v2", v2); ("edge list", txt) ];
      (* a retired container is refused by version, not parsed as text *)
      expect_unsupported_version "v1 through the loader" 1 (fun () ->
          Csr_codec.load_ugraph ~path:v1 ());
      (* edge-list errors name the file *)
      match Csr_codec.load_ugraph ~path:broken () with
      | _ -> Alcotest.fail "a short edge list loaded"
      | exception Failure msg ->
        Alcotest.(check bool) "error names the file" true
          (String.starts_with ~prefix:broken msg))

(* ---------------------------------------------------------------- *)
(* Fingerprints                                                      *)
(* ---------------------------------------------------------------- *)

let test_fingerprint_distinct_coordinates () =
  let base = key () in
  let hexes =
    List.map Fingerprint.hex
      [
        base;
        { base with Fingerprint.gen = "other" };
        { base with Fingerprint.params = [ ("p", "0.5") ] };
        { base with Fingerprint.n = 11 };
        { base with Fingerprint.stream = String.make 64 '1' };
      ]
  in
  List.iter
    (fun h -> Alcotest.(check int) "32 hex digits" 32 (String.length h))
    hexes;
  Alcotest.(check int) "all coordinates distinct" (List.length hexes)
    (List.length (List.sort_uniq compare hexes))

let test_rng_token_roundtrip () =
  let rng = Rng.of_seed 5 in
  for _ = 1 to 10 do
    ignore (Rng.int rng 1000)
  done;
  let token = Fingerprint.rng_token rng in
  let expected = List.init 8 (fun _ -> Rng.int rng 1_000_000) in
  Fingerprint.restore rng token;
  let replayed = List.init 8 (fun _ -> Rng.int rng 1_000_000) in
  Alcotest.(check (list int)) "restore replays the stream" expected replayed;
  Alcotest.check_raises "malformed token rejected"
    (Invalid_argument "Fingerprint.restore: malformed rng token") (fun () ->
      Fingerprint.restore rng "zz")

(* ---------------------------------------------------------------- *)
(* Cache protocol                                                    *)
(* ---------------------------------------------------------------- *)

let test_cache_miss_then_hit () =
  with_cache (fun _dir cache ->
      let k = key ~n:4 () in
      let g = ugraph ~n:4 [ (1, 2); (2, 3); (3, 4) ] in
      let misses0 = Sf_obs.Counter.value c_miss and hits0 = Sf_obs.Counter.value c_hit in
      Alcotest.(check bool) "cold lookup misses" true (Cache.find cache k = None);
      Alcotest.(check int) "cache.miss ticked" (misses0 + 1) (Sf_obs.Counter.value c_miss);
      Cache.add cache k ~graph:g ~target:4 ~rng_after:(String.make 64 'a');
      (match Cache.find cache k with
      | None -> Alcotest.fail "warm lookup missed"
      | Some (g', e) ->
        check_same_ugraph "cached graph" g g';
        Alcotest.(check int) "target" 4 e.Cache.target;
        Alcotest.(check string) "rng token" (String.make 64 'a') e.Cache.rng_after);
      Alcotest.(check int) "cache.hit ticked" (hits0 + 1) (Sf_obs.Counter.value c_hit);
      Alcotest.(check bool) "mem" true (Cache.mem cache k))

let test_cache_persists_across_reopen () =
  with_temp_dir (fun dir ->
      let k = key ~n:3 () in
      let g = ugraph ~n:3 [ (1, 2); (1, 3) ] in
      let cache = Cache.open_dir dir in
      Cache.add cache k ~graph:g ~target:3 ~rng_after:(String.make 64 'b');
      Cache.close cache;
      let cache = Cache.open_dir dir in
      Fun.protect
        ~finally:(fun () -> Cache.close cache)
        (fun () ->
          match Cache.find cache k with
          | None -> Alcotest.fail "entry lost across reopen"
          | Some (g', _) -> check_same_ugraph "reloaded graph" g g'))

let test_cache_lru_eviction () =
  with_cache (fun _dir cache ->
      let graph i = ugraph ~n:(i + 2) [ (1, 2); (2, i + 2) ] in
      let keys = List.init 4 (fun i -> key ~n:(i + 2) ~params:[ ("i", string_of_int i) ] ()) in
      List.iteri
        (fun i k -> Cache.add cache k ~graph:(graph i) ~target:1 ~rng_after:(String.make 64 'c'))
        keys;
      (* touch entry 0: it becomes most recently used and must survive
         an eviction that removes two entries *)
      ignore (Cache.find cache (List.nth keys 0));
      let bytes_of k =
        (List.find (fun (e : Cache.entry) -> e.Cache.fp = Fingerprint.hex k) (Cache.entries cache))
          .Cache.bytes
      in
      let keep = bytes_of (List.nth keys 0) + bytes_of (List.nth keys 3) in
      let evict0 = Sf_obs.Counter.value c_evict in
      let evicted = Cache.gc cache ~budget_bytes:keep in
      Alcotest.(check int) "two evicted" 2 (List.length evicted);
      Alcotest.(check int) "cache.evict ticked twice" (evict0 + 2) (Sf_obs.Counter.value c_evict);
      Alcotest.(check (list string))
        "LRU order: the untouched oldest entries go first"
        [ Fingerprint.hex (List.nth keys 1); Fingerprint.hex (List.nth keys 2) ]
        (List.map (fun (e : Cache.entry) -> e.Cache.fp) evicted);
      Alcotest.(check bool) "touched entry survived" true (Cache.mem cache (List.nth keys 0));
      Alcotest.(check bool) "gc is idempotent" true (Cache.gc cache ~budget_bytes:keep = []))

let test_cache_corrupt_fallback () =
  with_cache (fun dir cache ->
      let k = key ~n:5 () in
      let g = ugraph ~n:5 [ (1, 2); (2, 3); (3, 4); (4, 5) ] in
      Cache.add cache k ~graph:g ~target:5 ~rng_after:(String.make 64 'd');
      (* flip one payload byte on disk: the checksum must catch it *)
      let path = object_path dir k in
      let bytes = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
      Bytes.set bytes 7 (Char.chr (Char.code (Bytes.get bytes 7) lxor 0x10));
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc bytes);
      let corrupt0 = Sf_obs.Counter.value c_corrupt in
      Alcotest.(check bool) "corrupt entry reads as a miss" true (Cache.find cache k = None);
      Alcotest.(check int) "cache.corrupt ticked" (corrupt0 + 1) (Sf_obs.Counter.value c_corrupt);
      Alcotest.(check bool) "entry evicted" false (Cache.mem cache k);
      Alcotest.(check bool) "object file removed" false (Sys.file_exists path);
      (* the protocol recovers: re-add and hit *)
      Cache.add cache k ~graph:g ~target:5 ~rng_after:(String.make 64 'd');
      Alcotest.(check bool) "regenerated entry hits" true (Cache.find cache k <> None))

let test_cache_verify_reports_corruption () =
  with_cache (fun dir cache ->
      let k1 = key ~n:2 ~params:[ ("i", "1") ] () and k2 = key ~n:2 ~params:[ ("i", "2") ] () in
      let g = ugraph ~n:2 [ (1, 2) ] in
      Cache.add cache k1 ~graph:g ~target:1 ~rng_after:(String.make 64 'e');
      Cache.add cache k2 ~graph:g ~target:1 ~rng_after:(String.make 64 'e');
      write_file (object_path dir k2) "SFGB";
      let bad =
        Cache.verify cache
        |> List.filter (fun ((_ : Cache.entry), status) -> Result.is_error status)
      in
      Alcotest.(check int) "exactly the truncated object fails" 1 (List.length bad);
      Alcotest.(check string) "the right entry" (Fingerprint.hex k2)
        (fst (List.hd bad)).Cache.fp)

let test_cache_tolerates_index_garbage () =
  with_temp_dir (fun dir ->
      let k = key ~n:3 () in
      let g = ugraph ~n:3 [ (1, 2); (2, 3) ] in
      let cache = Cache.open_dir dir in
      Cache.add cache k ~graph:g ~target:3 ~rng_after:(String.make 64 'f');
      Cache.close cache;
      let index = Filename.concat dir "index.jsonl" in
      let oc = open_out_gen [ Open_append ] 0o644 index in
      output_string oc "not json at all\n{\"fp\":\"zz\",\"seq\":1}\n";
      close_out oc;
      let cache = Cache.open_dir dir in
      Fun.protect
        ~finally:(fun () -> Cache.close cache)
        (fun () ->
          Alcotest.(check int) "only the valid entry survives replay" 1
            (List.length (Cache.entries cache));
          Alcotest.(check bool) "and still hits" true (Cache.find cache k <> None)))

(* index lines round-trip through the JSON writer and reader: a
   description holding a tab, a quote, a backslash and a control byte
   (written as a unicode escape) replays to the same entry *)
let test_cache_index_replays_escapes () =
  with_temp_dir (fun dir ->
      let k = key ~n:3 ~params:[ ("label", "tab\there \"quoted\" back\\slash \001") ] () in
      let cache = Cache.open_dir dir in
      Cache.add cache k ~graph:(ugraph ~n:3 [ (1, 2) ]) ~target:2
        ~rng_after:(String.make 64 'a');
      let before = Cache.entries cache in
      Cache.close cache;
      let cache = Cache.open_dir dir in
      Fun.protect
        ~finally:(fun () -> Cache.close cache)
        (fun () ->
          Alcotest.(check string) "description keeps its escapes" (Fingerprint.describe k)
            (List.hd (Cache.entries cache)).Cache.desc;
          Alcotest.(check bool) "every entry field replays" true (Cache.entries cache = before)))

(* the cache's view of both SFGB versions: a v2 object hits and
   verifies; an object the retired v1 codec wrote is a counted corrupt
   miss, and verify names its version *)
let test_cache_both_containers () =
  with_cache (fun dir cache ->
      let u = Sf_gen.Mori.graph (Rng.of_seed 71) ~p:0.6 ~m:2 ~n:80 in
      let k2 = key ~n:80 () and k1 = key ~n:81 () in
      Cache.add cache k2 ~graph:u ~target:5 ~rng_after:(String.make 64 'a');
      Cache.add cache k1 ~graph:u ~target:5 ~rng_after:(String.make 64 'a');
      write_file (object_path dir k1) v1_object;
      let status =
        List.map (fun ((e : Cache.entry), st) -> (e.Cache.fp, st)) (Cache.verify cache)
      in
      Alcotest.(check bool) "v2 object verifies" true
        (List.assoc (Fingerprint.hex k2) status = Ok ());
      Alcotest.(check bool) "verify names the v1 version" true
        (List.assoc (Fingerprint.hex k1) status = Error "unsupported format version 1");
      (match Cache.find cache k2 with
      | None -> Alcotest.fail "v2 object missed"
      | Some (u', e) ->
        Alcotest.(check bool) "v2: identical graph" true (same_ugraph u u');
        Alcotest.(check int) "v2: target kept" 5 e.Cache.target);
      let corrupt0 = Sf_obs.Counter.value c_corrupt in
      Alcotest.(check bool) "v1 object reads as a miss" true (Cache.find cache k1 = None);
      Alcotest.(check int) "cache.corrupt ticked" (corrupt0 + 1) (Sf_obs.Counter.value c_corrupt);
      Alcotest.(check bool) "v1 entry evicted" false (Cache.mem cache k1))

(* ---------------------------------------------------------------- *)
(* The corpus determinism contract                                   *)
(* ---------------------------------------------------------------- *)

let with_corpus cache body =
  Corpus.set_cache (Some cache);
  Fun.protect ~finally:(fun () -> Corpus.set_cache None) body

(* a counting maker: cold runs generate, warm runs must not *)
let counted_maker calls rng n =
  Corpus.instance ~gen:"count-test" ~params:[]
    (fun rng n ->
      incr calls;
      (Sf_gen.Mori.graph rng ~p:0.6 ~m:1 ~n, n))
    rng n

let test_corpus_identity_when_unset () =
  Corpus.set_cache None;
  let calls = ref 0 in
  let a = counted_maker calls (Rng.of_seed 11) 30 in
  let b = counted_maker calls (Rng.of_seed 11) 30 in
  Alcotest.(check int) "maker runs every time" 2 !calls;
  Alcotest.(check bool) "and deterministically" true (a = b)

let test_corpus_hit_skips_generation_and_restores_stream () =
  with_cache (fun _dir cache ->
      with_corpus cache (fun () ->
          let calls = ref 0 in
          let run () =
            let rng = Rng.of_seed 21 in
            let u, target = counted_maker calls rng 40 in
            (* draws after the maker must see the post-generation
               stream on both paths *)
            (Ugraph.n_edges u, target, List.init 4 (fun _ -> Rng.int rng 1_000_000))
          in
          let cold = run () in
          Alcotest.(check int) "cold run generated" 1 !calls;
          let warm = run () in
          Alcotest.(check int) "warm run did not generate" 1 !calls;
          Alcotest.(check bool) "identical graph, target and stream" true (cold = warm)))

let test_corpus_v1_object_regenerated () =
  (* a corpus object left by the retired v1 codec takes the corrupt
     path: regenerated, re-stored as v2, and the run is the cold run *)
  with_cache (fun dir cache ->
      with_corpus cache (fun () ->
          let calls = ref 0 in
          let run () =
            let rng = Rng.of_seed 81 in
            let u, target = counted_maker calls rng 60 in
            (u, target, Rng.int rng 1_000_000)
          in
          let same (u, t, r) (u', t', r') = same_ugraph u u' && t = t' && r = r' in
          let cold = run () in
          Alcotest.(check int) "cold generated" 1 !calls;
          let path =
            match Sys.readdir (Filename.concat dir "objects") with
            | [| name |] -> Filename.concat (Filename.concat dir "objects") name
            | _ -> Alcotest.fail "expected exactly one object"
          in
          Alcotest.(check (option int)) "stored as v2" (Some 2) (Csr_codec.sniff_version path);
          write_file path v1_object;
          expect_unsupported_version "load_ugraph on the v1 object" 1 (fun () ->
              Csr_codec.load_ugraph ~path ());
          let corrupt0 = Sf_obs.Counter.value c_corrupt in
          let regenerated = run () in
          Alcotest.(check int) "v1 object regenerated" 2 !calls;
          Alcotest.(check int) "counted as corrupt" (corrupt0 + 1) (Sf_obs.Counter.value c_corrupt);
          Alcotest.(check (option int)) "re-stored as v2" (Some 2) (Csr_codec.sniff_version path);
          Alcotest.(check bool) "same graph, target and stream as cold" true (same cold regenerated);
          let warm = run () in
          Alcotest.(check int) "then warm: no generation" 2 !calls;
          Alcotest.(check bool) "warm result identical" true (same cold warm)))

let grid_csv ~jobs () =
  let master = Rng.of_seed 4242 in
  let spec = { Searchability.default_spec with Searchability.trials = 5 } in
  let points =
    Searchability.measure ~jobs master
      ~make:(Searchability.mori_instance ~p:0.6 ~m:1)
      ~strategies:[ Sf_search.Strategies.high_degree; Sf_search.Strategies.bfs ]
      ~sizes:[ 40; 80 ] ~spec
  in
  Searchability.points_to_csv points

let test_measure_golden_cold_warm_jobs () =
  let baseline = grid_csv ~jobs:1 () in
  with_cache (fun _dir cache ->
      with_corpus cache (fun () ->
          let miss0 = Sf_obs.Counter.value c_miss in
          let cold = grid_csv ~jobs:1 () in
          Alcotest.(check string) "cold = uncached baseline" baseline cold;
          Alcotest.(check bool) "cold run populated the cache" true
            (Sf_obs.Counter.value c_miss > miss0);
          let miss1 = Sf_obs.Counter.value c_miss and hit1 = Sf_obs.Counter.value c_hit in
          let warm1 = grid_csv ~jobs:1 () in
          Alcotest.(check string) "warm jobs=1 byte-identical" baseline warm1;
          Alcotest.(check int) "warm jobs=1: zero misses" miss1 (Sf_obs.Counter.value c_miss);
          Alcotest.(check bool) "warm jobs=1: hits recorded" true
            (Sf_obs.Counter.value c_hit > hit1);
          let miss2 = Sf_obs.Counter.value c_miss in
          let warm4 = grid_csv ~jobs:4 () in
          Alcotest.(check string) "warm jobs=4 byte-identical" baseline warm4;
          Alcotest.(check int) "warm jobs=4: zero misses" miss2 (Sf_obs.Counter.value c_miss)))

let test_measure_parallel_cold_matches () =
  (* a cold cache filled from four domains at once must still produce
     the sequential answer *)
  let baseline = grid_csv ~jobs:1 () in
  with_cache (fun _dir cache ->
      with_corpus cache (fun () ->
          let cold4 = grid_csv ~jobs:4 () in
          Alcotest.(check string) "cold jobs=4 = uncached baseline" baseline cold4;
          let warm1 = grid_csv ~jobs:1 () in
          Alcotest.(check string) "then warm jobs=1 agrees" baseline warm1))

let suite =
  [
    ("varint round trip", `Quick, test_varint_roundtrip);
    ("varint truncation", `Quick, test_varint_truncation);
    ("crc32 test vector", `Quick, test_crc32_known_value);
    ("codec: small graphs", `Quick, test_codec_small_graphs);
    ("codec: insertion order", `Quick, test_codec_preserves_insertion_order);
    QCheck_alcotest.to_alcotest qcheck_ugraph_roundtrip;
    ("decode: basic rejections", `Quick, test_decode_rejects_basics);
    ("decode: truncations", `Quick, test_decode_rejects_truncations);
    ("decode: bit flips", `Quick, test_decode_rejects_bit_flips);
    ("giant container: round trip", `Quick, test_csr_codec_roundtrip);
    QCheck_alcotest.to_alcotest qcheck_csr_codec_roundtrip;
    ("giant container: truncations", `Quick, test_csr_codec_rejects_truncations);
    ("giant container: bit flips", `Quick, test_csr_codec_rejects_bit_flips);
    ("giant container: load dispatch", `Quick, test_load_ugraph_dispatch);
    ("cache: both containers", `Quick, test_cache_both_containers);
    ("corpus: v1 object regenerated as v2", `Quick, test_corpus_v1_object_regenerated);
    ("fingerprint: distinct coordinates", `Quick, test_fingerprint_distinct_coordinates);
    ("fingerprint: rng token round trip", `Quick, test_rng_token_roundtrip);
    ("cache: miss then hit", `Quick, test_cache_miss_then_hit);
    ("cache: persists across reopen", `Quick, test_cache_persists_across_reopen);
    ("cache: LRU eviction", `Quick, test_cache_lru_eviction);
    ("cache: corrupt fallback", `Quick, test_cache_corrupt_fallback);
    ("cache: verify reports corruption", `Quick, test_cache_verify_reports_corruption);
    ("cache: tolerates index garbage", `Quick, test_cache_tolerates_index_garbage);
    ("corpus: identity when unset", `Quick, test_corpus_identity_when_unset);
    ("corpus: hit skips generation", `Quick, test_corpus_hit_skips_generation_and_restores_stream);
    ("corpus: parallel cold fill", `Slow, test_measure_parallel_cold_matches);
    ("cache: index replays escaped fields", `Quick, test_cache_index_replays_escapes);
    ("corpus: golden cold/warm at jobs 1 and 4", `Slow, test_measure_golden_cold_warm_jobs);
  ]
