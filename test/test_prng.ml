(* Tests for the sf_prng substrate: generator determinism and stream
   splitting, then statistical sanity of every sampler. *)

module Rng = Sf_prng.Rng
module Dist = Sf_prng.Dist
module Discrete = Sf_prng.Discrete
module Shuffle = Sf_prng.Shuffle

let check_close ?(eps = 1e-9) name expected actual =
  Alcotest.(check (float eps)) name expected actual

(* --- Rng ------------------------------------------------------------ *)

let test_determinism () =
  let a = Rng.of_seed 1234 and b = Rng.of_seed 1234 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.of_seed 1 and b = Rng.of_seed 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 3)

let test_copy_independent () =
  let a = Rng.of_seed 7 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.int64 a) (Rng.int64 b);
  ignore (Rng.int64 a);
  (* advancing a further must not affect b *)
  let a' = Rng.int64 a and b' = Rng.int64 b in
  Alcotest.(check bool) "streams decoupled after copy" true (a' <> b')

let test_split_independence () =
  let parent = Rng.of_seed 99 in
  let child1 = Rng.split parent in
  let child2 = Rng.split parent in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 child1 = Rng.int64 child2 then incr matches
  done;
  Alcotest.(check bool) "split children differ" true (!matches < 3)

let test_split_at_pure () =
  let parent = Rng.of_seed 5 in
  let fp_before = Rng.state_fingerprint parent in
  let c1 = Rng.split_at parent 3 in
  let fp_after = Rng.state_fingerprint parent in
  Alcotest.(check int64) "split_at leaves parent untouched" fp_before fp_after;
  let c1' = Rng.split_at parent 3 in
  Alcotest.(check int64) "split_at is deterministic" (Rng.int64 c1) (Rng.int64 c1');
  let c2 = Rng.split_at parent 4 in
  Alcotest.(check bool) "distinct indices give distinct streams" true
    (Rng.int64 (Rng.copy c2) <> Rng.int64 (Rng.split_at parent 3))

let test_int_bounds () =
  let rng = Rng.of_seed 11 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "zero bound rejected" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_int_uniformity () =
  let rng = Rng.of_seed 12 in
  let counts = Array.make 8 0 in
  let n = 80_000 in
  for _ = 1 to n do
    let v = Rng.int rng 8 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let dev = Float.abs (float_of_int c -. 10_000.) in
      Alcotest.(check bool) (Printf.sprintf "bucket %d near uniform" i) true (dev < 500.))
    counts

let test_int_in_range () =
  let rng = Rng.of_seed 13 in
  for _ = 1 to 500 do
    let v = Rng.int_in_range rng ~lo:(-5) ~hi:5 in
    Alcotest.(check bool) "in closed range" true (v >= -5 && v <= 5)
  done;
  Alcotest.(check int) "degenerate range" 3 (Rng.int_in_range rng ~lo:3 ~hi:3)

let test_unit_float () =
  let rng = Rng.of_seed 14 in
  let sum = ref 0. in
  for _ = 1 to 10_000 do
    let u = Rng.unit_float rng in
    Alcotest.(check bool) "in [0,1)" true (u >= 0. && u < 1.);
    sum := !sum +. u
  done;
  Alcotest.(check bool) "mean near 1/2" true (Float.abs ((!sum /. 10_000.) -. 0.5) < 0.02)

let test_bernoulli () =
  let rng = Rng.of_seed 15 in
  let hits = ref 0 in
  for _ = 1 to 20_000 do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  Alcotest.(check bool) "p=0.3 frequency" true
    (Float.abs ((float_of_int !hits /. 20_000.) -. 0.3) < 0.02);
  Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng 0.);
  Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng 1.)

let test_jump_changes_state () =
  let rng = Rng.of_seed 16 in
  let before = Rng.state_fingerprint rng in
  Rng.jump rng;
  Alcotest.(check bool) "jump moves the state" true (before <> Rng.state_fingerprint rng)

(* --- Known answers ----------------------------------------------------
   Every generator, graph and golden digest in the repo depends on these
   streams, so a change to how the generator stores or steps its state
   must reproduce each value bit for bit. *)

let draws n f = List.init n (fun _ -> f ())
let outputs n r = draws n (fun () -> Rng.int64 r)

let kat_cases : (string * (unit -> int64 list)) list =
  let seeded seed = Rng.of_seed seed in
  let split_at i =
    let p = seeded 42 in
    let c = Rng.split_at p i in
    outputs 4 c @ outputs 2 p
  in
  let ints bound = draws 4 (let r = seeded 7 in fun () -> Int64.of_int (Rng.int r bound)) in
  [
    ("seed 0", fun () -> outputs 8 (seeded 0));
    ("seed 1", fun () -> outputs 8 (seeded 1));
    ("seed -1", fun () -> outputs 8 (seeded (-1)));
    ("seed max_int", fun () -> outputs 8 (seeded max_int));
    ( "split",
      fun () ->
        let p = seeded 42 in
        let c = Rng.split p in
        outputs 4 c @ outputs 4 p );
    ("split_at 0", fun () -> split_at 0);
    ("split_at 1", fun () -> split_at 1);
    ("split_at 2^40", fun () -> split_at (1 lsl 40));
    ( "jump",
      fun () ->
        let r = seeded 42 in
        Rng.jump r;
        outputs 4 r );
    ( "copy",
      fun () ->
        let r = seeded 42 in
        ignore (outputs 3 r);
        let c = Rng.copy r in
        let from_copy = outputs 4 c in
        from_copy @ outputs 4 r );
    ( "state_words round trip",
      fun () ->
        let r = seeded 42 in
        ignore (outputs 5 r);
        let w = Rng.state_words r in
        let s = seeded 0 in
        Rng.set_state_words s w;
        let restored = Array.to_list (Rng.state_words s) in
        let next = outputs 2 s in
        Array.to_list w @ next @ restored );
    ( "state_fingerprint",
      fun () ->
        let r = seeded 42 in
        let f0 = Rng.state_fingerprint r in
        ignore (Rng.int64 r);
        [ Rng.state_fingerprint (seeded 0); f0; Rng.state_fingerprint r ] );
    ("int 1", fun () -> ints 1);
    ("int 2", fun () -> ints 2);
    ("int 3", fun () -> ints 3);
    ("int 1000", fun () -> ints 1000);
    ("int 2^31", fun () -> ints (1 lsl 31));
    ("int max_int", fun () -> ints max_int);
    ( "unit_float",
      fun () ->
        let r = seeded 9 in
        draws 4 (fun () -> Int64.bits_of_float (Rng.unit_float r)) );
    (* the same four draws as unit_float, times 2^53 *)
    ( "bits53",
      fun () ->
        let r = seeded 9 in
        draws 4 (fun () -> Int64.of_int (Rng.bits53 r)) );
    ( "bool",
      fun () ->
        let r = seeded 9 in
        draws 8 (fun () -> if Rng.bool r then 1L else 0L) );
    ( "bernoulli",
      fun () ->
        let r = seeded 9 in
        let edges = [ Rng.bernoulli r 0.; Rng.bernoulli r 1. ] in
        (* p <= 0 and p >= 1 draw nothing: this is the stream's first output *)
        let first = outputs 1 r in
        List.map (fun b -> if b then 1L else 0L) (edges @ draws 6 (fun () -> Rng.bernoulli r 0.3))
        @ first );
  ]

let kat_expected =
  [
    ( "seed 0",
      [ 0x53175d61490b23dfL; 0x61da6f3dc380d507L; 0x5c0fdf91ec9a7bfcL; 0x02eebf8c3bbe5e1aL; 0x7eca04ebaf4a5eeaL; 0x0543c37757f08d9aL; 0xdb7490c75ab5026eL; 0xd87343e6464bc959L ] );
    ( "seed 1",
      [ 0xcfc5d07f6f03c29bL; 0xbf424132963fe08dL; 0x19a37d5757aaf520L; 0xbf08119f05cd56d6L; 0x2f47184b86186fa4L; 0x97299fcae7202345L; 0xfca3c79508f41507L; 0x85fea5c90363f221L ] );
    ( "seed -1",
      [ 0x56ccf8ce948e27b2L; 0xe68588432e5a5b90L; 0xe3e9b5a48119ca8bL; 0x460f19495532ae73L; 0xa7d62040ea9263e1L; 0x66f1fb2ac9402c14L; 0xe243b47de8a73f68L; 0x7c93fdab4c7b3dffL ] );
    ( "seed max_int",
      [ 0x45fb48efb1c2c1c2L; 0xc3add3a798906624L; 0x1f94c7639c6d4438L; 0x24ca4178d9f00c1fL; 0x0403dd39f8ea9b43L; 0xc72e8c5a7b6b1b76L; 0x4e17136fd11e4c40L; 0x1789e5f2dec9dae6L ] );
    ( "split",
      [ 0x4fbbc8a5d7ee027bL; 0xcbf580142f9eed0fL; 0xe792208c7d75e47dL; 0x8295db570be22203L; 0x519e4174576f3791L; 0xfbe07cfb0c24ed8cL; 0xb37d9f600cd835b8L; 0xcb231c3874846a73L ] );
    ( "split_at 0",
      [ 0xe46beb44539bc1c3L; 0xff0de1c9991d83d9L; 0x91ffea81f780eb31L; 0x6978a905e0c03186L; 0xd0764d4f4476689fL; 0x519e4174576f3791L ] );
    ( "split_at 1",
      [ 0x4ed8b844165259daL; 0xa57ce1b733947933L; 0x9c290bff7f755dccL; 0x98029b72539744feL; 0xd0764d4f4476689fL; 0x519e4174576f3791L ] );
    ( "split_at 2^40",
      [ 0x6b9fba8ed1f77998L; 0x646a1a667f721bb7L; 0xe4b3e0b3703940e5L; 0x06610f6cbcee6af1L; 0xd0764d4f4476689fL; 0x519e4174576f3791L ] );
    ( "jump",
      [ 0xc0b6f4be293b1ae5L; 0x5db3dd9683e7bb33L; 0x08d177efba75b08eL; 0xdd4b9019a605434dL ] );
    ( "copy",
      [ 0xb37d9f600cd835b8L; 0xcb231c3874846a73L; 0x968d9f004e50de7dL; 0x201718ff221a3556L; 0xb37d9f600cd835b8L; 0xcb231c3874846a73L; 0x968d9f004e50de7dL; 0x201718ff221a3556L ] );
    ( "state_words round trip",
      [ 0x7e3fedbea92a13a5L; 0xc9a25ba0f11c828cL; 0xc38346747039f414L; 0xcf55c271f2386fa5L; 0x968d9f004e50de7dL; 0x201718ff221a3556L; 0x7e3fedbea92a13a5L; 0xc9a25ba0f11c828cL; 0xc38346747039f414L; 0xcf55c271f2386fa5L ] );
    ( "state_fingerprint",
      [ 0x922afe74948963a6L; 0x23de3c63eaf1be08L; 0x3bc79f6791ac955aL ] );
    ( "int 1",
      [ 0x0000000000000000L; 0x0000000000000000L; 0x0000000000000000L; 0x0000000000000000L ] );
    ( "int 2",
      [ 0x0000000000000001L; 0x0000000000000001L; 0x0000000000000000L; 0x0000000000000001L ] );
    ( "int 3",
      [ 0x0000000000000001L; 0x0000000000000002L; 0x0000000000000000L; 0x0000000000000000L ] );
    ( "int 1000",
      [ 0x000000000000019fL; 0x00000000000000e5L; 0x000000000000002cL; 0x0000000000000347L ] );
    ( "int 2^31",
      [ 0x000000000aaba44fL; 0x000000007e93a785L; 0x000000006c35161cL; 0x0000000018c6004fL ] );
    ( "int max_int",
      [ 0x038b06800aaba44fL; 0x0b03f2377e93a785L; 0x2decc46cec35161cL; 0x1b5767da98c6004fL ] );
    ( "unit_float",
      [ 0x3fe32b447be41585L; 0x3fdb80cd1b3aeab0L; 0x3fc96d5b8088d994L; 0x3fec4830b4ce0572L ] );
    ( "bits53",
      [ 0x00132b447be41585L; 0x000dc0668d9d7558L; 0x00065b56e0223665L; 0x001c4830b4ce0572L ] );
    ( "bool",
      [ 0x0000000000000001L; 0x0000000000000000L; 0x0000000000000001L; 0x0000000000000001L; 0x0000000000000001L; 0x0000000000000000L; 0x0000000000000001L; 0x0000000000000001L ] );
    ( "bernoulli",
      [ 0x0000000000000000L; 0x0000000000000001L; 0x0000000000000000L; 0x0000000000000001L; 0x0000000000000000L; 0x0000000000000001L; 0x0000000000000001L; 0x0000000000000000L; 0x995a23df20ac2cd3L ] );
  ]

let test_known_answers () =
  Alcotest.(check (list string)) "every case pinned" (List.map fst kat_expected) (List.map fst kat_cases);
  List.iter2
    (fun (name, f) (_, want) -> Alcotest.(check (list int64)) name want (f ()))
    kat_cases kat_expected

(* --- Allocation ----------------------------------------------------- *)

let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* The state lives in one bytes buffer read through unboxed primitives,
   so a draw that returns an immediate allocates nothing. *)
let test_draws_allocate_nothing () =
  let rng = Rng.of_seed 3 in
  let a = Array.init 10_000 Fun.id in
  let baseline = minor_words_of (fun () -> ()) in
  let loop draw () =
    for _ = 1 to 10_000 do
      draw ()
    done
  in
  List.iter
    (fun (name, f) -> Alcotest.(check (float 0.)) name baseline (minor_words_of f))
    [
      ("Rng.int", loop (fun () -> ignore (Rng.int rng 1000)));
      ("Rng.bits53", loop (fun () -> ignore (Rng.bits53 rng)));
      ("Rng.bool", loop (fun () -> ignore (Rng.bool rng)));
      ("Rng.bernoulli", loop (fun () -> ignore (Rng.bernoulli rng 0.3)));
      ("Shuffle.in_place", fun () -> Shuffle.in_place rng a);
    ]

(* --- Dist ----------------------------------------------------------- *)

let sample_mean n f =
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. f ()
  done;
  !acc /. float_of_int n

let test_exponential_mean () =
  let rng = Rng.of_seed 20 in
  let mean = sample_mean 40_000 (fun () -> Dist.exponential rng ~rate:2.) in
  Alcotest.(check bool) "mean 1/rate" true (Float.abs (mean -. 0.5) < 0.02)

let test_geometric_mean () =
  let rng = Rng.of_seed 21 in
  let p = 0.25 in
  let mean = sample_mean 40_000 (fun () -> float_of_int (Dist.geometric rng ~p)) in
  (* failures before success: mean (1-p)/p = 3 *)
  Alcotest.(check bool) "geometric mean" true (Float.abs (mean -. 3.) < 0.1);
  Alcotest.(check int) "p=1 always zero" 0 (Dist.geometric rng ~p:1.)

let test_binomial_moments () =
  let rng = Rng.of_seed 22 in
  let mean = sample_mean 20_000 (fun () -> float_of_int (Dist.binomial rng ~n:40 ~p:0.3)) in
  Alcotest.(check bool) "binomial mean np" true (Float.abs (mean -. 12.) < 0.25);
  (* the sparse path *)
  let mean2 = sample_mean 20_000 (fun () -> float_of_int (Dist.binomial rng ~n:1000 ~p:0.004)) in
  Alcotest.(check bool) "sparse binomial mean" true (Float.abs (mean2 -. 4.) < 0.15);
  Alcotest.(check int) "p=0" 0 (Dist.binomial rng ~n:10 ~p:0.);
  Alcotest.(check int) "p=1" 10 (Dist.binomial rng ~n:10 ~p:1.)

let test_poisson_mean () =
  let rng = Rng.of_seed 23 in
  let mean = sample_mean 20_000 (fun () -> float_of_int (Dist.poisson rng ~mean:7.5)) in
  Alcotest.(check bool) "poisson mean" true (Float.abs (mean -. 7.5) < 0.15)

let test_normal_moments () =
  let rng = Rng.of_seed 24 in
  let n = 40_000 in
  let xs = Array.init n (fun _ -> Dist.normal rng ~mu:3. ~sigma:2.) in
  let mean = Array.fold_left ( +. ) 0. xs /. float_of_int n in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs /. float_of_int n
  in
  Alcotest.(check bool) "normal mean" true (Float.abs (mean -. 3.) < 0.05);
  Alcotest.(check bool) "normal variance" true (Float.abs (var -. 4.) < 0.15)

let test_pareto_support () =
  let rng = Rng.of_seed 25 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "pareto >= x_min" true (Dist.pareto rng ~alpha:2. ~x_min:1.5 >= 1.5)
  done

let test_zeta_tail () =
  let rng = Rng.of_seed 26 in
  (* P(X = 1) = 1/zeta(2) = 6/pi^2 ~ 0.6079 for alpha = 2 *)
  let n = 40_000 in
  let ones = ref 0 in
  for _ = 1 to n do
    let v = Dist.zeta rng ~alpha:2. in
    Alcotest.(check bool) "zeta >= 1" true (v >= 1);
    if v = 1 then incr ones
  done;
  let p1 = float_of_int !ones /. float_of_int n in
  Alcotest.(check bool) "zeta P(1)" true (Float.abs (p1 -. 0.6079) < 0.02)

let test_zipf_bounded () =
  let rng = Rng.of_seed 27 in
  for _ = 1 to 2000 do
    let v = Dist.zipf_bounded rng ~alpha:2.5 ~n:50 in
    Alcotest.(check bool) "zipf in [1,n]" true (v >= 1 && v <= 50)
  done;
  (* alpha <= 1 path (CDF inversion) *)
  for _ = 1 to 500 do
    let v = Dist.zipf_bounded rng ~alpha:0.8 ~n:30 in
    Alcotest.(check bool) "zipf alpha<=1 in range" true (v >= 1 && v <= 30)
  done

let test_power_law_sequence () =
  let rng = Rng.of_seed 28 in
  let seq = Dist.discrete_power_law_sequence rng ~exponent:2.5 ~d_min:2 ~d_max:100 ~n:5000 in
  Alcotest.(check int) "length" 5000 (Array.length seq);
  Array.iter (fun d -> Alcotest.(check bool) "in support" true (d >= 2 && d <= 100)) seq;
  (* ratio P(2)/P(4) should be near 2^2.5 *)
  let c2 = Array.fold_left (fun acc d -> if d = 2 then acc + 1 else acc) 0 seq in
  let c4 = Array.fold_left (fun acc d -> if d = 4 then acc + 1 else acc) 0 seq in
  let ratio = float_of_int c2 /. float_of_int (max c4 1) in
  Alcotest.(check bool) "power-law ratio" true (ratio > 3.5 && ratio < 8.5)

(* --- Discrete -------------------------------------------------------- *)

let test_alias_frequencies () =
  let rng = Rng.of_seed 30 in
  let sampler = Discrete.Alias.create [| 1.; 2.; 3.; 4. |] in
  Alcotest.(check int) "size" 4 (Discrete.Alias.size sampler);
  let counts = Array.make 4 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Discrete.Alias.sample sampler rng in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = float_of_int (i + 1) /. 10. *. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "alias weight %d" i)
        true
        (Float.abs (float_of_int c -. expected) /. expected < 0.05))
    counts

let test_alias_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Alias.create: empty weights") (fun () ->
      ignore (Discrete.Alias.create [||]));
  Alcotest.check_raises "negative" (Invalid_argument "Alias.create: negative weight")
    (fun () -> ignore (Discrete.Alias.create [| 1.; -1. |]));
  Alcotest.check_raises "zero total" (Invalid_argument "Alias.create: zero total weight")
    (fun () -> ignore (Discrete.Alias.create [| 0.; 0. |]))

let test_fenwick_ops () =
  let t = Discrete.Fenwick.of_array [| 1.; 2.; 3. |] in
  Alcotest.(check int) "length" 3 (Discrete.Fenwick.length t);
  check_close "total" 6. (Discrete.Fenwick.total t);
  check_close "get 1" 2. (Discrete.Fenwick.get t 1);
  Discrete.Fenwick.add t 1 4.;
  check_close "after add" 6. (Discrete.Fenwick.get t 1);
  check_close "total after add" 10. (Discrete.Fenwick.total t);
  let i = Discrete.Fenwick.push t 5. in
  Alcotest.(check int) "push index" 3 i;
  check_close "pushed weight" 5. (Discrete.Fenwick.get t 3)

let test_fenwick_sampling () =
  let rng = Rng.of_seed 31 in
  let t = Discrete.Fenwick.of_array [| 0.; 5.; 0.; 15. |] in
  let counts = Array.make 4 0 in
  for _ = 1 to 20_000 do
    let i = Discrete.Fenwick.sample t rng in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero-weight slot never drawn (0)" 0 counts.(0);
  Alcotest.(check int) "zero-weight slot never drawn (2)" 0 counts.(2);
  let frac = float_of_int counts.(3) /. 20_000. in
  Alcotest.(check bool) "weights respected" true (Float.abs (frac -. 0.75) < 0.02)

let test_fenwick_dynamic_growth () =
  let rng = Rng.of_seed 32 in
  let t = Discrete.Fenwick.create ~capacity:1 () in
  for i = 0 to 99 do
    ignore (Discrete.Fenwick.push t (float_of_int (i + 1)))
  done;
  Alcotest.(check int) "grew" 100 (Discrete.Fenwick.length t);
  check_close "total 5050" 5050. (Discrete.Fenwick.total t);
  for _ = 1 to 100 do
    let i = Discrete.Fenwick.sample t rng in
    Alcotest.(check bool) "sampled in range" true (i >= 0 && i < 100)
  done

(* --- Shuffle --------------------------------------------------------- *)

let test_permutation_valid () =
  let rng = Rng.of_seed 40 in
  let p = Shuffle.permutation rng 50 in
  let seen = Array.make 50 false in
  Array.iter (fun v -> seen.(v) <- true) p;
  Alcotest.(check bool) "bijection" true (Array.for_all Fun.id seen)

(* The oracle shuffles each vertex's handles inside one flat buffer,
   so a sub-range shuffle must touch nothing outside its range and
   make exactly the draws a whole-array shuffle of that length makes. *)
let test_shuffle_sub_range () =
  let a = Array.init 20 Fun.id in
  Shuffle.in_place_sub (Rng.of_seed 42) a ~pos:5 ~len:9;
  let alone = Array.init 9 (fun i -> i + 5) in
  Shuffle.in_place (Rng.of_seed 42) alone;
  Alcotest.(check (array int)) "prefix untouched" (Array.init 5 Fun.id) (Array.sub a 0 5);
  Alcotest.(check (array int)) "suffix untouched" (Array.init 6 (fun i -> i + 14)) (Array.sub a 14 6);
  Alcotest.(check (array int)) "same draws as in_place" alone (Array.sub a 5 9);
  Alcotest.check_raises "range past the end"
    (Invalid_argument "Shuffle.in_place_sub: range out of bounds") (fun () ->
      Shuffle.in_place_sub (Rng.of_seed 1) a ~pos:15 ~len:6)

let test_shuffle_uniformity () =
  let rng = Rng.of_seed 41 in
  (* all 6 permutations of 3 elements should be near 1/6 *)
  let counts = Hashtbl.create 6 in
  let n = 30_000 in
  for _ = 1 to n do
    let p = Shuffle.permutation rng 3 in
    let key = Printf.sprintf "%d%d%d" p.(0) p.(1) p.(2) in
    Hashtbl.replace counts key (1 + try Hashtbl.find counts key with Not_found -> 0)
  done;
  Alcotest.(check int) "six permutations seen" 6 (Hashtbl.length counts);
  Hashtbl.iter
    (fun _ c ->
      Alcotest.(check bool) "near uniform" true
        (Float.abs (float_of_int c -. 5000.) < 400.))
    counts

let test_sample_without_replacement () =
  let rng = Rng.of_seed 42 in
  for _ = 1 to 200 do
    let s = Shuffle.sample_without_replacement rng ~k:10 ~n:30 in
    Alcotest.(check int) "k items" 10 (Array.length s);
    let sorted = Array.copy s in
    Array.sort compare sorted;
    for i = 1 to 9 do
      Alcotest.(check bool) "distinct" true (sorted.(i) <> sorted.(i - 1))
    done;
    Array.iter (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 30)) s
  done;
  Alcotest.(check int) "k = n" 5 (Array.length (Shuffle.sample_without_replacement rng ~k:5 ~n:5))

let test_reservoir () =
  let rng = Rng.of_seed 43 in
  let sample = Shuffle.reservoir rng ~k:5 (Seq.init 100 Fun.id) in
  Alcotest.(check int) "k items" 5 (Array.length sample);
  let short = Shuffle.reservoir rng ~k:10 (Seq.init 3 Fun.id) in
  Alcotest.(check int) "short input" 3 (Array.length short)

let test_reservoir_uniform () =
  let rng = Rng.of_seed 44 in
  let hits = Array.make 10 0 in
  for _ = 1 to 20_000 do
    let s = Shuffle.reservoir rng ~k:1 (Seq.init 10 Fun.id) in
    hits.(s.(0)) <- hits.(s.(0)) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "element %d near 1/10" i)
        true
        (Float.abs (float_of_int c -. 2000.) < 250.))
    hits

(* --- qcheck properties ----------------------------------------------- *)

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int always within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Rng.of_seed seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_permutation_bijective =
  QCheck.Test.make ~name:"Shuffle.permutation is bijective" ~count:200
    QCheck.(pair small_int (int_range 1 200))
    (fun (seed, n) ->
      let p = Shuffle.permutation (Rng.of_seed seed) n in
      let seen = Array.make n false in
      Array.iter (fun v -> seen.(v) <- true) p;
      Array.for_all Fun.id seen)

let prop_fenwick_matches_reference =
  QCheck.Test.make ~name:"Fenwick get/total match reference" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 30) (float_range 0. 10.))
    (fun weights ->
      let arr = Array.of_list weights in
      let t = Discrete.Fenwick.of_array arr in
      let total_ref = Array.fold_left ( +. ) 0. arr in
      Float.abs (Discrete.Fenwick.total t -. total_ref) < 1e-9
      && Array.for_all
           (fun i -> Float.abs (Discrete.Fenwick.get t i -. arr.(i)) < 1e-9)
           (Array.init (Array.length arr) Fun.id))

let suite =
  [
    ("determinism", `Quick, test_determinism);
    ("seed sensitivity", `Quick, test_seed_sensitivity);
    ("copy independence", `Quick, test_copy_independent);
    ("split independence", `Quick, test_split_independence);
    ("split_at purity", `Quick, test_split_at_pure);
    ("int bounds", `Quick, test_int_bounds);
    ("int uniformity", `Quick, test_int_uniformity);
    ("int_in_range", `Quick, test_int_in_range);
    ("unit_float", `Quick, test_unit_float);
    ("bernoulli", `Quick, test_bernoulli);
    ("jump", `Quick, test_jump_changes_state);
    ("known answers", `Quick, test_known_answers);
    ("draws allocate nothing", `Quick, test_draws_allocate_nothing);
    ("exponential mean", `Quick, test_exponential_mean);
    ("geometric mean", `Quick, test_geometric_mean);
    ("binomial moments", `Quick, test_binomial_moments);
    ("poisson mean", `Quick, test_poisson_mean);
    ("normal moments", `Quick, test_normal_moments);
    ("pareto support", `Quick, test_pareto_support);
    ("zeta tail", `Quick, test_zeta_tail);
    ("zipf bounded", `Quick, test_zipf_bounded);
    ("power-law sequence", `Quick, test_power_law_sequence);
    ("alias frequencies", `Quick, test_alias_frequencies);
    ("alias validation", `Quick, test_alias_validation);
    ("fenwick ops", `Quick, test_fenwick_ops);
    ("fenwick sampling", `Quick, test_fenwick_sampling);
    ("fenwick growth", `Quick, test_fenwick_dynamic_growth);
    ("permutation valid", `Quick, test_permutation_valid);
    ("shuffle uniformity", `Quick, test_shuffle_uniformity);
    ("sample without replacement", `Quick, test_sample_without_replacement);
    ("reservoir size", `Quick, test_reservoir);
    ("reservoir uniform", `Quick, test_reservoir_uniform);
    QCheck_alcotest.to_alcotest prop_int_in_bounds;
    QCheck_alcotest.to_alcotest prop_permutation_bijective;
    QCheck_alcotest.to_alcotest prop_fenwick_matches_reference;
    ("shuffle sub-range", `Quick, test_shuffle_sub_range);
  ]
