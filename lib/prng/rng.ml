(* xoshiro256++ with splitmix64 seeding.  The generator state is four
   int64 words; all int64 arithmetic below is modular, which matches the
   reference C implementation. *)

type t = {
  mutable s0 : int64;
  mutable s1 : int64;
  mutable s2 : int64;
  mutable s3 : int64;
}

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* splitmix64: one step of the stateless mixing generator, used both for
   seeding and for deriving split children. *)
let splitmix64_next x =
  let x = Int64.add x 0x9E3779B97F4A7C15L in
  let z = x in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  (x, Int64.logxor z (Int64.shift_right_logical z 31))

let of_int64_seed seed =
  let x0, a = splitmix64_next seed in
  let x1, b = splitmix64_next x0 in
  let x2, c = splitmix64_next x1 in
  let _, d = splitmix64_next x2 in
  { s0 = a; s1 = b; s2 = c; s3 = d }

let of_seed seed = of_int64_seed (Int64.of_int seed)

let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

let int64 t =
  let result = Int64.add (rotl (Int64.add t.s0 t.s3) 23) t.s0 in
  let tmp = Int64.shift_left t.s1 17 in
  t.s2 <- Int64.logxor t.s2 t.s0;
  t.s3 <- Int64.logxor t.s3 t.s1;
  t.s1 <- Int64.logxor t.s1 t.s2;
  t.s0 <- Int64.logxor t.s0 t.s3;
  t.s2 <- Int64.logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t = of_int64_seed (int64 t)

let split_at t i =
  (* Mix the parent fingerprint with the child index through splitmix64;
     the parent state is left untouched. *)
  let mix = Int64.logxor (Int64.logxor t.s0 (rotl t.s1 13)) (Int64.logxor (rotl t.s2 29) (rotl t.s3 47)) in
  let _, h = splitmix64_next (Int64.logxor mix (Int64.of_int i)) in
  of_int64_seed h

(* Uniform int in [0, bound) by rejection on the top 62 bits, so the
   result is exact for any bound representable as a positive int. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let bound64 = Int64.of_int bound in
  let rec draw () =
    let r = Int64.shift_right_logical (int64 t) 2 in
    let v = Int64.rem r bound64 in
    (* Reject the final partial block to remove modulo bias. *)
    if Int64.sub r v > Int64.sub (Int64.sub Int64.max_int 1L) bound64 then draw ()
    else Int64.to_int v
  in
  draw ()

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in_range: hi < lo";
  lo + int t (hi - lo + 1)

let unit_float t =
  Int64.to_float (Int64.shift_right_logical (int64 t) 11) *. 0x1.0p-53

let float t bound = unit_float t *. bound

let bool t = Int64.logand (int64 t) 1L = 1L

let bernoulli t p =
  if p <= 0. then false else if p >= 1. then true else unit_float t < p

let jump_poly = [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

let jump t =
  let s0 = ref 0L and s1 = ref 0L and s2 = ref 0L and s3 = ref 0L in
  Array.iter
    (fun word ->
      for b = 0 to 63 do
        if Int64.logand word (Int64.shift_left 1L b) <> 0L then begin
          s0 := Int64.logxor !s0 t.s0;
          s1 := Int64.logxor !s1 t.s1;
          s2 := Int64.logxor !s2 t.s2;
          s3 := Int64.logxor !s3 t.s3
        end;
        ignore (int64 t)
      done)
    jump_poly;
  t.s0 <- !s0;
  t.s1 <- !s1;
  t.s2 <- !s2;
  t.s3 <- !s3

let state_words t = [| t.s0; t.s1; t.s2; t.s3 |]

let set_state_words t w =
  if Array.length w <> 4 then invalid_arg "Rng.set_state_words: need exactly 4 words";
  t.s0 <- w.(0);
  t.s1 <- w.(1);
  t.s2 <- w.(2);
  t.s3 <- w.(3)

let state_fingerprint t =
  let _, h0 = splitmix64_next t.s0 in
  let _, h1 = splitmix64_next (Int64.logxor h0 t.s1) in
  let _, h2 = splitmix64_next (Int64.logxor h1 t.s2) in
  let _, h3 = splitmix64_next (Int64.logxor h2 t.s3) in
  h3
