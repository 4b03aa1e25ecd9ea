(* xoshiro256++ with splitmix64 seeding.  The generator state is four
   int64 words stored in one 32-byte buffer and read and written through
   the unboxed bytes primitives: a record of mutable int64 fields boxes
   every word it stores, so each draw would allocate.  With the state
   here and [int64] inlined, every draw that returns an immediate
   allocates nothing.  All int64 arithmetic below is modular, which
   matches the reference C implementation. *)

type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let golden_gamma = 0x9E3779B97F4A7C15L

(* splitmix64's output function; its i-th output from counter x is
   [mix64 (x + i·gamma)].  Used for seeding and for deriving children. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* The first four splitmix64 outputs from [seed] are the state words. *)
let of_int64_seed seed =
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set t (8 * i) (mix64 (Int64.add seed (Int64.mul (Int64.of_int (i + 1)) golden_gamma)))
  done;
  t

let of_seed seed = of_int64_seed (Int64.of_int seed)

let copy = Bytes.copy

let[@inline] int64 t =
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let result = Int64.add (rotl (Int64.add s0 s3) 23) s0 in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  set t 0 s0;
  set t 8 s1;
  set t 16 (Int64.logxor s2 tmp);
  set t 24 (rotl s3 45);
  result

let split t = of_int64_seed (int64 t)

let split_at t i =
  (* Mix the parent fingerprint with the child index through splitmix64;
     the parent state is left untouched. *)
  let mix =
    Int64.logxor
      (Int64.logxor (get t 0) (rotl (get t 8) 13))
      (Int64.logxor (rotl (get t 16) 29) (rotl (get t 24) 47))
  in
  of_int64_seed (mix64 (Int64.add (Int64.logxor mix (Int64.of_int i)) golden_gamma))

(* The top 62 bits of one output, reduced mod [bound].  They fit a
   non-negative int, and the result is off uniform by a relative
   bias of at most bound / 2^62. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.shift_right_logical (int64 t) 2) mod bound

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in_range: hi < lo";
  lo + int t (hi - lo + 1)

let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (int64 t) 11)

let[@inline] unit_float t = float_of_int (bits53 t) *. 0x1.0p-53

let bool t = Int64.logand (int64 t) 1L = 1L

let bernoulli t p =
  if p <= 0. then false else if p >= 1. then true else unit_float t < p

let jump_poly = [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

let jump t =
  let acc = Bytes.make 32 '\000' in
  Array.iter
    (fun word ->
      for b = 0 to 63 do
        if Int64.logand word (Int64.shift_left 1L b) <> 0L then
          for i = 0 to 3 do
            set acc (8 * i) (Int64.logxor (get acc (8 * i)) (get t (8 * i)))
          done;
        ignore (int64 t)
      done)
    jump_poly;
  Bytes.blit acc 0 t 0 32

let state_words t = Array.init 4 (fun i -> get t (8 * i))

let set_state_words t w =
  if Array.length w <> 4 then invalid_arg "Rng.set_state_words: need exactly 4 words";
  Array.iteri (fun i x -> set t (8 * i) x) w

(* Chain the four words through splitmix64's output function. *)
let state_fingerprint t =
  let h = ref 0L in
  for i = 0 to 3 do
    h := mix64 (Int64.add (Int64.logxor !h (get t (8 * i))) golden_gamma)
  done;
  !h
