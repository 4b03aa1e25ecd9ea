type buf = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { mutable data : buf; mutable len : int }

let max_value = Int32.to_int Int32.max_int
let min_value = Int32.to_int Int32.min_int

let create_buf len : buf = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout len

let create ?(capacity = 16) () = { data = create_buf (max 1 capacity); len = 0 }

let length t = t.len
let is_empty t = t.len = 0

let check t i name =
  if i < 0 || i >= t.len then invalid_arg ("Bigvec." ^ name ^ ": index out of bounds")

let get t i =
  check t i "get";
  Int32.to_int (Bigarray.Array1.unsafe_get t.data i)

let unsafe_get t i = Int32.to_int (Bigarray.Array1.unsafe_get t.data i)

let fits v = v >= min_value && v <= max_value

let set t i v =
  check t i "set";
  if not (fits v) then invalid_arg "Bigvec.set: value exceeds 32-bit range";
  Bigarray.Array1.unsafe_set t.data i (Int32.of_int v)

let push t v =
  if not (fits v) then invalid_arg "Bigvec.push: value exceeds 32-bit range";
  if t.len = Bigarray.Array1.dim t.data then begin
    let data' = create_buf (2 * t.len) in
    Bigarray.Array1.blit t.data (Bigarray.Array1.sub data' 0 t.len);
    t.data <- data'
  end;
  Bigarray.Array1.unsafe_set t.data t.len (Int32.of_int v);
  t.len <- t.len + 1

let clear t = t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f (Int32.to_int (Bigarray.Array1.unsafe_get t.data i))
  done

let to_buf t =
  let out = create_buf t.len in
  if t.len > 0 then Bigarray.Array1.blit (Bigarray.Array1.sub t.data 0 t.len) out;
  out

let to_array t = Array.init t.len (fun i -> unsafe_get t i)

let of_array a =
  let t = create ~capacity:(max 1 (Array.length a)) () in
  Array.iter (push t) a;
  t
