type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 8) () = { data = Array.make (max 1 capacity) 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

let check t i name = if i < 0 || i >= t.len then invalid_arg ("Vec." ^ name ^ ": index out of bounds")

let get t i =
  check t i "get";
  Array.unsafe_get t.data i

let set t i v =
  check t i "set";
  Array.unsafe_set t.data i v

let push t v =
  if t.len = Array.length t.data then begin
    let data' = Array.make (2 * t.len) 0 in
    Array.blit t.data 0 data' 0 t.len;
    t.data <- data'
  end;
  Array.unsafe_set t.data t.len v;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Vec.pop: empty";
  t.len <- t.len - 1;
  Array.unsafe_get t.data t.len

let clear t = t.len <- 0

let fold f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc (Array.unsafe_get t.data i)
  done;
  !acc

let to_array t = Array.sub t.data 0 t.len
let to_list t = Array.to_list (to_array t)

let of_array a =
  let t = create ~capacity:(max 1 (Array.length a)) () in
  Array.iter (push t) a;
  t

let copy t = { data = Array.copy t.data; len = t.len }
