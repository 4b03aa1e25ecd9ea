type step =
  | Request_edge of Oracle.vertex * Oracle.handle
  | Request_vertex of Oracle.vertex
  | Give_up

type t = {
  name : string;
  description : string;
  model : Oracle.model;
  prepare : Sf_prng.Rng.t -> Oracle.t -> unit -> step;
}

module Cursor = struct
  type cursor = (int, int) Hashtbl.t (* vertex -> next handle index *)

  let create () : cursor = Hashtbl.create 64

  let useless oracle ~skip_known h =
    Oracle.handle_requested oracle h
    || (skip_known && Oracle.endpoints_if_known oracle h <> None)

  let next_handle cur oracle ~skip_known v =
    let hs = Oracle.handles oracle v in
    let len = Array.length hs in
    let i = ref (Option.value ~default:0 (Hashtbl.find_opt cur v)) in
    (* A requested handle is useless forever; a known-endpoints handle
       stays useless too (endpoints never become undiscovered), so
       advancing the cursor past both is safe. *)
    while !i < len && useless oracle ~skip_known hs.(!i) do
      incr i
    done;
    Hashtbl.replace cur v !i;
    if !i < len then Some hs.(!i) else None
end
