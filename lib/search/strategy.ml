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
