(** The strategy abstraction: a named recipe that, given a private
    random stream and a fresh oracle, yields a stepper emitting one
    request decision at a time.

    Strategies observe the world exclusively through {!Oracle}'s
    observation functions — they never touch the graph — so every
    strategy here is a legitimate "local distributed algorithm" in the
    paper's sense. *)

type step =
  | Request_edge of Oracle.vertex * Oracle.handle
      (** weak request [(owner, handle)] *)
  | Request_vertex of Oracle.vertex  (** strong request *)
  | Give_up
      (** the strategy has no useful move left (everything reachable
          discovered) *)

type t = {
  name : string;
  description : string;
  model : Oracle.model;
  prepare : Sf_prng.Rng.t -> Oracle.t -> unit -> step;
}
