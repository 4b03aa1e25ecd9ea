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

(** {1 A cursor over a vertex's not-yet-useful handles}

    Shared by most strategies: walks a discovered vertex's handle list
    left to right, skipping handles that were already paid for and
    (optionally) handles whose two endpoints the searcher already
    knows — requesting those can never discover anything. *)

module Cursor : sig
  type cursor

  val create : unit -> cursor

  val none : Oracle.handle
  (** [-1], which no handle is: {!next_handle}'s answer when the
      vertex has no useful handle left. *)

  val next_handle : cursor -> Oracle.t -> skip_known:bool -> Oracle.vertex -> Oracle.handle
  (** Next potentially useful handle of the vertex, advancing past
      permanently useless ones, or {!none}; nothing is allocated.
      Returns the same handle again until it is requested (usefulness
      is re-checked each call, since other requests may have revealed
      its endpoints in the meantime). *)
end
