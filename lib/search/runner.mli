(** Executes one strategy against one oracle and scores it with the
    paper's complexity measure. *)

type outcome = {
  strategy : string;
  n_vertices : int;
  total_requests : int; (** requests made before the run stopped *)
  to_target : int option;
      (** requests when the target was discovered; [None] if the run
          stopped first *)
  to_neighbor : int option;
      (** requests when the target's closed neighbourhood was first
          touched — the paper's stopping rule *)
  discovered : int; (** vertices known at the end *)
  gave_up : bool; (** strategy ran out of moves before stopping *)
}

type stop_rule =
  | At_target  (** run until the target itself is discovered *)
  | At_neighbor
      (** stop as soon as a neighbour of the target (or the target) is
          discovered — the paper's lenient rule, and cheaper to run *)

val run :
  ?budget:int ->
  ?stop_at:stop_rule ->
  rng:Sf_prng.Rng.t ->
  Strategy.t ->
  Oracle.t ->
  outcome
(** [budget] caps requests (default [4 * n + 64]); [stop_at] defaults
    to {!At_target}. The [rng] seeds the strategy's private stream.
    @raise Invalid_argument if the strategy and oracle models differ. *)

(** {1 Traced runs}

    For debugging strategies and exporting to external analysis: the
    same execution, with the request-by-request record replayed off
    the unified {!Sf_obs.Trace} stream (the oracle emits one
    ["search.request"] event per paid request; a traced run attaches a
    private collector sink for its duration). Consequently a traced
    run under [--no-obs] ({!Sf_obs.Registry.set_enabled}[ false])
    returns an {e empty} trace — the stream is silenced along with
    every other instrumentation site. *)

type trace_event = {
  index : int; (** 1-based request number *)
  kind : [ `Weak_edge | `Strong_vertex ];
  at : int; (** the vertex the request addressed *)
  revealed : int list; (** vertices newly discovered by this request *)
  discovered_total : int; (** discovered count after the request *)
}

val run_traced :
  ?budget:int ->
  ?stop_at:stop_rule ->
  rng:Sf_prng.Rng.t ->
  Strategy.t ->
  Oracle.t ->
  outcome * trace_event list
(** Like {!run}, also returning the request-by-request trace in
    execution order. *)

val trace_to_csv : trace_event list -> string
(** CSV rendering of a trace (header: index, kind, at, revealed,
    discovered_total); [revealed] is ';'-separated. *)

val search :
  ?obfuscate:bool ->
  ?budget:int ->
  ?stop_at:stop_rule ->
  rng:Sf_prng.Rng.t ->
  Sf_graph.Ugraph.t ->
  Strategy.t ->
  source:int ->
  target:int ->
  outcome
(** Convenience wrapper: build the oracle (model taken from the
    strategy), run, and {!Oracle.release} it. *)
