(** Lemma 1 and the explicit (non-asymptotic) lower bounds of
    Theorems 1 and 2 of Duchon–Eggemann–Hanusse, "Non-searchability of
    random scale-free graphs" (PAPER.md).

    Lemma 1: if [V] is equivalent conditional on [E]
    ({!Equivalence}), every weak searcher for a target in [V] makes at
    least [|V|·P(E)/2] expected requests — "requests" being exactly
    what the [search.requests] counter of the observability layer
    measures at runtime (doc/OBSERVABILITY.md), so every bound
    computed here can be confronted with a measured manifest. The
    theorem drivers instantiate [V] and [E]:

    - {b Theorem 1} (Móri, merged or not): the window
      [V = [a+1, b]] with [a = n-1], [b = a + ⌊√(a-1)⌋] (scaled by
      the merge factor [m]), and [E = E_{a,b}] with its exact
      probability ({!Events.prob_exact}) — so the bound carries an
      explicit constant, not just Ω(√n).
    - {b Theorem 2} (Cooper–Frieze): the analogous containment event —
      the last [w ≈ √n] arrivals attach only to the old core, receive
      no edges, and are never reused as OLD-step sources; arrivals
      sharing an out-degree are then exchangeable. The paper omits the
      CF proof details (page limit), so the event probability and
      equivalence-class size are estimated by Monte-Carlo here,
      yielding an {e estimated} explicit bound of the same √n shape. *)

val lemma1 : set_size:int -> event_prob:float -> float
(** [|V| · P(E) / 2]. *)

type bound = {
  n : int; (** the target vertex (the n-th arrival) *)
  m : int; (** merge factor (1 = tree) *)
  p : float;
  a : int; (** window start, in {e merged} vertex ids *)
  b : int; (** window end (inclusive) *)
  graph_size : int; (** merged vertices the graph must have (= b) *)
  set_size : int;
  event_prob : float;
  requests : float; (** the Lemma 1 expected-request lower bound *)
}

val theorem1 : p:float -> m:int -> n:int -> bound
(** The explicit Theorem 1 bound for finding vertex [n] in the merged
    Móri graph. The window in tree coordinates is
    [(a·m, a·m + w·m]] with [w = max 1 (⌊√(a·m - 1)⌋ / m)], so the
    merged window [V = [a+1, a+w]] consists of [w] fully-merged
    blocks; [P(E)] is exact. For [m = 1] this is literally the
    paper's construction. @raise Invalid_argument if [n < 3]. *)

type window_choice = {
  width : int; (** window width w *)
  event_prob : float; (** exact P(E_{a, a+w}) *)
  requests : float; (** the Lemma-1 bound w·P(E)/2 *)
}

val window_tradeoff : p:float -> a:int -> widths:int list -> window_choice list
(** The bound as a function of the window width, with exact event
    probabilities: widening the window grows |V| linearly but decays
    P(E) exponentially beyond ~√a. The ablation behind the paper's
    choice w = ⌊√(a−1)⌋ (experiment T18). *)

val optimal_window : p:float -> a:int -> ?max_width:int -> unit -> window_choice
(** The width maximising w·P(E_{a,a+w})/2, found by an exact
    incremental scan up to [max_width] (default 8·√a). The optimum
    sits at Θ(√a) and improves the canonical constant only by a
    bounded factor — the paper's choice is the right order. *)

val asymptotic_theorem1 : p:float -> n:int -> float
(** The paper's headline form [√n · e^{-(1-p)} / 2] (weak model,
    m = 1): what Lemmas 1–3 give without the exact product. *)

val strong_model_exponent : p:float -> float
(** Theorem 1, strong model: the bound exponent [1/2 - p] (positive
    content only for [p < 1/2], as the paper notes). *)

type cf_estimate = {
  n : int;
  window : int;
  trials : int;
  event_rate : float; (** Monte-Carlo P(E) *)
  event_rate_se : float;
  mean_class_size : float;
      (** mean size of the largest same-out-degree class within the
          window, among event trials *)
  requests : float; (** estimated Lemma 1 bound *)
}

val theorem2_estimate :
  Sf_prng.Rng.t ->
  Sf_gen.Cooper_frieze.params ->
  n:int ->
  ?window:int ->
  trials:int ->
  unit ->
  cf_estimate
(** Monte-Carlo instantiation of the Theorem 2 machinery on
    Cooper–Frieze graphs; [window] defaults to [⌊√n⌋]. *)

val cf_event_holds :
  Sf_graph.Ugraph.t -> arrival:int array -> n:int -> window:int -> bool
(** The Theorem 2 containment event on a traced CF graph: every vertex
    of the window [[n-window+1, n]] kept its arrival out-degree, has
    indegree 0, and all its out-edges land at or below [n - window].
    Read from the edge orientation of each window vertex's incidence
    row: O(sum of window degrees), with no copy of the graph. *)
