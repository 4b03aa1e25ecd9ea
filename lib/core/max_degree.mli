(** Móri's maximum-degree law: in the Móri tree the maximum (in)degree
    grows like [t^p] (Móri 2005). This is the premise of Theorem 1's
    strong-model half — the strong→weak simulation loses a factor of
    at most the maximum degree, so a [t^p]-ish max degree turns the
    weak √n bound into [n^(1/2 - p - ε)]. *)

val max_indegree_series :
  Sf_prng.Rng.t -> p:float -> checkpoints:int list -> (int * int) list
(** Grow one Móri tree to the largest checkpoint and report
    [(t, max indegree of G_t)] at each checkpoint — a single
    trajectory of the max-degree process. Checkpoints must all be
    [>= 2]. *)

val mean_max_indegree :
  Sf_prng.Rng.t -> p:float -> checkpoints:int list -> trials:int -> (int * float) list
(** Average of {!max_indegree_series} over independent trees. *)

val fit_exponent : (int * float) list -> Sf_stats.Regression.fit
(** Log–log fit of max degree against [t]; [fit.slope ≈ p] is the
    law's prediction. *)
