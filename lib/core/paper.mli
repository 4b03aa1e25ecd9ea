(** The paper, statement by statement, as runnable checks.

    Each entry quotes one claim of Duchon–Eggemann–Hanusse (2007),
    says how this repository verifies it, and carries a fast
    self-check (seconds, not minutes — the full-scale versions live in
    the experiment registry). [sfexp verify] and the bench harness
    print the resulting certificate. *)

type rigor =
  | Exact  (** verified by exact computation (enumeration/rationals) *)
  | Statistical  (** verified by calibrated statistical tests *)
  | Empirical  (** reproduced by measurement at laptop scale *)

type statement = {
  id : string; (** e.g. "Lemma 3" *)
  claim : string; (** the paper's assertion, paraphrased *)
  method_ : string; (** how this repository checks it *)
  rigor : rigor;
  experiments : string list; (** related experiment ids *)
  check : seed:int -> (string * bool) list;
      (** named sub-checks; all true = statement verified here *)
}

type report = { statement : statement; results : (string * bool) list }

val verify : seed:int -> report list

val all_pass : report list -> bool

val render : report list -> string
(** Human-readable certificate. *)
