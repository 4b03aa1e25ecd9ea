(* Sf_obs.Json under its former name, for the benchmark driver that
   still refers to it. *)
include Sf_obs.Json
