(* Written once by the harness before worker domains exist, then only
   read — an Atomic for publication-safety, not for contention. *)
let current : Cache.t option Atomic.t = Atomic.make None

let set_cache c = Atomic.set current c
let cache () = Atomic.get current

let env_var = "SCALEFREE_CORPUS"

let configure ?dir () =
  let dir =
    match dir with
    | Some _ -> dir
    | None -> (
      match Sys.getenv_opt env_var with Some "" | None -> None | Some d -> Some d)
  in
  set_cache (Option.map Cache.open_dir dir)

let instance ~gen ~params make rng n =
  match cache () with
  | None -> make rng n
  | Some cache -> (
    let key = { Fingerprint.gen; params; n; stream = Fingerprint.rng_token rng } in
    let hit =
      match Cache.find cache key with
      | Some (u, entry) -> (
        (* a malformed rng token in the index is as fatal as a corrupt
           object: fall back to regeneration *)
        try
          Fingerprint.restore rng entry.Cache.rng_after;
          Some (u, entry.Cache.target)
        with Invalid_argument _ -> None)
      | None -> None
    in
    match hit with
    | Some result -> result
    | None ->
      let u, target = make rng n in
      Cache.add cache key ~graph:u ~target ~rng_after:(Fingerprint.rng_token rng);
      (u, target))
