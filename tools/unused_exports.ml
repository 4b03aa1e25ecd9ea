(* Lists every value a lib/ or bin/ interface exports that no other
   compilation unit references:

     dune build @check && dune exec tools/unused_exports.exe -- _build/default

   Exports are the [val]s of every .cmti under lib/ and bin/, those of
   nested [module X : sig ... end] signatures included. References are
   the identifiers of every implementation .cmt under lib/, bin/, test/,
   examples/ and e2ebench/. Each one is resolved through the typing
   environment the compiler recorded for it, on the load path the unit
   was compiled with, so a local alias such as
   [module S = Sf_core.Searchability] and dune's [Lib__Mod] wrapping
   both lead back to the unit that defines the value. An identifier
   that cannot be resolved (a missing .cmi) is a fatal error: the raw
   path would make a used export look unused. Only a path to the value
   itself counts: a value reached only through [include] or a functor
   argument is reported.

   Exit status: 0 when every export is used elsewhere, 1 when some are
   not (each is listed), 2 on a usage or resolution error. *)

open Typedtree

let export_dirs = [ "lib"; "bin" ]
let reference_dirs = [ "lib"; "bin"; "test"; "examples"; "e2ebench" ]

(* Every file under [dir] whose name ends in [ext], hidden directories
   (dune's .objs) included, in a fixed order. *)
let rec files_with ext dir =
  if not (Sys.file_exists dir) then []
  else if Sys.is_directory dir then
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f -> files_with ext (Filename.concat dir f))
  else if Filename.check_suffix dir ext then [ dir ]
  else []

let under root dirs ext =
  List.concat_map (fun d -> files_with ext (Filename.concat root d)) dirs

(* "Unit.name" or "Unit.Nested.name" of each exported value, with the
   source line it is declared on. *)
let exports_of cmti =
  let info = Cmt_format.read_cmt cmti in
  let rec sig_vals prefix sg =
    List.concat_map
      (fun item ->
        match item.sig_desc with
        | Tsig_value vd ->
            [ (prefix ^ "." ^ Ident.name vd.val_id, vd.val_loc) ]
        | Tsig_module
            { md_id = Some id; md_type = { mty_desc = Tmty_signature sg; _ }; _ }
          ->
            sig_vals (prefix ^ "." ^ Ident.name id) sg.sig_items
        | _ -> [])
      sg
  in
  match info.cmt_annots with
  | Interface sg -> sig_vals info.cmt_modname sg.sig_items
  | _ -> []

(* Marks in [used] the normalised path of every value [cmt] references. *)
let scan_references ~root used cmt =
  let info = Cmt_format.read_cmt cmt in
  (* the load path the unit was compiled with; relative entries are
     relative to the build root *)
  Load_path.init ~auto_include:Load_path.no_auto_include
    (List.map
       (fun d -> if Filename.is_relative d then Filename.concat root d else d)
       info.cmt_loadpath);
  (* every directory of executables has its own Dune__exe *)
  Env.reset_cache ();
  Envaux.reset_cache ();
  let expr it e =
    (match e.exp_desc with
    | Texp_ident (p, _, _) ->
        let env = Envaux.env_of_only_summary e.exp_env in
        Hashtbl.replace used
          (Path.name (Env.normalize_value_path (Some e.exp_loc) env p))
          ()
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  match info.cmt_annots with
  | Implementation str -> it.structure it str
  | _ -> ()

let () =
  let root =
    match Sys.argv with
    | [| _; root |] -> root
    | _ ->
        prerr_endline "usage: unused_exports BUILD_DIR (e.g. _build/default)";
        exit 2
  in
  let interfaces = under root export_dirs ".cmti" in
  let exports = List.concat_map exports_of interfaces in
  let units = under root reference_dirs ".cmt" in
  let used = Hashtbl.create 4096 in
  (try List.iter (scan_references ~root used) units
   with e ->
     Format.eprintf "unused_exports: %a@." Location.report_exception e;
     exit 2);
  let unused =
    List.filter (fun (name, _) -> not (Hashtbl.mem used name)) exports
  in
  List.iter
    (fun (name, (loc : Location.t)) ->
      Printf.printf "%s:%d: val %s\n" loc.loc_start.pos_fname
        loc.loc_start.pos_lnum name)
    unused;
  Printf.printf
    "%d exports in %d interfaces, %d units scanned, 0 unresolved \
     identifiers: %d unused\n"
    (List.length exports) (List.length interfaces) (List.length units)
    (List.length unused);
  if unused <> [] then exit 1
