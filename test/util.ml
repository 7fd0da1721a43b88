(* Shared test helpers: locating spec files and running generated code. *)

let rec find_up ?(depth = 6) dir rel =
  let candidate = Filename.concat dir rel in
  if Sys.file_exists candidate then Some candidate
  else if depth = 0 then None
  else find_up ~depth:(depth - 1) (Filename.dirname dir) rel

let spec_path name =
  match find_up (Sys.getcwd ()) (Filename.concat "specs" name) with
  | Some p -> p
  | None -> Alcotest.failf "cannot locate specs/%s from %s" name (Sys.getcwd ())

(* Build [target]'s driving tables from its own spec file. *)
let build ?mode (target : Machine.Target.t) : Cogg.Tables.t =
  let rel = target.Machine.Target.spec_file in
  let path =
    match find_up (Sys.getcwd ()) rel with
    | Some p -> p
    | None -> Alcotest.failf "cannot locate %s from %s" rel (Sys.getcwd ())
  in
  match Cogg.Cogg_build.build_file ?mode ~target path with
  | Ok t -> t
  | Error es ->
      Alcotest.failf "%s failed to build: %a" rel
        (Fmt.list Cogg.Cogg_build.pp_error)
        es

(* One memoised bundle per entry of the target registry, keyed by its
   name: every suite shares the single build of each spec. *)
let registry =
  List.map (fun (name, target) -> (name, lazy (build target)))
    Machine.Targets.all

let tables (name : string) : Cogg.Tables.t =
  Lazy.force (List.assoc name registry)

let amdahl_tables = lazy (tables "amdahl470")
let risc32_tables = lazy (tables "risc32")

(* Register every case once per entry of [Machine.Targets.all], as one
   Alcotest group "GROUP (TARGET)" per target; each case receives that
   target's tables.  Adding a row to the registry runs every case on it
   without editing a test file. *)
let per_target (group : string)
    (cases : (string * (Cogg.Tables.t -> unit)) list) :
    (string * unit Alcotest.test_case list) list =
  List.map
    (fun (name, _) ->
      ( Printf.sprintf "%s (%s)" group name,
        List.map
          (fun (case, f) ->
            Alcotest.test_case case `Quick (fun () -> f (tables name)))
          cases ))
    Machine.Targets.all

(* Local variable displacements within the frame. *)
let local n = Machine.Runtime.locals_base + (4 * n)

type run = {
  sim : Machine.Sim.t;
  frame : int;
  outcome : Machine.Runtime.outcome;
  genresult : Cogg.Codegen.result_t;
}

(* Generate code for an IF program (textual syntax), boot it, initialize
   locals ([slot, value] pairs against the main frame: words, halfwords
   and double reals), run, and return
   the machine.  The simulator and trap set come from the bundle's own
   target, so the same helper drives both backends. *)
let compile_and_run ?(layout = Machine.Runtime.default_layout) ?strategy
    ?(locals = []) ?(halves = []) ?(floats = []) (tables : Cogg.Tables.t)
    (if_text : string) : run =
  let tgt = tables.Cogg.Tables.target in
  match Cogg.Codegen.generate_string ?strategy tables if_text with
  | Error m -> Alcotest.failf "codegen failed: %s" m
  | Ok genresult -> (
      match tgt.Machine.Target.boot ~layout genresult.Cogg.Codegen.objmod with
      | Error m -> Alcotest.failf "boot failed: %s" m
      | Ok (sim, entry) -> (
          let frame = Machine.Runtime.main_frame layout in
          List.iter
            (fun (slot, v) -> Machine.Sim.store_w sim (frame + local slot) v)
            locals;
          List.iter
            (fun (slot, v) -> Machine.Sim.store_h sim (frame + local slot) v)
            halves;
          List.iter
            (fun (slot, v) ->
              Machine.Sim.store_f64 sim (frame + local slot) v)
            floats;
          match tgt.Machine.Target.run ~layout sim ~entry with
          | Error m ->
              Alcotest.failf "execution failed: %s\nlisting:\n%s" m
                genresult.Cogg.Codegen.listing
          | Ok outcome -> { sim; frame; outcome; genresult }))

let read_local run slot = Machine.Sim.load_w run.sim (run.frame + local slot)
let read_byte run slot = Machine.Sim.load_u8 run.sim (run.frame + local slot)
let read_half run slot = Machine.Sim.load_h run.sim (run.frame + local slot)

let contains (haystack : string) (needle : string) : bool =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* IF fragments bracket their body in procedure entry/exit. *)
let prog body = "procedure_entry " ^ body ^ " procedure_exit"

(* "assign x<dst> := <op> x<a> x<b>" over fullword local slots *)
let binop dst op a b =
  Printf.sprintf
    "assign fullword dsp:%d r:13 %s fullword dsp:%d r:13 fullword dsp:%d r:13"
    (local dst) op (local a) (local b)

(* A forward branch over 400 add statements (12 bytes each on the Amdahl
   470): reaching x0 := 77 takes a branch whose span exceeds one
   4096-byte page. *)
let page_crossing_body =
  Printf.sprintf
    "branch_op lbl:1 %s label_def lbl:1 assign fullword dsp:%d r:13 \
     pos_constant v:77"
    (String.concat " " (List.init 400 (fun _ -> binop 4 "iadd" 4 5)))
    (local 0)
