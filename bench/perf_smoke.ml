(* Allocation smoke test:
     dune build @perf-smoke
   meters minor-heap allocation on two paths and fails if either exceeds
   its checked-in budget (bench/perf_budget.txt, passed as argv.(1)).
   Allocation is deterministic, so the gate means the same thing on any
   machine, unlike a wall-clock bound.

   The budget file holds one number per line, each ~1.5x the measured
   steady-state figure, so drift trips it long before it shows up as
   wall-clock noise:
   - line 1: minor words per warm [Codegen.generate] of the appendix-1
     equation under the default (comb) dispatch — the codegen hot path
     (a new per-token allocation, a listing rendered through Format
     again);
   - line 2: minor words per [Pipeline.compile] pass over the eight
     examples/programs, CSE on — end to end, so an allocation blow-up
     upstream of codegen (front end, shaper, CSE optimizer, linearize)
     trips it too. *)

let rec find_up ?(depth = 6) dir rel =
  let candidate = Filename.concat dir rel in
  if Sys.file_exists candidate then Some candidate
  else if depth = 0 then None
  else find_up ~depth:(depth - 1) (Filename.dirname dir) rel

let locate rel =
  match find_up (Sys.getcwd ()) rel with
  | Some p -> p
  | None ->
      Fmt.epr "cannot locate %s@." rel;
      exit 2

(* [warmup] untimed runs (interning tables, buffer growth, code paths),
   then the mean minor words over [runs] metered ones *)
let meter ~label ~unit ~budget ~warmup ~runs f =
  for _ = 1 to warmup do
    f ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to runs do
    f ()
  done;
  let per_run = (Gc.minor_words () -. w0) /. float_of_int runs in
  Fmt.pr "perf-smoke[%s]: %.0f minor words/%s (budget %.0f)@." label per_run
    unit budget;
  if per_run > budget then begin
    Fmt.epr
      "perf-smoke[%s] FAILED: %.0f minor words/%s exceeds the budget of %.0f \
       (bench/perf_budget.txt); this path is allocating more than it used \
       to@."
      label per_run unit budget;
    exit 1
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let () =
  let budget_file =
    if Array.length Sys.argv > 1 then Sys.argv.(1)
    else begin
      Fmt.epr "usage: perf_smoke <budget-file>@.";
      exit 2
    end
  in
  let budgets =
    String.split_on_char '\n' (read_file budget_file)
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
    |> List.map (fun line ->
           match float_of_string_opt line with
           | Some b -> b
           | None ->
               Fmt.epr "%s: not a number: %S@." budget_file line;
               exit 2)
  in
  let codegen_budget, pipeline_budget =
    match budgets with
    | [ c; p ] -> (c, p)
    | _ ->
        Fmt.epr "%s: want two budget lines, found %d@." budget_file
          (List.length budgets);
        exit 2
  in
  let tables =
    match Cogg.Cogg_build.build_file (locate "specs/amdahl470.cgg") with
    | Ok t -> t
    | Error es ->
        Fmt.epr "%a@." (Fmt.list Cogg.Cogg_build.pp_error) es;
        exit 2
  in
  let tokens =
    match Pipeline.compile tables Pipeline.Programs.appendix1_equation with
    | Ok c -> c.Pipeline.tokens
    | Error m ->
        Fmt.epr "%s@." m;
        exit 2
  in
  meter ~label:"comb" ~unit:"compile" ~budget:codegen_budget ~warmup:10
    ~runs:50 (fun () -> ignore (Cogg.Codegen.generate tables tokens));
  let dir = locate "examples/programs" in
  let bank =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".pas")
    |> List.sort String.compare
    |> List.map (fun f -> read_file (Filename.concat dir f))
  in
  if List.length bank <> 8 then begin
    Fmt.epr "%s: expected the 8 bank programs, found %d@." dir
      (List.length bank);
    exit 2
  end;
  meter ~label:"pipeline" ~unit:"pass" ~budget:pipeline_budget ~warmup:1
    ~runs:2 (fun () ->
      List.iter
        (fun src ->
          match Pipeline.compile tables src with
          | Ok _ -> ()
          | Error m ->
              Fmt.epr "bank program failed to compile: %s@." m;
              exit 2)
        bank)
