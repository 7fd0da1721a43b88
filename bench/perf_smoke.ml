(* Allocation smoke test:
     dune build @perf-smoke
   meters minor-heap allocation on four paths and fails if any exceeds
   its checked-in budget (bench/perf_budget.txt, passed as argv.(1)).
   Allocation is deterministic, so the gate means the same thing on any
   machine, unlike a wall-clock bound.

   The budget file holds one number per line, each ~1.5x the measured
   steady-state figure, so drift trips it long before it shows up as
   wall-clock noise:
   - line 1: minor words per warm [Codegen.generate] of the appendix-1
     equation under the default (comb) dispatch — the codegen hot path
     (a new per-token allocation, a listing rendered through Format
     or [string_of_int] again, the disabled cost of the trace spans
     inside it).  A compile measures about 2.35k words; with a boxed
     token record per input token and a right-hand-side copy and a
     token list per reduction it took 5.2k, and with a closure and a
     string per rendered operand as well, 9.8k;
   - line 2: minor words per [Pipeline.compile] pass over the eight
     examples/programs, CSE on — end to end, so an allocation blow-up
     upstream of codegen (front end, shaper, CSE optimizer, linearize)
     trips it too.  A pass measures about 180k words (360k before the
     CSE optimizer returned statements without a repeated candidate
     untouched, 415k before the driver read its input lazily into int
     arrays); the string-keyed
     CSE optimizer an earlier budget replaced took 6.64M, so a return to
     per-node subtree keys would trip it many times over;
   - line 3: minor words per [Codegen.generate] pass over sixteen seeded
     [Fuzz.Gen_if] streams, one in four branch-heavy — long runs of
     reductions straight into the emitter, where template emission and
     register allocation dominate.  A pass measures about 98k words;
     with a boxed token per input token and a right-hand-side copy and
     a token list per reduction it took 240k.  The emitter an earlier
     budget replaced, which built a diagnostic string per [using]
     allocation and lists, tuples and closures per reduction, took
     2.66M, so a return to per-reduction garbage trips it many times
     over;
   - line 4: minor words per pass of the back-end tail alone
     ([Emit.finish], the loader, and [Emit.listing]) over the same
     sixteen streams, parsed once beforehand.  A pass measures about
     17k words: the code images, their TXT records, the loader's
     per-label tables and the small listings.  With an option and a
     tuple per encoded instruction, instruction values per branch site
     and closures and a string per rendered operand the same tail took
     225k. *)

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
  let codegen_budget, pipeline_budget, if_budget, tail_budget =
    match budgets with
    | [ c; p; i; t ] -> (c, p, i, t)
    | _ ->
        Fmt.epr "%s: want four budget lines, found %d@." budget_file
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
        bank);
  let streams =
    List.init 16 (fun i ->
        Fuzz.Gen_if.program ~branch_heavy:(i mod 4 = 3)
          (Fuzz.Rng.derive ~seed:1 ~index:i))
  in
  meter ~label:"if-streams" ~unit:"pass" ~budget:if_budget ~warmup:1 ~runs:3
    (fun () ->
      List.iter
        (fun toks ->
          match Cogg.Codegen.generate tables toks with
          | Ok _ -> ()
          | Error e ->
              Fmt.epr "IF stream failed to compile: %a@." Cogg.Codegen.pp_error e;
              exit 2)
        streams)
  ;
  (* the same streams parsed once, then only the back-end tail metered:
     [Emit.finish] (the loader) and [Emit.listing] leave the emitter as
     they found it, so each run repeats the same work *)
  let emitters =
    List.map
      (fun toks ->
        let e = Cogg.Emit.create tables in
        match Cogg.Driver.parse tables ~reduce:(Cogg.Emit.reduce e) toks with
        | Ok _ -> e
        | Error err ->
            Fmt.epr "IF stream failed to parse: %a@." Cogg.Driver.pp_error err;
            exit 2)
      streams
  in
  meter ~label:"back-end-tail" ~unit:"pass" ~budget:tail_budget ~warmup:1
    ~runs:3 (fun () ->
      List.iter
        (fun e ->
          match Cogg.Emit.finish e with
          | Ok _ -> ignore (Cogg.Emit.listing e)
          | Error m ->
              Fmt.epr "IF stream failed to resolve: %s@." m;
              exit 2)
        emitters)
