(* Determinism of the parallel engine: for any batch and any worker
   count, parallel compilation must be byte-identical to sequential —
   same listings, same object bytes, same error messages in the same
   positions — and parallel table construction must serialize to the
   same bundle as a sequential build.

   COGG_JOBS overrides the worker count exercised here: an integer, or
   "max" for Domain.recommended_domain_count.  The default of 4 makes
   the parallel paths run real domains even on single-core machines. *)

let jobs () =
  match Sys.getenv_opt "COGG_JOBS" with
  | Some "max" -> max 2 (Domain.recommended_domain_count ())
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 4)
  | None -> 4

let tables () = Lazy.force Util.amdahl_tables

let corpus_batch () =
  Array.of_list
    (List.map
       (fun (name, source) -> { Pipeline.Batch.name; source })
       Pipeline.Programs.all)

let fingerprint ?pool batch =
  Pipeline.Batch.fingerprint (Pipeline.Batch.compile_all ?pool (tables ()) batch)

let test_corpus_parallel_equals_sequential () =
  let batch = corpus_batch () in
  let seq = fingerprint batch in
  Cogg.Pool.with_pool ~domains:(jobs ()) (fun pool ->
      Alcotest.(check string)
        "parallel == sequential" seq
        (fingerprint ~pool batch));
  (* a pool of one must add nothing either *)
  Cogg.Pool.with_pool ~domains:1 (fun pool ->
      Alcotest.(check string)
        "pool of one == sequential" seq
        (fingerprint ~pool batch))

let test_corpus_parallel_equals_sequential_no_cse () =
  let batch = corpus_batch () in
  let t = tables () in
  let fp ?pool () =
    Pipeline.Batch.fingerprint
      (Pipeline.Batch.compile_all ?pool ~cse:false ~checks:true t batch)
  in
  let seq = fp () in
  Cogg.Pool.with_pool ~domains:(jobs ()) (fun pool ->
      Alcotest.(check string) "option flags thread through" seq (fp ~pool ()))

let test_errors_land_in_place () =
  (* broken sources exercise the Error arm: failures must carry the same
     message and stay at their own index, never poison a neighbour *)
  let good = Pipeline.Programs.gcd in
  let batch =
    [|
      { Pipeline.Batch.name = "ok0"; source = good };
      { Pipeline.Batch.name = "bad1"; source = "program x; begin y := end." };
      { Pipeline.Batch.name = "ok2"; source = good };
      { Pipeline.Batch.name = "bad3"; source = "not pascal at all" };
      { Pipeline.Batch.name = "ok4"; source = good };
    |]
  in
  let t = tables () in
  let seq = Pipeline.Batch.compile_all t batch in
  let par =
    Cogg.Pool.with_pool ~domains:(jobs ()) (fun pool ->
        Pipeline.Batch.compile_all ~pool t batch)
  in
  Array.iteri
    (fun i r ->
      match (r, par.(i)) with
      | Ok a, Ok b ->
          Alcotest.(check string)
            (Printf.sprintf "job %d object bytes" i)
            (Pipeline.Batch.code_bytes a)
            (Pipeline.Batch.code_bytes b)
      | Error a, Error b ->
          Alcotest.(check string) (Printf.sprintf "job %d error" i) a b
      | _ -> Alcotest.failf "job %d: Ok/Error mismatch between runs" i)
    seq;
  Alcotest.(check bool) "good jobs compiled" true (Result.is_ok seq.(0));
  Alcotest.(check bool) "bad jobs failed" true (Result.is_error seq.(1))

let test_raising_job_fails_alone () =
  (* a compile that raises must fail its own job and leave every other
     job's result as it would have been: corrupt the template of a
     production only the victim program reduces, so that reducing it
     indexes past the popped right-hand side *)
  let t = tables () in
  let prods src =
    let seen = Hashtbl.create 64 in
    (match
       Pipeline.compile ~on_reduce:(fun p -> Hashtbl.replace seen p ()) t src
     with
    | Ok _ -> ()
    | Error m -> Alcotest.fail m);
    seen
  in
  let good = prods Pipeline.Programs.gcd
  and victim = prods Pipeline.Programs.sieve in
  let only_victim =
    Hashtbl.fold
      (fun p () acc -> if Hashtbl.mem good p then acc else p :: acc)
      victim []
  in
  Alcotest.(check bool) "sieve reduces a production gcd does not" true
    (only_victim <> []);
  let target = List.fold_left min max_int only_victim in
  let broken =
    {
      t with
      Cogg.Tables.compiled =
        Array.mapi
          (fun p c ->
            match c with
            | Some c when p = target ->
                Some
                  {
                    c with
                    Cogg.Template.c_steps =
                      [| Cogg.Template.Label_location (Cogg.Template.Stack 99) |];
                  }
            | c -> c)
          t.Cogg.Tables.compiled;
    }
  in
  let batch =
    [|
      { Pipeline.Batch.name = "gcd0"; source = Pipeline.Programs.gcd };
      { Pipeline.Batch.name = "sieve"; source = Pipeline.Programs.sieve };
      { Pipeline.Batch.name = "gcd2"; source = Pipeline.Programs.gcd };
      { Pipeline.Batch.name = "bad3"; source = "not pascal at all" };
    |]
  in
  let clean = Pipeline.Batch.compile_all t batch in
  let check label (results : Pipeline.Batch.result_t array) =
    (match results.(1) with
    | Error m ->
        Alcotest.(check string)
          (label ^ ": the raising job is an internal error")
          ("internal: " ^ Printexc.to_string (Invalid_argument "index out of bounds"))
          m
    | Ok _ -> Alcotest.failf "%s: the raising job compiled" label);
    List.iter
      (fun i ->
        match (clean.(i), results.(i)) with
        | Ok a, Ok b ->
            Alcotest.(check string)
              (Printf.sprintf "%s: job %d listing" label i)
              a.Pipeline.gen.Cogg.Codegen.listing
              b.Pipeline.gen.Cogg.Codegen.listing;
            Alcotest.(check string)
              (Printf.sprintf "%s: job %d object bytes" label i)
              (Pipeline.Batch.code_bytes a)
              (Pipeline.Batch.code_bytes b)
        | Error a, Error b ->
            Alcotest.(check string) (Printf.sprintf "%s: job %d error" label i) a b
        | _ -> Alcotest.failf "%s: job %d changed outcome" label i)
      [ 0; 2; 3 ]
  in
  check "sequential" (Pipeline.Batch.compile_all broken batch);
  Cogg.Pool.with_pool ~domains:(jobs ()) (fun pool ->
      check "parallel" (Pipeline.Batch.compile_all ~pool broken batch))

(* ------------------------------------------------------------------ *)
(* Table construction                                                  *)
(* ------------------------------------------------------------------ *)

let amdahl_spec =
  lazy
    (match Cogg.Spec_parse.of_file (Util.spec_path "amdahl470.cgg") with
    | Ok s -> s
    | Error e -> Alcotest.failf "spec parse: %a" Cogg.Spec_parse.pp_error e)

let build_bundle ?pool () =
  match Cogg.Cogg_build.build ?pool (Lazy.force amdahl_spec) with
  | Ok t -> Cogg.Tables_io.write t
  | Error es ->
      Alcotest.failf "build failed: %a" (Fmt.list Cogg.Cogg_build.pp_error) es

let test_table_build_bytes_identical () =
  let seq = build_bundle () in
  Cogg.Pool.with_pool ~domains:(jobs ()) (fun pool ->
      let par = build_bundle ~pool () in
      Alcotest.(check int) "bundle length" (String.length seq)
        (String.length par);
      Alcotest.(check bool) "bundle bytes identical" true (String.equal seq par));
  Cogg.Pool.with_pool ~domains:1 (fun pool ->
      Alcotest.(check bool)
        "pool of one identical" true
        (String.equal seq (build_bundle ~pool ())))

(* ------------------------------------------------------------------ *)
(* Property: random batches                                            *)
(* ------------------------------------------------------------------ *)

(* Random batches of programs from the fuzz generators (lib/fuzz): each
   batch is a deterministic (seed, index) slice across every generation
   profile, so the property covers arrays, sets, reals, branches and
   procedure calls — not just straight-line integer code — and failures
   (register-pressure capacity errors) exercise the Error arm naturally.
   QCheck shrinking delegates to the fuzz shrinker, so a counterexample
   prints as a minimized batch instead of pages of programs. *)
let gen_programs : Pascal.Ast.program list QCheck.Gen.t =
  let open QCheck.Gen in
  map2
    (fun seed n ->
      List.init n (fun i ->
          let rng = Fuzz.Rng.derive ~seed ~index:i in
          Fuzz.Gen_pascal.program rng (Fuzz.Profile.rotate i)))
    (int_bound 1_000_000) (int_range 1 10)

let shrink_programs (ps : Pascal.Ast.program list) :
    Pascal.Ast.program list QCheck.Iter.t =
 fun yield ->
  (* drop one program, or shrink one program one step *)
  List.iteri
    (fun i _ ->
      let shorter = List.filteri (fun j _ -> j <> i) ps in
      if shorter <> [] then yield shorter)
    ps;
  List.iteri
    (fun i p ->
      Seq.iter
        (fun p' -> yield (List.mapi (fun j q -> if j = i then p' else q) ps))
        (Fuzz.Shrink.program_candidates p))
    ps

let batch_of_programs (ps : Pascal.Ast.program list) :
    Pipeline.Batch.job array =
  Array.of_list
    (List.mapi
       (fun i p ->
         {
           Pipeline.Batch.name = Printf.sprintf "rand%d" i;
           source = Fuzz.Gen_pascal.render p;
         })
       ps)

let prop_random_batches =
  QCheck.Test.make ~count:25 ~name:"random batches: parallel == sequential"
    (QCheck.make gen_programs ~shrink:shrink_programs ~print:(fun ps ->
         String.concat "\n---\n" (List.map Fuzz.Gen_pascal.render ps)))
    (fun ps ->
      let batch = batch_of_programs ps in
      let seq = fingerprint batch in
      let par =
        Cogg.Pool.with_pool ~domains:(jobs ()) (fun pool ->
            fingerprint ~pool batch)
      in
      if seq <> par then
        QCheck.Test.fail_reportf "fingerprints differ: %s vs %s" seq par;
      true)

let () =
  Alcotest.run "batch"
    [
      ( "determinism",
        [
          Alcotest.test_case "corpus: parallel == sequential" `Quick
            test_corpus_parallel_equals_sequential;
          Alcotest.test_case "corpus: options thread through" `Quick
            test_corpus_parallel_equals_sequential_no_cse;
          Alcotest.test_case "errors land in place" `Quick
            test_errors_land_in_place;
          Alcotest.test_case "table build bytes identical" `Quick
            test_table_build_bytes_identical;
          QCheck_alcotest.to_alcotest prop_random_batches;
          Alcotest.test_case "a raising job fails alone" `Quick
            test_raising_job_fails_alone;
        ] );
    ]
