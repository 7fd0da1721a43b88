(* The evaluation harness: regenerates every table in the paper plus the
   ablations DESIGN.md calls out.

     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe table1          -- spec/table statistics
     dune exec bench/main.exe table2          -- artifact sizes (pages)
     dune exec bench/main.exe appendix1       -- code comparison vs baseline
     dune exec bench/main.exe ablation-grammar
     dune exec bench/main.exe ablation-regalloc
     dune exec bench/main.exe speed           -- Bechamel timings *)

let rec find_up ?(depth = 6) dir rel =
  let candidate = Filename.concat dir rel in
  if Sys.file_exists candidate then Some candidate
  else if depth = 0 then None
  else find_up ~depth:(depth - 1) (Filename.dirname dir) rel

let spec_path () =
  match find_up (Sys.getcwd ()) "specs/amdahl470.cgg" with
  | Some p -> p
  | None ->
      Fmt.epr "cannot locate specs/amdahl470.cgg@.";
      exit 1

let spec =
  lazy
    (match Cogg.Spec_parse.of_file (spec_path ()) with
    | Ok s -> s
    | Error e ->
        Fmt.epr "%a@." Cogg.Spec_parse.pp_error e;
        exit 1)

let tables =
  lazy
    (match Cogg.Cogg_build.build (Lazy.force spec) with
    | Ok t -> t
    | Error es ->
        Fmt.epr "%a@." (Fmt.list Cogg.Cogg_build.pp_error) es;
        exit 1)

(* the second backend's bundle, built from its own spec: the linearized
   IF is machine-independent, so the risc32 rows below meter the same
   token stream as the amdahl rows and the two are directly comparable *)
let risc32_tables =
  lazy
    (let target = Machine.Targets.find_exn "risc32" in
     let path =
       match find_up (Sys.getcwd ()) target.Machine.Target.spec_file with
       | Some p -> p
       | None ->
           Fmt.epr "cannot locate %s@." target.Machine.Target.spec_file;
           exit 1
     in
     match Cogg.Cogg_build.build_file ~target path with
     | Ok t -> t
     | Error es ->
         Fmt.epr "%a@." (Fmt.list Cogg.Cogg_build.pp_error) es;
         exit 1)

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let table1 () =
  Fmt.pr "@.== Table 1: code generator table statistics (paper vs measured) ==@.@.";
  Fmt.pr "%a@." Cogg.Stats.pp_table1
    (Cogg.Stats.table1 (Lazy.force spec) (Lazy.force tables));
  Fmt.pr
    "The measured grammar is smaller than the production PascalVS grammar@.\
     (199 vs 248 productions: strings, packed records and some conversions@.\
     are out of scope), so states/entries scale down proportionally; the@.\
     shape - hundreds of states, tens of thousands of entries, ~40-50%%@.\
     significant - matches the paper.@."

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)
(* ------------------------------------------------------------------ *)

let table2 () =
  Fmt.pr "@.== Table 2: object module sizes in 4096-byte pages ==@.@.";
  let t = Lazy.force tables in
  let sizes = Cogg.Tables_io.sizes t in
  Fmt.pr "%-36s %10s %10s@." "" "paper" "measured";
  let row label paper bytes =
    Fmt.pr "%-36s %10s %10.1f@." label paper (Cogg.Tables_io.pages bytes)
  in
  row "i.   Template array" "8.5" sizes.Cogg.Tables_io.template_array;
  row "ii.  Compressed parse table" "32.7" sizes.Cogg.Tables_io.compressed_table;
  row "iii. Uncompressed parse table" "71.5" sizes.Cogg.Tables_io.uncompressed_table;
  Fmt.pr "%-36s %10s %s@." "iv.  Code generation routines" "7.5"
    "(~2.5k lines of runtime OCaml; see DESIGN.md)";
  Fmt.pr "@.Compression method ablation (paper: tables are \"by no means minimally compressed\"):@.";
  Fmt.pr "%-24s %12s %8s@." "method" "bytes" "pages";
  List.iter
    (fun (name, m) ->
      let c = Cogg.Compress.compress ~method_:m t.Cogg.Tables.parse in
      (match Cogg.Compress.verify c t.Cogg.Tables.parse with
      | Ok _ -> ()
      | Error e ->
          Fmt.epr "compression verification failed: %s@." e;
          exit 1);
      Fmt.pr "%-24s %12d %8.1f@." name c.Cogg.Compress.size_bytes
        (Cogg.Tables_io.pages c.Cogg.Compress.size_bytes))
    [
      ("none (flat)", Cogg.Compress.No_compression);
      ("default reductions", Cogg.Compress.Defaults_only);
      ("comb packing", Cogg.Compress.Comb_only);
      ("defaults + comb", Cogg.Compress.Defaults_and_comb);
    ]

(* ------------------------------------------------------------------ *)
(* Appendix 1: code comparison against the hand-written generator      *)
(* ------------------------------------------------------------------ *)

let count_insns (resolved : Cogg.Loader_gen.resolved) =
  Machine.Encode.decode_all resolved.Cogg.Loader_gen.code
    ~pos:resolved.Cogg.Loader_gen.entry
    ~len:
      (Bytes.length resolved.Cogg.Loader_gen.code
      - resolved.Cogg.Loader_gen.entry)
  |> List.length

let side_by_side left right =
  let l = String.split_on_char '\n' left in
  let r = String.split_on_char '\n' right in
  let n = max (List.length l) (List.length r) in
  let get xs i = try List.nth xs i with _ -> "" in
  for i = 0 to n - 1 do
    Fmt.pr "%-42s | %s@." (String.trim (get l i)) (String.trim (get r i))
  done

let appendix1_one name src =
  let t = Lazy.force tables in
  match (Pipeline.compile t src, Pipeline.compile_baseline src) with
  | Error m, _ | _, Error m ->
      Fmt.epr "%s@." m;
      exit 1
  | Ok c, Ok b ->
      let cogg_n = count_insns c.Pipeline.gen.Cogg.Codegen.resolved in
      let base_n = count_insns b.Pipeline.b_gen.Baseline.resolved in
      let cogg_bytes =
        Bytes.length c.Pipeline.gen.Cogg.Codegen.resolved.Cogg.Loader_gen.code
      in
      let base_bytes =
        Bytes.length b.Pipeline.b_gen.Baseline.resolved.Cogg.Loader_gen.code
      in
      Fmt.pr "@.---- %s ----@.@." name;
      Fmt.pr "%-42s | %s@." "CoGG (table driven)" "hand written (PascalVS role)";
      Fmt.pr "%-42s-+-%s@." (String.make 42 '-') (String.make 30 '-');
      side_by_side c.Pipeline.gen.Cogg.Codegen.listing
        b.Pipeline.b_gen.Baseline.listing;
      Fmt.pr "@.instructions: CoGG %d vs hand-written %d;  bytes: %d vs %d@."
        cogg_n base_n cogg_bytes base_bytes;
      (* both must execute and agree *)
      (match (Pipeline.execute c, Pipeline.execute_baseline b) with
      | Ok x, Ok y when x.Pipeline.written_ints = y.Pipeline.written_ints ->
          Fmt.pr "outputs agree: %a@." Fmt.(list ~sep:sp int) x.Pipeline.written_ints
      | Ok _, Ok _ ->
          Fmt.epr "OUTPUT MISMATCH@.";
          exit 1
      | Error m, _ | _, Error m ->
          Fmt.epr "%s@." m;
          exit 1);
      (cogg_n, base_n)

let appendix1 () =
  Fmt.pr "@.== Appendix 1: emitted code, table-driven vs hand-written ==@.";
  let c1, b1 =
    appendix1_one "x[q] := a[i]+b[j]*(c[k]-d[l])+(e[m] div (f[n]+g[o]))*h[p]"
      Pipeline.Programs.appendix1_equation
  in
  let c2, b2 =
    appendix1_one "if flag then i := j-1 else i := z;  if p<>q then l := z"
      Pipeline.Programs.appendix1_branches
  in
  Fmt.pr
    "@.Paper's finding: the table-driven generator produces code \"as good@.\
     as\" the hand-crafted compiler.  Measured: %d vs %d and %d vs %d@.\
     instructions (ratios %.2f and %.2f).@."
    c1 b1 c2 b2
    (float_of_int c1 /. float_of_int b1)
    (float_of_int c2 /. float_of_int b2)

(* ------------------------------------------------------------------ *)
(* Ablation A: grammar size (paper section 6)                          *)
(* ------------------------------------------------------------------ *)

let ablation_grammar () =
  Fmt.pr "@.== Ablation: grammar size vs table size vs code quality ==@.@.";
  Fmt.pr
    "\"By reducing the number of productions in the grammar, the size of@.\
     the parse tables is also reduced ... without losing the guarantee of@.\
     generating correct code.\" (paper section 6)@.@.";
  Fmt.pr "%-10s %6s %7s %8s %11s %10s %10s %8s@." "grammar" "prods" "states"
    "entries" "compressed" "templates" "gcd-bytes" "correct";
  let full_spec = Lazy.force spec in
  List.iter
    (fun lvl ->
      let sub = Cogg.Spec_subset.filter lvl full_spec in
      match Cogg.Cogg_build.build sub with
      | Error es ->
          Fmt.epr "%a@." (Fmt.list Cogg.Cogg_build.pp_error) es;
          exit 1
      | Ok t ->
          let s1 = Cogg.Stats.table1 sub t in
          let sz = Cogg.Tables_io.sizes t in
          let code_bytes, correct =
            match Pipeline.verify ~cse:false t Pipeline.Programs.gcd with
            | Ok v ->
                ( (match Pipeline.compile ~cse:false t Pipeline.Programs.gcd with
                  | Ok c ->
                      Bytes.length
                        c.Pipeline.gen.Cogg.Codegen.resolved.Cogg.Loader_gen.code
                  | Error _ -> -1),
                  v.Pipeline.agreed )
            | Error _ -> (-1, false)
          in
          Fmt.pr "%-10s %6d %7d %8d %11d %10d %10d %8b@."
            (Cogg.Spec_subset.level_name lvl)
            s1.Cogg.Stats.productions s1.Cogg.Stats.states s1.Cogg.Stats.entries
            sz.Cogg.Tables_io.compressed_table s1.Cogg.Stats.templates
            code_bytes correct)
    Cogg.Spec_subset.all_levels

(* ------------------------------------------------------------------ *)
(* Ablation B: register allocation strategy (paper section 4.1)        *)
(* ------------------------------------------------------------------ *)

let ablation_regalloc () =
  Fmt.pr "@.== Ablation: register allocation strategy ==@.@.";
  Fmt.pr
    "The paper allocates least-recently-used registers \"in an attempt to@.\
     reduce operand contention in the pipeline\".  Mean reuse distance (in@.\
     reductions) is the contention proxy: larger is better.@.@.";
  Fmt.pr "%-14s %-12s %8s %8s %10s %12s %8s@." "workload" "strategy" "allocs"
    "moves" "evictions" "mean-reuse" "correct";
  let t = Lazy.force tables in
  List.iter
    (fun (wname, src) ->
      List.iter
        (fun strategy ->
          match Pipeline.verify ~strategy t src with
          | Error m ->
              Fmt.epr "%s: %s@." wname m;
              exit 1
          | Ok v -> (
              match Pipeline.compile ~strategy t src with
              | Error _ -> assert false
              | Ok c ->
                  let st = c.Pipeline.gen.Cogg.Codegen.alloc_stats in
                  let reuse =
                    match st.Cogg.Regalloc.reuse_count with
                    | 0 -> 0.0
                    | n -> float_of_int st.Cogg.Regalloc.reuse_sum /. float_of_int n
                  in
                  Fmt.pr "%-14s %-12s %8d %8d %10d %12.1f %8b@." wname
                    (Cogg.Regalloc.strategy_name strategy)
                    st.Cogg.Regalloc.n_allocs st.Cogg.Regalloc.n_transfers
                    st.Cogg.Regalloc.n_evictions reuse v.Pipeline.agreed))
        Cogg.Regalloc.[ Lru; Round_robin; First_free ])
    [
      ("appendix1-eq", Pipeline.Programs.appendix1_equation);
      ("sieve", Pipeline.Programs.sieve);
      ("cse-demo", Pipeline.Programs.cse_demo);
    ]

(* ------------------------------------------------------------------ *)
(* Speed: Bechamel micro-benchmarks                                    *)
(* ------------------------------------------------------------------ *)

(* Minimal JSON writer for the machine-readable perf trajectory; names
   contain only parentheses, letters and punctuation safe in a JSON
   string, but escape defensively anyway. *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Reader for the same writer below: one "name": number pair per line.
   Used to merge a fresh run into the existing file so the perf
   trajectory accumulates across benchmarks that measure different row
   sets (e.g. a speed run without the batch rows must not erase them). *)
let read_speed_json path : (string * float) list =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let rows = ref [] in
    (try
       while true do
         let line = String.trim (input_line ic) in
         if String.length line > 1 && line.[0] = '"' then
           match String.index_opt (String.sub line 1 (String.length line - 1)) '"' with
           | None -> ()
           | Some i -> (
               let name = String.sub line 1 i in
               match String.index_opt line ':' with
               | None -> ()
               | Some c -> (
                   let v =
                     String.trim
                       (String.sub line (c + 1) (String.length line - c - 1))
                   in
                   let v =
                     if String.length v > 0 && v.[String.length v - 1] = ','
                     then String.sub v 0 (String.length v - 1)
                     else v
                   in
                   match float_of_string_opt v with
                   | Some f -> rows := (name, f) :: !rows
                   | None -> ()))
       done
     with End_of_file -> ());
    close_in ic;
    List.rev !rows
  end

let write_speed_json path (rows : (string * float) list) =
  (* merge: existing rows keep their position (values refreshed when
     re-measured); genuinely new rows append in measurement order *)
  let existing = read_speed_json path in
  let merged =
    List.map
      (fun (name, v) ->
        (name, Option.value (List.assoc_opt name rows) ~default:v))
      existing
    @ List.filter (fun (name, _) -> not (List.mem_assoc name existing)) rows
  in
  let oc = open_out path in
  output_string oc "{\n";
  List.iteri
    (fun i (name, ns) ->
      Printf.fprintf oc "  \"%s\": %.1f%s\n" (json_escape name) ns
        (if i = List.length merged - 1 then "" else ","))
    merged;
  output_string oc "}\n";
  close_out oc;
  Fmt.pr "@.wrote %s@." path

(* The 32-job batch the speed benchmark times; also the subject of the
   `fingerprint` subcommand, which digests every listing and object byte
   so refactors of the codegen core can prove byte-identical output. *)
let bench_batch () =
  let corpus = Pipeline.Programs.all in
  let n_corpus = List.length corpus in
  Array.init 32 (fun i ->
      let name, source = List.nth corpus (i mod n_corpus) in
      { Pipeline.Batch.name = Printf.sprintf "%s#%d" name i; source })

(* The real-workload bank under examples/programs: batch throughput and
   per-token codegen cost measured on realistic code (sorts, an
   expression evaluator, numeric kernels) rather than the synthetic
   corpus alone. *)
let real_programs =
  lazy
    (match find_up (Sys.getcwd ()) "examples/programs" with
    | None -> []
    | Some dir ->
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".pas")
        |> List.sort compare
        |> List.map (fun f ->
               let ic = open_in_bin (Filename.concat dir f) in
               let text = really_input_string ic (in_channel_length ic) in
               close_in ic;
               (Filename.remove_extension f, text)))

let real_batch () =
  Array.of_list
    (List.map
       (fun (name, source) -> { Pipeline.Batch.name; source })
       (Lazy.force real_programs))

let fingerprint () =
  let t = Lazy.force tables in
  let fp = Pipeline.Batch.fingerprint (Pipeline.Batch.compile_all t (bench_batch ())) in
  Fmt.pr "batch fingerprint: %s@." fp

let speed ?(json = false) () =
  Fmt.pr "@.== Timings (Bechamel) ==@.@.";
  let open Bechamel in
  let open Toolkit in
  (* previous trajectory, read before measuring: the observability gate
     below compares fresh batch rows against it *)
  let prev = read_speed_json "BENCH_speed.json" in
  let t = Lazy.force tables in
  let full_spec = Lazy.force spec in
  let spec_file = spec_path () in
  (* warm the on-disk table cache so load-tables(cache) times the hit path *)
  (match Cogg.Tables_cache.build_file spec_file with
  | Ok _ -> ()
  | Error es ->
      Fmt.epr "%a@." (Fmt.list Cogg.Cogg_build.pp_error) es;
      exit 1);
  let tokens =
    match Pipeline.compile t Pipeline.Programs.appendix1_equation with
    | Ok c -> c.Pipeline.tokens
    | Error m ->
        Fmt.epr "%s@." m;
        exit 1
  in
  let rt = Lazy.force risc32_tables in
  (* batch throughput: 32 jobs cycling the example corpus, all compiled
     against the one shared table bundle, sequentially vs on a pool of
     recommended_domain_count domains.  The JSON key stays the literal
     "Nx32" so the perf trajectory is comparable across machines; the
     actual N is printed alongside. *)
  let batch_m = 32 in
  let batch = bench_batch () in
  (* the real-workload rows: the JSON keys stay the literal "1xM"/"NxM"
     so the trajectory survives bank growth; the actual M is printed *)
  let rbatch = real_batch () in
  let n_real = Array.length rbatch in
  let real_tokens =
    Array.to_list rbatch
    |> List.filter_map (fun j ->
           match Pipeline.compile t j.Pipeline.Batch.source with
           | Ok c -> Some c.Pipeline.tokens
           | Error _ -> None)
  in
  let n_real_tokens =
    List.fold_left (fun a ts -> a + List.length ts) 0 real_tokens
  in
  let n_domains = Domain.recommended_domain_count () in
  let pool = Cogg.Pool.create ~domains:n_domains () in
  (* determinism gate: the parallel batch must be byte-identical to the
     sequential one before its timing means anything *)
  let seq_fp = Pipeline.Batch.fingerprint (Pipeline.Batch.compile_all t batch) in
  let par_fp =
    Pipeline.Batch.fingerprint (Pipeline.Batch.compile_all ~pool t batch)
  in
  if seq_fp <> par_fp then begin
    Fmt.epr "batch determinism violation: parallel output != sequential@.";
    exit 1
  end;
  Fmt.pr "batch-compile: N = %d domain(s), %d jobs, parallel fingerprint ok@.@."
    n_domains batch_m;
  (* the spec-edit loop: one production's template edited in a copy of
     the spec text (a duplicated [modifies] line), rebuilt warm —
     spliced from the previous build — vs cold from scratch.  Both rows
     include the parse, so their spread is exactly what the incremental
     builder saves an iterating spec author. *)
  let edited_spec_text =
    let text =
      let ic = open_in_bin spec_file in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let lines = String.split_on_char '\n' text in
    let hit = ref false in
    String.concat "\n"
      (List.concat_map
         (fun l ->
           let trimmed = String.trim l in
           if
             (not !hit)
             && String.length trimmed > 9
             && String.sub trimmed 0 9 = "modifies "
           then begin
             hit := true;
             [ l; l ]
           end
           else [ l ])
         lines)
  in
  (match
     Cogg.Cogg_build.build_incremental_string ~previous:t edited_spec_text
   with
  | Ok (_, st) when st.Cogg.Cogg_build.spliced_tables -> ()
  | Ok _ ->
      Fmt.epr "incremental bench edit did not splice the tables@.";
      exit 1
  | Error es ->
      Fmt.epr "%a@." (Fmt.list Cogg.Cogg_build.pp_error) es;
      exit 1);
  let tests =
    [
      Test.make ~name:"build-tables(full-spec)"
        (Staged.stage (fun () -> ignore (Cogg.Cogg_build.build full_spec)));
      Test.make ~name:"build-tables(incremental.1-prod)"
        (Staged.stage (fun () ->
             ignore
               (Cogg.Cogg_build.build_incremental_string ~previous:t
                  edited_spec_text)));
      Test.make ~name:"build-tables(incremental.cold)"
        (Staged.stage (fun () ->
             ignore (Cogg.Cogg_build.build_string edited_spec_text)));
      Test.make ~name:"load-tables(cache)"
        (Staged.stage (fun () ->
             ignore (Cogg.Tables_cache.build_file spec_file)));
      Test.make ~name:"codegen(comb)"
        (Staged.stage (fun () ->
             ignore
               (Cogg.Codegen.generate ~dispatch:Cogg.Driver.Comb t tokens)));
      Test.make ~name:"codegen(flat)"
        (Staged.stage (fun () ->
             ignore
               (Cogg.Codegen.generate ~dispatch:Cogg.Driver.Flat t tokens)));
      (* the second backend, same token stream, same comb dispatch: the
         spread against codegen(comb) is the cost of the target's table
         shape, not of the workload *)
      Test.make ~name:"codegen.risc32(comb)"
        (Staged.stage (fun () ->
             ignore
               (Cogg.Codegen.generate ~dispatch:Cogg.Driver.Comb rt tokens)));
      Test.make ~name:"compress(defaults+comb)"
        (Staged.stage (fun () ->
             ignore (Cogg.Compress.compress t.Cogg.Tables.parse)));
      Test.make ~name:"compile+run(gcd)"
        (Staged.stage (fun () ->
             match Pipeline.compile t Pipeline.Programs.gcd with
             | Ok c -> ignore (Pipeline.execute c)
             | Error _ -> ()));
      Test.make ~name:"batch-compile(1x32)"
        (Staged.stage (fun () ->
             ignore (Pipeline.Batch.compile_all t batch)));
      Test.make ~name:"batch-compile(Nx32)"
        (Staged.stage (fun () ->
             ignore (Pipeline.Batch.compile_all ~pool t batch)));
    ]
    @ (if n_real = 0 then []
       else
         [
           Test.make ~name:"batch-compile(real.1xM)"
             (Staged.stage (fun () ->
                  ignore (Pipeline.Batch.compile_all t rbatch)));
           Test.make ~name:"batch-compile(real.NxM)"
             (Staged.stage (fun () ->
                  ignore (Pipeline.Batch.compile_all ~pool t rbatch)));
           Test.make ~name:"codegen(real)"
             (Staged.stage (fun () ->
                  List.iter
                    (fun ts ->
                      ignore
                        (Cogg.Codegen.generate ~dispatch:Cogg.Driver.Comb t ts))
                    real_tokens));
         ])
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let rows = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false
             ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name est ->
          match Analyze.OLS.estimates est with
          | Some [ ns ] ->
              rows := (name, ns) :: !rows;
              Fmt.pr "%-34s %14.1f ns/run@." name ns
          | _ -> Fmt.pr "%-34s (no estimate)@." name)
        ols)
    tests;
  Cogg.Pool.shutdown pool;
  (* derived throughput for the batch rows *)
  List.iter
    (fun (key, m) ->
      match List.assoc_opt key !rows with
      | Some ns when ns > 0.0 ->
          Fmt.pr "%-34s %14.1f programs/sec (%d jobs)@." key
            (float_of_int m /. (ns /. 1e9))
            m
      | _ -> ())
    [
      ("batch-compile(1x32)", batch_m);
      ("batch-compile(Nx32)", batch_m);
      ("batch-compile(real.1xM)", n_real);
      ("batch-compile(real.NxM)", n_real);
    ];
  (* table representation sizes, in bytes, merged into the trajectory so
     a packing change that bloats the table is visible: comb is the
     shipped layout, flat the uncompressed ceiling *)
  let size_row name bytes =
    Fmt.pr "%-34s %14d bytes@." name bytes;
    rows := (name, float_of_int bytes) :: !rows
  in
  Fmt.pr "@.";
  size_row "table.comb_bytes" t.Cogg.Tables.compressed.Cogg.Compress.size_bytes;
  size_row "table.flat_bytes" (Cogg.Compress.uncompressed_bytes t.Cogg.Tables.parse);
  size_row "table.risc32.comb_bytes"
    rt.Cogg.Tables.compressed.Cogg.Compress.size_bytes;
  (* derived rows: per-token codegen cost (the appendix-1 equation IF is
     the unit of work, under the shipped comb dispatch) and the
     minor-heap allocation per warm compile, the budget @perf-smoke
     enforces *)
  let n_tokens = List.length tokens in
  (match List.assoc_opt "codegen(comb)" !rows with
  | Some ns when n_tokens > 0 ->
      let per = ns /. float_of_int n_tokens in
      Fmt.pr "%-34s %14.1f ns/token (%d tokens, comb dispatch)@."
        "codegen.ns_per_token" per n_tokens;
      rows := ("codegen.ns_per_token", per) :: !rows
  | _ -> ());
  (* the risc32 counterpart, gated below now that the trajectory has a
     recorded history for it *)
  (match List.assoc_opt "codegen.risc32(comb)" !rows with
  | Some ns when n_tokens > 0 ->
      let per = ns /. float_of_int n_tokens in
      Fmt.pr "%-34s %14.1f ns/token (%d tokens, comb dispatch)@."
        "codegen.risc32.ns_per_token" per n_tokens;
      rows := ("codegen.risc32.ns_per_token", per) :: !rows
  | _ -> ());
  (* per-token cost over the whole real-workload bank: the codegen(real)
     row covers every bank program in one run, so the division is by the
     bank's total token count *)
  (match List.assoc_opt "codegen(real)" !rows with
  | Some ns when n_real_tokens > 0 ->
      let per = ns /. float_of_int n_real_tokens in
      Fmt.pr "%-34s %14.1f ns/token (%d tokens, %d programs, comb dispatch)@."
        "codegen.real_ns_per_token" per n_real_tokens n_real;
      rows := ("codegen.real_ns_per_token", per) :: !rows
  | _ -> ());
  let minor_words_per_compile =
    for _ = 1 to 10 do
      ignore (Cogg.Codegen.generate t tokens)
    done;
    let w0 = Gc.minor_words () in
    for _ = 1 to 50 do
      ignore (Cogg.Codegen.generate t tokens)
    done;
    (Gc.minor_words () -. w0) /. 50.
  in
  Fmt.pr "%-34s %14.1f minor words/compile@." "gc.minor_words_per_compile"
    minor_words_per_compile;
  rows := ("gc.minor_words_per_compile", minor_words_per_compile) :: !rows;
  (* regression gate: the Trace/Metrics hooks sit disabled on the hot
     paths above, so the batch rows must stay within 2% of the recorded
     trajectory; the codegen core rows (time, per-token cost, allocation)
     are held to the same bar so hot-path regressions fail loudly.
     COGG_BENCH_NO_GATE=1 bypasses (noisy CI, different machine). *)
  let no_gate = Sys.getenv_opt "COGG_BENCH_NO_GATE" <> None in
  let violated = ref false in
  List.iter
    (fun key ->
      match (List.assoc_opt key !rows, List.assoc_opt key prev) with
      | Some fresh, Some old when old > 0.0 ->
          let ratio = fresh /. old in
          Fmt.pr "%-34s %14.3f x recorded%s@." (key ^ " [gate]") ratio
            (if ratio > 1.02 then "  ** >2% overhead **" else "");
          if ratio > 1.02 then violated := true
      | _ -> ())
    [
      "batch-compile(1x32)";
      "batch-compile(Nx32)";
      "codegen(comb)";
      "codegen.ns_per_token";
      "codegen.risc32(comb)";
      "codegen.risc32.ns_per_token";
      "batch-compile(real.1xM)";
      "batch-compile(real.NxM)";
      "codegen.real_ns_per_token";
      "build-tables(incremental.1-prod)";
      "build-tables(incremental.cold)";
      "gc.minor_words_per_compile";
    ];
  if !violated && not no_gate then begin
    Fmt.epr
      "observability gate: a gated row regressed more than 2%% against \
       BENCH_speed.json (rerun on a quiet machine, or set \
       COGG_BENCH_NO_GATE=1 to bypass)@.";
    exit 1
  end;
  (* incremental gate (absolute, not trajectory-relative): the warm
     single-production rebuild must be at least 5x faster than building
     the full spec from scratch — the speedup the whole subsystem exists
     to deliver *)
  (match
     ( List.assoc_opt "build-tables(incremental.1-prod)" !rows,
       List.assoc_opt "build-tables(full-spec)" !rows )
   with
  | Some incr, Some full when incr > 0.0 ->
      let speedup = full /. incr in
      Fmt.pr "%-34s %14.2f x full-spec build@." "incremental.speedup" speedup;
      if speedup < 5.0 && not no_gate then begin
        Fmt.epr
          "incremental gate: warm rebuild only %.2fx faster than a \
           full-spec build (< 5x)@."
          speedup;
        exit 1
      end
  | _ -> ());
  (* counter aggregates: one metrics-enabled sequential pass over the
     same batch, folded into the trajectory as counter.* rows so code
     shape drift (shifts, evictions, long branches, ...) is tracked
     alongside timings *)
  Cogg.Metrics.reset ();
  Cogg.Metrics.set_enabled true;
  ignore (Pipeline.Batch.compile_all t batch);
  let counters = Cogg.Metrics.snapshot () in
  Cogg.Metrics.set_enabled false;
  Cogg.Metrics.reset ();
  Fmt.pr "@.counter aggregates over batch(32):@.";
  List.iter
    (fun (name, v) ->
      if v <> 0 && not (String.length name > 6 && String.sub name 0 6 = "phase.")
      then begin
        Fmt.pr "  %-32s %14d@." name v;
        rows := ("counter." ^ name, float_of_int v) :: !rows
      end)
    counters;
  if json then write_speed_json "BENCH_speed.json" (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Compile service: latency and throughput through the daemon           *)
(* ------------------------------------------------------------------ *)

let read_whole_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let percentile (sorted : float array) (p : float) : float =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (p /. 100. *. float_of_int (n - 1))))

(* The daemon child: load tables, open the socket, serve until shutdown.
   Must run before the parent creates any domains (fork and running
   domains do not mix), and must leave via [Unix._exit] so the parent's
   at_exit machinery doesn't run twice. *)
let serve_daemon ~spec_file ~sock () : 'never =
  let exit_err m =
    Fmt.epr "daemon: %s@." m;
    Unix._exit 1
  in
  match Cogg.Tables_cache.build_file spec_file with
  | Error es -> exit_err (Fmt.str "%a" (Fmt.list Cogg.Cogg_build.pp_error) es)
  | Ok (t, _) -> (
      let pool =
        Cogg.Pool.create ~domains:(Domain.recommended_domain_count ()) ()
      in
      let table_key =
        Cogg.Tables_cache.key ~mode:Cogg.Lookahead.Slr
          (read_whole_file spec_file)
      in
      match
        Serve.Server.create ~pool ~queue_capacity:256 ~cache_capacity:8192
          ~verify:Serve.Server.Verify_once ~table_key ~socket_path:sock t
      with
      | Error m -> exit_err m
      | Ok server ->
          Serve.Server.run server;
          Cogg.Pool.shutdown pool;
          Unix._exit 0)

let connect_with_retry sock =
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec go () =
    match Serve.Client.connect sock with
    | Ok c -> c
    | Error m ->
        if Unix.gettimeofday () > deadline then begin
          Fmt.epr "daemon never came up: %s@." m;
          exit 1
        end;
        ignore (Unix.select [] [] [] 0.05);
        go ()
  in
  go ()

(* a unique source per index: the comment changes the content digest
   (a guaranteed cache miss) without changing the compiled program *)
let miss_source i =
  Printf.sprintf "{ bench-serve-%d }\n%s" i Pipeline.Programs.gcd

let serve_bench ?(json = false) () =
  Fmt.pr "@.== Compile service: latency and throughput (pascd) ==@.@.";
  let spec_file = spec_path () in
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pascd-bench-%d.sock" (Unix.getpid ()))
  in
  match Unix.fork () with
  | 0 -> serve_daemon ~spec_file ~sock ()
  | daemon_pid ->
      let reap () = ignore (Unix.waitpid [] daemon_pid) in
      let c = connect_with_retry sock in
      let n_samples = 384 in
      let request_compile conn source =
        match Serve.Client.compile conn source with
        | Ok (Serve.Wire.Compiled { cached; outcome = Ok _; _ }) -> cached
        | Ok (Serve.Wire.Compiled { outcome = Error m; _ }) ->
            Fmt.epr "daemon rejected a bench source: %s@." m;
            exit 1
        | Ok (Serve.Wire.Overloaded _) ->
            Fmt.epr "daemon overloaded during the latency phase@.";
            exit 1
        | Ok _ | Error _ ->
            Fmt.epr "unexpected reply from daemon@.";
            exit 1
      in
      let timed_pass expect_cached =
        Array.init n_samples (fun i ->
            let t0 = Unix.gettimeofday () in
            let cached = request_compile c (miss_source i) in
            let dt = (Unix.gettimeofday () -. t0) *. 1e9 in
            if cached <> expect_cached then begin
              Fmt.epr "cache state surprise at sample %d (cached=%b)@." i cached;
              exit 1
            end;
            dt)
      in
      (* miss pass: every source unseen, full compile path *)
      let miss_ns = timed_pass false in
      (* verification pass: first hit per entry recompiles and compares
         (the Verify_once gate); untimed, it exists to mark entries
         verified so the next pass measures the inline fast path *)
      Array.iteri
        (fun i _ -> ignore (request_compile c (miss_source i)))
        miss_ns;
      (* hit pass: every reply served inline from the result cache *)
      let hit_ns = timed_pass true in
      Array.sort compare miss_ns;
      Array.sort compare hit_ns;
      let miss_p50 = percentile miss_ns 50. and miss_p99 = percentile miss_ns 99. in
      let hit_p50 = percentile hit_ns 50. and hit_p99 = percentile hit_ns 99. in
      Fmt.pr "%-34s %14.1f ns (p99 %14.1f)@." "serve.miss.p50_ns" miss_p50 miss_p99;
      Fmt.pr "%-34s %14.1f ns (p99 %14.1f)@." "serve.hit.p50_ns" hit_p50 hit_p99;
      Fmt.pr "%-34s %14.2f x@." "serve.hit_speedup" (miss_p50 /. hit_p50);
      (* byte-identity gate: a cached daemon reply must equal a direct
         in-process compile, bit for bit (the acceptance criterion; the
         daemon's own Verify_once gate already recompiled each of these
         once, this checks from the outside against separate tables) *)
      let t = Lazy.force tables in
      for i = 0 to 31 do
        let source = miss_source i in
        match (Serve.Client.compile c source, Pipeline.compile t source) with
        | Ok (Serve.Wire.Compiled { cached; outcome = Ok (listing, code); _ }), Ok d
          ->
            if not cached then begin
              Fmt.epr "byte-identity gate: expected a cached reply@.";
              exit 1
            end;
            if
              listing <> d.Pipeline.gen.Cogg.Codegen.listing
              || code <> Pipeline.Batch.code_bytes d
            then begin
              Fmt.epr
                "byte-identity gate: cached reply differs from a fresh \
                 compile (source %d)@."
                i;
              exit 1
            end
        | _ ->
            Fmt.epr "byte-identity gate: compile failed@.";
            exit 1
      done;
      Fmt.pr "%-34s %14s@." "serve.byte_identity" "ok (32 sources)";
      (* sustained throughput at saturation: several client threads
         hammering the warm set concurrently; the event loop answers
         every one inline (I/O releases the OCaml runtime lock, so the
         client threads genuinely overlap) *)
      let n_threads = 8 in
      let duration = 2.0 in
      let counts = Array.make n_threads 0 in
      let deadline = Unix.gettimeofday () +. duration in
      let worker ti =
        let conn = connect_with_retry sock in
        let i = ref 0 in
        while Unix.gettimeofday () < deadline do
          ignore (request_compile conn (miss_source (!i mod n_samples)));
          counts.(ti) <- counts.(ti) + 1;
          incr i
        done;
        Serve.Client.close conn
      in
      let threads = Array.init n_threads (fun ti -> Thread.create worker ti) in
      Array.iter Thread.join threads;
      let total = Array.fold_left ( + ) 0 counts in
      let rps = float_of_int total /. duration in
      Fmt.pr "%-34s %14.1f requests/sec (%d threads, %d total)@."
        "serve.rps_saturation" rps n_threads total;
      (match Serve.Client.stats c with
      | Ok s ->
          Fmt.pr "@.daemon counters:@.";
          String.split_on_char '\n' s
          |> List.iter (fun l -> if l <> "" then Fmt.pr "  %s@." l)
      | Error m -> Fmt.epr "stats: %s@." m);
      (match Serve.Client.shutdown c with
      | Ok () -> ()
      | Error m -> Fmt.epr "shutdown: %s@." m);
      Serve.Client.close c;
      reap ();
      (* gates: the cached path must be at least 5x faster than the
         compile path, and the comparisons above must have held *)
      let no_gate = Sys.getenv_opt "COGG_BENCH_NO_GATE" <> None in
      if miss_p50 /. hit_p50 < 5.0 && not no_gate then begin
        Fmt.epr
          "serve gate: cache hit path only %.2fx faster than miss path \
           (need >= 5x; rerun on a quiet machine or set \
           COGG_BENCH_NO_GATE=1)@."
          (miss_p50 /. hit_p50);
        exit 1
      end;
      if json then
        write_speed_json "BENCH_speed.json"
          [
            ("serve.miss.p50_ns", miss_p50);
            ("serve.miss.p99_ns", miss_p99);
            ("serve.hit.p50_ns", hit_p50);
            ("serve.hit.p99_ns", hit_p99);
            ("serve.rps_saturation", rps);
          ]

(* ------------------------------------------------------------------ *)

let all ?json () =
  table1 ();
  table2 ();
  appendix1 ();
  ablation_grammar ();
  ablation_regalloc ();
  speed ?json ()

let () =
  (* `--json` (anywhere on the command line) makes `speed` also write
     BENCH_speed.json: name -> ns/run *)
  let args = List.tl (Array.to_list Sys.argv) in
  let json = List.mem "--json" args in
  match List.filter (fun a -> a <> "--json") args with
  | [] -> all ~json ()
  | args ->
      List.iter
        (function
          | "table1" -> table1 ()
          | "table2" -> table2 ()
          | "appendix1" -> appendix1 ()
          | "ablation-grammar" -> ablation_grammar ()
          | "ablation-regalloc" -> ablation_regalloc ()
          | "speed" -> speed ~json ()
          | "fingerprint" -> fingerprint ()
          | "serve" -> serve_bench ~json ()
          | "all" -> all ~json ()
          | a ->
              Fmt.epr "unknown benchmark %s@." a;
              exit 1)
        args
