(* The evaluation harness: regenerates every table in the paper plus the
   ablations DESIGN.md calls out.  It measures sizes and code quality
   only, as the paper does; timings live in perfbench/.

     dune exec bench/main.exe                 -- the five paper artifacts
     dune exec bench/main.exe table1          -- spec/table statistics
     dune exec bench/main.exe table2          -- artifact sizes (pages)
     dune exec bench/main.exe appendix1       -- code comparison vs baseline
     dune exec bench/main.exe ablation-grammar
     dune exec bench/main.exe ablation-regalloc
     dune exec bench/main.exe fingerprint     -- digest of the 32-job batch

   Exits 1 if Appendix 1's two generators disagree on a program's output
   or a compressed table fails verification. *)

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
(* Batch fingerprint                                                   *)
(* ------------------------------------------------------------------ *)

(* The 32-job batch: the example corpus cycled.  `fingerprint` digests
   every listing and object byte so refactors of the codegen core can
   prove byte-identical output. *)
let bench_batch () =
  let corpus = Pipeline.Programs.all in
  let n_corpus = List.length corpus in
  Array.init 32 (fun i ->
      let name, source = List.nth corpus (i mod n_corpus) in
      { Pipeline.Batch.name = Printf.sprintf "%s#%d" name i; source })

let fingerprint () =
  let t = Lazy.force tables in
  let fp = Pipeline.Batch.fingerprint (Pipeline.Batch.compile_all t (bench_batch ())) in
  Fmt.pr "batch fingerprint: %s@." fp

(* ------------------------------------------------------------------ *)

let all () =
  table1 ();
  table2 ();
  appendix1 ();
  ablation_grammar ();
  ablation_regalloc ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] -> all ()
  | args ->
      List.iter
        (function
          | "table1" -> table1 ()
          | "table2" -> table2 ()
          | "appendix1" -> appendix1 ()
          | "ablation-grammar" -> ablation_grammar ()
          | "ablation-regalloc" -> ablation_regalloc ()
          | "fingerprint" -> fingerprint ()
          | "all" -> all ()
          | a ->
              Fmt.epr "unknown benchmark %s@." a;
              exit 1)
        args
