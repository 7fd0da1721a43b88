(* Table statistics (Table 1), serialization sizes (Table 2) and the
   grammar-subset ablation machinery. *)

let check_int = Alcotest.(check int)

let spec () =
  match Cogg.Spec_parse.of_file (Util.spec_path "amdahl470.cgg") with
  | Ok s -> s
  | Error e -> Alcotest.failf "%a" Cogg.Spec_parse.pp_error e

let tables () = Lazy.force Util.amdahl_tables

(* -- Table 1 -------------------------------------------------------------- *)

let test_table1_consistency () =
  let s1 = Cogg.Stats.table1 (spec ()) (tables ()) in
  check_int "entries = states * xdim"
    (s1.Cogg.Stats.states * s1.Cogg.Stats.x_dimension)
    s1.Cogg.Stats.entries;
  Alcotest.(check bool)
    "significant <= entries" true
    (s1.Cogg.Stats.significant <= s1.Cogg.Stats.entries);
  Alcotest.(check bool)
    "templates >= productions" true
    (s1.Cogg.Stats.templates >= s1.Cogg.Stats.productions);
  Alcotest.(check bool)
    "same order of magnitude as the paper" true
    (s1.Cogg.Stats.states > 300
    && s1.Cogg.Stats.productions > 150
    && s1.Cogg.Stats.x_dimension > 70
    && s1.Cogg.Stats.x_dimension < 100)

let test_table1_declared_counts () =
  let s1 = Cogg.Stats.table1 (spec ()) (tables ()) in
  let t = tables () in
  let st = t.Cogg.Tables.symtab in
  check_int "declared = sum of sections"
    (List.length st.Cogg.Symtab.nonterminals
    + List.length st.Cogg.Symtab.terminals
    + List.length st.Cogg.Symtab.operators
    + List.length st.Cogg.Symtab.opcodes
    + List.length st.Cogg.Symtab.constants
    + List.length st.Cogg.Symtab.semantics)
    s1.Cogg.Stats.symbols_declared

(* -- serialization ---------------------------------------------------------- *)

let test_template_array_roundtrip () =
  let t = tables () in
  let bytes = Cogg.Tables_io.template_array_bytes t in
  let back = Cogg.Tables_io.read_template_array bytes in
  check_int "same length" (Array.length t.Cogg.Tables.compiled)
    (Array.length back);
  Array.iteri
    (fun i orig ->
      match (orig, back.(i)) with
      | None, None -> ()
      | Some a, Some b ->
          (* structural equality of the compiled production *)
          if a <> b then Alcotest.failf "production %d differs after roundtrip" i
      | _ -> Alcotest.failf "presence differs at %d" i)
    t.Cogg.Tables.compiled

let test_template_array_corrupt () =
  (match Cogg.Tables_io.read_template_array "JUNK" with
  | exception Cogg.Tables_io.Corrupt _ -> ()
  | _ -> Alcotest.fail "bad magic accepted");
  let t = tables () in
  let bytes = Cogg.Tables_io.template_array_bytes t in
  let truncated = String.sub bytes 0 (String.length bytes / 2) in
  match Cogg.Tables_io.read_template_array truncated with
  | exception Cogg.Tables_io.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncated payload accepted"

let test_sizes_sane () =
  let s = Cogg.Tables_io.sizes (tables ()) in
  Alcotest.(check bool)
    "compressed < uncompressed" true
    (s.Cogg.Tables_io.compressed_table < s.Cogg.Tables_io.uncompressed_table);
  Alcotest.(check bool)
    "template array nonempty" true
    (s.Cogg.Tables_io.template_array > 1000);
  (* parse table serialization is as large as the accounting claims *)
  let c =
    Cogg.Compress.compress ~method_:Cogg.Compress.Defaults_and_comb
      (tables ()).Cogg.Tables.parse
  in
  let serialized = Cogg.Tables_io.parse_table_bytes c in
  Alcotest.(check bool)
    "serialized table within 2x of accounting" true
    (String.length serialized < 2 * c.Cogg.Compress.size_bytes)

(* -- compressed tables drive the parser identically --------------------------- *)

let test_compressed_lookup_equivalence () =
  let t = tables () in
  let pt = t.Cogg.Tables.parse in
  let c = Cogg.Compress.compress pt in
  let n_syms = Cogg.Grammar.n_syms t.Cogg.Tables.grammar in
  let softened = ref 0 in
  for state = 0 to Cogg.Parse_table.n_states pt - 1 do
    for sym = 0 to n_syms - 1 do
      let a = Cogg.Parse_table.action pt state sym in
      let b = Cogg.Compress.lookup c ~state ~sym in
      if a <> b then
        match (a, b) with
        | Cogg.Parse_table.Error, Cogg.Parse_table.Reduce _ -> incr softened
        | _ -> Alcotest.failf "lookup differs at state %d sym %d" state sym
    done
  done;
  Alcotest.(check bool) "some errors softened to default reductions" true
    (!softened > 0)

(* -- subsets -------------------------------------------------------------------- *)

let test_subsets_shrink_monotonically () =
  let sp = spec () in
  let sizes =
    List.map
      (fun lvl ->
        List.length (Cogg.Spec_subset.filter lvl sp).Cogg.Spec_ast.productions)
      Cogg.Spec_subset.all_levels
  in
  match sizes with
  | [ full; nofused; intonly; core ] ->
      Alcotest.(check bool) "monotone" true
        (full > nofused && nofused > intonly && intonly > core);
      Alcotest.(check bool) "core is small" true (core < 50)
  | _ -> Alcotest.fail "levels changed"

let test_subsets_all_build () =
  List.iter
    (fun (lvl, r) ->
      match r with
      | Ok _ -> ()
      | Error es ->
          Alcotest.failf "%s: %a"
            (Cogg.Spec_subset.level_name lvl)
            (Fmt.list Cogg.Cogg_build.pp_error) es)
    (Cogg.Spec_subset.build_levels (spec ()))

let test_subsets_generate_correct_code () =
  List.iter
    (fun (lvl, r) ->
      match r with
      | Error _ -> Alcotest.fail "build failed"
      | Ok t -> (
          match Pipeline.verify ~cse:false t Pipeline.Programs.gcd with
          | Ok v ->
              Alcotest.(check bool)
                (Cogg.Spec_subset.level_name lvl ^ " correct")
                true v.Pipeline.agreed
          | Error m -> Alcotest.failf "%s: %s" (Cogg.Spec_subset.level_name lvl) m))
    (Cogg.Spec_subset.build_levels (spec ()))

let test_full_beats_core_on_code_size () =
  let sp = spec () in
  let build lvl =
    match Cogg.Cogg_build.build (Cogg.Spec_subset.filter lvl sp) with
    | Ok t -> t
    | Error _ -> Alcotest.fail "build failed"
  in
  let code_bytes t =
    match Pipeline.compile ~cse:false t Pipeline.Programs.appendix1_equation with
    | Ok c ->
        Bytes.length c.Pipeline.gen.Cogg.Codegen.resolved.Cogg.Loader_gen.code
    | Error m -> Alcotest.fail m
  in
  let full = code_bytes (build Cogg.Spec_subset.Full) in
  let nofused = code_bytes (build Cogg.Spec_subset.No_fused) in
  Alcotest.(check bool)
    (Printf.sprintf "redundant grammar gives better code (%d < %d)" full nofused)
    true (full < nofused)

(* -- full bundle roundtrip -------------------------------------------------- *)

let test_bundle_roundtrip_drives_codegen () =
  let t = tables () in
  let bytes = Cogg.Tables_io.write t in
  let t2 = Cogg.Tables_io.read bytes in
  (* the reloaded bundle must generate byte-identical code *)
  List.iter
    (fun (name, src) ->
      match (Pipeline.compile t src, Pipeline.compile t2 src) with
      | Ok a, Ok b ->
          Alcotest.(check string)
            (name ^ " identical listings")
            a.Pipeline.gen.Cogg.Codegen.listing
            b.Pipeline.gen.Cogg.Codegen.listing
      | Error m, _ | _, Error m -> Alcotest.failf "%s: %s" name m)
    [ ("gcd", Pipeline.Programs.gcd);
      ("appendix1", Pipeline.Programs.appendix1_equation);
      ("classify", Pipeline.Programs.classify) ]

let test_bundle_rejects_garbage () =
  (match Cogg.Tables_io.read "NOPE" with
  | exception Cogg.Tables_io.Corrupt _ -> ()
  | _ -> Alcotest.fail "bad magic accepted");
  let t = tables () in
  let bytes = Cogg.Tables_io.write t in
  let truncated = String.sub bytes 0 (String.length bytes * 2 / 3) in
  match Cogg.Tables_io.read truncated with
  | exception Cogg.Tables_io.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncated bundle accepted"

(* A bundle in an older format is named as such: the reader reports the
   stale magic rather than misreading the layout that followed it.  CGB5
   is the format CGB6 replaced. *)
let test_bundle_names_stale_formats () =
  let current = Cogg.Tables_io.write (tables ()) in
  let body = String.sub current 4 (String.length current - 4) in
  List.iter
    (fun magic ->
      match Cogg.Tables_io.read (magic ^ body) with
      | exception Cogg.Tables_io.Corrupt m ->
          Alcotest.(check string)
            (magic ^ " rejection")
            (Printf.sprintf "stale bundle format %s (want CGB6)" magic)
            m
      | _ -> Alcotest.failf "%s bundle accepted" magic)
    [ "CGB4"; "CGB5" ]

(* Compression method codes 0-3 are the four [Compress.method_]s; any
   other code (4 belonged to a retired layout) is a corrupt bundle.  The
   method code is located by writing the same bundle under two methods:
   with identical arrays, it is the only byte that differs. *)
let test_bundle_rejects_unknown_method () =
  let t = tables () in
  let c = t.Cogg.Tables.compressed in
  Alcotest.(check bool)
    "shipped layout is defaults+comb" true
    (c.Cogg.Compress.method_ = Cogg.Compress.Defaults_and_comb);
  let a = Cogg.Tables_io.write t in
  let b =
    Cogg.Tables_io.write
      {
        t with
        Cogg.Tables.compressed =
          { c with Cogg.Compress.method_ = Cogg.Compress.Comb_only };
      }
  in
  check_int "same length" (String.length a) (String.length b);
  let diffs =
    List.filter
      (fun i -> a.[i] <> b.[i])
      (List.init (String.length a) Fun.id)
  in
  match diffs with
  | [ i ] -> (
      check_int "method code byte" 3 (Char.code a.[i]);
      let bad = Bytes.of_string a in
      Bytes.set bad i '\004';
      match Cogg.Tables_io.read (Bytes.to_string bad) with
      | exception Cogg.Tables_io.Corrupt m ->
          Alcotest.(check string) "rejection" "bad compression method 4" m
      | _ -> Alcotest.fail "method code 4 accepted")
  | _ ->
      Alcotest.failf "expected one differing byte, found %d"
        (List.length diffs)

(* Writing is a function of the bundle's content: reading a bundle back
   and writing it again reproduces the same bytes, and the comb table
   survives the round trip unchanged, on both targets. *)
let test_bundle_write_read_fixpoint () =
  List.iter
    (fun (name, t) ->
      let bytes = Cogg.Tables_io.write t in
      let back = Cogg.Tables_io.read bytes in
      Alcotest.(check bool)
        (name ^ ": comb table preserved")
        true
        (back.Cogg.Tables.compressed = t.Cogg.Tables.compressed);
      Alcotest.(check bool)
        (name ^ ": rewrite is byte-identical")
        true
        (String.equal bytes (Cogg.Tables_io.write back)))
    [
      ("amdahl470", tables ());
      ("risc32", Lazy.force Util.risc32_tables);
    ]

let () =
  Alcotest.run "tables"
    [
      ( "table1",
        [
          Alcotest.test_case "consistency" `Quick test_table1_consistency;
          Alcotest.test_case "declared counts" `Quick test_table1_declared_counts;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "template roundtrip" `Quick test_template_array_roundtrip;
          Alcotest.test_case "corrupt input" `Quick test_template_array_corrupt;
          Alcotest.test_case "sizes sane" `Quick test_sizes_sane;
        ] );
      ( "compression",
        [ Alcotest.test_case "lookup equivalence" `Quick test_compressed_lookup_equivalence ] );
      ( "bundle",
        [
          Alcotest.test_case "roundtrip drives codegen" `Quick test_bundle_roundtrip_drives_codegen;
          Alcotest.test_case "rejects garbage" `Quick test_bundle_rejects_garbage;
          Alcotest.test_case "names stale formats" `Quick
            test_bundle_names_stale_formats;
          Alcotest.test_case "rejects unknown method" `Quick
            test_bundle_rejects_unknown_method;
          Alcotest.test_case "write/read fixpoint" `Quick
            test_bundle_write_read_fixpoint;
        ] );
      ( "subsets",
        [
          Alcotest.test_case "shrink monotonically" `Quick test_subsets_shrink_monotonically;
          Alcotest.test_case "all build" `Quick test_subsets_all_build;
          Alcotest.test_case "correct code" `Quick test_subsets_generate_correct_code;
          Alcotest.test_case "full beats core" `Quick test_full_beats_core_on_code_size;
        ] );
    ]
