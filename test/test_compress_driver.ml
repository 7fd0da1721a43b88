(* Driver-equivalence tests: the comb-compressed dispatch path must take
   exactly the same actions as the flat (uncompressed) table, both
   per-entry and end-to-end (byte-identical generated code), and the
   array-backed driver must keep reporting accurate parse statistics. *)

let check_int = Alcotest.(check int)

let all_methods =
  [
    ("none", Cogg.Compress.No_compression);
    ("defaults", Cogg.Compress.Defaults_only);
    ("comb", Cogg.Compress.Comb_only);
    ("defaults+comb", Cogg.Compress.Defaults_and_comb);
  ]

(* Default reductions may soften an Error entry into a Reduce (delayed
   error detection); any other disagreement is a packing bug. *)
let softening_allowed = function
  | Cogg.Compress.Defaults_only | Cogg.Compress.Defaults_and_comb -> true
  | Cogg.Compress.No_compression | Cogg.Compress.Comb_only -> false

let per_entry_equivalence t =
  let pt = t.Cogg.Tables.parse in
  let n_syms = Cogg.Grammar.n_syms t.Cogg.Tables.grammar in
  List.iter
    (fun (name, method_) ->
      let c = Cogg.Compress.compress ~method_ pt in
      for state = 0 to Cogg.Parse_table.n_states pt - 1 do
        for sym = 0 to n_syms - 1 do
          let a = Cogg.Parse_table.action pt state sym in
          let b = Cogg.Compress.action c state sym in
          if a <> b then
            match (a, b) with
            | Cogg.Parse_table.Error, Cogg.Parse_table.Reduce _
              when softening_allowed method_ ->
                ()
            | _ ->
                Alcotest.failf "%s: action differs at state %d sym %d" name
                  state sym
        done
      done)
    all_methods

(* The raw-integer probe the driver runs on and its decoded form must be
   two views of the same entry. *)
let action_code_consistent t =
  let pt = t.Cogg.Tables.parse in
  let n_syms = Cogg.Grammar.n_syms t.Cogg.Tables.grammar in
  List.iter
    (fun (name, method_) ->
      let c = Cogg.Compress.compress ~method_ pt in
      for state = 0 to Cogg.Parse_table.n_states pt - 1 do
        for sym = 0 to n_syms - 1 do
          let code = Cogg.Compress.action_code c state sym in
          if Cogg.Compress.decode_action code <> Cogg.Compress.action c state sym
          then Alcotest.failf "%s: decode mismatch at state %d sym %d" name state sym
        done
      done)
    all_methods

(* The table carried in Tables.t is the one Cogg_build packed; the driver
   probes it directly, so it must verify against the flat table. *)
let carried_table_verifies t =
  match Cogg.Compress.verify t.Cogg.Tables.compressed t.Cogg.Tables.parse with
  | Ok softened ->
      Alcotest.(check bool) "defaults soften some errors" true (softened > 0)
  | Error m -> Alcotest.fail m

let programs =
  [
    ("gcd", Pipeline.Programs.gcd);
    ("sieve", Pipeline.Programs.sieve);
    ("appendix1", Pipeline.Programs.appendix1_equation);
  ]

(* Generate each program's linearized IF through both dispatch paths
   and hand the two results to [f]. *)
let both_dispatches tables f =
  List.iter
    (fun (name, src) ->
      let toks =
        match Pipeline.compile tables src with
        | Ok c -> c.Pipeline.tokens
        | Error m -> Alcotest.failf "%s: compile failed: %s" name m
      in
      let gen dispatch =
        match Cogg.Codegen.generate ~dispatch tables toks with
        | Ok g -> g
        | Error e -> Alcotest.failf "%s: %a" name Cogg.Codegen.pp_error e
      in
      f name (gen Cogg.Driver.Flat) (gen Cogg.Driver.Comb))
    programs

(* End to end: both dispatch paths must produce byte-identical code. *)
let flat_comb_identical_code tables =
  both_dispatches tables (fun name flat comb ->
      Alcotest.(check string)
        (name ^ ": identical listings")
        flat.Cogg.Codegen.listing comb.Cogg.Codegen.listing;
      Alcotest.(check bytes)
        (name ^ ": identical code bytes")
        flat.Cogg.Codegen.resolved.Cogg.Loader_gen.code
        comb.Cogg.Codegen.resolved.Cogg.Loader_gen.code)

(* Well-formed IF never exercises a softened (defaulted) entry on a path
   that changes the action sequence, so the parse statistics agree too. *)
let outcomes_agree tables =
  both_dispatches tables (fun name flat comb ->
      let fo = flat.Cogg.Codegen.outcome in
      let co = comb.Cogg.Codegen.outcome in
      check_int (name ^ ": reductions") fo.Cogg.Driver.reductions
        co.Cogg.Driver.reductions;
      check_int (name ^ ": shifts") fo.Cogg.Driver.shifts co.Cogg.Driver.shifts;
      check_int (name ^ ": max_stack") fo.Cogg.Driver.max_stack
        co.Cogg.Driver.max_stack;
      (* every stack slot was shifted onto the stack exactly once *)
      Alcotest.(check bool)
        (name ^ ": max_stack bounded by shifts")
        true
        (co.Cogg.Driver.max_stack > 0
        && co.Cogg.Driver.max_stack <= co.Cogg.Driver.shifts))

(* The paper's section-1 machine and example statement (A := A + B): the
   parse is small and deterministic, pinning the statistics exactly (a
   regression guard for the array-backed stacks, whose depth is tracked
   incrementally on shift rather than recounted with [List.length]).
   The depth counts the bottom sentinel plus every shifted token,
   including re-shifted reduction results. *)
let intro_spec =
  {|
* The artificial machine of paper section 1.
$Non-terminals
 r = gpr
$Terminals
 d = displacement
$Operators
 word, iadd, store, ret
$Opcodes
 l, ar, st, bcr
$Constants
 fifteen = 15
$Productions
r.2 ::= word d.1
 using r.2
 l     r.2,d.1
r.1 ::= iadd r.1 r.2
 modifies r.1
 ar    r.1,r.2
lambda ::= store word d.1 r.2
 st    r.2,d.1
lambda ::= ret
 need r.14
 bcr   fifteen,r.14
|}

let test_max_stack_exact () =
  let t =
    match Cogg.Cogg_build.build_string intro_spec with
    | Ok t -> t
    | Error es ->
        Alcotest.failf "spec build failed: %a"
          (Fmt.list Cogg.Cogg_build.pp_error)
          es
  in
  let if_text = "store word d:100 iadd word d:100 word d:104 ret" in
  List.iter
    (fun (name, dispatch) ->
      match Cogg.Codegen.generate_string ~dispatch t if_text with
      | Error m -> Alcotest.failf "%s: %s" name m
      | Ok r ->
          let o = r.Cogg.Codegen.outcome in
          check_int (name ^ ": exact shifts") 17 o.Cogg.Driver.shifts;
          check_int (name ^ ": exact reductions") 8 o.Cogg.Driver.reductions;
          check_int (name ^ ": exact max_stack") 9 o.Cogg.Driver.max_stack)
    [ ("flat", Cogg.Driver.Flat); ("comb", Cogg.Driver.Comb) ]

(* Malformed IF must fail cleanly under both dispatches: comb may detect
   the error later (after default reductions), but never accepts. *)
let test_invalid_if_rejected_both () =
  let t = Lazy.force Util.amdahl_tables in
  List.iter
    (fun (name, dispatch) ->
      match
        Cogg.Codegen.generate_string ~dispatch t "store word dsp:0 ret"
      with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: invalid IF accepted" name)
    [ ("flat", Cogg.Driver.Flat); ("comb", Cogg.Driver.Comb) ]

(* Delete each token of a real program's IF in turn: comb may take
   default reductions that flat would not, but the dispatch oracle's
   contract must hold on every mutant — same code when both accept, the
   same error position when both stop in the parser, and never one
   accepting what the other rejects. *)
let deletion_mutants_agree tables =
  let toks =
    match Pipeline.compile tables Pipeline.Programs.gcd with
    | Ok c -> c.Pipeline.tokens
    | Error m -> Alcotest.failf "gcd: %s" m
  in
  let rejected = ref 0 in
  List.iteri
    (fun i _ ->
      let mutant = List.filteri (fun j _ -> j <> i) toks in
      (match Cogg.Codegen.generate ~dispatch:Cogg.Driver.Flat tables mutant with
      | Error _ -> incr rejected
      | Ok _ -> ());
      match Fuzz.Oracle.dispatch tables mutant with
      | Fuzz.Oracle.Pass -> ()
      | st ->
          Alcotest.failf "token %d deleted: %a" i Fuzz.Oracle.pp_status st)
    toks;
  Alcotest.(check bool)
    "some deletions are rejected (the check is not vacuous)" true
    (!rejected > 0)

let () =
  Alcotest.run "compress_driver"
    (Util.per_target "equivalence"
       [
         ("per-entry, all methods", per_entry_equivalence);
         ("action_code consistent", action_code_consistent);
         ("carried table verifies", carried_table_verifies);
       ]
    @ Util.per_target "end-to-end"
        [
          ("flat = comb code bytes", flat_comb_identical_code);
          ("outcomes agree", outcomes_agree);
          ("deletion mutants agree", deletion_mutants_agree);
        ]
    @ [
        ( "malformed IF",
          [
            Alcotest.test_case "invalid IF rejected" `Quick
              test_invalid_if_rejected_both;
          ] );
        ( "stack accounting",
          [ Alcotest.test_case "exact max_stack" `Quick test_max_stack_exact ]
        );
      ])
