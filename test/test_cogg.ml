(* End-to-end tests of CoGG itself on small specifications, including the
   paper's introductory example (section 1). *)

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* The paper's section-1 artificial machine, completed with a return
   statement so generated programs can run on the simulator. *)
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

let build_intro () =
  match Cogg.Cogg_build.build_string intro_spec with
  | Ok t -> t
  | Error es ->
      Alcotest.failf "spec build failed: %a"
        (Fmt.list Cogg.Cogg_build.pp_error)
        es

let test_spec_parses () =
  match Cogg.Spec_parse.of_string intro_spec with
  | Error e -> Alcotest.failf "%a" Cogg.Spec_parse.pp_error e
  | Ok spec ->
      check_int "productions" 4 (List.length spec.Cogg.Spec_ast.productions);
      check_int "templates" 7 (Cogg.Spec_ast.n_templates spec);
      check_int "operators" 4 (List.length spec.Cogg.Spec_ast.operators)

(* an unreadable spec file is an [Error] naming it, not a [Sys_error] *)
let test_missing_spec_file () =
  match Cogg.Cogg_build.build_file "no/such.cgg" with
  | Ok _ -> Alcotest.fail "built tables from a missing file"
  | Error es ->
      let m = Fmt.str "%a" (Fmt.list Cogg.Cogg_build.pp_error) es in
      Alcotest.(check bool) ("names the file: " ^ m) true
        (Util.contains m "no/such.cgg")

let test_tables_build () =
  let t = build_intro () in
  check_int "user productions" 4 t.Cogg.Tables.n_user_prods;
  Alcotest.(check bool)
    "has states" true
    (Cogg.Parse_table.n_states t.Cogg.Tables.parse > 3)

(* A := A + B as in the paper; expect the four-instruction sequence. *)
let intro_if = "store word d:100 iadd word d:100 word d:104 ret"

let test_intro_codegen () =
  let t = build_intro () in
  match Cogg.Codegen.generate_string t intro_if with
  | Error m -> Alcotest.fail m
  | Ok r ->
      let insns =
        Machine.Encode.decode_all r.Cogg.Codegen.resolved.Cogg.Loader_gen.code
          ~pos:r.Cogg.Codegen.resolved.Cogg.Loader_gen.entry
          ~len:(Bytes.length r.Cogg.Codegen.resolved.Cogg.Loader_gen.code)
      in
      let texts = List.map Machine.Insn.to_string insns in
      (* paper: Load R1,D.A; Load R2,D.B; Add R1,R2; Store R1,D.A *)
      check_int "five instructions (incl. return)" 5 (List.length texts);
      check_str "load A" "l     r1,100" (List.nth texts 0);
      check_str "load B" "l     r2,104" (List.nth texts 1);
      check_str "add" "ar    r1,r2" (List.nth texts 2);
      check_str "store A" "st    r1,100" (List.nth texts 3);
      check_str "return" "bcr   r15,r14" (List.nth texts 4)

let test_intro_executes () =
  let t = build_intro () in
  match Cogg.Codegen.generate_string t intro_if with
  | Error m -> Alcotest.fail m
  | Ok r -> (
      let sim = Machine.Sim.create () in
      match Machine.Objmod.load sim.Machine.Sim.mem ~at:0x10000 r.objmod with
      | Error m -> Alcotest.fail m
      | Ok entry ->
          Machine.Sim.store_w sim 100 7;
          Machine.Sim.store_w sim 104 35;
          Machine.Sim.set_reg sim 14 0;
          ignore (Machine.Sim.run sim ~entry);
          check_int "A := A + B executed" 42 (Machine.Sim.load_w sim 100))

let test_invalid_if_rejected () =
  let t = build_intro () in
  (* store with a missing operand: parser must block, not emit garbage *)
  match Cogg.Codegen.generate_string t "store word d:100 ret" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "invalid IF accepted"

let test_unknown_symbol_rejected () =
  let t = build_intro () in
  match Cogg.Codegen.generate_string t "frobnicate ret" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown symbol accepted"

let test_value_kind_checked () =
  let t = build_intro () in
  (* d must carry an integer displacement, not a label *)
  let bad = [ Ifl.Token.op "store"; Ifl.Token.op "word"; Ifl.Token.label "d" 3 ] in
  match Cogg.Codegen.generate t bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mistyped token accepted"

(* -- loader fixpoint ------------------------------------------------------- *)

(* Widening one branch site must be able to push another site's target
   across the 4096-byte page boundary, forcing a further sizing pass:
   the classical span-dependent cascade.  Layout (short sizes, no pool):

     S1 @ 0     bc -> L1        L1 @ 4096  (just past the page)
     S2 @ 4     bc -> L2        L2 @ 4092  (just inside)
     1021 literal words of padding, L2, one more word, L1

   Pass 1 widens S1 (L1 > 4095); the pool word and long form shift L2 to
   4100, so pass 2 widens S2; pass 3 is stable — 3 iterations. *)
let test_loader_widening_cascade () =
  let open Cogg.Code_buffer in
  let buf = create () in
  add buf (Branch_site { mask = 15; lbl = User 1; idx = 1; x = 0 });
  add buf (Branch_site { mask = 15; lbl = User 2; idx = 1; x = 0 });
  for _ = 1 to 1021 do
    add buf (Word_lit 0)
  done;
  add buf (Label_def (User 2));
  add buf (Word_lit 0);
  add buf (Label_def (User 1));
  let r = Cogg.Loader_gen.resolve buf in
  check_int "both sites widened" 2 r.Cogg.Loader_gen.n_long;
  check_int "pool words" 2 r.Cogg.Loader_gen.pool_words;
  check_int "entry skips the pool" 8 r.Cogg.Loader_gen.entry;
  Alcotest.(check bool)
    "cascade took more than two sizing passes" true
    (r.Cogg.Loader_gen.iterations > 2);
  (* both labels resolved past the boundary, shifted by the 8-byte pool
     and the 4 extra bytes of each widened site before them *)
  let offset l = Cogg.Loader_gen.label_offset r l in
  Alcotest.(check (option int)) "L2 offset" (Some (4092 + 8 + 8)) (offset (User 2));
  Alcotest.(check (option int)) "L1 offset" (Some (4096 + 8 + 8)) (offset (User 1));
  Alcotest.(check (option int)) "no offset for an unknown label" None (offset (User 3))

(* 1024 branch sites all forced long need 4096 pool bytes — past the
   4092-byte pool limit (the pool itself must stay inside page 0). *)
let test_loader_pool_overflow () =
  let open Cogg.Code_buffer in
  let buf = create () in
  for _ = 1 to 1024 do
    add buf (Branch_site { mask = 15; lbl = User 1; idx = 1; x = 0 })
  done;
  add buf (Label_def (User 1));
  match Cogg.Loader_gen.resolve buf with
  | _ -> Alcotest.fail "pool overflow not detected"
  | exception Cogg.Loader_gen.Resolve_error m ->
      Alcotest.(check bool)
        "mentions the literal pool" true
        (String.length m >= 21 && String.sub m 0 21 = "literal pool overflow")

(* -- typechecking of specs ------------------------------------------------- *)

let expect_build_error name spec =
  match Cogg.Cogg_build.build_string spec with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: bad spec accepted" name

let test_spec_type_errors () =
  expect_build_error "undeclared symbol in production"
    {|
$Non-terminals
 r = gpr
$Operators
 word
$Productions
r.1 ::= word zork.1
|};
  expect_build_error "opcode used but not declared"
    {|
$Non-terminals
 r = gpr
$Terminals
 d = displacement
$Operators
 word
$Productions
r.2 ::= word d.1
 l r.2,d.1
|};
  expect_build_error "unknown machine mnemonic"
    {|
$Non-terminals
 r = gpr
$Opcodes
 frob
$Operators
 word
$Productions
r.1 ::= word
 using r.1
|};
  expect_build_error "unbound template reference"
    {|
$Non-terminals
 r = gpr
$Terminals
 d = displacement
$Operators
 word
$Opcodes
 l
$Productions
r.2 ::= word d.1
 l r.2,d.9
|};
  expect_build_error "duplicate declaration"
    {|
$Non-terminals
 r = gpr
$Terminals
 r = displacement
|};
  expect_build_error "semantic operator misuse: valueless non-semantic constant"
    {|
$Non-terminals
 r = gpr
$Constants
 myconst
|};
  expect_build_error "too many instructions in a template"
    {|
$Non-terminals
 r = gpr
$Opcodes
 lr
$Operators
 w
$Productions
r.1 ::= w
 using r.1
 lr r.1,r.1
 lr r.1,r.1
 lr r.1,r.1
 lr r.1,r.1
 lr r.1,r.1
 lr r.1,r.1
 lr r.1,r.1
 lr r.1,r.1
 lr r.1,r.1
|}

(* -- parse table and compression ------------------------------------------- *)

let test_compression_roundtrip () =
  let t = build_intro () in
  let pt = t.Cogg.Tables.parse in
  List.iter
    (fun m ->
      let c = Cogg.Compress.compress ~method_:m pt in
      match Cogg.Compress.verify c pt with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "compression mismatch: %s" e)
    Cogg.Compress.
      [ No_compression; Defaults_only; Comb_only; Defaults_and_comb ]

let test_compression_shrinks () =
  let t = build_intro () in
  let pt = t.Cogg.Tables.parse in
  let unc = Cogg.Compress.uncompressed_bytes pt in
  let c = Cogg.Compress.compress ~method_:Cogg.Compress.Defaults_and_comb pt in
  Alcotest.(check bool)
    "compressed is smaller" true
    (c.Cogg.Compress.size_bytes < unc)

let test_slr_lalr_agree_on_intro () =
  (* for this simple grammar both constructions accept the same program *)
  match Cogg.Cogg_build.build_string ~mode:Cogg.Lookahead.Lalr intro_spec with
  | Error es ->
      Alcotest.failf "lalr build failed: %a"
        (Fmt.list Cogg.Cogg_build.pp_error)
        es
  | Ok t -> (
      match Cogg.Codegen.generate_string t intro_if with
      | Error m -> Alcotest.fail m
      (* 2 loads + iadd + store + ret user reductions, plus the three
         augmentation reductions (%stmts epsilon and two statements) *)
      | Ok r -> check_int "reductions" 8 r.Cogg.Codegen.outcome.Cogg.Driver.reductions)

let () =
  Alcotest.run "cogg-core"
    [
      ( "spec",
        [
          Alcotest.test_case "parses" `Quick test_spec_parses;
          Alcotest.test_case "tables build" `Quick test_tables_build;
          Alcotest.test_case "type errors rejected" `Quick test_spec_type_errors;
          Alcotest.test_case "missing file is an error" `Quick test_missing_spec_file;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "paper intro example" `Quick test_intro_codegen;
          Alcotest.test_case "executes correctly" `Quick test_intro_executes;
          Alcotest.test_case "invalid IF rejected" `Quick test_invalid_if_rejected;
          Alcotest.test_case "unknown symbol rejected" `Quick test_unknown_symbol_rejected;
          Alcotest.test_case "value kinds checked" `Quick test_value_kind_checked;
        ] );
      ( "loader",
        [
          Alcotest.test_case "widening cascade re-iterates" `Quick
            test_loader_widening_cascade;
          Alcotest.test_case "literal pool overflow rejected" `Quick
            test_loader_pool_overflow;
        ] );
      ( "tables",
        [
          Alcotest.test_case "compression roundtrip" `Quick test_compression_roundtrip;
          Alcotest.test_case "compression shrinks" `Quick test_compression_shrinks;
          Alcotest.test_case "lalr mode works" `Quick test_slr_lalr_agree_on_intro;
        ] );
    ]
