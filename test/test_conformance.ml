(* The target-parametric conformance suite: every target-neutral IF
   idiom is written once here and runs on every entry of
   [Machine.Targets.all], verified by executing the generated code on
   that target's own simulator.  No case names a target; a new backend
   (a spec plus a substrate, registered in Targets) runs all of them
   without editing this file.  Each machine's own idioms — the listing
   shapes its templates choose — live in test_amdahl.ml and
   test_risc32.ml. *)

let check_int = Alcotest.(check int)

(* slot displacements as strings, for splicing into IF text *)
let d n = string_of_int (Util.local n)

let run ?strategy ?locals ?halves ?floats t body =
  Util.compile_and_run ?strategy ?locals ?halves ?floats t (Util.prog body)

let read_f64 (r : Util.run) slot =
  Machine.Sim.load_f64 r.Util.sim (r.Util.frame + Util.local slot)

(* -- straight-line arithmetic ---------------------------------------------- *)

let test_add t =
  let r = run t ~locals:[ (0, 7); (1, 35) ] (Util.binop 0 "iadd" 0 1) in
  check_int "sum" 42 (Util.read_local r 0)

let test_multiply t =
  let r = run t ~locals:[ (1, 17); (2, -3) ] (Util.binop 0 "imult" 1 2) in
  check_int "product" (-51) (Util.read_local r 0)

let test_divide t =
  let r = run t ~locals:[ (1, -100); (2, 7) ] (Util.binop 0 "idiv" 1 2) in
  check_int "quotient truncates toward zero" (-14) (Util.read_local r 0)

let test_modulo t =
  let r = run t ~locals:[ (1, -100); (2, 7) ] (Util.binop 0 "imod" 1 2) in
  check_int "remainder" (-2) (Util.read_local r 0)

(* x0 := ((x1*x2) + (x3 div x4)) mod x5 *)
let nested_body =
  Printf.sprintf
    "assign fullword dsp:%s r:13 imod iadd imult fullword dsp:%s r:13 \
     fullword dsp:%s r:13 idiv fullword dsp:%s r:13 fullword dsp:%s \
     r:13 fullword dsp:%s r:13"
    (d 0) (d 1) (d 2) (d 3) (d 4) (d 5)

let nested_locals = [ (1, 6); (2, 7); (3, 100); (4, 9); (5, 31) ]
let nested_expect = ((6 * 7) + (100 / 9)) mod 31

let test_nested_expression t =
  let r = run t ~locals:nested_locals nested_body in
  check_int "((6*7)+(100/9)) mod 31" nested_expect (Util.read_local r 0)

let test_sub_and_unaries t =
  (* x0 := abs(x1 - x2); x3 := -x4; x5 := max(x6, x7) *)
  let r =
    run t
      ~locals:[ (1, 10); (2, 25); (4, 9); (6, 4); (7, 11) ]
      (Printf.sprintf
         "assign fullword dsp:%s r:13 iabs isub fullword dsp:%s r:13 fullword dsp:%s r:13 \
          assign fullword dsp:%s r:13 ineg fullword dsp:%s r:13 %s"
         (d 0) (d 1) (d 2) (d 3) (d 4) (Util.binop 5 "imax" 6 7))
  in
  check_int "abs" 15 (Util.read_local r 0);
  check_int "neg" (-9) (Util.read_local r 3);
  check_int "max" 11 (Util.read_local r 5)

let test_min_and_odd t =
  let r =
    run t
      ~locals:[ (1, 4); (2, 11); (3, 7) ]
      (Printf.sprintf "%s assign fullword dsp:%s r:13 iodd fullword dsp:%s r:13"
         (Util.binop 0 "imin" 1 2) (d 4) (d 3))
  in
  check_int "min" 4 (Util.read_local r 0);
  check_int "odd(7)" 1 (Util.read_local r 4)

let test_incr_decr t =
  (* x0 := x1 - 1; x2 := x3 + 1 *)
  let r =
    run t
      ~locals:[ (1, 50); (3, 99) ]
      (Printf.sprintf
         "assign fullword dsp:%s r:13 decr fullword dsp:%s r:13 \
          assign fullword dsp:%s r:13 incr fullword dsp:%s r:13"
         (d 0) (d 1) (d 2) (d 3))
  in
  check_int "decrement" 49 (Util.read_local r 0);
  check_int "increment" 100 (Util.read_local r 2)

let test_shifts_and_constants t =
  (* x0 := (x1 shl 2) + 4095; x2 := x3 shr 3; x4 := -17 *)
  let r =
    run t
      ~locals:[ (1, 5); (3, -64) ]
      (Printf.sprintf
         "assign fullword dsp:%s r:13 iadd l_shift fullword dsp:%s r:13 v:2 v:4095 \
          assign fullword dsp:%s r:13 r_shift fullword dsp:%s r:13 v:3 \
          assign fullword dsp:%s r:13 neg_constant v:17"
         (d 0) (d 1) (d 2) (d 3) (d 4))
  in
  check_int "shift-add" ((5 lsl 2) + 4095) (Util.read_local r 0);
  check_int "arithmetic right shift" (-8) (Util.read_local r 2);
  check_int "negative constant" (-17) (Util.read_local r 4)

let test_halfword_values t =
  let r =
    run t
      ~halves:[ (1, -300); (2, 512) ]
      (Printf.sprintf
         "assign hlfword dsp:%s r:13 iadd hlfword dsp:%s r:13 hlfword dsp:%s r:13"
         (d 0) (d 1) (d 2))
  in
  check_int "halfword sum" 212 (Util.read_half r 0)

let test_halfword_divide t =
  (* the halfword divisor must be loaded as a halfword *)
  let div op dst =
    Printf.sprintf
      "assign fullword dsp:%s r:13 %s fullword dsp:%s r:13 hlfword dsp:%s r:13"
      (d dst) op (d 1) (d 2)
  in
  let r =
    run t ~locals:[ (1, -200) ] ~halves:[ (2, 7) ]
      (div "idiv" 0 ^ " " ^ div "imod" 3)
  in
  Alcotest.(check bool)
    "lh used" true
    (Util.contains r.Util.genresult.Cogg.Codegen.listing "lh");
  check_int "quotient" (-28) (Util.read_local r 0);
  check_int "remainder" (-4) (Util.read_local r 3)

let test_deep_expression t =
  (* a balanced tree of register-register additions keeps many values
     live at once *)
  let rec tree depth =
    if depth = 0 then Printf.sprintf "fullword dsp:%s r:13" (d 1)
    else Printf.sprintf "iadd %s %s" (tree (depth - 1)) (tree (depth - 1))
  in
  let r =
    run t ~locals:[ (1, 1) ]
      (Printf.sprintf "assign fullword dsp:%s r:13 %s" (d 0) (tree 3))
  in
  check_int "2^3 ones" 8 (Util.read_local r 0)

(* -- control flow ----------------------------------------------------------- *)

(* if x1 < x2 then x0 := 1 else x0 := 2
   branch-if-not-less (mask 11) to L1; x0:=1; goto L2; L1: x0:=2; L2: *)
let if_less_prog =
  Printf.sprintf
    "branch_op lbl:1 cond:m11 icompare fullword dsp:%s r:13 fullword dsp:%s r:13 \
     assign fullword dsp:%s r:13 pos_constant v:1 \
     branch_op lbl:2 \
     label_def lbl:1 \
     assign fullword dsp:%s r:13 pos_constant v:2 \
     label_def lbl:2"
    (d 1) (d 2) (d 0) (d 0)

let test_branch_taken t =
  let r = run t ~locals:[ (1, 3); (2, 9) ] if_less_prog in
  check_int "then branch" 1 (Util.read_local r 0)

let test_branch_not_taken t =
  let r = run t ~locals:[ (1, 9); (2, 3) ] if_less_prog in
  check_int "else branch" 2 (Util.read_local r 0)

let test_short_branch_stays_short t =
  let r = run t ~locals:[ (1, 1); (2, 2) ] if_less_prog in
  check_int "no long branches" 0
    r.Util.genresult.Cogg.Codegen.resolved.Cogg.Loader_gen.n_long

let test_branch_over_page t =
  let r = run t ~locals:[ (4, 0); (5, 1) ] Util.page_crossing_body in
  check_int "branch skipped the filler" 0 (Util.read_local r 4);
  check_int "target reached" 77 (Util.read_local r 0);
  Alcotest.(check bool)
    "the code really crossed the page" true
    (Bytes.length r.Util.genresult.Cogg.Codegen.resolved.Cogg.Loader_gen.code
    > 4096)

let test_loop_sums t =
  (* x0 := 0; x1 := 5; L1: if x1 = 0 goto L2; x0 += x1; x1 -= 1; goto L1; L2: *)
  let body =
    Printf.sprintf
      "assign fullword dsp:%s r:13 pos_constant v:0 \
       label_def lbl:1 \
       branch_op lbl:2 cond:m8 icompare fullword dsp:%s r:13 pos_constant v:0 \
       %s \
       assign fullword dsp:%s r:13 decr fullword dsp:%s r:13 \
       branch_op lbl:1 \
       label_def lbl:2"
      (d 0) (d 1) (Util.binop 0 "iadd" 0 1) (d 1) (d 1)
  in
  let r = run t ~locals:[ (1, 5) ] body in
  check_int "1+2+3+4+5" 15 (Util.read_local r 0)

let test_case_branch_table t =
  (* computed goto: x0 := 10*(selector+1) through a branch table *)
  let arm l v =
    Printf.sprintf
      "label_def lbl:%d assign fullword dsp:%s r:13 pos_constant v:%d \
       branch_op lbl:8"
      l (d 0) v
  in
  let body sel =
    Printf.sprintf
      "assign fullword dsp:%s r:13 pos_constant v:%d \
       case_index lbl:9 fullword dsp:%s r:13 \
       label_def lbl:9 label_index lbl:1 label_index lbl:2 label_index lbl:3 \
       %s %s %s label_def lbl:8"
      (d 1) sel (d 1) (arm 1 10) (arm 2 20) (arm 3 30)
  in
  List.iter
    (fun sel ->
      let r = run t (body sel) in
      check_int (Printf.sprintf "case %d" sel) (10 * (sel + 1))
        (Util.read_local r 0))
    [ 0; 1; 2 ]

(* -- booleans --------------------------------------------------------------- *)

let test_boolean_assign_from_cc t =
  (* b0 := x1 < x2.  A relational result goes through r ::= cond cc
     (0/1 register, mask = branch-if-false), then a byte store; the
     direct assign-from-cc production is reserved for TM-style cc. *)
  let body =
    Printf.sprintf
      "assign byteword dsp:%s r:13 cond:m11 icompare fullword dsp:%s r:13 fullword dsp:%s r:13"
      (d 0) (d 1) (d 2)
  in
  let r1 = run t ~locals:[ (1, 3); (2, 9) ] body in
  check_int "3 < 9 is true" 1 (Util.read_byte r1 0);
  let r2 = run t ~locals:[ (1, 9); (2, 3) ] body in
  check_int "9 < 3 is false" 0 (Util.read_byte r2 0);
  (* TM-style cc may be stored directly: b0 := b1 (via boolean_test) *)
  let body2 =
    Printf.sprintf
      "assign byteword dsp:%s r:13 boolean_test byteword dsp:%s r:13"
      (d 0) (d 3)
  in
  let r3 = run t ~locals:[ (3, 1 lsl 24) ] body2 in
  check_int "true boolean copied" 1 (Util.read_byte r3 0);
  let r4 = run t ~locals:[ (3, 0) ] body2 in
  check_int "false boolean copied" 0 (Util.read_byte r4 0)

let test_boolean_memory_and t =
  (* b0 := b1 and b2 over byte booleans *)
  let body =
    Printf.sprintf
      "assign byteword dsp:%s r:13 boolean_and byteword dsp:%s r:13 byteword dsp:%s r:13"
      (d 0) (d 1) (d 2)
  in
  List.iter
    (fun (a, b, expect) ->
      let r = run t ~locals:[ (1, a lsl 24); (2, b lsl 24) ] body in
      check_int (Printf.sprintf "%d and %d" a b) expect (Util.read_byte r 0))
    [ (0, 0, 0); (0, 1, 0); (1, 0, 0); (1, 1, 1) ]

let test_boolean_or_register t =
  (* b0 := (x1 < x2) or b3 : register boolean through cond+cc *)
  let body =
    Printf.sprintf
      "assign byteword dsp:%s r:13 boolean_or cond:m11 icompare fullword \
       dsp:%s r:13 fullword dsp:%s r:13 byteword dsp:%s r:13"
      (d 0) (d 1) (d 2) (d 3)
  in
  List.iter
    (fun (a, b, flag, expect) ->
      let r = run t ~locals:[ (1, a); (2, b); (3, flag lsl 24) ] body in
      check_int
        (Printf.sprintf "(%d<%d) or %d" a b flag)
        expect (Util.read_byte r 0))
    [ (1, 2, 0, 1); (2, 1, 1, 1); (2, 1, 0, 0) ]

let test_boolean_not t =
  let body =
    Printf.sprintf
      "assign byteword dsp:%s r:13 boolean_not byteword dsp:%s r:13"
      (d 0) (d 1)
  in
  let r = run t ~locals:[ (1, 1 lsl 24) ] body in
  check_int "not true" 0 (Util.read_byte r 0);
  let r = run t ~locals:[ (1, 0) ] body in
  check_int "not false" 1 (Util.read_byte r 0)

(* -- sets -------------------------------------------------------------------- *)

let test_bit_set_and_test t =
  (* set bit 3 (mask 0x10) of the byte set at slot 1; then b0 := bit 3 in set *)
  let body =
    Printf.sprintf
      "set_bit_value addr dsp:%s r:13 elmnt:16 \
       assign byteword dsp:%s r:13 test_bit_value addr dsp:%s r:13 elmnt:16"
      (d 1) (d 0) (d 1)
  in
  let r = run t body in
  check_int "bit present after set" 1 (Util.read_byte r 0);
  check_int "set byte" 0x10 (Util.read_byte r 1)

let test_bit_variable_element t =
  (* set bit k (variable) with the DIV8/MOD8 sequence, then test it *)
  let body =
    Printf.sprintf
      "set_bit_value addr dsp:%s r:13 fullword dsp:%s r:13 \
       assign byteword dsp:%s r:13 test_bit_value addr dsp:%s r:13 fullword dsp:%s r:13"
      (d 2) (d 1) (d 0) (d 2) (d 1)
  in
  List.iter
    (fun k ->
      let r = run t ~locals:[ (1, k) ] body in
      check_int (Printf.sprintf "bit %d" k) 1 (Util.read_byte r 0))
    [ 0; 5; 9; 14 ]

let test_clear_bit t =
  (* byte set 0xFF; clear bit with mask complement 0xEF -> 0xEF *)
  let body = Printf.sprintf "clear_bit_value addr dsp:%s r:13 elmnt:239" (d 1) in
  let r = run t ~locals:[ (1, 0xFFFFFFFF) ] body in
  check_int "cleared" 0xEF (Util.read_byte r 1)

let test_word_set_ops t =
  (* x0 := (x1 union x2) intersect difference(x3, x4) over word sets *)
  let body =
    Printf.sprintf
      "assign fullword dsp:%s r:13 set_intersect set_union fullword dsp:%s \
       r:13 fullword dsp:%s r:13 set_difference fullword dsp:%s r:13 \
       fullword dsp:%s r:13"
      (d 0) (d 1) (d 2) (d 3) (d 4)
  in
  let r =
    run t ~locals:[ (1, 0b1100); (2, 0b0011); (3, 0b1010); (4, 0b0010) ] body
  in
  check_int "set algebra" (0b1111 land (0b1010 land lnot 0b0010))
    (Util.read_local r 0)

(* -- checks ------------------------------------------------------------------ *)

let aborted (r : Util.run) = r.Util.outcome.Machine.Runtime.aborted

let range_check_body =
  Printf.sprintf
    "assign fullword dsp:%s r:13 range_check fullword dsp:%s r:13 fullword \
     dsp:%s r:13 fullword dsp:%s r:13"
    (d 0) (d 1) (d 2) (d 3)

let test_range_check_passes t =
  let r = run t ~locals:[ (1, 5); (2, 1); (3, 10) ] range_check_body in
  Alcotest.(check (option string)) "no abort" None (aborted r);
  check_int "value through" 5 (Util.read_local r 0)

let test_range_check_aborts t =
  let r = run t ~locals:[ (1, 50); (2, 1); (3, 10) ] range_check_body in
  Alcotest.(check (option string)) "aborted" (Some "range overflow") (aborted r)

let test_uninit_check t =
  let body =
    Printf.sprintf
      "assign fullword dsp:%s r:13 uninit_check fullword dsp:%s r:13" (d 0)
      (d 1)
  in
  let ok = run t ~locals:[ (1, 42) ] body in
  Alcotest.(check (option string)) "initialized" None (aborted ok);
  let bad = run t ~locals:[ (1, Machine.Runtime.uninit_pattern) ] body in
  Alcotest.(check bool) "uninitialized detected" true (aborted bad <> None)

let test_abort_op t =
  let r = run t "abort_op errno:9" in
  Alcotest.(check (option string))
    "aborted with code" (Some "program abort (code 9)") (aborted r)

(* -- reals -------------------------------------------------------------------- *)

let test_real_arithmetic t =
  (* r0 := (r1 + r2) * r3 with double reals *)
  let body =
    Printf.sprintf
      "assign dblrealword dsp:%s r:13 rmult radd dblrealword dsp:%s r:13 \
       dblrealword dsp:%s r:13 dblrealword dsp:%s r:13"
      (d 0) (d 2) (d 4) (d 6)
  in
  let r = run t ~floats:[ (2, 1.5); (4, 2.25); (6, 4.0) ] body in
  Alcotest.(check (float 1e-9)) "(1.5+2.25)*4" 15.0 (read_f64 r 0)

let test_int_real_conversion t =
  (* r0 := halve(real(x2)); x3 := trunc(r0) *)
  let body =
    Printf.sprintf
      "assign dblrealword dsp:%s r:13 halve s_x_cnvrt fullword dsp:%s r:13 \
       assign fullword dsp:%s r:13 x_s_cnvrt dblrealword dsp:%s r:13"
      (d 0) (d 2) (d 3) (d 0)
  in
  let r = run t ~locals:[ (2, -25) ] body in
  Alcotest.(check (float 1e-9)) "int->real then halve" (-12.5) (read_f64 r 0);
  check_int "real->int truncation" (-12) (Util.read_local r 3)

(* -- block moves --------------------------------------------------------------- *)

let block_move op (w1, w2) t =
  (* copy 8 bytes from slot 2 to slot 0 via addresses *)
  let body =
    Printf.sprintf "%s addr dsp:%s r:13 addr dsp:%s r:13 lng:8" op (d 0) (d 2)
  in
  let r = run t ~locals:[ (2, w1); (3, w2) ] body in
  check_int "first word copied" w1 (Util.read_local r 0);
  check_int "second word copied" w2 (Util.read_local r 1)

(* -- CSE and allocation strategies ----------------------------------------------- *)

let test_cse_register_reuse t =
  (* x0 := (x1+x2) * (x1+x2) via make_common/use_common *)
  let body =
    Printf.sprintf
      "assign fullword dsp:%s r:13 imult make_common cse:c1 cnt:1 fullword \
       dsp:%s r:13 iadd fullword dsp:%s r:13 fullword dsp:%s r:13 use_common cse:c1"
      (d 0) (d 9) (d 1) (d 2)
  in
  let r = run t ~locals:[ (1, 6); (2, 7) ] body in
  check_int "(6+7)^2" 169 (Util.read_local r 0)

let test_strategies_agree t =
  List.iter
    (fun strategy ->
      let r = run t ~strategy ~locals:nested_locals nested_body in
      check_int
        (Cogg.Regalloc.strategy_name strategy)
        nested_expect (Util.read_local r 0))
    Cogg.Regalloc.[ Lru; Round_robin; First_free ]

(* -- the canonical corpus ---------------------------------------------------------- *)

(* every canonical program compiles and the machine run agrees with the
   reference interpreter *)
let corpus_verifies (t : Cogg.Tables.t) =
  List.iter
    (fun (name, src) ->
      match Pipeline.verify t src with
      | Ok v -> Alcotest.(check bool) name true v.Pipeline.agreed
      | Error m -> Alcotest.failf "%s: %s" name m)
    Pipeline.Programs.all

let test_lalr_corpus t =
  corpus_verifies
    (Util.build ~mode:Cogg.Lookahead.Lalr t.Cogg.Tables.target)

(* A fixed-seed slice of generated programs through the cross-backend
   differential oracle: every registered target against the first. *)
let test_cross_backend_sweep () =
  match List.map (fun (name, _) -> Util.tables name) Machine.Targets.all with
  | [] -> ()
  | reference :: others ->
      List.iter
        (fun other ->
          for index = 0 to 47 do
            let rng = Fuzz.Rng.derive ~seed:11 ~index in
            let src = Fuzz.Gen_pascal.source rng (Fuzz.Profile.rotate index) in
            match Fuzz.Oracle.cross_backend reference other src with
            | Fuzz.Oracle.Pass | Fuzz.Oracle.Skip _ -> ()
            | st ->
                Alcotest.failf "case %d: %a@.%s" index Fuzz.Oracle.pp_status
                  st src
          done)
        others

let () =
  Alcotest.run "conformance"
    (List.concat_map
       (fun (group, cases) -> Util.per_target group cases)
       [
         ( "arithmetic",
           [
             ("add", test_add);
             ("multiply", test_multiply);
             ("divide", test_divide);
             ("modulo", test_modulo);
             ("nested expression", test_nested_expression);
             ("sub and unaries", test_sub_and_unaries);
             ("min and odd", test_min_and_odd);
             ("incr/decr", test_incr_decr);
             ("shifts and constants", test_shifts_and_constants);
             ("halfword values", test_halfword_values);
             ("halfword divide", test_halfword_divide);
             ("deep expression", test_deep_expression);
           ] );
         ( "control",
           [
             ("branch taken", test_branch_taken);
             ("branch not taken", test_branch_not_taken);
             ("short branch stays short", test_short_branch_stays_short);
             ("branch over a page", test_branch_over_page);
             ("loop", test_loop_sums);
             ("case branch table", test_case_branch_table);
           ] );
         ( "booleans",
           [
             ("assign from cc", test_boolean_assign_from_cc);
             ("memory and", test_boolean_memory_and);
             ("or with register", test_boolean_or_register);
             ("not", test_boolean_not);
           ] );
         ( "sets",
           [
             ("bit set and test", test_bit_set_and_test);
             ("variable element", test_bit_variable_element);
             ("clear bit", test_clear_bit);
             ("word set ops", test_word_set_ops);
           ] );
         ( "checks",
           [
             ("range check passes", test_range_check_passes);
             ("range check aborts", test_range_check_aborts);
             ("uninit check", test_uninit_check);
             ("abort op", test_abort_op);
           ] );
         ( "reals",
           [
             ("real arithmetic", test_real_arithmetic);
             ("conversions", test_int_real_conversion);
           ] );
         ( "blocks",
           [
             ("block assign", block_move "assign" (0x01020304, 0x05060708));
             ("long assign", block_move "long_assign" (123456, -99));
           ] );
         ( "misc",
           [
             ("cse register reuse", test_cse_register_reuse);
             ("strategies agree", test_strategies_agree);
           ] );
         ( "corpus",
           [
             ("corpus verifies", corpus_verifies);
             ("lalr corpus", test_lalr_corpus);
           ] );
       ]
    @ [
        ( "cross-backend",
          [
            Alcotest.test_case "seed-11 sweep, 48 cases" `Quick
              test_cross_backend_sweep;
          ] );
      ])
