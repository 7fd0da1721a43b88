(* The Amdahl 470's own idioms: the instruction shapes its
   specification chooses (the l/a/st commutative add, the even/odd pair
   behind multiply and divide, bctr, mvc/mvcl, long-form branches across
   a page), quad reals, need transfers, CSE eviction and statement
   records.  The target-neutral half of every idiom — does the code
   compute the right value — runs on every backend in
   test_conformance.ml. *)

let check_int = Alcotest.(check int)

let tables () = Lazy.force Util.amdahl_tables

(* slot displacements as strings, for splicing into IF text *)
let d n = string_of_int (Util.local n)

let run ?strategy ?locals ?floats body =
  Util.compile_and_run ?strategy ?locals ?floats (tables ()) (Util.prog body)

(* the mnemonics of the listing, one per instruction: compiled, never
   executed *)
let mnemonics body =
  match Cogg.Codegen.generate_string (tables ()) (Util.prog body) with
  | Error m -> Alcotest.fail m
  | Ok g ->
      String.split_on_char '\n' (String.trim g.Cogg.Codegen.listing)
      |> List.map (fun l -> List.hd (String.split_on_char ' ' (String.trim l)))

let has_insn body mnemonic =
  Alcotest.(check bool) (mnemonic ^ " used") true
    (List.mem mnemonic (mnemonics body))

(* -- instruction shapes ------------------------------------------------------ *)

let test_add_commutative () =
  (* x0 := x0 + x1: exactly l/a/st through the commutative memory
     template (paper section 4.1's example); entry (2) + l + a + st +
     exit (3) = 8 instructions *)
  check_int "instruction count" 8
    (List.length (mnemonics (Util.binop 0 "iadd" 0 1)))

let test_pair_idioms () =
  (* multiply through the even/odd pair (mr); divide and modulo
     sign-extend the dividend across the pair (srda) before dr *)
  has_insn (Util.binop 0 "imult" 1 2) "mr";
  List.iter
    (fun op ->
      has_insn (Util.binop 0 op 1 2) "srda";
      has_insn (Util.binop 0 op 1 2) "dr")
    [ "idiv"; "imod" ]

let test_bctr_decrement () =
  has_insn
    (Printf.sprintf "assign fullword dsp:%s r:13 decr fullword dsp:%s r:13"
       (d 0) (d 1))
    "bctr"

let test_mvc_mvcl () =
  let move op =
    Printf.sprintf "%s addr dsp:%s r:13 addr dsp:%s r:13 lng:8" op (d 0) (d 2)
  in
  has_insn (move "assign") "mvc";
  has_insn (move "long_assign") "mvcl"

let test_cse_addition_once () =
  (* x0 := (x1+x2) * (x1+x2) via make_common/use_common: the second use
     comes from the register, so exactly one a/ar is emitted *)
  let body =
    Printf.sprintf
      "assign fullword dsp:%s r:13 imult make_common cse:c1 cnt:1 fullword \
       dsp:%s r:13 iadd fullword dsp:%s r:13 fullword dsp:%s r:13 use_common cse:c1"
      (d 0) (d 9) (d 1) (d 2)
  in
  check_int "addition computed once" 1
    (List.length
       (List.filter (fun m -> m = "a" || m = "ar") (mnemonics body)))

let test_long_branch_over_page () =
  (* the loader generator must widen a branch spanning a page into the
     long form (the values it computes run in test_conformance.ml) *)
  let r = run ~locals:[ (4, 0); (5, 1) ] Util.page_crossing_body in
  Alcotest.(check bool)
    "a long branch was generated" true
    (r.Util.genresult.Cogg.Codegen.resolved.Cogg.Loader_gen.n_long > 0)

(* -- quadruple precision (128-bit) reals --------------------------------------- *)

let test_quad_arithmetic () =
  (* q0 := (q2 + q4) * q6 via the extended load/store and axr/mxr *)
  let body =
    Printf.sprintf
      "assign quadrealword dsp:%s r:13 qmult qadd quadrealword dsp:%s r:13        quadrealword dsp:%s r:13 quadrealword dsp:%s r:13"
      (d 0) (d 4) (d 8) (d 12)
  in
  (* quads live in two doublewords; the simulator computes with the high
     half (the documented IEEE substitution), the low half is 0 *)
  let r = run ~floats:[ (4, 2.5); (8, 0.75); (12, 4.0) ] body in
  Alcotest.(check (float 1e-9))
    "(2.5+0.75)*4" 13.0
    (Machine.Sim.load_f64 r.Util.sim (r.Util.frame + Util.local 0))

let test_quad_conversions () =
  (* widen a double to quad and truncate back *)
  let body =
    Printf.sprintf
      "assign quadrealword dsp:%s r:13 x_q_cnvrt dblrealword dsp:%s r:13        assign dblrealword dsp:%s r:13 q_x_cnvrt quadrealword dsp:%s r:13"
      (d 0) (d 4) (d 6) (d 0)
  in
  let r = run ~floats:[ (4, 9.25) ] body in
  Alcotest.(check (float 1e-9))
    "survives the round trip" 9.25
    (Machine.Sim.load_f64 r.Util.sim (r.Util.frame + Util.local 6))

(* -- need with a busy register: transfer and stack rebind ------------------------ *)

let test_need_transfer_in_code () =
  (* procedure_call needs r14/r15.  With the first-free strategy the
     deep expression below occupies low registers; to provoke a transfer
     we need a value in r14/r15, which the allocator never hands out, so
     instead verify the paper's mechanism directly through x_s_cnvrt,
     which needs f0 while f0 can hold a live real. *)
  let body =
    Printf.sprintf
      "assign fullword dsp:%s r:13 iadd x_s_cnvrt dblrealword dsp:%s r:13        x_s_cnvrt radd dblrealword dsp:%s r:13 dblrealword dsp:%s r:13"
      (d 0) (d 2) (d 4) (d 6)
  in
  (* with first-free, the first conversion's operand loads into f0; the
     second conversion's 'need f.0' must transfer it *)
  let r =
    run ~strategy:Cogg.Regalloc.First_free
      ~floats:[ (2, 5.0); (4, 2.0); (6, 3.0) ]
      body
  in
  check_int "trunc(5.0) + trunc(2.0+3.0)" 10 (Util.read_local r 0)

(* -- need transfer: the remap reaches every place a binding can sit ------------------ *)

(* A small amdahl470 machine whose [grab] needs r1 and then clobbers it
   with 7.  Under the first-free strategy the first value loaded goes to
   r1, so a [grab] while r1 holds a live value must move it (lr) and
   rebind every token naming r1: on the translation stack, among the
   tokens a reduction prefixed and still waiting to be read, and in the
   input not yet read.  A binding the remap missed reads whatever r1
   holds next: 7, or the result register [plus] reuses it as, which
   [plus] loads from its right operand first. *)
let need_spec =
  {|
$Non-terminals
 r = gpr
$Terminals
 dsp = displacement
$Operators
 fullword, assign, plus, grab, dup, copy, procedure_entry, procedure_exit
$Opcodes
 l, st, lr, ar, la, stm, lm, bal, bcr
$Constants
 zero = 0; seven = 7; unconditional = 15; entry_code = 256;
 save_area = 8; old_base = 4; stack_base = 13; pr_base = 10
$Productions
lambda ::= assign fullword dsp.1 r.1 r.2
 st    r.2,dsp.1(zero,r.1)

r.2 ::= fullword dsp.1 r.1
 using r.2
 l     r.2,dsp.1(zero,r.1)

r.3 ::= plus r.1 r.2
 using r.3
 lr    r.3,r.2
 ar    r.3,r.1

r.2 ::= copy r.1
 using r.2
 lr    r.2,r.1

r.1 ::= dup r.1
 push_even r.1
 push_even r.1
 ignore_lhs

r.3 ::= grab r.2
 need  r.1
 using r.3
 lr    r.3,r.2
 la    r.1,seven(zero,zero)

lambda ::= procedure_entry
 need  r.14,r.15
 stm   r.14,stack_base,save_area(stack_base)
 bal   r.14,entry_code(pr_base)

lambda ::= procedure_exit
 need  r.14
 l     stack_base,old_base(stack_base)
 lm    r.14,stack_base,save_area(stack_base)
 bcr   unconditional,r.14
|}

let need_tables =
  lazy
    (match Cogg.Cogg_build.build_string need_spec with
    | Ok t -> t
    | Error es ->
        Alcotest.failf "need spec failed to build: %a"
          (Fmt.list Cogg.Cogg_build.pp_error)
          es)

(* x0 := [body], with x1 = 40 and x2 = 2; the allocator must report the
   transfer, so the remap was exercised and not sidestepped *)
let run_need body =
  let r =
    Util.compile_and_run ~strategy:Cogg.Regalloc.First_free
      ~locals:[ (1, 40); (2, 2) ]
      (Lazy.force need_tables)
      (Util.prog (Printf.sprintf "assign fullword dsp:%s r:13 %s" (d 0) body))
  in
  check_int "r1 moved to a fresh register" 1
    r.Util.genresult.Cogg.Codegen.alloc_stats.Cogg.Regalloc.n_transfers;
  Util.read_local r 0

let test_need_remaps_stack () =
  (* x1 sits in r1 on the stack, as plus's left operand, when grab runs *)
  check_int "x1 + x2" 42
    (run_need
       (Printf.sprintf "plus fullword dsp:%s r:13 grab fullword dsp:%s r:13"
          (d 1) (d 2)))

let test_need_remaps_prefixed () =
  (* dup prefixes r1 twice; grab reduces with the second copy still
     waiting in the prefix buffer *)
  check_int "x1 + x1" 80
    (run_need (Printf.sprintf "plus grab dup fullword dsp:%s r:13" (d 1)))

let test_need_remaps_lookahead () =
  (* the same r:1, read already: it is the lookahead grab reduces on *)
  check_int "(x1 + x2) + x1" 82
    (run_need
       (Printf.sprintf
          "plus plus fullword dsp:%s r:13 grab fullword dsp:%s r:13 r:1"
          (d 1) (d 2)))

let test_need_remaps_unread_input () =
  (* the closing r:1 names the value r1 holds, x1; grab runs while
     [copy] is the lookahead, so that token has not been read yet *)
  check_int "(x1 + x2) + x1" 82
    (run_need
       (Printf.sprintf
          "plus plus fullword dsp:%s r:13 grab fullword dsp:%s r:13 copy r:1"
          (d 1) (d 2)))

(* -- CSE eviction under register pressure ---------------------------------------- *)

let test_cse_evicted_and_reloaded () =
  (* define a CSE, exhaust every register with a deep register-only
     expression, then use the CSE: it must reload from its temporary *)
  let rec deep n =
    if n = 0 then Printf.sprintf "fullword dsp:%s r:13" (d 1)
    else Printf.sprintf "iadd %s %s" (deep (n - 1)) (deep (n - 1))
  in
  let body =
    Printf.sprintf
      "assign fullword dsp:%s r:13 iadd make_common cse:c1 cnt:1 fullword        dsp:%s r:13 iadd fullword dsp:%s r:13 fullword dsp:%s r:13 iadd %s        use_common cse:c1"
      (d 0) (d 20) (d 2) (d 3) (deep 3)
  in
  let r = run ~locals:[ (1, 1); (2, 40); (3, 2) ] body in
  (* (40+2) + (8*1 + (40+2)) *)
  check_int "cse survives pressure" (42 + 8 + 42) (Util.read_local r 0)

(* -- statement records -------------------------------------------------------------- *)

let test_statement_records () =
  let body =
    Printf.sprintf
      "statement stmt:1 assign fullword dsp:%s r:13 pos_constant v:5 statement stmt:2"
      (d 0)
  in
  let r = run body in
  check_int "value" 5 (Util.read_local r 0)

let test_stmt_records_collected () =
  let t = tables () in
  let emitter = Cogg.Emit.create t in
  let toks =
    match
      Ifl.Reader.program_of_string
        (Util.prog
           (Printf.sprintf
              "statement stmt:10 assign fullword dsp:%s r:13 pos_constant v:1                statement stmt:20 assign fullword dsp:%s r:13 pos_constant v:2"
              (d 0) (d 1)))
    with
    | Ok ts -> ts
    | Error m -> Alcotest.fail m
  in
  (match Cogg.Driver.parse t ~reduce:(Cogg.Emit.reduce emitter) toks with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%a" Cogg.Driver.pp_error e);
  let nums = List.map fst emitter.Cogg.Emit.stmt_records in
  Alcotest.(check (list int)) "both statements recorded" [ 20; 10 ]
    nums

let () =
  Alcotest.run "amdahl470"
    [
      ( "idioms",
        [
          Alcotest.test_case "commutative add: 8 instructions" `Quick
            test_add_commutative;
          Alcotest.test_case "mr/srda pair idioms" `Quick test_pair_idioms;
          Alcotest.test_case "bctr decrement" `Quick test_bctr_decrement;
          Alcotest.test_case "mvc/mvcl block moves" `Quick test_mvc_mvcl;
          Alcotest.test_case "cse addition computed once" `Quick
            test_cse_addition_once;
          Alcotest.test_case "long branch over page" `Quick
            test_long_branch_over_page;
        ] );
      ( "advanced",
        [
          Alcotest.test_case "quad arithmetic" `Quick test_quad_arithmetic;
          Alcotest.test_case "quad conversions" `Quick test_quad_conversions;
          Alcotest.test_case "need transfer" `Quick test_need_transfer_in_code;
          Alcotest.test_case "need remaps the stack" `Quick
            test_need_remaps_stack;
          Alcotest.test_case "need remaps prefixed tokens" `Quick
            test_need_remaps_prefixed;
          Alcotest.test_case "need remaps the lookahead" `Quick
            test_need_remaps_lookahead;
          Alcotest.test_case "need remaps unread input" `Quick
            test_need_remaps_unread_input;
          Alcotest.test_case "cse eviction reload" `Quick
            test_cse_evicted_and_reloaded;
          Alcotest.test_case "statement records" `Quick test_statement_records;
          Alcotest.test_case "stmt records collected" `Quick
            test_stmt_records_collected;
        ] );
    ]
