(* The RISC-32 backend's own idioms: the substrate's encode/decode and
   simulator semantics (r0 hardwired to zero, cc set only by compares,
   load widths, ftoi truncation), the instruction shapes its
   specification chooses (srai abs, subi decrement) and the pc-relative
   answer to the page-boundary problem.  The target-neutral half of
   every IF idiom runs on every backend in test_conformance.ml. *)

let check_int = Alcotest.(check int)

let tables () = Lazy.force Util.risc32_tables

let d n = string_of_int (Util.local n)

let run ?locals body = Util.compile_and_run ?locals (tables ()) (Util.prog body)

let listing ?locals body =
  (run ?locals body).Util.genresult.Cogg.Codegen.listing

(* -- instruction encoding ----------------------------------------------------- *)

(* one of each format; every instruction must survive encode/decode *)
let sample_insns : Machine.Insn.t list =
  [
    Machine.Insn.R3 { op = "add"; rd = 1; rs1 = 2; rs2 = 3 };
    Machine.Insn.R3 { op = "fmul"; rd = 4; rs1 = 5; rs2 = 6 };
    Machine.Insn.R2 { op = "mov"; rd = 7; rs = 8 };
    Machine.Insn.R2 { op = "cmp"; rd = 1; rs = 2 };
    Machine.Insn.Ri { op = "addi"; rd = 3; rs = 4; imm = 1234 };
    Machine.Insn.Ri { op = "srai"; rd = 5; rs = 5; imm = 31 };
    Machine.Insn.Li { op = "li"; rd = 6; imm = 4095 };
    Machine.Insn.Li { op = "cmpi"; rd = 2; imm = 0 };
    Machine.Insn.Mem { op = "lw"; rd = 9; dsp = 104; rb = 13 };
    Machine.Insn.Mem { op = "jl"; rd = 14; dsp = 292; rb = 10 };
    Machine.Insn.Bcc { mask = 8; rel = -16 };
  ]

let test_encode_decode_roundtrip () =
  List.iter
    (fun i ->
      let b = Machine.Encode.encode i in
      check_int "every RISC-32 instruction is 4 bytes" 4 (Bytes.length b);
      let back, sz = Machine.Encode.decode_r32 b 0 in
      check_int "decoded size" 4 sz;
      Alcotest.(check string)
        "roundtrip"
        (Machine.Insn.to_string i)
        (Machine.Insn.to_string back))
    sample_insns

let test_encode_stream () =
  (* a whole stream decodes back instruction by instruction *)
  let buf = Machine.Encode.encode_all sample_insns in
  let pos = ref 0 in
  List.iter
    (fun i ->
      let back, sz = Machine.Encode.decode_r32 buf !pos in
      pos := !pos + sz;
      Alcotest.(check string)
        "stream round-trip"
        (Machine.Insn.to_string i)
        (Machine.Insn.to_string back))
    sample_insns;
  check_int "stream length" (4 * List.length sample_insns) !pos

let test_encode_bounds () =
  (* a displacement outside the signed 16-bit immediate must be refused
     by the encoder, never silently truncated *)
  match
    Machine.Encode.encode
      (Machine.Insn.Mem { op = "lw"; rd = 1; dsp = 40000; rb = 13 })
  with
  | exception Machine.Encode.Encode_error _ -> ()
  | _ -> Alcotest.fail "out-of-range displacement encoded"

(* -- simulator semantics ------------------------------------------------------ *)

(* hand-load instructions at 0x100 and step them directly *)
let sim_with (insns : Machine.Insn.t list) : Machine.Sim.t =
  let code = Machine.Encode.encode_all insns in
  let sim = Machine.Sim.create ~mem_size:(1 lsl 16) ~halt_addr:0 () in
  Bytes.blit code 0 sim.Machine.Sim.mem 0x100 (Bytes.length code);
  sim.Machine.Sim.pc <- 0x100;
  sim

let steps sim n =
  for _ = 1 to n do
    Machine.Risc32.step sim
  done

let test_r0_hardwired_zero () =
  let sim =
    sim_with
      [
        Machine.Insn.Li { op = "li"; rd = 0; imm = 55 };
        Machine.Insn.R3 { op = "add"; rd = 1; rs1 = 0; rs2 = 0 };
      ]
  in
  Machine.Sim.set_reg sim 1 99;
  steps sim 2;
  check_int "write to r0 discarded, reads yield 0" 0 (Machine.Sim.reg sim 1)

let test_cc_only_from_compares () =
  (* the boolean-store templates interleave li/skip with a live cc: li,
     mov and the ALU ops must leave the condition code alone *)
  let sim =
    sim_with
      [
        Machine.Insn.Li { op = "cmpi"; rd = 1; imm = 10 };
        Machine.Insn.Li { op = "li"; rd = 2; imm = 7 };
        Machine.Insn.R3 { op = "add"; rd = 3; rs1 = 2; rs2 = 2 };
        Machine.Insn.R2 { op = "mov"; rd = 4; rs = 2 };
      ]
  in
  Machine.Sim.set_reg sim 1 3;
  steps sim 1;
  let cc_after_compare = sim.Machine.Sim.cc in
  steps sim 3;
  check_int "li/add/mov preserve cc" cc_after_compare sim.Machine.Sim.cc;
  Alcotest.(check bool)
    "compare really set something" true
    (cc_after_compare = 1 (* 3 < 10 *))

let test_load_widths () =
  (* lb zero-extends, lh sign-extends: the byte 0x80 is 128, the
     halfword 0x8000 is -32768 *)
  let sim =
    sim_with
      [
        Machine.Insn.Mem { op = "lb"; rd = 1; dsp = 0x200; rb = 0 };
        Machine.Insn.Mem { op = "lh"; rd = 2; dsp = 0x200; rb = 0 };
      ]
  in
  Machine.Sim.store_h sim 0x200 0x8000;
  steps sim 2;
  check_int "lb zero-extends" 0x80 (Machine.Sim.reg sim 1);
  check_int "lh sign-extends" (-32768) (Machine.Sim.reg sim 2)

let test_ftoi_truncates () =
  let sim = sim_with [ Machine.Insn.R2 { op = "ftoi"; rd = 1; rs = 2 } ] in
  sim.Machine.Sim.fregs.(2) <- -2.75;
  steps sim 1;
  check_int "truncation toward zero" (-2) (Machine.Sim.reg sim 1)

(* -- instruction shapes ------------------------------------------------------ *)

let test_srai_abs () =
  (* abs(x1 - x2) is the branch-free srai/xor/sub idiom *)
  Alcotest.(check bool)
    "abs is the branch-free srai idiom" true
    (Util.contains
       (listing ~locals:[ (1, 10); (2, 25) ]
          (Printf.sprintf
             "assign fullword dsp:%s r:13 iabs isub fullword dsp:%s r:13 \
              fullword dsp:%s r:13"
             (d 0) (d 1) (d 2)))
       "srai")

let test_subi_decrement () =
  Alcotest.(check bool)
    "decrement is subi" true
    (Util.contains
       (listing ~locals:[ (1, 50) ]
          (Printf.sprintf
             "assign fullword dsp:%s r:13 decr fullword dsp:%s r:13" (d 0)
             (d 1)))
       "subi")

let test_branch_over_page_stays_fixed_width () =
  (* the Amdahl target must widen a branch crossing the 4096-byte page
     into the long form; RISC-32 branches are fixed-width pc-relative,
     so the identical program crosses the page with n_long = 0 and no
     literal pool fixpoint *)
  let r = run ~locals:[ (4, 0); (5, 1) ] Util.page_crossing_body in
  check_int "no long-form rewrites on a pc-relative target" 0
    r.Util.genresult.Cogg.Codegen.resolved.Cogg.Loader_gen.n_long

let () =
  Alcotest.run "risc32"
    [
      ( "encode",
        [
          Alcotest.test_case "roundtrip" `Quick test_encode_decode_roundtrip;
          Alcotest.test_case "stream" `Quick test_encode_stream;
          Alcotest.test_case "bounds" `Quick test_encode_bounds;
        ] );
      ( "sim",
        [
          Alcotest.test_case "r0 hardwired zero" `Quick test_r0_hardwired_zero;
          Alcotest.test_case "cc only from compares" `Quick
            test_cc_only_from_compares;
          Alcotest.test_case "load widths" `Quick test_load_widths;
          Alcotest.test_case "ftoi truncates" `Quick test_ftoi_truncates;
        ] );
      ( "idioms",
        [
          Alcotest.test_case "srai abs" `Quick test_srai_abs;
          Alcotest.test_case "subi decrement" `Quick test_subi_decrement;
          Alcotest.test_case "page crossing stays fixed-width" `Quick
            test_branch_over_page_stays_fixed_width;
        ] );
    ]
