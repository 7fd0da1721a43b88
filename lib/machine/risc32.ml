(** The RISC-32 target substrate: a clean 32-bit load/store machine.

    Deliberately the maximally different shape from the Amdahl 470:
    three-operand register ALU instructions, no memory operands on
    arithmetic, no even/odd register pairs, a single [dsp(rb)] addressing
    mode with a signed 16-bit displacement, and fixed-width pc-relative
    branches (no span-dependent short/long forms, no literal pool).
    Every instruction is 4 bytes.

    The machine state is the shared {!Sim.t}: 16 GPRs, 8 F registers
    (doubles), a 2-bit condition code and byte-addressed big-endian
    memory.  Register conventions, the PSA layout and the frame
    discipline are identical to the Amdahl target (r13 = stack base,
    r10 = PSA base, r12 = code base, r14/r15 linkage, r0 reads as zero) —
    the cross-backend differential oracle depends on the two targets
    agreeing on the observable memory contract, not on the instruction
    sets resembling each other.

    Only the explicit compare instructions ([cmp]/[cmpu]/[cmpi]/[fcmp])
    set the condition code; ALU results wrap silently, exactly like the
    wrapped values the 370 instructions leave behind. *)

(* -- execution ----------------------------------------------------------- *)

(* r0 is hardwired to zero: reads yield 0, writes are discarded *)
let getr (t : Sim.t) r = if r = 0 then 0 else t.Sim.regs.(r)
let setr (t : Sim.t) r v = if r <> 0 then Sim.set_reg t r v

let err fmt = Fmt.kstr (fun s -> raise (Sim.Sim_error s)) fmt

let exec_r3 t op rd rs1 rs2 =
  let f = t.Sim.fregs in
  let a () = getr t rs1 and b () = getr t rs2 in
  let shift () = getr t rs2 land 0x3F in
  match op with
  | "add" -> setr t rd (a () + b ())
  | "sub" -> setr t rd (a () - b ())
  | "mul" -> setr t rd (a () * b ())
  | "div" ->
      if b () = 0 then err "div: division by zero"
      else setr t rd (a () / b ())
  | "rem" ->
      if b () = 0 then err "rem: division by zero"
      else setr t rd (a () mod b ())
  | "and" -> setr t rd (a () land b ())
  | "or" -> setr t rd (a () lor b ())
  | "xor" -> setr t rd (a () lxor b ())
  | "andn" -> setr t rd (a () land lnot (b ()))
  | "sll" -> setr t rd (Sim.unsigned32 (a ()) lsl shift ())
  | "srl" -> setr t rd (Sim.unsigned32 (a ()) lsr shift ())
  | "sra" -> setr t rd (a () asr shift ())
  | "fadd" -> f.(rd) <- f.(rs1) +. f.(rs2)
  | "fsub" -> f.(rd) <- f.(rs1) -. f.(rs2)
  | "fmul" -> f.(rd) <- f.(rs1) *. f.(rs2)
  | "fdiv" ->
      if f.(rs2) = 0.0 then err "fdiv: division by zero"
      else f.(rd) <- f.(rs1) /. f.(rs2)
  | _ -> err "unimplemented R3 instruction %s" op

let exec_r2 t op rd rs =
  let f = t.Sim.fregs in
  match op with
  | "mov" -> setr t rd (getr t rs)
  | "neg" -> setr t rd (-getr t rs)
  | "itof" -> f.(rd) <- float_of_int (getr t rs)
  | "ftoi" -> setr t rd (Int32.to_int (Int32.of_float f.(rs)))
  | "fmov" -> f.(rd) <- f.(rs)
  | "fneg" -> f.(rd) <- -.f.(rs)
  | "fabs" -> f.(rd) <- Float.abs f.(rs)
  | "fhlv" -> f.(rd) <- f.(rs) /. 2.0
  | "cmp" -> t.Sim.cc <- Sim.cc_of_compare (getr t rd) (getr t rs)
  | "cmpu" ->
      t.Sim.cc <-
        Sim.cc_of_compare
          (Sim.unsigned32 (getr t rd))
          (Sim.unsigned32 (getr t rs))
  | "fcmp" -> t.Sim.cc <- Sim.cc_of_compare (compare f.(rd) f.(rs)) 0
  | "jr" -> t.Sim.pc <- Sim.unsigned32 (getr t rs) land 0xFFFFFF
  | _ -> err "unimplemented R2 instruction %s" op

let exec_ri t op rd rs imm =
  let a () = getr t rs in
  let shift = imm land 0x3F in
  match op with
  | "addi" -> setr t rd (a () + imm)
  | "subi" -> setr t rd (a () - imm)
  | "andi" -> setr t rd (a () land imm)
  | "ori" -> setr t rd (a () lor imm)
  | "xori" -> setr t rd (a () lxor imm)
  | "slli" -> setr t rd (Sim.unsigned32 (a ()) lsl shift)
  | "srli" -> setr t rd (Sim.unsigned32 (a ()) lsr shift)
  | "srai" -> setr t rd (a () asr shift)
  | _ -> err "unimplemented RI instruction %s" op

let exec_mem t op rd dsp rb next =
  let addr = (getr t rb + dsp) land 0xFFFFFF in
  let f = t.Sim.fregs in
  match op with
  | "lw" -> setr t rd (Sim.load_w t addr)
  | "lh" -> setr t rd (Sim.load_h t addr)
  | "lb" -> setr t rd (Sim.load_u8 t addr)
  | "sw" -> Sim.store_w t addr (getr t rd)
  | "sh" -> Sim.store_h t addr (getr t rd)
  | "sb" -> Sim.store_u8 t addr (getr t rd)
  | "fld" -> f.(rd) <- Sim.load_f64 t addr
  | "fsd" -> Sim.store_f64 t addr f.(rd)
  | "fls" -> f.(rd) <- Sim.load_f32 t addr
  | "fss" -> Sim.store_f32 t addr f.(rd)
  | "jl" ->
      setr t rd next;
      t.Sim.pc <- addr
  | _ -> err "unimplemented memory instruction %s" op

(** Execute a single RISC-32 instruction at the current PC. *)
let step (t : Sim.t) =
  let insn, sz = Encode.decode_r32 t.Sim.mem t.Sim.pc in
  let next = t.Sim.pc + sz in
  t.Sim.pc <- next;
  (match insn with
  | Insn.R3 { op; rd; rs1; rs2 } -> exec_r3 t op rd rs1 rs2
  | Insn.R2 { op; rd; rs } -> exec_r2 t op rd rs
  | Insn.Ri { op; rd; rs; imm } -> exec_ri t op rd rs imm
  | Insn.Li { op; rd; imm } -> (
      match op with
      | "li" -> setr t rd imm
      | "cmpi" -> t.Sim.cc <- Sim.cc_of_compare (getr t rd) imm
      | _ -> err "unimplemented LI instruction %s" op)
  | Insn.Mem { op; rd; dsp; rb } -> exec_mem t op rd dsp rb next
  | Insn.Bcc { mask; rel } ->
      if Sim.branch_taken t mask then t.Sim.pc <- (next - 4 + rel) land 0xFFFFFF
  | Insn.Rr _ | Insn.Rx _ | Insn.Rs _ | Insn.Si _ | Insn.Ss _ ->
      err "370 instruction on the RISC-32 simulator");
  t.Sim.steps <- t.Sim.steps + 1

(* -- runtime support ------------------------------------------------------ *)

(* Save-area layout within a frame, all inside the 16-word area at
   [Runtime.save_area]: r14 at +8, r15 at +12, r0..r13 at +16..+71.
   The entry template stores r14/r15 explicitly (jl clobbers r14); the
   entry-code trap saves the rest, exactly mirroring the 370's
   [stm r14,r13,8(r13)]. *)
let regs_save_base = Runtime.save_area + 8

(** Install PSA constants and RISC-32 trap handlers into a simulator.
    The constant block is byte-identical to the Amdahl one ({!Runtime.install}
    writes it); this adds the frame-teardown and block-move routines the
    load/store target reaches through [jl] instead of [stm]/[lm]/[mvc]. *)
let install (sim : Sim.t) (lay : Runtime.layout) =
  Runtime.install sim lay;
  let psa = lay.Runtime.psa_addr in
  (* entry_code: save r0..r13 in the caller's frame, then build the new
     frame.  Called by [jl r14,entry_code(r10)] after the entry template
     stored r14/r15 at +8/+12. *)
  Sim.set_trap sim (psa + Runtime.psa_entry_code) (fun s ->
      let old_frame = Sim.reg s Runtime.stack_base in
      let new_frame = old_frame - lay.Runtime.frame_size in
      if new_frame < lay.Runtime.psa_addr + Runtime.psa_size then
        Sim.abort s "stack overflow"
      else begin
        for r = 0 to 13 do
          Sim.store_w s (old_frame + regs_save_base + (4 * r)) (Sim.reg s r)
        done;
        Sim.store_w s (new_frame + Runtime.old_base) old_frame;
        Sim.set_reg s Runtime.stack_base new_frame
      end);
  (* exit_code: restore the full register file from the caller's frame
     save area.  The exit template already reloaded r13 with the caller's
     frame; the trap-return mechanism then resumes at the restored r14. *)
  Sim.set_trap sim (psa + Runtime.psa_exit_code) (fun s ->
      let frame = Sim.reg s Runtime.stack_base in
      for r = 0 to 13 do
        Sim.set_reg s r (Sim.load_w s (frame + regs_save_base + (4 * r)))
      done;
      Sim.set_reg s 15 (Sim.load_w s (frame + Runtime.save_area + 4));
      Sim.set_reg s 14 (Sim.load_w s (frame + Runtime.save_area)));
  (* blockmove: byte copy, left to right (the 370's mvc overlap
     behaviour).  Arguments through the PSA scratch words. *)
  Sim.set_trap sim (psa + Runtime.psa_blockmove) (fun s ->
      let dst = Sim.unsigned32 (Sim.load_w s (psa + Runtime.psa_scratch))
                land 0xFFFFFF
      and src = Sim.unsigned32 (Sim.load_w s (psa + Runtime.psa_scratch_lo))
                land 0xFFFFFF
      and len = Sim.load_w s (psa + Runtime.psa_scratch_len) in
      if len < 0 || len > 0x10000 then Sim.abort s "blockmove: bad length"
      else
        for i = 0 to len - 1 do
          Sim.store_u8 s (dst + i) (Sim.load_u8 s (src + i))
        done)

(** Create a simulator, install the PSA, and load an object module.
    Registers come up exactly as on the Amdahl target. *)
let boot ?(layout = Runtime.default_layout) (objmod : Objmod.t) :
    (Sim.t * int, string) result =
  let sim = Sim.create ~mem_size:(1 lsl 20) ~halt_addr:0 () in
  install sim layout;
  match Objmod.load sim.Sim.mem ~at:layout.Runtime.code_addr objmod with
  | Error e -> Error e
  | Ok entry ->
      Sim.set_reg sim Runtime.pr_base layout.Runtime.psa_addr;
      Sim.set_reg sim Runtime.code_base layout.Runtime.code_addr;
      Sim.set_reg sim Runtime.stack_base layout.Runtime.stack_top;
      Sim.set_reg sim 14 0 (* returning from the outer procedure halts *);
      Sim.set_reg sim 15 entry;
      Ok (sim, entry)

(** Run a booted program to completion on the RISC-32 interpreter. *)
let run ?(max_steps = 1_000_000) ?(layout = Runtime.default_layout) sim ~entry
    : (Runtime.outcome, string) result =
  match Sim.run_with ~step ~max_steps sim ~entry with
  | steps ->
      Ok
        {
          Runtime.steps;
          aborted = sim.Sim.aborted;
          final_frame = Runtime.main_frame layout;
        }
  | exception Sim.Sim_error e -> Error e
  | exception Encode.Encode_error e -> Error e

(* -- template interface --------------------------------------------------- *)

let validate ~(mnem : string) ~(nsubs : int list) : (unit, string) result =
  let fail fmt = Fmt.kstr (fun m -> Error m) fmt in
  let arity n =
    if List.length nsubs <> n then
      fail "%s: expected %d operands, got %d" mnem n (List.length nsubs)
    else Ok ()
  in
  let no_subs () =
    if List.for_all (fun s -> s = 0) nsubs then Ok ()
    else fail "%s: register/immediate operands take no sub-operands" mnem
  in
  match Insn.r32_format_of_mnemonic mnem with
  | None -> fail "%s is not a target instruction" mnem
  | Some Insn.F_r3 -> Result.bind (arity 3) no_subs
  | Some Insn.F_r2 ->
      if mnem = "jr" then Result.bind (arity 1) no_subs
      else Result.bind (arity 2) no_subs
  | Some Insn.F_ri -> Result.bind (arity 3) no_subs
  | Some Insn.F_li -> Result.bind (arity 2) no_subs
  | Some Insn.F_mem ->
      Result.bind (arity 2) (fun () ->
          if List.nth nsubs 0 <> 0 then
            fail "%s: first operand must be a register" mnem
          else if List.nth nsubs 1 > 1 then
            fail "%s: address takes at most dsp(rb)" mnem
          else Ok ())
  | Some Insn.F_bcc ->
      fail "%s: pc-relative branches are written with the branch/skip semops"
        mnem

module Ops = Target.Operands

let plain mnem ops k =
  if k < Ops.count ops && Ops.nsubs ops k = 0 then Ops.base ops k
  else Fmt.failwith "%s: operand %d shape mismatch at emission" mnem (k + 1)

let build_insn ~(mnem : string) (ops : Ops.t) : (Insn.t, string) result =
  match Insn.slot Insn.r32_opcodes mnem with
  | -1 -> Error (Fmt.str "unknown mnemonic %s at emission" mnem)
  | s -> (
      let f = Insn.r32_opcodes.formats.(s) in
      try
        Ok
          (match f with
          | Insn.F_r3 ->
              Insn.R3
                { op = mnem; rd = plain mnem ops 0; rs1 = plain mnem ops 1;
                  rs2 = plain mnem ops 2 }
          | Insn.F_r2 ->
              if mnem = "jr" then
                Insn.R2 { op = mnem; rd = 0; rs = plain mnem ops 0 }
              else
                Insn.R2 { op = mnem; rd = plain mnem ops 0; rs = plain mnem ops 1 }
          | Insn.F_ri ->
              Insn.Ri
                { op = mnem; rd = plain mnem ops 0; rs = plain mnem ops 1;
                  imm = plain mnem ops 2 }
          | Insn.F_li ->
              Insn.Li { op = mnem; rd = plain mnem ops 0; imm = plain mnem ops 1 }
          | Insn.F_mem ->
              (* dsp or dsp(rb) *)
              if Ops.count ops < 2 || Ops.nsubs ops 1 > 1 then
                Fmt.failwith "%s: missing storage operand" mnem;
              Insn.Mem
                { op = mnem; rd = plain mnem ops 0; dsp = Ops.base ops 1;
                  rb = (if Ops.nsubs ops 1 = 1 then Ops.sub ops 1 0 else 0) }
          | Insn.F_bcc ->
              Fmt.failwith "%s: branches are emitted via branch sites" mnem)
      with Failure m -> Error m)

let spill_store ~fp ~reg ~dsp ~base =
  Insn.Mem { op = (if fp then "fsd" else "sw"); rd = reg; dsp; rb = base }

let reg_move ~fp ~dst ~src =
  if fp then Insn.R2 { op = "fmov"; rd = dst; rs = src }
  else Insn.R2 { op = "mov"; rd = dst; rs = src }

let abort_insns ~errno =
  [
    Insn.Li { op = "li"; rd = 1; imm = errno };
    Insn.Mem
      { op = "jl"; rd = 14; dsp = Runtime.psa_abort; rb = Runtime.pr_base };
  ]

let target : Target.t =
  {
    Target.name = "risc32";
    spec_file = "specs/risc32.cgg";
    is_mnemonic = Insn.r32_is_mnemonic;
    validate;
    build_insn;
    site_model = Target.Pc_relative;
    spill_store;
    reg_move;
    fp_reg_prefix = 'f';
    abort_insns;
    boot;
    run;
  }
