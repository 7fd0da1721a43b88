(** The Amdahl 470 (System/360-370 subset) target substrate.

    The opcode tables, encoder and simulator predate the second backend
    and live in {!Insn}, {!Encode}, {!Sim} and {!Runtime}; this module
    packages them behind the {!Target.t} interface together with the
    pieces the emitter used to hard-code: operand-shape validation per
    architected format, the instruction builder, spill/move/abort
    idioms, and the span-dependent branch model. *)

let is_shift = function
  | "sla" | "sra" | "sll" | "srl" | "slda" | "srda" | "sldl" | "srdl" -> true
  | _ -> false

(* validate machine-instruction operand shapes against the format; [nsubs]
   lists the sub-operand count of each written operand *)
let validate ~(mnem : string) ~(nsubs : int list) : (unit, string) result =
  let fail fmt = Fmt.kstr (fun m -> Error m) fmt in
  let arity n =
    if List.length nsubs <> n then
      fail "%s: expected %d operands, got %d" mnem n (List.length nsubs)
    else Ok ()
  in
  let sub k = List.nth nsubs k in
  match Insn.format_of_mnemonic mnem with
  | None -> fail "%s is not a target instruction" mnem
  | Some Insn.RR ->
      Result.bind (arity 2) (fun () ->
          if sub 0 <> 0 || sub 1 <> 0 then
            fail "%s: RR operands take no sub-operands" mnem
          else Ok ())
  | Some Insn.RX ->
      Result.bind (arity 2) (fun () ->
          if sub 0 <> 0 then fail "%s: first operand must be a register" mnem
          else if sub 1 > 2 then fail "%s: too many address sub-operands" mnem
          else Ok ())
  | Some Insn.RS ->
      if is_shift mnem then
        Result.bind (arity 2) (fun () ->
            if sub 0 <> 0 then fail "%s: first operand must be a register" mnem
            else if sub 1 > 1 then fail "%s: shift takes at most d(b)" mnem
            else Ok ())
      else
        Result.bind (arity 3) (fun () ->
            if sub 0 <> 0 || sub 1 <> 0 then
              fail "%s: register operands take no sub-operands" mnem
            else if sub 2 > 1 then fail "%s: address takes at most d(b)" mnem
            else Ok ())
  | Some Insn.SI ->
      Result.bind (arity 2) (fun () ->
          if sub 0 > 1 then fail "%s: address takes at most d(b)" mnem
          else if sub 1 <> 0 then
            fail "%s: immediate takes no sub-operands" mnem
          else Ok ())
  | Some Insn.SS ->
      Result.bind (arity 2) (fun () ->
          if sub 0 <> 2 then fail "%s: first operand must be d(l,b)" mnem
          else if sub 1 > 1 then
            fail "%s: second operand takes at most d(b)" mnem
          else Ok ())

(* operand accessors for [build_insn]; a shape the format does not take
   raises [Failure] with the message the caller reports *)
module Ops = Target.Operands

let plain mnem ops k =
  if k < Ops.count ops && Ops.nsubs ops k = 0 then Ops.base ops k
  else Fmt.failwith "%s: operand %d shape mismatch at emission" mnem (k + 1)

(* a storage operand d, d(b) or d(x,b): check it, then read its parts *)
let memop mnem ops k =
  if k >= Ops.count ops || Ops.nsubs ops k > 2 then
    Fmt.failwith "%s: missing storage operand" mnem

let mem_x ops k = if Ops.nsubs ops k = 2 then Ops.sub ops k 0 else 0

let mem_b ops k =
  match Ops.nsubs ops k with 0 -> 0 | 1 -> Ops.sub ops k 0 | _ -> Ops.sub ops k 1

let build_insn ~(mnem : string) (ops : Ops.t) : (Insn.t, string) result =
  match Insn.slot Insn.s370_opcodes mnem with
  | -1 -> Error (Fmt.str "unknown mnemonic %s at emission" mnem)
  | s -> (
      let fmt = Insn.s370_opcodes.formats.(s) in
      try
        Ok
          (match fmt with
          | Insn.RR ->
              Insn.Rr { op = mnem; r1 = plain mnem ops 0; r2 = plain mnem ops 1 }
          | Insn.RX ->
              memop mnem ops 1;
              Insn.Rx
                { op = mnem; r1 = plain mnem ops 0; d2 = Ops.base ops 1;
                  x2 = mem_x ops 1; b2 = mem_b ops 1 }
          | Insn.RS ->
              if is_shift mnem then begin
                memop mnem ops 1;
                Insn.Rs
                  { op = mnem; r1 = plain mnem ops 0; r3 = 0;
                    d2 = Ops.base ops 1; b2 = mem_b ops 1 }
              end
              else begin
                memop mnem ops 2;
                Insn.Rs
                  { op = mnem; r1 = plain mnem ops 0; r3 = plain mnem ops 1;
                    d2 = Ops.base ops 2; b2 = mem_b ops 2 }
              end
          | Insn.SI ->
              memop mnem ops 0;
              Insn.Si
                { op = mnem; d1 = Ops.base ops 0; b1 = mem_b ops 0;
                  i2 = plain mnem ops 1 }
          | Insn.SS ->
              if Ops.count ops = 0 || Ops.nsubs ops 0 <> 2 then
                Fmt.failwith "%s: first operand must be d(l,b)" mnem;
              memop mnem ops 1;
              Insn.Ss
                { op = mnem; l = Ops.sub ops 0 0; d1 = Ops.base ops 0;
                  b1 = Ops.sub ops 0 1; d2 = Ops.base ops 1; b2 = mem_b ops 1 })
      with Failure m -> Error m)

let spill_store ~fp ~reg ~dsp ~base =
  Insn.Rx { op = (if fp then "std" else "st"); r1 = reg; d2 = dsp; x2 = 0;
            b2 = base }

let reg_move ~fp ~dst ~src =
  Insn.Rr { op = (if fp then "ldr" else "lr"); r1 = dst; r2 = src }

let abort_insns ~errno =
  [
    Insn.Rx { op = "la"; r1 = 1; d2 = errno; x2 = 0; b2 = 0 };
    Insn.Rx
      { op = "bal"; r1 = 14; d2 = Runtime.psa_abort; x2 = 0;
        b2 = Runtime.pr_base };
  ]

let target : Target.t =
  {
    Target.name = "amdahl470";
    spec_file = "specs/amdahl470.cgg";
    is_mnemonic = Insn.is_mnemonic;
    validate;
    build_insn;
    site_model = Target.Span_dependent;
    spill_store;
    reg_move;
    fp_reg_prefix = 'r';
    abort_insns;
    boot = Runtime.boot;
    run = Runtime.run;
  }
