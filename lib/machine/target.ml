(** Per-target machine substrate.

    Bird's thesis is that retargeting the code generator "merely requires
    a rewriting of the templates": the tables are built from a new spec
    file and the table-driven emission routine stays unchanged.  The parts
    that {e cannot} come from the spec — the opcode/format tables, the
    instruction builder, the branch-site resolution model, the simulator
    and its runtime support traps — are collected in this record, one
    value per machine.  Everything above [lib/machine] (template
    compilation, the emitter, the loader, the pipeline) is parameterized
    by a [Target.t] and never mentions a concrete instruction set.

    See {!Amdahl} and {!Risc32} for the two substrates, and {!Targets}
    for the name -> (spec path, substrate) registry. *)

(** How label references inside the code buffer are resolved:
    - [Span_dependent]: branches have a short form with a limited
      displacement and a long form through a literal pool; sizing is a
      fixpoint (the 370 model).
    - [Pc_relative]: every branch is one fixed-width pc-relative
      instruction; sizing is a single pass (the RISC-32 model). *)
type site_model = Span_dependent | Pc_relative

(** The evaluated operand values of one template instruction, in a
    buffer the emitter owns and refills for every instruction, so that
    handing them to [build_insn] allocates nothing.  Operand [k] has a
    base value and [nsubs ops k] sub-operand values, of which the first
    two are kept: no instruction format takes more, and a longer operand
    is still reported as a shape mismatch by its count. *)
module Operands = struct
  let stride = 4 (* base, sub count, two sub values *)

  type t = { mutable count : int; mutable cells : int array }

  let create () = { count = 0; cells = Array.make (4 * stride) 0 }
  let clear ops = ops.count <- 0

  (** Append an operand with no sub-operands; its base is set by
      [set_base]. *)
  let add ops =
    let k = ops.count in
    if (k + 1) * stride > Array.length ops.cells then begin
      let cells = Array.make (2 * Array.length ops.cells) 0 in
      Array.blit ops.cells 0 cells 0 (k * stride);
      ops.cells <- cells
    end;
    ops.cells.((k * stride) + 1) <- 0;
    ops.count <- k + 1

  let set_base ops k v = ops.cells.(k * stride) <- v

  (** Append a sub-operand value to the last operand. *)
  let add_sub ops v =
    let at = (ops.count - 1) * stride in
    let n = ops.cells.(at + 1) in
    if n < 2 then ops.cells.(at + 2 + n) <- v;
    ops.cells.(at + 1) <- n + 1

  let count ops = ops.count
  let base ops k = ops.cells.(k * stride)
  let nsubs ops k = ops.cells.((k * stride) + 1)

  (** [sub ops k i] is operand [k]'s sub-operand [i] ([i] < 2). *)
  let sub ops k i = ops.cells.((k * stride) + 2 + i)
end

type t = {
  name : string;  (** registry key, e.g. "amdahl470" *)
  spec_file : string;  (** spec path relative to the repo root *)
  is_mnemonic : string -> bool;
      (** does this target's opcode table define the mnemonic? *)
  validate : mnem:string -> nsubs:int list -> (unit, string) result;
      (** shape-check a template instruction at table-construction time:
          [nsubs] lists, per written operand, its sub-operand count *)
  build_insn : mnem:string -> Operands.t -> (Insn.t, string) result;
      (** build a symbolic instruction from evaluated operand values at
          emission time (same shape as [validate] accepted) *)
  site_model : site_model;
  spill_store : fp:bool -> reg:int -> dsp:int -> base:int -> Insn.t;
      (** store an evicted CSE register to its temporary *)
  reg_move : fp:bool -> dst:int -> src:int -> Insn.t;
      (** register-to-register copy (need transfers, copy-on-write) *)
  fp_reg_prefix : char;
      (** the letter the listing names a floating-point register with,
          before its number (general registers are always [rN]) *)
  abort_insns : errno:int -> Insn.t list;
      (** the [abort] semop: pass [errno] to the runtime abort routine *)
  boot : ?layout:Runtime.layout -> Objmod.t -> (Sim.t * int, string) result;
      (** create a simulator, install the PSA and traps, load the module *)
  run :
    ?max_steps:int ->
    ?layout:Runtime.layout ->
    Sim.t ->
    entry:int ->
    (Runtime.outcome, string) result;
      (** run a booted program to completion *)
}
