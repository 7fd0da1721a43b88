(** Symbolic machine instructions for both target substrates.

    The IBM System/360-370 (Amdahl 470) subset uses the five architected
    formats [Rr]/[Rx]/[Rs]/[Si]/[Ss]; the RISC-32 load/store machine uses
    the fixed-width [R3]/[R2]/[Ri]/[Li]/[Mem]/[Bcc] formats.  Both share
    one symbolic type so the emitter, loader and listings are
    target-independent.  Binary encoding lives in {!Encode}; execution
    semantics in {!Sim} (Amdahl) and {!Risc32} (RISC-32). *)

(** The five machine instruction formats of the 360/370 subset we model.
    [RR] instructions are 2 bytes, [RX]/[RS]/[SI] are 4, [SS] is 6. *)
type format = RR | RX | RS | SI | SS

(** RISC-32 formats, all 4 bytes:
    - [F_r3]: three-register ALU op [op rd,rs1,rs2]
    - [F_r2]: two-register op [op rd,rs] (also compares and [jr])
    - [F_ri]: register + 16-bit signed immediate [op rd,rs,imm]
    - [F_li]: one register + 16-bit signed immediate [li rd,imm]
    - [F_mem]: load/store/link [op rd,dsp(rb)] with signed 16-bit dsp
    - [F_bcc]: conditional branch [bc mask,rel] with pc-relative rel16 *)
type r32_format = F_r3 | F_r2 | F_ri | F_li | F_mem | F_bcc

(** A symbolic machine instruction with all operand fields resolved to
    numbers.  [Rx] covers both indexed storage operands [d2(x2,b2)] and
    branch instructions (where [r1] is the condition mask).  The RISC-32
    constructors follow: register fields name GPRs or FP registers
    depending on the mnemonic; [Bcc.rel] is a byte offset relative to the
    branch instruction's own address. *)
type t =
  | Rr of { op : string; r1 : int; r2 : int }
  | Rx of { op : string; r1 : int; d2 : int; x2 : int; b2 : int }
  | Rs of { op : string; r1 : int; r3 : int; d2 : int; b2 : int }
  | Si of { op : string; d1 : int; b1 : int; i2 : int }
  | Ss of { op : string; l : int; d1 : int; b1 : int; d2 : int; b2 : int }
  | R3 of { op : string; rd : int; rs1 : int; rs2 : int }
  | R2 of { op : string; rd : int; rs : int }
  | Ri of { op : string; rd : int; rs : int; imm : int }
  | Li of { op : string; rd : int; imm : int }
  | Mem of { op : string; rd : int; dsp : int; rb : int }
  | Bcc of { mask : int; rel : int }

let mnemonic = function
  | Rr { op; _ } | Rx { op; _ } | Rs { op; _ } | Si { op; _ } | Ss { op; _ }
  | R3 { op; _ } | R2 { op; _ } | Ri { op; _ } | Li { op; _ } | Mem { op; _ }
    -> op
  | Bcc _ -> "bc"

(** Mnemonic -> (opcode byte, format).  Opcode values are the architected
    System/370 encodings. *)
let opcode_table : (string * (int * format)) list =
  [
    (* RR: load/arithmetic register-register *)
    ("lr", (0x18, RR));
    ("ltr", (0x12, RR));
    ("lcr", (0x13, RR));
    ("lpr", (0x10, RR));
    ("lnr", (0x11, RR));
    ("ar", (0x1A, RR));
    ("sr", (0x1B, RR));
    ("mr", (0x1C, RR));
    ("dr", (0x1D, RR));
    ("alr", (0x1E, RR));
    ("slr", (0x1F, RR));
    ("cr", (0x19, RR));
    ("clr", (0x15, RR));
    ("nr", (0x14, RR));
    ("or", (0x16, RR));
    ("xr", (0x17, RR));
    ("bcr", (0x07, RR));
    ("balr", (0x05, RR));
    ("bctr", (0x06, RR));
    ("spm", (0x04, RR));
    ("mvcl", (0x0E, RR));
    ("clcl", (0x0F, RR));
    (* RR floating point (short and long) *)
    ("ler", (0x38, RR));
    ("ldr", (0x28, RR));
    ("lcer", (0x33, RR));
    ("lcdr", (0x23, RR));
    ("lper", (0x30, RR));
    ("lpdr", (0x20, RR));
    ("lner", (0x31, RR));
    ("lndr", (0x21, RR));
    ("ltdr", (0x22, RR));
    ("lter", (0x32, RR));
    ("aer", (0x3A, RR));
    ("adr", (0x2A, RR));
    ("ser", (0x3B, RR));
    ("sdr", (0x2B, RR));
    ("mer", (0x3C, RR));
    ("mdr", (0x2C, RR));
    ("der", (0x3D, RR));
    ("ddr", (0x2D, RR));
    ("cer", (0x39, RR));
    ("cdr", (0x29, RR));
    ("her", (0x34, RR));
    ("hdr", (0x24, RR));
    ("axr", (0x36, RR));
    ("sxr", (0x37, RR));
    ("mxr", (0x26, RR));
    ("lrer", (0x35, RR));
    ("lrdr", (0x25, RR));
    (* RX: storage-and-register *)
    ("l", (0x58, RX));
    ("lh", (0x48, RX));
    ("la", (0x41, RX));
    ("st", (0x50, RX));
    ("sth", (0x40, RX));
    ("stc", (0x42, RX));
    ("ic", (0x43, RX));
    ("a", (0x5A, RX));
    ("ah", (0x4A, RX));
    ("s", (0x5B, RX));
    ("sh", (0x4B, RX));
    ("m", (0x5C, RX));
    ("mh", (0x4C, RX));
    ("d", (0x5D, RX));
    ("c", (0x59, RX));
    ("ch", (0x49, RX));
    ("cl", (0x55, RX));
    ("al", (0x5E, RX));
    ("sl", (0x5F, RX));
    ("n", (0x54, RX));
    ("o", (0x56, RX));
    ("x", (0x57, RX));
    ("bc", (0x47, RX));
    ("bal", (0x45, RX));
    ("bct", (0x46, RX));
    ("ex", (0x44, RX));
    ("cvb", (0x4F, RX));
    ("cvd", (0x4E, RX));
    (* RX floating point *)
    ("le", (0x78, RX));
    ("ld", (0x68, RX));
    ("ste", (0x70, RX));
    ("std", (0x60, RX));
    ("ae", (0x7A, RX));
    ("ad", (0x6A, RX));
    ("se", (0x7B, RX));
    ("sd", (0x6B, RX));
    ("me", (0x7C, RX));
    ("md", (0x6C, RX));
    ("de", (0x7D, RX));
    ("dd", (0x6D, RX));
    ("ce", (0x79, RX));
    ("cd", (0x69, RX));
    (* RS: register-storage, shifts, multiple load/store *)
    ("lm", (0x98, RS));
    ("stm", (0x90, RS));
    ("sla", (0x8B, RS));
    ("sra", (0x8A, RS));
    ("sll", (0x89, RS));
    ("srl", (0x88, RS));
    ("slda", (0x8F, RS));
    ("srda", (0x8E, RS));
    ("sldl", (0x8D, RS));
    ("srdl", (0x8C, RS));
    ("bxh", (0x86, RS));
    ("bxle", (0x87, RS));
    (* SI: storage-immediate *)
    ("mvi", (0x92, SI));
    ("cli", (0x95, SI));
    ("ni", (0x94, SI));
    ("oi", (0x96, SI));
    ("xi", (0x97, SI));
    ("tm", (0x91, SI));
    (* SS: storage-storage *)
    ("mvc", (0xD2, SS));
    ("clc", (0xD5, SS));
    ("nc", (0xD4, SS));
    ("oc", (0xD6, SS));
    ("xc", (0xD7, SS));
    ("tr", (0xDC, SS));
  ]

(* -- mnemonic lookup -----------------------------------------------------

   The encoder looks up the mnemonic of every instruction it writes, so
   the lookup hashes no string and allocates nothing: a mnemonic of at
   most seven bytes packs, behind a sentinel bit, into one int key, and
   an open-addressed key array (linear probing, at most a quarter full)
   gives the mnemonic's slot in parallel opcode and format arrays. *)

type 'f opcodes = {
  keys : int array;  (** packed mnemonic per slot; 0 marks a free slot *)
  codes : int array;  (** opcode byte per slot *)
  formats : 'f array;  (** instruction format per slot *)
}

(* the key of [m], or -1 if [m] is empty or longer than seven bytes *)
let pack m =
  let n = String.length m in
  if n = 0 || n > 7 then -1
  else begin
    let k = ref 1 in
    for i = 0 to n - 1 do
      k := (!k lsl 8) lor Char.code (String.unsafe_get m i)
    done;
    !k
  end

let home keys k = ((k * 0x9E3779B97F4A7C1) lsr 32) land (Array.length keys - 1)

(* the slot holding [k], or the free slot where the probe from [i] ends *)
let rec probe keys k i =
  let s = keys.(i) in
  if s = k || s = 0 then i else probe keys k ((i + 1) land (Array.length keys - 1))

let opcodes_of_table (table : (string * (int * 'f)) list) : 'f opcodes =
  let size = ref 16 in
  while !size < 4 * List.length table do
    size := 2 * !size
  done;
  let keys = Array.make !size 0 and codes = Array.make !size 0 in
  let formats = Array.make !size (snd (snd (List.hd table))) in
  List.iter
    (fun (m, (code, f)) ->
      let k = pack m in
      if k < 0 then invalid_arg ("Insn: mnemonic " ^ m);
      let i = probe keys k (home keys k) in
      keys.(i) <- k;
      codes.(i) <- code;
      formats.(i) <- f)
    table;
  { keys; codes; formats }

(** [slot t m] is the slot of mnemonic [m] in [t], or -1 if [t] has no
    such mnemonic. *)
let slot t m =
  let k = pack m in
  if k < 0 then -1
  else
    let i = probe t.keys k (home t.keys k) in
    if t.keys.(i) = k then i else -1

let s370_opcodes : format opcodes = opcodes_of_table opcode_table

let mnemonic_of_opcode : (int, string * format) Hashtbl.t =
  let h = Hashtbl.create 128 in
  List.iter (fun (m, (op, f)) -> Hashtbl.replace h op (m, f)) opcode_table;
  h

let is_mnemonic m = slot s370_opcodes m >= 0

let format_of_mnemonic m =
  let s = slot s370_opcodes m in
  if s < 0 then None else Some s370_opcodes.formats.(s)

(** RISC-32 mnemonic -> (opcode byte, format).  The numbering is our own
    (the machine is fictional); values may overlap the 370 table because
    the two instruction sets are never decoded from the same memory. *)
let r32_opcode_table : (string * (int * r32_format)) list =
  [
    (* three-register ALU *)
    ("add", (0x01, F_r3));
    ("sub", (0x02, F_r3));
    ("mul", (0x03, F_r3));
    ("div", (0x04, F_r3));
    ("rem", (0x05, F_r3));
    ("and", (0x06, F_r3));
    ("or", (0x07, F_r3));
    ("xor", (0x08, F_r3));
    ("andn", (0x09, F_r3));
    ("sll", (0x0A, F_r3));
    ("srl", (0x0B, F_r3));
    ("sra", (0x0C, F_r3));
    (* three-register floating point (F registers) *)
    ("fadd", (0x0D, F_r3));
    ("fsub", (0x0E, F_r3));
    ("fmul", (0x0F, F_r3));
    ("fdiv", (0x10, F_r3));
    (* two-register *)
    ("mov", (0x11, F_r2));
    ("neg", (0x12, F_r2));
    ("itof", (0x13, F_r2)); (* rd: F register, rs: GPR *)
    ("ftoi", (0x14, F_r2)); (* rd: GPR, rs: F register *)
    ("fmov", (0x15, F_r2));
    ("fneg", (0x16, F_r2));
    ("fabs", (0x17, F_r2));
    ("fhlv", (0x18, F_r2)); (* halve: rd <- rs / 2.0 *)
    ("cmp", (0x19, F_r2)); (* signed compare, sets cc *)
    ("cmpu", (0x1A, F_r2)); (* unsigned compare, sets cc *)
    ("fcmp", (0x1B, F_r2)); (* float compare, sets cc *)
    ("jr", (0x1C, F_r2)); (* jump register: pc <- rs (rd unused) *)
    (* register-immediate *)
    ("addi", (0x20, F_ri));
    ("subi", (0x21, F_ri));
    ("andi", (0x22, F_ri));
    ("ori", (0x23, F_ri));
    ("xori", (0x24, F_ri));
    ("slli", (0x25, F_ri));
    ("srli", (0x26, F_ri));
    ("srai", (0x27, F_ri));
    (* load-immediate / compare-immediate *)
    ("li", (0x28, F_li));
    ("cmpi", (0x29, F_li));
    (* loads and stores, dsp(rb) addressing only *)
    ("lw", (0x30, F_mem));
    ("lh", (0x31, F_mem)); (* sign-extending halfword load *)
    ("lb", (0x32, F_mem)); (* zero-extending byte load *)
    ("sw", (0x33, F_mem));
    ("sh", (0x34, F_mem));
    ("sb", (0x35, F_mem));
    ("fld", (0x36, F_mem)); (* load double *)
    ("fsd", (0x37, F_mem)); (* store double *)
    ("fls", (0x38, F_mem)); (* load single (widen to double) *)
    ("fss", (0x39, F_mem)); (* store single (round to f32 bits) *)
    ("jl", (0x3A, F_mem)); (* jump-and-link: rd <- next, pc <- rb+dsp *)
    (* conditional branch, pc-relative *)
    ("bc", (0x40, F_bcc));
  ]

let r32_opcodes : r32_format opcodes = opcodes_of_table r32_opcode_table

let r32_mnemonic_of_opcode : (int, string * r32_format) Hashtbl.t =
  let h = Hashtbl.create 64 in
  List.iter (fun (m, (op, f)) -> Hashtbl.replace h op (m, f)) r32_opcode_table;
  h

let r32_is_mnemonic m = slot r32_opcodes m >= 0

let r32_format_of_mnemonic m =
  let s = slot r32_opcodes m in
  if s < 0 then None else Some r32_opcodes.formats.(s)

let size_of_format = function RR -> 2 | RX | RS | SI -> 4 | SS -> 6

(** Encoded size in bytes of a symbolic instruction. *)
let size = function
  | Rr _ -> 2
  | Rx _ | Rs _ | Si _ -> 4
  | Ss _ -> 6
  | R3 _ | R2 _ | Ri _ | Li _ | Mem _ | Bcc _ -> 4

(** Assembly-listing rendering, in the style of the paper's Appendix 1
    ([l r1,132(r12)], [sla r1,2], [mvc 144(4,13),168(13)], ...).

    Listings are produced once per compile and sit on the hot path (they
    feed the determinism fingerprint), so rendering allocates nothing:
    top-level writers put mnemonics, padding and decimal digits straight
    into the buffer, with no closure, [string_of_int] or [Format] on the
    way.  [pp] wraps it for embedding in formatted output. *)

let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

(** [add_int b n] appends [string_of_int n] to [b] without building it. *)
let add_int b n =
  if n >= 0 then add_digits b n
  else if n = min_int then Buffer.add_string b (string_of_int n)
  else begin
    Buffer.add_char b '-';
    add_digits b (-n)
  end

(* the listing pads mnemonics to 5 columns, then one space *)
let add_mnem b op =
  Buffer.add_string b op;
  for _ = String.length op to 4 do
    Buffer.add_char b ' '
  done;
  Buffer.add_char b ' '

(* a register: [prefix] is 'r' for a GPR, 'f' for a RISC-32 FP register *)
let add_reg b prefix r =
  Buffer.add_char b prefix;
  add_int b r

let add_comma_reg b prefix r =
  Buffer.add_char b ',';
  add_reg b prefix r

let add_comma_int b n =
  Buffer.add_char b ',';
  add_int b n

(* [(rN)] *)
let add_base b r =
  Buffer.add_string b "(r";
  add_int b r;
  Buffer.add_char b ')'

let is_shift = function
  | "sla" | "sra" | "sll" | "srl" | "slda" | "srda" | "sldl" | "srdl" -> true
  | _ -> false

let render (b : Buffer.t) (t : t) : unit =
  match t with
  | Rr { op; r1; r2 } ->
      add_mnem b op;
      add_reg b 'r' r1;
      add_comma_reg b 'r' r2
  | Rx { op; r1; d2; x2; b2 } ->
      add_mnem b op;
      add_reg b 'r' r1;
      add_comma_int b d2;
      if x2 <> 0 then begin
        Buffer.add_string b "(r";
        add_int b x2;
        add_comma_reg b 'r' b2;
        Buffer.add_char b ')'
      end
      else if b2 <> 0 then add_base b b2
  | Rs { op; r1; r3; d2; b2 } ->
      add_mnem b op;
      add_reg b 'r' r1;
      if not (is_shift op) then add_comma_reg b 'r' r3;
      add_comma_int b d2;
      if b2 <> 0 then add_base b b2
  | Si { op; d1; b1; i2 } ->
      add_mnem b op;
      add_int b d1;
      if b1 <> 0 then add_base b b1;
      add_comma_int b i2
  | Ss { op; l; d1; b1; d2; b2 } ->
      add_mnem b op;
      add_int b d1;
      Buffer.add_char b '(';
      add_int b l;
      add_comma_reg b 'r' b1;
      Buffer.add_string b "),";
      add_int b d2;
      add_base b b2
  | R3 { op; rd; rs1; rs2 } ->
      let p = if String.length op > 0 && op.[0] = 'f' then 'f' else 'r' in
      add_mnem b op;
      add_reg b p rd;
      add_comma_reg b p rs1;
      add_comma_reg b p rs2
  | R2 { op; rd; rs } -> (
      add_mnem b op;
      match op with
      | "jr" -> add_reg b 'r' rs
      | "itof" ->
          add_reg b 'f' rd;
          add_comma_reg b 'r' rs
      | "ftoi" ->
          add_reg b 'r' rd;
          add_comma_reg b 'f' rs
      | "fmov" | "fneg" | "fabs" | "fhlv" | "fcmp" ->
          add_reg b 'f' rd;
          add_comma_reg b 'f' rs
      | _ ->
          add_reg b 'r' rd;
          add_comma_reg b 'r' rs)
  | Ri { op; rd; rs; imm } ->
      add_mnem b op;
      add_reg b 'r' rd;
      add_comma_reg b 'r' rs;
      add_comma_int b imm
  | Li { op; rd; imm } ->
      add_mnem b op;
      add_reg b 'r' rd;
      add_comma_int b imm
  | Mem { op; rd; dsp; rb } ->
      add_mnem b op;
      (match op with
      | "fld" | "fsd" | "fls" | "fss" -> add_reg b 'f' rd
      | _ -> add_reg b 'r' rd);
      add_comma_int b dsp;
      add_base b rb
  | Bcc { mask; rel } ->
      add_mnem b "bc";
      add_int b mask;
      add_comma_int b rel

let to_string t =
  let b = Buffer.create 24 in
  render b t;
  Buffer.contents b

let pp ppf t = Fmt.string ppf (to_string t)
