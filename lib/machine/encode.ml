(** Binary encoding and decoding of 370 instructions.

    Encodings follow the architected formats:
    - RR: [op(8) r1(4) r2(4)]
    - RX: [op(8) r1(4) x2(4) b2(4) d2(12)]
    - RS: [op(8) r1(4) r3(4) b2(4) d2(12)]
    - SI: [op(8) i2(8)  b1(4) d1(12)]
    - SS: [op(8) l(8)   b1(4) d1(12) b2(4) d2(12)] *)

exception Encode_error of string

let err fmt = Fmt.kstr (fun s -> raise (Encode_error s)) fmt

let check_nibble what v =
  if v < 0 || v > 15 then err "%s out of range: %d (must fit 4 bits)" what v

let check_disp what v =
  if v < 0 || v > 4095 then
    err "%s out of range: %d (must fit 12-bit displacement)" what v

let check_byte what v =
  if v < 0 || v > 255 then err "%s out of range: %d (must fit 8 bits)" what v

let check_imm16 what v =
  if v < -32768 || v > 32767 then
    err "%s out of range: %d (must fit signed 16 bits)" what v

(* the slot of a mnemonic in its target's opcode table *)
let s370_slot m =
  let s = Insn.slot Insn.s370_opcodes m in
  if s < 0 then err "unknown mnemonic %S" m;
  s

let r32_slot m =
  let s = Insn.slot Insn.r32_opcodes m in
  if s < 0 then err "unknown RISC-32 mnemonic %S" m;
  s

(** The opcode byte of a System/370 mnemonic; raises [Encode_error] on
    an unknown one. *)
let opcode m = Insn.s370_opcodes.codes.(s370_slot m)

(** The opcode byte of a RISC-32 mnemonic. *)
let r32_opcode m = Insn.r32_opcodes.codes.(r32_slot m)

let bc_r32 = r32_opcode "bc"

(* Format writers: each validates its fields, writes the encoding of
   opcode byte [code] at [dst.[pos..]] and returns the position just
   past it.  The loader calls them for the instructions it synthesizes,
   so neither it nor [encode_into] builds an instruction value or an
   option per instruction. *)

let rr dst pos ~code ~r1 ~r2 =
  check_nibble "r1" r1;
  check_nibble "r2" r2;
  Bytes.set_uint8 dst pos code;
  Bytes.set_uint8 dst (pos + 1) ((r1 lsl 4) lor r2);
  pos + 2

let rx dst pos ~code ~r1 ~d2 ~x2 ~b2 =
  check_nibble "r1" r1;
  check_nibble "x2" x2;
  check_nibble "b2" b2;
  check_disp "d2" d2;
  Bytes.set_uint8 dst pos code;
  Bytes.set_uint8 dst (pos + 1) ((r1 lsl 4) lor x2);
  Bytes.set_uint8 dst (pos + 2) ((b2 lsl 4) lor (d2 lsr 8));
  Bytes.set_uint8 dst (pos + 3) (d2 land 0xFF);
  pos + 4

(* RISC-32 formats: [op(8) a(4) b(4) imm(16)] big-endian, always 4 bytes *)

let r3 dst pos ~code ~rd ~rs1 ~rs2 =
  check_nibble "rd" rd;
  check_nibble "rs1" rs1;
  check_nibble "rs2" rs2;
  Bytes.set_uint8 dst pos code;
  Bytes.set_uint8 dst (pos + 1) ((rd lsl 4) lor rs1);
  Bytes.set_uint8 dst (pos + 2) (rs2 lsl 4);
  Bytes.set_uint8 dst (pos + 3) 0;
  pos + 4

let ri dst pos ~code ~rd ~rs ~imm =
  check_nibble "rd" rd;
  check_nibble "rs" rs;
  check_imm16 "imm" imm;
  Bytes.set_uint8 dst pos code;
  Bytes.set_uint8 dst (pos + 1) ((rd lsl 4) lor rs);
  Bytes.set_uint16_be dst (pos + 2) (imm land 0xFFFF);
  pos + 4

let mem dst pos ~code ~rd ~dsp ~rb =
  check_nibble "rd" rd;
  check_nibble "rb" rb;
  check_imm16 "dsp" dsp;
  Bytes.set_uint8 dst pos code;
  Bytes.set_uint8 dst (pos + 1) ((rd lsl 4) lor rb);
  Bytes.set_uint16_be dst (pos + 2) (dsp land 0xFFFF);
  pos + 4

let bcc dst pos ~mask ~rel =
  check_nibble "mask" mask;
  check_imm16 "rel" rel;
  Bytes.set_uint8 dst pos bc_r32;
  Bytes.set_uint8 dst (pos + 1) (mask lsl 4);
  Bytes.set_uint16_be dst (pos + 2) (rel land 0xFFFF);
  pos + 4

(** [encode_into insn dst pos] writes the architected byte encoding of
    [insn] at [dst.[pos..]] and returns the position just past it.  All
    field validation happens before the first write.  Raises
    [Encode_error] if any field is out of range or the mnemonic's
    declared format does not match the operand shape.  The caller is
    responsible for [dst] having [Insn.size insn] bytes of room. *)
let encode_into (i : Insn.t) (dst : Bytes.t) (pos : int) : int =
  let s370 = Insn.s370_opcodes and r32 = Insn.r32_opcodes in
  match i with
  | Rr { op; r1; r2 } ->
      let s = s370_slot op in
      if s370.formats.(s) <> RR then err "%s is not an RR instruction" op;
      rr dst pos ~code:s370.codes.(s) ~r1 ~r2
  | Rx { op; r1; d2; x2; b2 } ->
      let s = s370_slot op in
      if s370.formats.(s) <> RX then err "%s is not an RX instruction" op;
      rx dst pos ~code:s370.codes.(s) ~r1 ~d2 ~x2 ~b2
  | Rs { op; r1; r3; d2; b2 } ->
      let s = s370_slot op in
      if s370.formats.(s) <> RS then err "%s is not an RS instruction" op;
      check_nibble "r1" r1;
      check_nibble "r3" r3;
      check_nibble "b2" b2;
      check_disp "d2" d2;
      Bytes.set_uint8 dst pos s370.codes.(s);
      Bytes.set_uint8 dst (pos + 1) ((r1 lsl 4) lor r3);
      Bytes.set_uint8 dst (pos + 2) ((b2 lsl 4) lor (d2 lsr 8));
      Bytes.set_uint8 dst (pos + 3) (d2 land 0xFF);
      pos + 4
  | Si { op; d1; b1; i2 } ->
      let s = s370_slot op in
      if s370.formats.(s) <> SI then err "%s is not an SI instruction" op;
      check_byte "i2" i2;
      check_nibble "b1" b1;
      check_disp "d1" d1;
      Bytes.set_uint8 dst pos s370.codes.(s);
      Bytes.set_uint8 dst (pos + 1) i2;
      Bytes.set_uint8 dst (pos + 2) ((b1 lsl 4) lor (d1 lsr 8));
      Bytes.set_uint8 dst (pos + 3) (d1 land 0xFF);
      pos + 4
  | Ss { op; l; d1; b1; d2; b2 } ->
      let s = s370_slot op in
      if s370.formats.(s) <> SS then err "%s is not an SS instruction" op;
      (* architected SS length field holds length-1; we carry the true
         length in the symbolic form *)
      if l < 1 || l > 256 then err "SS length out of range: %d" l;
      check_nibble "b1" b1;
      check_nibble "b2" b2;
      check_disp "d1" d1;
      check_disp "d2" d2;
      Bytes.set_uint8 dst pos s370.codes.(s);
      Bytes.set_uint8 dst (pos + 1) (l - 1);
      Bytes.set_uint8 dst (pos + 2) ((b1 lsl 4) lor (d1 lsr 8));
      Bytes.set_uint8 dst (pos + 3) (d1 land 0xFF);
      Bytes.set_uint8 dst (pos + 4) ((b2 lsl 4) lor (d2 lsr 8));
      Bytes.set_uint8 dst (pos + 5) (d2 land 0xFF);
      pos + 6
  | R3 { op; rd; rs1; rs2 } ->
      let s = r32_slot op in
      if r32.formats.(s) <> F_r3 then err "%s is not an R3 instruction" op;
      r3 dst pos ~code:r32.codes.(s) ~rd ~rs1 ~rs2
  | R2 { op; rd; rs } ->
      let s = r32_slot op in
      if r32.formats.(s) <> F_r2 then err "%s is not an R2 instruction" op;
      check_nibble "rd" rd;
      check_nibble "rs" rs;
      Bytes.set_uint8 dst pos r32.codes.(s);
      Bytes.set_uint8 dst (pos + 1) ((rd lsl 4) lor rs);
      Bytes.set_uint8 dst (pos + 2) 0;
      Bytes.set_uint8 dst (pos + 3) 0;
      pos + 4
  | Ri { op; rd; rs; imm } ->
      let s = r32_slot op in
      if r32.formats.(s) <> F_ri then err "%s is not an RI instruction" op;
      ri dst pos ~code:r32.codes.(s) ~rd ~rs ~imm
  | Li { op; rd; imm } ->
      let s = r32_slot op in
      if r32.formats.(s) <> F_li then err "%s is not an LI instruction" op;
      check_nibble "rd" rd;
      check_imm16 "imm" imm;
      Bytes.set_uint8 dst pos r32.codes.(s);
      Bytes.set_uint8 dst (pos + 1) (rd lsl 4);
      Bytes.set_uint16_be dst (pos + 2) (imm land 0xFFFF);
      pos + 4
  | Mem { op; rd; dsp; rb } ->
      let s = r32_slot op in
      if r32.formats.(s) <> F_mem then err "%s is not a memory instruction" op;
      mem dst pos ~code:r32.codes.(s) ~rd ~dsp ~rb
  | Bcc { mask; rel } -> bcc dst pos ~mask ~rel

(** [encode insn] returns the architected byte encoding in a fresh
    buffer. *)
let encode (i : Insn.t) : Bytes.t =
  let b = Bytes.create (Insn.size i) in
  let _ = encode_into i b 0 in
  b

(** [decode mem pos] disassembles the instruction at [pos].  Returns the
    symbolic instruction and its size.  Raises [Encode_error] on an
    unknown opcode. *)
let decode (mem : Bytes.t) (pos : int) : Insn.t * int =
  let u8 i = Bytes.get_uint8 mem (pos + i) in
  let code = u8 0 in
  match Hashtbl.find_opt Insn.mnemonic_of_opcode code with
  | None -> err "unknown opcode byte 0x%02X at %d" code pos
  | Some (op, f) -> (
      match f with
      | RR ->
          let b1 = u8 1 in
          (Rr { op; r1 = b1 lsr 4; r2 = b1 land 0xF }, 2)
      | RX ->
          let b1 = u8 1 and b2 = u8 2 and b3 = u8 3 in
          ( Rx
              {
                op;
                r1 = b1 lsr 4;
                x2 = b1 land 0xF;
                b2 = b2 lsr 4;
                d2 = ((b2 land 0xF) lsl 8) lor b3;
              },
            4 )
      | RS ->
          let b1 = u8 1 and b2 = u8 2 and b3 = u8 3 in
          ( Rs
              {
                op;
                r1 = b1 lsr 4;
                r3 = b1 land 0xF;
                b2 = b2 lsr 4;
                d2 = ((b2 land 0xF) lsl 8) lor b3;
              },
            4 )
      | SI ->
          let b1 = u8 1 and b2 = u8 2 and b3 = u8 3 in
          ( Si
              {
                op;
                i2 = b1;
                b1 = b2 lsr 4;
                d1 = ((b2 land 0xF) lsl 8) lor b3;
              },
            4 )
      | SS ->
          let b1 = u8 1 and b2 = u8 2 and b3 = u8 3 in
          let b4 = u8 4 and b5 = u8 5 in
          ( Ss
              {
                op;
                l = b1 + 1;
                b1 = b2 lsr 4;
                d1 = ((b2 land 0xF) lsl 8) lor b3;
                b2 = b4 lsr 4;
                d2 = ((b4 land 0xF) lsl 8) lor b5;
              },
            6 ))

(** [decode_r32 mem pos] disassembles the RISC-32 instruction at [pos].
    Returns the symbolic instruction and its size (always 4).  Raises
    [Encode_error] on an unknown opcode. *)
let decode_r32 (mem : Bytes.t) (pos : int) : Insn.t * int =
  let u8 i = Bytes.get_uint8 mem (pos + i) in
  let imm16 () =
    let v = (u8 2 lsl 8) lor u8 3 in
    if v >= 0x8000 then v - 0x10000 else v
  in
  let code = u8 0 in
  match Hashtbl.find_opt Insn.r32_mnemonic_of_opcode code with
  | None -> err "unknown RISC-32 opcode byte 0x%02X at %d" code pos
  | Some (op, f) -> (
      let b1 = u8 1 in
      match f with
      | F_r3 -> (R3 { op; rd = b1 lsr 4; rs1 = b1 land 0xF; rs2 = u8 2 lsr 4 }, 4)
      | F_r2 -> (R2 { op; rd = b1 lsr 4; rs = b1 land 0xF }, 4)
      | F_ri -> (Ri { op; rd = b1 lsr 4; rs = b1 land 0xF; imm = imm16 () }, 4)
      | F_li -> (Li { op; rd = b1 lsr 4; imm = imm16 () }, 4)
      | F_mem -> (Mem { op; rd = b1 lsr 4; rb = b1 land 0xF; dsp = imm16 () }, 4)
      | F_bcc -> (Bcc { mask = b1 lsr 4; rel = imm16 () }, 4))

(** Encode a whole instruction sequence into one buffer. *)
let encode_all (is : Insn.t list) : Bytes.t =
  let bufs = List.map encode is in
  let total = List.fold_left (fun a b -> a + Bytes.length b) 0 bufs in
  let out = Bytes.create total in
  let _ =
    List.fold_left
      (fun pos b ->
        Bytes.blit b 0 out pos (Bytes.length b);
        pos + Bytes.length b)
      0 bufs
  in
  out

(** Disassemble [len] bytes starting at [pos]. *)
let decode_all (mem : Bytes.t) ~(pos : int) ~(len : int) : Insn.t list =
  let rec go p acc =
    if p >= pos + len then List.rev acc
    else
      let i, sz = decode mem p in
      go (p + sz) (i :: acc)
  in
  go pos []
