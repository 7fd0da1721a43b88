(** The Loader Record Generator (paper sections 3 and 4.2).

    After all IF for a module has been processed, label references and
    branch instructions are resolved in a two-phase traversal of the
    dictionary and the object module's TEXT records are constructed.

    Branch targets are addressed off the code-base register, whose 12-bit
    displacement reaches only the first 4096-byte page.  A branch whose
    target lies beyond needs the long form: an additional load
    establishing addressability of the target's page (paper 4.2), here a
    load of the target offset from a literal pool placed at the head of
    the module (inside page 0 by construction):

    - short branch (4 bytes):   [bc mask,target(x,code_base)]
    - long branch (8 bytes):    [l idx,pool_k(code_base)]
                                [bc mask,0(idx,code_base)]
    - long branch, indexed (10):[l idx,pool_k(code_base)]
                                [ar idx,x]
                                [bc mask,0(idx,code_base)]
    - short case load (4):      [l reg,table(reg,code_base)]
    - long case load (10):      [l idx,pool_k(code_base)]
                                [ar idx,reg]
                                [l reg,0(idx,code_base)]

    Since lengthening a branch can push other targets across the page
    boundary (and grow the pool), sizing iterates to a fixpoint — the
    classical span-dependent-instruction algorithm the paper cites
    (Robertson; Leverett & Szymanski).

    The analysis is one sweep over the code buffer, read in place: labels
    are interned to dense ids and every label reference (site or data
    word) resolved to an id {e once}, with each label's short-form
    offset and the number of references before it.  A sizing pass then
    walks only labels and references, never the instructions between
    them; the long-site count is bumped at widening instead of
    rescanned; and the final emission encodes every instruction directly
    into the result image through {!Machine.Encode}'s format writers —
    no dictionary rebuilds, no per-instruction byte buffers, instruction
    values or options. *)

module Label_tbl = Hashtbl.Make (struct
  type t = Code_buffer.label

  let equal (a : t) (b : t) =
    match (a, b) with
    | User x, User y | Internal x, Internal y -> x = y
    | User _, Internal _ | Internal _, User _ -> false

  let hash : t -> int = function User n -> n lsl 1 | Internal n -> (n lsl 1) lor 1
end)

type label_map = {
  ids : int Label_tbl.t;  (** dense id of each defined label *)
  offsets : int array;  (** module-relative offset per id *)
}

type resolved = {
  code : Bytes.t;
  entry : int;  (** module-relative entry offset (after the literal pool) *)
  label_map : label_map;
  n_sites : int;
  n_long : int;
  pool_words : int;
  iterations : int;
}

let label_offset r l =
  match Label_tbl.find_opt r.label_map.ids l with
  | Some i -> Some r.label_map.offsets.(i)
  | None -> None

exception Resolve_error of string

let err fmt = Fmt.kstr (fun s -> raise (Resolve_error s)) fmt

(* observability counters, flushed once per successful resolution *)
let m_resolutions = Metrics.sum "loader.resolutions"
let m_passes = Metrics.sum "loader.sizing_passes"
let m_sites = Metrics.sum "loader.branch_sites"
let m_long = Metrics.sum "loader.long_branches"
let m_short = Metrics.sum "loader.short_branches"
let m_pool_words = Metrics.sum "loader.pool_words"

(* the opcodes of the instructions the loader synthesizes *)
let op_bc = Machine.Encode.opcode "bc"
let op_l = Machine.Encode.opcode "l"
let op_ar = Machine.Encode.opcode "ar"
let op_addi = Machine.Encode.r32_opcode "addi"
let op_add = Machine.Encode.r32_opcode "add"
let op_lw = Machine.Encode.r32_opcode "lw"

(* The error of a buffer the one-sweep analysis found malformed, with
   the precedence of a two-pass check: the first label defined twice,
   else the first reference to an undefined label.  Only called when
   one of the two exists. *)
let diagnose buf =
  let name l = Fmt.str "%a" Code_buffer.pp_label l in
  let defined = Label_tbl.create 64 in
  for i = 0 to Code_buffer.length buf - 1 do
    match Code_buffer.get buf i with
    | Code_buffer.Label_def l ->
        if Label_tbl.mem defined l then err "label %s defined twice" (name l);
        Label_tbl.replace defined l 0
    | _ -> ()
  done;
  for i = 0 to Code_buffer.length buf - 1 do
    match Code_buffer.get buf i with
    | Code_buffer.Branch_site { lbl = l; _ }
    | Code_buffer.Case_site { lbl = l; _ }
    | Code_buffer.Word_label l ->
        if not (Label_tbl.mem defined l) then err "undefined label %s" (name l)
    | _ -> ()
  done;
  invalid_arg "Loader_gen.diagnose: no label error"

(* a 32-bit big-endian data word, without boxing an [Int32] *)
let put_word code pos v =
  Bytes.set_uint16_be code pos ((v lsr 16) land 0xFFFF);
  Bytes.set_uint16_be code (pos + 2) (v land 0xFFFF)

let resolve ?(code_base = Machine.Runtime.code_base)
    ?(target = Machine.Targets.default) (buf : Code_buffer.t) : resolved =
  let span_dependent =
    target.Machine.Target.site_model = Machine.Target.Span_dependent
  in
  let target_name = target.Machine.Target.name in
  let n = Code_buffer.length buf in
  let n_defs = Code_buffer.n_label_defs buf in
  let n_refs = Code_buffer.n_label_refs buf in
  (* -- one sweep: label interning, reference resolution, short sizes ----- *)
  let ids = Label_tbl.create (max 1 n_defs) in
  (* per label id: its offset once placed; -1 until its definition *)
  let offsets = Array.make (max 1 n_defs) (-1) in
  let n_ids = ref 0 in
  let intern l =
    match Label_tbl.find_opt ids l with
    | Some id -> id
    | None ->
        (* more labels than definitions: one is undefined *)
        if !n_ids = n_defs then diagnose buf;
        let id = !n_ids in
        Label_tbl.add ids l id;
        incr n_ids;
        id
  in
  (* per definition, in buffer order: its label id, the short-form bytes
     before it and the number of references before it *)
  let def_lid = Array.make n_defs 0 in
  let def_base = Array.make n_defs 0 in
  let def_refs = Array.make n_defs 0 in
  (* per reference, in buffer order: its label id and the bytes its long
     form adds; 0 for a data word and for a site on a pc-relative target,
     which has a single width (4 bytes for a branch, 12 for a case load,
     which expands to [addi reg,reg,table; add reg,reg,code_base;
     lw reg,0(reg)]) *)
  let ref_lid = Array.make n_refs 0 in
  let ref_grow = Array.make n_refs 0 in
  let nd = ref 0 and nr = ref 0 and n_sites = ref 0 and short_total = ref 0 in
  let add_ref l ~grow ~size =
    ref_lid.(!nr) <- intern l;
    ref_grow.(!nr) <- grow;
    incr nr;
    short_total := !short_total + size
  in
  for i = 0 to n - 1 do
    match Code_buffer.get buf i with
    | Code_buffer.Fixed ins -> short_total := !short_total + Machine.Insn.size ins
    | Code_buffer.Word_lit _ -> short_total := !short_total + 4
    | Code_buffer.Word_label l -> add_ref l ~grow:0 ~size:4
    | Code_buffer.Branch_site { lbl; x; _ } ->
        let grow = if not span_dependent then 0 else if x = 0 then 4 else 6 in
        add_ref lbl ~grow ~size:4;
        incr n_sites
    | Code_buffer.Case_site { lbl; _ } ->
        if span_dependent then add_ref lbl ~grow:6 ~size:4
        else add_ref lbl ~grow:0 ~size:12;
        incr n_sites
    | Code_buffer.Label_def l ->
        let id = intern l in
        if offsets.(id) >= 0 then diagnose buf;
        offsets.(id) <- 0;
        def_lid.(!nd) <- id;
        def_base.(!nd) <- !short_total;
        def_refs.(!nd) <- !nr;
        incr nd
  done;
  for id = 0 to !n_ids - 1 do
    if offsets.(id) < 0 then diagnose buf
  done;
  (* -- sizing fixpoint --------------------------------------------------- *)
  let is_long = Array.make n_refs false in
  let n_long = ref 0 and grown = ref 0 in
  let iterations = ref 0 in
  let changed = ref true in
  while !changed do
    incr iterations;
    if !iterations > n + 8 then err "span-dependent sizing did not converge";
    changed := false;
    let pool_bytes = 4 * !n_long in
    if pool_bytes > 4096 - 4 then
      err "literal pool overflow: %d long branch sites" !n_long;
    (* place the labels: past the pool, the short forms before each and
       what the long sites before it add *)
    let r = ref 0 and extra = ref 0 in
    for d = 0 to n_defs - 1 do
      while !r < def_refs.(d) do
        if is_long.(!r) then extra := !extra + ref_grow.(!r);
        incr r
      done;
      offsets.(def_lid.(d)) <- pool_bytes + def_base.(d) + !extra
    done;
    (* widen sites whose target is out of short range; widening is
       monotone, so the long count only ever grows.  Pc-relative targets
       have a single width: nothing to widen, the loop exits after one
       placement pass. *)
    if span_dependent then
      for r = 0 to n_refs - 1 do
        if ref_grow.(r) > 0 && (not is_long.(r)) && offsets.(ref_lid.(r)) > 4095
        then begin
          is_long.(r) <- true;
          incr n_long;
          grown := !grown + ref_grow.(r);
          changed := true
        end
      done
  done;
  (* -- emission: encode straight into the result image ------------------- *)
  (* pool slots go to the long sites in site order, for determinism *)
  let pool_bytes = 4 * !n_long in
  let code = Bytes.make (pool_bytes + !short_total + !grown) '\000' in
  let pos = ref pool_bytes and r = ref 0 and slot = ref 0 in
  let module E = Machine.Encode in
  for i = 0 to n - 1 do
    let p = !pos in
    match Code_buffer.get buf i with
    | Code_buffer.Fixed ins -> pos := E.encode_into ins code p
    | Code_buffer.Label_def _ -> ()
    | Code_buffer.Word_lit v ->
        put_word code p v;
        pos := p + 4
    | Code_buffer.Word_label _ ->
        put_word code p offsets.(ref_lid.(!r));
        incr r;
        pos := p + 4
    | Code_buffer.Branch_site { mask; lbl = _; idx; x } ->
        let t = offsets.(ref_lid.(!r)) in
        if not span_dependent then begin
          let rel = t - p in
          if x <> 0 then
            err "indexed branch not supported on pc-relative target %s"
              target_name
          else if rel < -32768 || rel > 32767 then
            err "pc-relative branch out of range: %d bytes" rel
          else pos := E.bcc code p ~mask ~rel
        end
        else if not is_long.(!r) then
          pos := E.rx code p ~code:op_bc ~r1:mask ~d2:t ~x2:x ~b2:code_base
        else begin
          put_word code (4 * !slot) t;
          let p =
            E.rx code p ~code:op_l ~r1:idx ~d2:(4 * !slot) ~x2:0 ~b2:code_base
          in
          incr slot;
          let p = if x = 0 then p else E.rr code p ~code:op_ar ~r1:idx ~r2:x in
          pos := E.rx code p ~code:op_bc ~r1:mask ~d2:0 ~x2:idx ~b2:code_base
        end;
        incr r
    | Code_buffer.Case_site { reg; lbl = _; idx } ->
        let t = offsets.(ref_lid.(!r)) in
        if not span_dependent then begin
          if t < -32768 || t > 32767 then
            err "case table offset out of immediate range: %d" t;
          let p = E.ri code p ~code:op_addi ~rd:reg ~rs:reg ~imm:t in
          let p = E.r3 code p ~code:op_add ~rd:reg ~rs1:reg ~rs2:code_base in
          pos := E.mem code p ~code:op_lw ~rd:reg ~dsp:0 ~rb:reg
        end
        else if not is_long.(!r) then
          pos := E.rx code p ~code:op_l ~r1:reg ~d2:t ~x2:reg ~b2:code_base
        else begin
          put_word code (4 * !slot) t;
          let p =
            E.rx code p ~code:op_l ~r1:idx ~d2:(4 * !slot) ~x2:0 ~b2:code_base
          in
          incr slot;
          let p = E.rr code p ~code:op_ar ~r1:idx ~r2:reg in
          pos := E.rx code p ~code:op_l ~r1:reg ~d2:0 ~x2:idx ~b2:code_base
        end;
        incr r
  done;
  if Metrics.enabled () then begin
    Metrics.add m_resolutions 1;
    Metrics.add m_passes !iterations;
    Metrics.add m_sites !n_sites;
    Metrics.add m_long !n_long;
    Metrics.add m_short (!n_sites - !n_long);
    Metrics.add m_pool_words !n_long
  end;
  {
    code;
    entry = pool_bytes;
    label_map = { ids; offsets };
    n_sites = !n_sites;
    n_long = !n_long;
    pool_words = !n_long;
    iterations = !iterations;
  }

(** Resolve and wrap into an object module. *)
let to_objmod ?(name = "MAIN") ?code_base ?target (buf : Code_buffer.t) :
    (Machine.Objmod.t * resolved, string) result =
  match resolve ?code_base ?target buf with
  | r -> Ok (Machine.Objmod.of_code ~name ~entry:r.entry r.code, r)
  | exception Resolve_error m -> Error m
  | exception Machine.Encode.Encode_error m -> Error m
