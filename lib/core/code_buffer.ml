(** The code buffer filled by the code emission routine.

    Most entries are finished machine instructions; branch and case-table
    sites stay symbolic ("while parsing the IF, label locations and branch
    instructions are kept in a dictionary", paper section 3) until the
    Loader Record Generator resolves them.

    The buffer is a growable array with cached instruction and label
    counts, so appending is a few writes and every consumer (the
    loader's analysis, [stmt_record] bookkeeping, the listing) reads the
    items in place — no list reversal, no counting traversals. *)

(** Labels: [User] labels come from the IF ([label_def lbl.n]); [Internal]
    labels are invented by the code emitter for [skip] targets, so the
    shaper never has to allocate them (paper section 4.2). *)
type label = User of int | Internal of int

type item =
  | Fixed of Machine.Insn.t
  | Branch_site of { mask : int; lbl : label; idx : int; x : int }
      (** conditional branch to [lbl]; [idx] is the register reserved for
          the long form; [x] an optional extra index register (0 = none) *)
  | Case_site of { reg : int; lbl : label; idx : int }
      (** load of branch-table word at [lbl] indexed by [reg] *)
  | Label_def of label
  | Word_lit of int  (** literal data word in the instruction stream *)
  | Word_label of label  (** data word holding a label's offset *)

(* a harmless placeholder for unfilled array slots *)
let dummy_item = Word_lit 0

type t = {
  mutable arr : item array;
  mutable n : int;
  mutable n_insns : int;  (** cached machine-instruction count *)
  mutable n_defs : int;  (** cached [Label_def] count *)
  mutable n_refs : int;  (** cached count of sites and [Word_label]s *)
}

let create () =
  { arr = Array.make 64 dummy_item; n = 0; n_insns = 0; n_defs = 0; n_refs = 0 }

let add t item =
  if t.n = Array.length t.arr then begin
    let narr = Array.make (2 * t.n) dummy_item in
    Array.blit t.arr 0 narr 0 t.n;
    t.arr <- narr
  end;
  t.arr.(t.n) <- item;
  t.n <- t.n + 1;
  match item with
  | Fixed _ -> t.n_insns <- t.n_insns + 1
  | Branch_site _ | Case_site _ ->
      t.n_insns <- t.n_insns + 1;
      t.n_refs <- t.n_refs + 1
  | Label_def _ -> t.n_defs <- t.n_defs + 1
  | Word_label _ -> t.n_refs <- t.n_refs + 1
  | Word_lit _ -> ()

let length t = t.n
let get t i = if i < 0 || i >= t.n then invalid_arg "Code_buffer.get" else t.arr.(i)

let items t = Array.to_list (Array.sub t.arr 0 t.n)

let iter f t =
  for i = 0 to t.n - 1 do
    f t.arr.(i)
  done

(** Count of machine instructions (sites count as one); O(1), maintained
    on append. *)
let n_instructions t = t.n_insns

let n_label_defs t = t.n_defs
let n_label_refs t = t.n_refs

(* The listing is produced once per compile and feeds the determinism
   fingerprint, so it is rendered straight into a [Buffer] through
   {!Machine.Insn}'s allocation-free writers; [pp_item] and [pp_label]
   go through the same code, so the formatted and the rendered forms
   cannot drift apart. *)
let render_label b = function
  | User n ->
      Buffer.add_char b 'L';
      Machine.Insn.add_int b n
  | Internal n ->
      Buffer.add_char b '.';
      Machine.Insn.add_int b n

let render_item b = function
  | Fixed i ->
      Buffer.add_string b "      ";
      Machine.Insn.render b i
  | Branch_site { mask; lbl; x; _ } ->
      Buffer.add_string b "      bc    ";
      Machine.Insn.add_int b mask;
      Buffer.add_char b ',';
      render_label b lbl;
      if x <> 0 then Machine.Insn.add_base b x
  | Case_site { reg; lbl; _ } ->
      Buffer.add_string b "      l     r";
      Machine.Insn.add_int b reg;
      Buffer.add_char b ',';
      render_label b lbl;
      Machine.Insn.add_base b reg
  | Label_def l ->
      render_label b l;
      Buffer.add_char b ':'
  | Word_lit v ->
      Buffer.add_string b "      dc    f'";
      Machine.Insn.add_int b v;
      Buffer.add_char b '\''
  | Word_label l ->
      Buffer.add_string b "      dc    a(";
      render_label b l;
      Buffer.add_char b ')'

let to_string render x =
  let b = Buffer.create 32 in
  render b x;
  Buffer.contents b

let pp_label ppf l = Fmt.string ppf (to_string render_label l)
let pp_item ppf it = Fmt.string ppf (to_string render_item it)

(** Assembly-style listing in the manner of the paper's Appendix 1.
    Lines average under 20 bytes with their newline, so the buffer,
    sized at 24 bytes per item, does not grow on real code. *)
let to_listing t =
  let b = Buffer.create (24 * (t.n + 1)) in
  for i = 0 to t.n - 1 do
    if i > 0 then Buffer.add_char b '\n';
    render_item b t.arr.(i)
  done;
  Buffer.contents b

let pp ppf t = Fmt.string ppf (to_listing t)
