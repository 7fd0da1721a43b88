(** The code emission routine (paper section 3):

    {v
    begin
      remove current production from the parse stack.
      allocate all requested registers.
      for all associated templates do begin
        fill in required values
        if template requires semantic intervention
          then case intervention code of ... end
          else append instruction to code buffer
      end
      prefix LHS to input stream.
    end
    v} *)

exception Emit_error of string

let err fmt = Fmt.kstr (fun s -> raise (Emit_error s)) fmt

(* observability counters (flushed once per compile by Codegen from the
   per-compile statistics; never bumped per emitted instruction) *)
let m_pressure_failures = Metrics.sum "regalloc.pressure_failures"
let m_allocs = Metrics.sum "regalloc.allocs"
let m_evictions = Metrics.sum "regalloc.evictions"
let m_transfers = Metrics.sum "regalloc.transfers"
let m_gp_peak = Metrics.high_water "regalloc.busy_peak.gp"
let m_fp_peak = Metrics.high_water "regalloc.busy_peak.fp"
let m_cse_hits = Metrics.sum "cse.residence_hits"
let m_cse_reloads = Metrics.sum "cse.reloads"
let m_cse_invalidations = Metrics.sum "cse.invalidations"

type t = {
  tables : Tables.t;
  regs : Regalloc.t;
  cse : Cse.t;
  buf : Code_buffer.t;
  reload_dsp : Grammar.sym;
      (** the [dsp] terminal used when reloading a CSE, interned at
          creation ([-1] when the grammar has no [dsp] — pushing it then
          fails at the driver, like any uninterned symbol) *)
  reload_reg : Grammar.sym;  (** the [r] non-terminal for CSE reloads *)
  mutable next_internal : int;
  (* open [skip]s: remaining instruction count until the internal label *)
  mutable open_skips : (int ref * Code_buffer.label) list;
  mutable stmt_records : (int * int) list;  (** stmt number -> insn index *)
  mutable list_requests : int list;
  explain : bool;
      (** record, per code-buffer item, the production (and directives)
          responsible for it — the [--explain] sink *)
  mutable cur_origin : string;  (** annotation for the reduction in progress *)
  mutable origins : string list;  (** one entry per buffer item, reversed *)
  (* per-compile CSE residence counters, flushed to Metrics by Codegen *)
  mutable cse_hits : int;
  mutable cse_reloads : int;
  mutable cse_invalidations : int;
  (* scratch state of the reduction in progress, reused by every
     reduction so that emission allocates only what it emits *)
  mutable allocs : int array;  (** register per [using] slot *)
  ops : Machine.Target.Operands.t;  (** operands of the instruction being built *)
}

let create ?(strategy = Regalloc.Lru) ?(explain = false) (tables : Tables.t)
    : t =
  let intern = Grammar.id tables.Tables.grammar in
  {
    tables;
    regs =
      Regalloc.create ~strategy
        ~fp_prefix:tables.Tables.target.Machine.Target.fp_reg_prefix ();
    cse = Cse.create ();
    buf = Code_buffer.create ();
    reload_dsp = intern "dsp";
    reload_reg = intern "r";
    next_internal = 0;
    open_skips = [];
    stmt_records = [];
    list_requests = [];
    explain;
    cur_origin = "(no production)";
    origins = [];
    cse_hits = 0;
    cse_reloads = 0;
    cse_invalidations = 0;
    allocs = Array.make 4 0;
    ops = Machine.Target.Operands.create ();
  }

let items t = Code_buffer.items t.buf
let stats t = t.regs.Regalloc.stats

(* flush the per-compile statistics into the process-wide counters; one
   enabled check per compile, nothing on the per-instruction path *)
let flush_metrics t =
  if Metrics.enabled () then begin
    let s = t.regs.Regalloc.stats in
    Metrics.add m_allocs s.Regalloc.n_allocs;
    Metrics.add m_evictions s.Regalloc.n_evictions;
    Metrics.add m_transfers s.Regalloc.n_transfers;
    Metrics.peak m_gp_peak s.Regalloc.gp_peak;
    Metrics.peak m_fp_peak s.Regalloc.fp_peak;
    Metrics.add m_cse_hits t.cse_hits;
    Metrics.add m_cse_reloads t.cse_reloads;
    Metrics.add m_cse_invalidations t.cse_invalidations
  end

(* -- appending with skip bookkeeping -------------------------------------- *)

(* Why an item was emitted beyond its production's own template; the
   text is rendered only for [--explain]. *)
type note =
  | No_note
  | Spill of int  (** CSE id *)
  | Transfer of int * int  (** from, to *)
  | Copy_on_write
  | Save_before_clobber of int  (** CSE id *)
  | Skip_target

let note_text = function
  | No_note -> ""
  | Spill id -> Fmt.str "spill: save CSE %d to its temporary" id
  | Transfer (src, dst) ->
      Fmt.str "need r%d: transfer old contents to r%d" src dst
  | Copy_on_write -> "modifies: copy-on-write of a shared register"
  | Save_before_clobber id -> Fmt.str "modifies: save CSE %d before clobber" id
  | Skip_target -> "skip target"

let add_item t note item =
  Code_buffer.add t.buf item;
  if t.explain then
    t.origins <-
      (match note with
      | No_note -> t.cur_origin
      | n -> t.cur_origin ^ " — " ^ note_text n)
      :: t.origins

(* one more instruction went out: count the open skips down, placing the
   internal label of each that reaches its target (in list order);
   reports whether any did *)
let rec count_down_skips t closed = function
  | [] -> closed
  | (count, lbl) :: rest ->
      decr count;
      let reached = !count <= 0 in
      if reached then add_item t Skip_target (Code_buffer.Label_def lbl);
      count_down_skips t (closed || reached) rest

let append_instruction t note item =
  add_item t note item;
  if t.open_skips <> [] && count_down_skips t false t.open_skips then
    t.open_skips <- List.filter (fun (count, _) -> !count > 0) t.open_skips

let append_data t item = add_item t No_note item

(* -- banks and classes ----------------------------------------------------- *)

let rec need_class (needs : Template.need_req array) r i =
  if i = Array.length needs then Symtab.Gpr
  else if needs.(i).Template.n_reg = r then needs.(i).Template.n_class
  else need_class needs r (i + 1)

let rec class_of_src t (c : Template.compiled) (rhs : Driver.frame)
    (s : Template.src) : Symtab.reg_class =
  match s with
  | Template.Alloc i -> c.Template.c_allocs.(i).Template.a_class
  | Template.Phys r -> need_class c.Template.c_needs r 0
  | Template.Stack k -> (
      match Tables.class_of t.tables rhs.Driver.syms.(rhs.Driver.base + k) with
      | Some cls -> cls
      | None -> Symtab.Gpr)
  | Template.Plus (s, _) -> class_of_src t c rhs s
  | Template.Lit _ -> Symtab.Gpr

let bank_of_sym t sym : Regalloc.bank =
  match Tables.class_of t.tables sym with
  | Some cls -> Regalloc.bank_of_class cls
  | None -> Regalloc.Gp

(* -- target hooks ----------------------------------------------------------- *)

let target t = t.tables.Tables.target

(* -- CSE helpers ----------------------------------------------------------- *)

(* save an evicted CSE register to its temporary *)
let save_cse t (ev : Regalloc.evicted) =
  match Cse.find t.cse ev.Regalloc.ev_cse with
  | None -> err "evicted register bound to unknown CSE %d" ev.Regalloc.ev_cse
  | Some entry ->
      append_instruction t (Spill entry.Cse.id)
        (Code_buffer.Fixed
           ((target t).Machine.Target.spill_store ~fp:entry.Cse.fp
              ~reg:ev.Regalloc.ev_reg ~dsp:entry.Cse.temp_dsp
              ~base:entry.Cse.temp_base));
      Cse.to_memory t.cse entry.Cse.id

(* save every CSE an allocation evicted (a direct loop: no closure on the
   allocation path) *)
let rec save_evicted t = function
  | [] -> ()
  | ev :: evs ->
      save_cse t ev;
      save_evicted t evs

(* -- register requests ------------------------------------------------------ *)

(* the production responsible for everything a reduction emits; the
   context attached to a register-pressure failure *)
let prod_desc t prod =
  let g = t.tables.Tables.grammar in
  Fmt.str "production %d (%s)" prod
    (Grammar.prod_to_string g (Grammar.prod g prod))

let pressure_failure m =
  Trace.instant "regalloc.pressure" ~args:[ ("detail", m) ];
  Metrics.add m_pressure_failures 1

(* allocation with diagnosable failure: re-raise Pressure enriched with
   the directive and production that triggered the exhaustion (the
   message is built only then); every evicted CSE is saved before the
   register is handed out *)
let alloc_for t ~prod ~copy_on_write cls =
  match Regalloc.alloc t.regs cls with
  | reg, evicted ->
      save_evicted t evicted;
      reg
  | exception Regalloc.Pressure m ->
      let directive =
        if copy_on_write then "modifies (copy-on-write)"
        else Fmt.str "using %a" Symtab.pp_reg_class cls
      in
      let m =
        Fmt.str "%s — while serving '%s' of %s" m directive (prod_desc t prod)
      in
      pressure_failure m;
      raise (Regalloc.Pressure m)

(* [need r<n>]: secure the specific register, moving a busy register's
   contents elsewhere and rebinding the stack and the CSE table *)
let serve_need t ~prod ~remap (req : Template.need_req) =
  match Regalloc.need t.regs req.Template.n_class req.Template.n_reg with
  | Error m ->
      let m =
        Fmt.str "%s — while serving 'need r%d' (%a) of %s" m req.Template.n_reg
          Symtab.pp_reg_class req.Template.n_class (prod_desc t prod)
      in
      pressure_failure m;
      err "%s" m
  | Ok (transfer, evicted) -> (
      save_evicted t evicted;
      match transfer with
      | None -> ()
      | Some tr ->
          (* move the old contents and rebind the translation stack *)
          let bank = Regalloc.bank_of_class req.Template.n_class in
          append_instruction t
            (Transfer (tr.Regalloc.tr_from, tr.Regalloc.tr_to))
            (Code_buffer.Fixed
               ((target t).Machine.Target.reg_move ~fp:(bank = Regalloc.Fp)
                  ~dst:tr.Regalloc.tr_to ~src:tr.Regalloc.tr_from));
          remap (fun sym r ->
              if r = tr.Regalloc.tr_from && bank_of_sym t sym = bank then
                tr.Regalloc.tr_to
              else r);
          Hashtbl.iter
            (fun _ (e : Cse.entry) ->
              match e.Cse.residence with
              | Cse.In_reg r when r = tr.Regalloc.tr_from ->
                  e.Cse.residence <- Cse.In_reg tr.Regalloc.tr_to
              | _ -> ())
            t.cse.Cse.entries)

(* -- template interpretation ------------------------------------------------ *)

let rec eval t (rhs : Driver.frame) (s : Template.src) : int =
  match s with
  | Template.Stack k ->
      let i = rhs.Driver.base + k in
      if rhs.Driver.tags.(i) = Driver.tag_unit then
        err "template references valueless RHS slot %d" k
      else rhs.Driver.vals.(i)
  | Template.Alloc i -> t.allocs.(i)
  | Template.Phys r -> r
  | Template.Lit n -> n
  | Template.Plus (s, k) -> eval t rhs s + k

module Ops = Machine.Target.Operands

(* Evaluate an instruction's operands into [t.ops], in the order the
   values were always evaluated (an operand's sub-operands before its
   base), so a template reading two valueless slots reports the same
   one. *)
let rec add_subs t rhs = function
  | [] -> ()
  | s :: rest ->
      Ops.add_sub t.ops (eval t rhs s);
      add_subs t rhs rest

let rec add_operands t rhs = function
  | [] -> ()
  | (o : Template.operand) :: rest ->
      let k = Ops.count t.ops in
      Ops.add t.ops;
      add_subs t rhs o.Template.subs;
      Ops.set_base t.ops k (eval t rhs o.Template.base);
      add_operands t rhs rest

(* shape checking happened at table-construction time against the same
   target *)
let build_insn t (mnem : string) : Machine.Insn.t =
  match (target t).Machine.Target.build_insn ~mnem t.ops with
  | Ok i -> i
  | Error m -> err "%s" m

(* RHS slots holding register [r] of [bank]: the production's own claims
   on a register a [modifies] is about to destroy *)
let claims t (rhs : Driver.frame) bank r =
  let n = ref 0 in
  for i = rhs.Driver.base to rhs.Driver.base + rhs.Driver.len - 1 do
    if rhs.Driver.tags.(i) = Driver.tag_reg && rhs.Driver.vals.(i) = r then
      match Tables.class_of t.tables rhs.Driver.syms.(i) with
      | Some cls when Regalloc.bank_of_class cls = bank -> incr n
      | _ -> ()
  done;
  !n

let modifies t ~prod (c : Template.compiled) rhs (src : Template.src) =
  let cls = class_of_src t c rhs src in
  let bank = Regalloc.bank_of_class cls in
  (* Copy-on-write: the template is about to destroy the register in
     place.  If other live references exist (another RHS slot aliases it
     through a CSE, or the register still holds a CSE with pending uses),
     the production's own operand moves to a fresh register first. *)
  (match src with
  | Template.Stack k ->
      let r = eval t rhs src in
      if
        Regalloc.is_busy t.regs bank r
        && Regalloc.use_count t.regs bank r > claims t rhs bank r
      then begin
        let fresh = alloc_for t ~prod ~copy_on_write:true cls in
        append_instruction t Copy_on_write
          (Code_buffer.Fixed
             ((target t).Machine.Target.reg_move ~fp:(bank = Regalloc.Fp)
                ~dst:fresh ~src:r));
        rhs.Driver.tags.(rhs.Driver.base + k) <- Driver.tag_reg;
        rhs.Driver.vals.(rhs.Driver.base + k) <- fresh;
        Regalloc.release t.regs bank r
      end
  | _ -> ());
  let r = eval t rhs src in
  match Regalloc.touch t.regs bank r with
  | None -> ()
  | Some cse_id -> (
      match Cse.find t.cse cse_id with
      | Some entry when entry.Cse.remaining > 0 ->
          (* save the CSE before the register is clobbered; its remaining
             uses will reload from the temporary, so their share of the
             use count is dropped *)
          t.cse_invalidations <- t.cse_invalidations + 1;
          append_instruction t (Save_before_clobber cse_id)
            (Code_buffer.Fixed
               ((target t).Machine.Target.spill_store ~fp:entry.Cse.fp ~reg:r
                  ~dsp:entry.Cse.temp_dsp ~base:entry.Cse.temp_base));
          Cse.to_memory t.cse cse_id;
          Regalloc.drop_cse_shares t.regs bank r
      | Some _ ->
          t.cse_invalidations <- t.cse_invalidations + 1;
          Cse.to_memory t.cse cse_id
      | None -> ())

let find_common t rhs (cse : Template.src) push_sym =
  let id = eval t rhs cse in
  match Cse.find t.cse id with
  | None -> err "find_common: CSE %d was never defined" id
  | Some entry -> (
      Cse.consume t.cse id;
      match entry.Cse.residence with
      | Cse.In_reg r ->
          (* the reserved share becomes the stack reference the push
             below retains *)
          t.cse_hits <- t.cse_hits + 1;
          Regalloc.consume_cse_share t.regs
            (if entry.Cse.fp then Regalloc.Fp else Regalloc.Gp)
            r;
          Driver.prefix rhs push_sym Driver.tag_reg r
      | Cse.In_mem -> (
          t.cse_reloads <- t.cse_reloads + 1;
          match entry.Cse.ty with
          | None -> err "find_common: CSE %d has no reload type operator" id
          | Some ty ->
              (* prefix the address of the temporary; the ordinary load
                 productions bring it back *)
              Driver.prefix rhs ty Driver.tag_unit 0;
              Driver.prefix rhs t.reload_dsp Driver.tag_int entry.Cse.temp_dsp;
              Driver.prefix rhs t.reload_reg Driver.tag_reg entry.Cse.temp_base))

(* one step of a production's template sequence *)
let step t ~prod (c : Template.compiled) rhs (st : Template.step) =
  match st with
  | Template.Instr { mnem; ops } ->
      Ops.clear t.ops;
      add_operands t rhs ops;
      append_instruction t No_note (Code_buffer.Fixed (build_insn t mnem))
  | Template.Modifies src -> modifies t ~prod c rhs src
  | Template.Ignore_lhs -> ()
  | Template.Label_location src ->
      append_data t (Code_buffer.Label_def (Code_buffer.User (eval t rhs src)))
  | Template.Label_ptr src ->
      append_data t (Code_buffer.Word_label (Code_buffer.User (eval t rhs src)))
  | Template.Branch { cond; lbl; idx } ->
      append_instruction t No_note
        (Code_buffer.Branch_site
           {
             mask = eval t rhs cond;
             lbl = Code_buffer.User (eval t rhs lbl);
             idx = eval t rhs idx;
             x = 0;
           })
  | Template.Branch_indexed { cond; lbl; idx; index } ->
      append_instruction t No_note
        (Code_buffer.Branch_site
           {
             mask = eval t rhs cond;
             lbl = Code_buffer.User (eval t rhs lbl);
             idx = eval t rhs idx;
             x = eval t rhs index;
           })
  | Template.Skip { cond; dist; idx } ->
      let lbl = Code_buffer.Internal t.next_internal in
      t.next_internal <- t.next_internal + 1;
      let d = eval t rhs dist in
      append_instruction t No_note
        (Code_buffer.Branch_site
           { mask = eval t rhs cond; lbl; idx = eval t rhs idx; x = 0 });
      if d - 1 <= 0 then append_data t (Code_buffer.Label_def lbl)
      else t.open_skips <- (ref (d - 1), lbl) :: t.open_skips
  | Template.Case_load { reg; lbl; idx } ->
      append_instruction t No_note
        (Code_buffer.Case_site
           {
             reg = eval t rhs reg;
             lbl = Code_buffer.User (eval t rhs lbl);
             idx = eval t rhs idx;
           })
  | Template.Push { sym; value } ->
      Driver.prefix rhs sym Driver.tag_reg (eval t rhs value)
  | Template.Ibm_length src ->
      let v = eval t rhs src in
      if v < 1 || v > 256 then
        err "IBM_length: %d outside the machine's 1..256 range" v
  | Template.Stmt_record src ->
      t.stmt_records <-
        (eval t rhs src, Code_buffer.n_instructions t.buf) :: t.stmt_records
  | Template.List_request src ->
      t.list_requests <- eval t rhs src :: t.list_requests
  | Template.Abort src ->
      List.iter
        (fun i -> append_instruction t No_note (Code_buffer.Fixed i))
        ((target t).Machine.Target.abort_insns ~errno:(eval t rhs src))
  | Template.Common { ty; fp; cse; cnt; reg; dsp; base } ->
      let id = eval t rhs cse
      and count = eval t rhs cnt
      and r = eval t rhs reg in
      Cse.define t.cse ~id ~ty ~fp ~count ~reg:r ~temp_dsp:(eval t rhs dsp)
        ~temp_base:(eval t rhs base);
      let bank = if fp then Regalloc.Fp else Regalloc.Gp in
      Regalloc.retain ~count t.regs bank r;
      Regalloc.bind_cse ~shares:count t.regs bank r id
  | Template.Find_common { cse; fp = _; push_sym } ->
      find_common t rhs cse push_sym

(* the [--explain] annotation of the reduction in progress *)
let describe t prod (c : Template.compiled) =
  let g = t.tables.Tables.grammar in
  let dirs =
    Array.to_list
      (Array.map
         (fun (r : Template.alloc_req) ->
           Fmt.str "using %a" Symtab.pp_reg_class r.Template.a_class)
         c.Template.c_allocs)
    @ Array.to_list
        (Array.map
           (fun (r : Template.need_req) -> Fmt.str "need r%d" r.Template.n_reg)
           c.Template.c_needs)
  in
  Fmt.str "p%d %s%s" prod
    (Grammar.prod_to_string g (Grammar.prod g prod))
    (match dirs with [] -> "" | ds -> "  [" ^ String.concat "; " ds ^ "]")

(** Code emission for one reduction.  Matches {!Driver.parse}'s [reduce]
    callback signature: the popped tokens are read in place from the
    driver's frame, already interned, and every token prefixed back goes
    into the frame's prefix buffer with its grammar id — the emission
    path never touches a symbol name.

    {b Memory discipline.}  The reduction interprets its compiled
    template in place: operand values go through the emitter's reusable
    {!Machine.Target.Operands} buffer, allocated registers through a
    reusable scratch array, prefixed tokens as ints into the driver's
    buffer, and no closure, list or diagnostic string is built per
    reduction.  What it allocates is what it emits — the code-buffer
    items; pressure messages and [--explain] notes are rendered only on
    those paths. *)
let reduce (t : t) ~(prod : int) ~(rhs : Driver.frame)
    ~(remap : (Grammar.sym -> int -> int) -> unit) : unit =
  let c =
    match Tables.compiled t.tables prod with
    | Some c -> c
    | None -> err "no compiled templates for production %d" prod
  in
  if t.explain then t.cur_origin <- describe t prod c;
  Regalloc.begin_reduction t.regs;
  (* 1. allocate all requested registers *)
  let allocs = c.Template.c_allocs and needs = c.Template.c_needs in
  let n_allocs = Array.length allocs in
  if n_allocs > Array.length t.allocs then t.allocs <- Array.make n_allocs 0;
  for i = 0 to n_allocs - 1 do
    t.allocs.(i) <-
      alloc_for t ~prod ~copy_on_write:false allocs.(i).Template.a_class
  done;
  for i = 0 to Array.length needs - 1 do
    serve_need t ~prod ~remap needs.(i)
  done;
  (* 2./3. fill in required values while interpreting the template
     sequence *)
  let mark = rhs.Driver.pre_n in
  let steps = c.Template.c_steps in
  for i = 0 to Array.length steps - 1 do
    step t ~prod c rhs steps.(i)
  done;
  (* 4. prefix LHS to input stream *)
  (match c.Template.c_push with
  | Some { push_sym; push_src } ->
      Driver.prefix rhs push_sym Driver.tag_reg (eval t rhs push_src)
  | None ->
      let g = t.tables.Tables.grammar in
      if (Grammar.prod g prod).Grammar.lhs = g.Grammar.lambda then
        Driver.prefix rhs g.Grammar.lambda Driver.tag_unit 0);
  (* 5. liveness: retain pushed registers, then release consumed RHS
     occurrences and the scratch allocations *)
  for i = mark to rhs.Driver.pre_n - 1 do
    let sym = rhs.Driver.pre_syms.(i) in
    if rhs.Driver.pre_tags.(i) = Driver.tag_reg && sym >= 0 then
      Regalloc.retain t.regs (bank_of_sym t sym) rhs.Driver.pre_vals.(i)
  done;
  for i = rhs.Driver.base to rhs.Driver.base + rhs.Driver.len - 1 do
    if rhs.Driver.tags.(i) = Driver.tag_reg then
      Regalloc.release t.regs
        (bank_of_sym t rhs.Driver.syms.(i))
        rhs.Driver.vals.(i)
  done;
  for i = 0 to n_allocs - 1 do
    Regalloc.release_allocation t.regs allocs.(i).Template.a_class t.allocs.(i)
  done;
  for i = 0 to Array.length needs - 1 do
    let req = needs.(i) in
    Regalloc.release t.regs
      (Regalloc.bank_of_class req.Template.n_class)
      req.Template.n_reg
  done

(** Finish the module: resolve labels and branches and emit loader
    records. *)
let finish ?(name = "MAIN") (t : t) :
    (Machine.Objmod.t * Loader_gen.resolved, string) result =
  if t.open_skips <> [] then Error "unterminated skip at end of module"
  else Loader_gen.to_objmod ~name ~target:(target t) t.buf

let listing (t : t) = Code_buffer.to_listing t.buf

(** The listing with every item annotated with the production (and its
    [using]/[need] directives) whose reduction emitted it — the paper's
    syntax-directed translation made visible.  Meaningful only on an
    emitter created with [~explain:true]. *)
let explanation (t : t) : string =
  let items = Code_buffer.items t.buf in
  let origins = List.rev t.origins in
  let b = Buffer.create 4096 in
  let rec go items origins =
    match (items, origins) with
    | [], _ -> ()
    | item :: items, origin :: origins ->
        Buffer.add_string b
          (Fmt.str "%-44s ; %s" (Fmt.str "%a" Code_buffer.pp_item item) origin);
        Buffer.add_char b '\n';
        go items origins
    | item :: items, [] ->
        (* unreachable when explain was on from creation; stay total *)
        Buffer.add_string b (Fmt.str "%a" Code_buffer.pp_item item);
        Buffer.add_char b '\n';
        go items []
  in
  go items origins;
  Buffer.contents b
