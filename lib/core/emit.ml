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
}

let create ?(strategy = Regalloc.Lru) ?(explain = false) (tables : Tables.t)
    : t =
  let intern n =
    match Grammar.sym tables.Tables.grammar n with Some s -> s | None -> -1
  in
  {
    tables;
    regs = Regalloc.create ~strategy ();
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

let record_origin t note =
  if t.explain then
    t.origins <-
      (match note with
      | None -> t.cur_origin
      | Some n -> t.cur_origin ^ " — " ^ n)
      :: t.origins

let append_instruction ?note t item =
  Code_buffer.add t.buf item;
  record_origin t note;
  let still_open = ref [] in
  List.iter
    (fun (count, lbl) ->
      decr count;
      if !count <= 0 then begin
        Code_buffer.add t.buf (Code_buffer.Label_def lbl);
        record_origin t (Some "skip target")
      end
      else still_open := (count, lbl) :: !still_open)
    t.open_skips;
  t.open_skips <- List.rev !still_open

let append_data ?note t item =
  Code_buffer.add t.buf item;
  record_origin t note

(* -- banks and classes ----------------------------------------------------- *)

let class_of_src t (c : Template.compiled) (rhs_syms : Grammar.sym array)
    (s : Template.src) : Symtab.reg_class =
  let rec go = function
    | Template.Alloc i -> c.Template.c_allocs.(i).Template.a_class
    | Template.Phys r -> (
        match
          Array.find_opt (fun (n : Template.need_req) -> n.n_reg = r)
            c.Template.c_needs
        with
        | Some n -> n.Template.n_class
        | None -> Symtab.Gpr)
    | Template.Stack k -> (
        match Tables.class_of t.tables rhs_syms.(k) with
        | Some cls -> cls
        | None -> Symtab.Gpr)
    | Template.Plus (s, _) -> go s
    | Template.Lit _ -> Symtab.Gpr
  in
  go s

let bank_of_sym t sym : Regalloc.bank =
  match Tables.bank_of t.tables sym with
  | Some b -> b
  | None -> Regalloc.Gp

(* -- target hooks ----------------------------------------------------------- *)

let target t = t.tables.Tables.target

(* -- CSE helpers ----------------------------------------------------------- *)

(* save an evicted CSE register to its temporary *)
let save_cse t (ev : Regalloc.evicted) =
  match Cse.find t.cse ev.Regalloc.ev_cse with
  | None -> err "evicted register bound to unknown CSE %d" ev.Regalloc.ev_cse
  | Some entry ->
      append_instruction t
        ~note:(Fmt.str "spill: save CSE %d to its temporary" entry.Cse.id)
        (Code_buffer.Fixed
           ((target t).Machine.Target.spill_store ~fp:entry.Cse.fp
              ~reg:ev.Regalloc.ev_reg ~dsp:entry.Cse.temp_dsp
              ~base:entry.Cse.temp_base));
      Cse.to_memory t.cse entry.Cse.id

(* -- instruction building --------------------------------------------------- *)

let build_insn t (mnem : string) (vals : (int * int list) list) :
    Machine.Insn.t =
  (* vals: per operand, (base value, sub values); shape checking happened
     at table-construction time against the same target *)
  match (target t).Machine.Target.build_insn ~mnem vals with
  | Ok i -> i
  | Error m -> err "%s" m

(* -- the reduction --------------------------------------------------------- *)

(** Code emission for one reduction.  Matches {!Driver.parse}'s [reduce]
    callback signature: the popped tokens arrive already interned, and
    every token pushed back carries its grammar id directly — the
    emission path never touches a symbol name. *)
let reduce (t : t) ~(prod : int) ~(rhs : Driver.ptoken array)
    ~(remap : (Driver.ptoken -> Driver.ptoken) -> unit) : Driver.ptoken list =
  let g = t.tables.Tables.grammar in
  let p = Grammar.prod g prod in
  let rhs_syms = Array.map (fun (tok : Driver.ptoken) -> tok.Driver.psym) rhs in
  let c =
    match Tables.compiled t.tables prod with
    | Some c -> c
    | None -> err "no compiled templates for production %d" prod
  in
  (* the production responsible for everything this reduction emits; also
     the context attached to any register-pressure failure below *)
  let prod_desc =
    lazy (Fmt.str "production %d (%s)" prod (Grammar.prod_to_string g p))
  in
  if t.explain then begin
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
    t.cur_origin <-
      Fmt.str "p%d %s%s" prod (Grammar.prod_to_string g p)
        (match dirs with
        | [] -> ""
        | ds -> "  [" ^ String.concat "; " ds ^ "]")
  end;
  (* allocation with diagnosable failure: re-raise Pressure enriched with
     the directive and production that triggered the exhaustion *)
  let alloc_for ~directive cls =
    match Regalloc.alloc t.regs cls with
    | res -> res
    | exception Regalloc.Pressure m ->
        let m =
          Fmt.str "%s — while serving '%s' of %s" m directive
            (Lazy.force prod_desc)
        in
        Trace.instant "regalloc.pressure" ~args:[ ("detail", m) ];
        Metrics.add m_pressure_failures 1;
        raise (Regalloc.Pressure m)
  in
  Regalloc.begin_reduction t.regs;
  (* 1. allocate all requested registers *)
  let allocs =
    Array.map
      (fun (req : Template.alloc_req) ->
        let reg, evicted =
          alloc_for
            ~directive:
              (Fmt.str "using %a" Symtab.pp_reg_class req.Template.a_class)
            req.Template.a_class
        in
        Option.iter (save_cse t) evicted;
        reg)
      c.Template.c_allocs
  in
  Array.iter
    (fun (req : Template.need_req) ->
      match Regalloc.need t.regs req.Template.n_class req.Template.n_reg with
      | Error m ->
          let m =
            Fmt.str "%s — while serving 'need r%d' (%a) of %s" m
              req.Template.n_reg Symtab.pp_reg_class req.Template.n_class
              (Lazy.force prod_desc)
          in
          Trace.instant "regalloc.pressure" ~args:[ ("detail", m) ];
          Metrics.add m_pressure_failures 1;
          err "%s" m
      | Ok (transfer, evicted) ->
          Option.iter (save_cse t) evicted;
          Option.iter
            (fun (tr : Regalloc.transfer) ->
              (* move the old contents and rebind the translation stack *)
              let bank = Regalloc.bank_of_class req.Template.n_class in
              append_instruction t
                ~note:
                  (Fmt.str "need r%d: transfer old contents to r%d"
                     tr.Regalloc.tr_from tr.Regalloc.tr_to)
                (Code_buffer.Fixed
                   ((target t).Machine.Target.reg_move
                      ~fp:(bank = Regalloc.Fp) ~dst:tr.Regalloc.tr_to
                      ~src:tr.Regalloc.tr_from));
              remap (fun (tok : Driver.ptoken) ->
                  match tok.Driver.pvalue with
                  | Ifl.Value.Reg r
                    when r = tr.Regalloc.tr_from
                         && tok.Driver.psym >= 0
                         && bank_of_sym t tok.Driver.psym = bank ->
                      { tok with Driver.pvalue = Ifl.Value.Reg tr.Regalloc.tr_to }
                  | _ -> tok);
              Hashtbl.iter
                (fun _ (e : Cse.entry) ->
                  match e.Cse.residence with
                  | Cse.In_reg r when r = tr.Regalloc.tr_from ->
                      e.Cse.residence <- Cse.In_reg tr.Regalloc.tr_to
                  | _ -> ())
                t.cse.Cse.entries)
            transfer)
    c.Template.c_needs;
  (* 2. fill in required values *)
  let rec eval (s : Template.src) : int =
    match s with
    | Template.Stack k -> (
        match rhs.(k).Driver.pvalue with
        | Ifl.Value.Unit -> err "template references valueless RHS slot %d" k
        | v -> Ifl.Value.to_int v)
    | Template.Alloc i -> allocs.(i)
    | Template.Phys r -> r
    | Template.Lit n -> n
    | Template.Plus (s, k) -> eval s + k
  in
  let pushed = ref [] (* tokens to prefix, reversed *) in
  let push_token sym reg =
    pushed := Driver.ptok ~value:(Ifl.Value.Reg reg) sym :: !pushed
  in
  (* 3. interpret the template sequence *)
  Array.iter
    (fun (step : Template.step) ->
      match step with
      | Template.Instr { mnem; ops } ->
          let vals =
            List.map
              (fun (o : Template.operand) ->
                (eval o.Template.base, List.map eval o.Template.subs))
              ops
          in
          append_instruction t (Code_buffer.Fixed (build_insn t mnem vals))
      | Template.Modifies src ->
          let cls = class_of_src t c rhs_syms src in
          let bank = Regalloc.bank_of_class cls in
          (* Copy-on-write: the template is about to destroy the register
             in place.  If other live references exist (another RHS slot
             aliases it through a CSE, or the register still holds a CSE
             with pending uses), the production's own operand moves to a
             fresh register first. *)
          (match src with
          | Template.Stack k ->
              let r = eval src in
              let claims = ref 0 in
              Array.iteri
                (fun i (tok : Driver.ptoken) ->
                  match tok.Driver.pvalue with
                  | Ifl.Value.Reg r'
                    when r' = r
                         && Option.map Regalloc.bank_of_class
                              (Tables.class_of t.tables rhs_syms.(i))
                            = Some bank ->
                      incr claims
                  | _ -> ())
                rhs;
              if
                Regalloc.is_busy t.regs bank r
                && Regalloc.use_count t.regs bank r > !claims
              then begin
                let fresh, evicted =
                  alloc_for ~directive:"modifies (copy-on-write)" cls
                in
                Option.iter (save_cse t) evicted;
                append_instruction t ~note:"modifies: copy-on-write of a shared register"
                  (Code_buffer.Fixed
                     ((target t).Machine.Target.reg_move
                        ~fp:(bank = Regalloc.Fp) ~dst:fresh ~src:r));
                rhs.(k) <-
                  { rhs.(k) with Driver.pvalue = Ifl.Value.Reg fresh };
                Regalloc.release t.regs bank r
              end
          | _ -> ());
          let r = eval src in
          Option.iter
            (fun cse_id ->
              match Cse.find t.cse cse_id with
              | Some entry when entry.Cse.remaining > 0 ->
                  (* save the CSE before the register is clobbered; its
                     remaining uses will reload from the temporary, so
                     their share of the use count is dropped *)
                  t.cse_invalidations <- t.cse_invalidations + 1;
                  append_instruction t
                    ~note:(Fmt.str "modifies: save CSE %d before clobber" cse_id)
                    (Code_buffer.Fixed
                       ((target t).Machine.Target.spill_store ~fp:entry.Cse.fp
                          ~reg:r ~dsp:entry.Cse.temp_dsp
                          ~base:entry.Cse.temp_base));
                  Cse.to_memory t.cse cse_id;
                  Regalloc.drop_cse_shares t.regs bank r
              | Some _ ->
                  t.cse_invalidations <- t.cse_invalidations + 1;
                  Cse.to_memory t.cse cse_id
              | None -> ())
            (Regalloc.touch t.regs bank r)
      | Template.Ignore_lhs -> ()
      | Template.Label_location src ->
          append_data t (Code_buffer.Label_def (Code_buffer.User (eval src)))
      | Template.Label_ptr src ->
          append_data t (Code_buffer.Word_label (Code_buffer.User (eval src)))
      | Template.Branch { cond; lbl; idx } ->
          append_instruction t
            (Code_buffer.Branch_site
               {
                 mask = eval cond;
                 lbl = Code_buffer.User (eval lbl);
                 idx = eval idx;
                 x = 0;
               })
      | Template.Branch_indexed { cond; lbl; idx; index } ->
          append_instruction t
            (Code_buffer.Branch_site
               {
                 mask = eval cond;
                 lbl = Code_buffer.User (eval lbl);
                 idx = eval idx;
                 x = eval index;
               })
      | Template.Skip { cond; dist; idx } ->
          let lbl = Code_buffer.Internal t.next_internal in
          t.next_internal <- t.next_internal + 1;
          let d = eval dist in
          append_instruction t
            (Code_buffer.Branch_site
               { mask = eval cond; lbl; idx = eval idx; x = 0 });
          if d - 1 <= 0 then append_data t (Code_buffer.Label_def lbl)
          else t.open_skips <- (ref (d - 1), lbl) :: t.open_skips
      | Template.Case_load { reg; lbl; idx } ->
          append_instruction t
            (Code_buffer.Case_site
               { reg = eval reg; lbl = Code_buffer.User (eval lbl); idx = eval idx })
      | Template.Push { sym; value } -> push_token sym (eval value)
      | Template.Ibm_length src ->
          let v = eval src in
          if v < 1 || v > 256 then
            err "IBM_length: %d outside the machine's 1..256 range" v
      | Template.Stmt_record src ->
          t.stmt_records <-
            (eval src, Code_buffer.n_instructions t.buf) :: t.stmt_records
      | Template.List_request src -> t.list_requests <- eval src :: t.list_requests
      | Template.Abort src ->
          List.iter
            (fun i -> append_instruction t (Code_buffer.Fixed i))
            ((target t).Machine.Target.abort_insns ~errno:(eval src))
      | Template.Common { ty; fp; cse; cnt; reg; dsp; base } ->
          let id = eval cse and count = eval cnt and r = eval reg in
          Cse.define t.cse ~id ~ty ~fp ~count ~reg:r ~temp_dsp:(eval dsp)
            ~temp_base:(eval base);
          let bank = if fp then Regalloc.Fp else Regalloc.Gp in
          Regalloc.retain ~count t.regs bank r;
          Regalloc.bind_cse ~shares:count t.regs bank r id
      | Template.Find_common { cse; fp = _; push_sym } -> (
          let id = eval cse in
          match Cse.find t.cse id with
          | None -> err "find_common: CSE %d was never defined" id
          | Some entry ->
              Cse.consume t.cse id;
              (match entry.Cse.residence with
              | Cse.In_reg r ->
                  (* the reserved share becomes the stack reference the
                     push below retains *)
                  t.cse_hits <- t.cse_hits + 1;
                  Regalloc.consume_cse_share t.regs
                    (if entry.Cse.fp then Regalloc.Fp else Regalloc.Gp)
                    r;
                  push_token push_sym r
              | Cse.In_mem -> (
                  t.cse_reloads <- t.cse_reloads + 1;
                  match entry.Cse.ty with
                  | None ->
                      err "find_common: CSE %d has no reload type operator" id
                  | Some ty ->
                      (* prefix the address of the temporary; the ordinary
                         load productions bring it back *)
                      pushed :=
                        Driver.ptok ~value:(Ifl.Value.Reg entry.Cse.temp_base)
                          t.reload_reg
                        :: Driver.ptok ~value:(Ifl.Value.Int entry.Cse.temp_dsp)
                             t.reload_dsp
                        :: Driver.ptok ty
                        :: !pushed))))
    c.Template.c_steps;
  (* 4. prefix LHS to input stream *)
  (match c.Template.c_push with
  | Some { push_sym; push_src } -> push_token push_sym (eval push_src)
  | None ->
      if p.Grammar.lhs = g.Grammar.lambda then
        pushed := Driver.ptok g.Grammar.lambda :: !pushed);
  let result = List.rev !pushed in
  (* 5. liveness: retain pushed registers, then release consumed RHS
     occurrences and the scratch allocations *)
  List.iter
    (fun (tok : Driver.ptoken) ->
      match tok.Driver.pvalue with
      | Ifl.Value.Reg r when tok.Driver.psym >= 0 ->
          Regalloc.retain t.regs (bank_of_sym t tok.Driver.psym) r
      | _ -> ())
    result;
  Array.iteri
    (fun k (tok : Driver.ptoken) ->
      match tok.Driver.pvalue with
      | Ifl.Value.Reg r -> Regalloc.release t.regs (bank_of_sym t rhs_syms.(k)) r
      | _ -> ())
    rhs;
  Array.iteri
    (fun i (req : Template.alloc_req) ->
      let bank = Regalloc.bank_of_class req.Template.a_class in
      List.iter
        (fun r -> Regalloc.release t.regs bank r)
        (Regalloc.covered req.Template.a_class allocs.(i)))
    c.Template.c_allocs;
  Array.iter
    (fun (req : Template.need_req) ->
      Regalloc.release t.regs
        (Regalloc.bank_of_class req.Template.n_class)
        req.Template.n_reg)
    c.Template.c_needs;
  result

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
