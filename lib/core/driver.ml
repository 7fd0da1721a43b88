(** The skeletal LR parser driving the generated code generator
    (paper section 3).

    The parser consumes the linearized IF.  On a reduction it calls the
    code emission routine, which prefixes tokens back onto the input
    stream (normally the production's LHS bound to the result register;
    possibly a converted odd register or a CSE's location).  Because
    non-terminal tokens are shifted like any others, no separate GOTO
    table exists.

    "If the specification of the code generator is correct, then the code
    generator cannot emit incorrect instruction sequences.  Instead it
    will stop and signal an error." — a [Parse_error] result carries the
    state and offending token.

    The driver is generic over its action source: [`Comb] (the default)
    probes the comb-packed table carried in {!Tables.t} via
    {!Compress.action_code}; [`Flat] indexes the uncompressed
    [action array array].  Both run the same skeleton; on well-formed IF
    they take identical actions (default reductions only ever replace
    error entries, so they can delay — never lose — error detection).

    {b Hot path memory discipline.}  Every token the loop handles is
    four ints in parallel arrays — a state, a symbol id, a value tag and
    a payload per translation-stack slot, the same minus the state per
    prefixed token — held in one {!frame}.  An input token is read
    lazily, when the parse first reaches it: its [sym] string is
    interned with a hash probe that allocates nothing, its value is
    coerced and checked once, and it waits in a four-int lookahead
    until it is shifted.  A shift is four array writes and an integer
    table probe.  A reduction hands the emitter the frame: the popped
    right-hand side stays in place on the stack, and the emitter writes
    the tokens it prefixes straight into the frame's prefix buffer.
    The parse allocates its frame and nothing per token. *)

type dispatch = Flat | Comb

(* value tags: the constructor of an [Ifl.Value.t], whose payload sits
   beside it as a plain int (0 for [Unit]) *)
let tag_unit = 0
let tag_int = 1
let tag_reg = 2
let tag_label = 3
let tag_cse = 4
let tag_cond = 5

let tag_of : Ifl.Value.t -> int = function
  | Ifl.Value.Unit -> tag_unit
  | Ifl.Value.Int _ -> tag_int
  | Ifl.Value.Reg _ -> tag_reg
  | Ifl.Value.Label _ -> tag_label
  | Ifl.Value.Cse _ -> tag_cse
  | Ifl.Value.Cond _ -> tag_cond

let payload_of : Ifl.Value.t -> int = function
  | Ifl.Value.Unit -> 0
  | Ifl.Value.Int n
  | Ifl.Value.Reg n
  | Ifl.Value.Label n
  | Ifl.Value.Cse n
  | Ifl.Value.Cond n ->
      n

let value_of ~tag n : Ifl.Value.t =
  if tag = tag_int then Ifl.Value.Int n
  else if tag = tag_reg then Ifl.Value.Reg n
  else if tag = tag_label then Ifl.Value.Label n
  else if tag = tag_cse then Ifl.Value.Cse n
  else if tag = tag_cond then Ifl.Value.Cond n
  else Ifl.Value.Unit

type frame = {
  mutable states : int array;
  mutable syms : int array;
  mutable tags : int array;
  mutable vals : int array;
  mutable sp : int;
  mutable base : int;
  mutable len : int;
  mutable pre_syms : int array;
  mutable pre_tags : int array;
  mutable pre_vals : int array;
  mutable pre_n : int;
}

type error = {
  position : int;
      (** index into the {e original} input of the offending token (the
          next original token still unconsumed when the parse blocked).
          Reduction-prefixed tokens do not advance it, so Flat and Comb
          dispatch agree on it even when default reductions delay the
          detection. *)
  state : int;
  token : Ifl.Token.t option;  (** [None] at end of input *)
  msg : string;
  expected : string list;
      (** symbols with an action in the blocked state, capped at 13
          entries during construction (the printer shows 12) *)
  bogus_reductions : int;
      (** reductions taken since the last {e original} input token was
          consumed: under Comb dispatch, how far default reductions
          (and the synthetic shifts they interleave) ran past the point
          where Flat dispatch would have stopped *)
}

let pp_error ppf e =
  Fmt.pf ppf "code generation blocked at input token %d%a in state %d: %s"
    e.position
    (Fmt.option (fun ppf t -> Fmt.pf ppf " (%a)" Ifl.Token.pp t))
    e.token e.state e.msg;
  if e.bogus_reductions > 0 then
    Fmt.pf ppf " (after %d speculative reduction%s)" e.bogus_reductions
      (if e.bogus_reductions = 1 then "" else "s");
  match e.expected with
  | [] -> ()
  | xs ->
      (* one traversal: [expected] is capped at 13 during construction,
         so more than 12 entries means "...and more" *)
      let rec take n = function
        | [] -> []
        | _ :: _ when n = 0 -> [ "..." ]
        | x :: tl -> x :: take (n - 1) tl
      in
      Fmt.pf ppf "@.expected one of: %s" (String.concat ", " (take 12 xs))

type outcome = {
  reductions : int;
  shifts : int;
  max_stack : int;
}

(* observability counters, flushed once per parse from the local
   statistics the hot loop already keeps (never bumped per token) *)
let m_parses = Metrics.sum "driver.parses"
let m_shifts = Metrics.sum "driver.shifts"
let m_reductions = Metrics.sum "driver.reductions"
let m_errors = Metrics.sum "driver.errors"
let m_delayed = Metrics.sum "driver.delayed_error_runs"
let m_max_stack = Metrics.high_water "driver.max_stack"
let m_prepared = Metrics.sum "driver.prepared_tokens"

(* the frame's arrays grow by doubling; the hot path is push/pop at the
   top, plus the occasional in-place [remap] sweep over the live part *)
let grow arr n =
  let narr = Array.make (max n (2 * Array.length arr)) 0 in
  Array.blit arr 0 narr 0 (Array.length arr);
  narr

let create_frame () =
  {
    states = Array.make 64 0;
    syms = Array.make 64 0;
    tags = Array.make 64 0;
    vals = Array.make 64 0;
    sp = 0;
    base = 0;
    len = 0;
    pre_syms = Array.make 16 0;
    pre_tags = Array.make 16 0;
    pre_vals = Array.make 16 0;
    pre_n = 0;
  }

let push fr state sym tag v =
  let sp = fr.sp in
  if sp = Array.length fr.states then begin
    fr.states <- grow fr.states (sp + 1);
    fr.syms <- grow fr.syms (sp + 1);
    fr.tags <- grow fr.tags (sp + 1);
    fr.vals <- grow fr.vals (sp + 1)
  end;
  Array.unsafe_set fr.states sp state;
  Array.unsafe_set fr.syms sp sym;
  Array.unsafe_set fr.tags sp tag;
  Array.unsafe_set fr.vals sp v;
  fr.sp <- sp + 1

let prefix fr sym tag v =
  let n = fr.pre_n in
  if n = Array.length fr.pre_syms then begin
    fr.pre_syms <- grow fr.pre_syms (n + 1);
    fr.pre_tags <- grow fr.pre_tags (n + 1);
    fr.pre_vals <- grow fr.pre_vals (n + 1)
  end;
  Array.unsafe_set fr.pre_syms n sym;
  Array.unsafe_set fr.pre_tags n tag;
  Array.unsafe_set fr.pre_vals n v;
  fr.pre_n <- n + 1

let swap (a : int array) i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

(* a reduction's prefixed tokens [i, j] arrived first-consumed-first;
   the buffer is a stack with the next token on top, so reverse them *)
let rec reverse_prefixed fr i j =
  if i < j then begin
    swap fr.pre_syms i j;
    swap fr.pre_tags i j;
    swap fr.pre_vals i j;
    reverse_prefixed fr (i + 1) (j - 1)
  end

(* Delayed error detection (comb dispatch with default reductions) can
   take a bounded run of bogus reductions before blocking; this cap turns
   a hypothetical reduction livelock on malformed IF into a clean parse
   error instead of a hang. *)
let max_reductions_between_shifts = 100_000

(* shaper convenience: integer-valued tokens are coerced to the kind the
   grammar symbol declares (register binding, label, CSE number,
   condition mask); returns the coerced tag *)
let coerce (tables : Tables.t) sym tag =
  if tag <> tag_int then tag
  else
    match Tables.class_of tables sym with
    | Some (Symtab.Gpr | Symtab.Pair | Symtab.Fpr | Symtab.Fpair) -> tag_reg
    | _ -> (
        match Tables.kind_of tables sym with
        | Some Symtab.Klabel -> tag_label
        | Some Symtab.Kcse -> tag_cse
        | Some Symtab.Kcond -> tag_cond
        | _ -> tag)

(* the value discipline: terminals must carry the declared value kind,
   register non-terminals a register binding naming a real machine
   register of the class (the allocator's banks are 16 general and 8
   floating registers; pair classes cover a partner register too) *)
let violation (tables : Tables.t) sym tag v : string option =
  let kind_ok =
    match Tables.kind_of tables sym with
    | Some Symtab.Kint -> tag = tag_int || tag = tag_unit
    | Some Symtab.Klabel -> tag = tag_label
    | Some Symtab.Kcse -> tag = tag_cse
    | Some Symtab.Kcond -> tag = tag_cond
    | None -> true
  in
  let class_ok =
    match Tables.class_of tables sym with
    | Some Symtab.Gpr -> tag = tag_reg && v >= 0 && v <= 15
    | Some Symtab.Pair -> tag = tag_reg && v >= 0 && v <= 14
    | Some Symtab.Fpr -> tag = tag_reg && v >= 0 && v <= 7
    | Some Symtab.Fpair -> tag = tag_reg && v >= 0 && v <= 5
    (* a register payload on a class-less symbol is still released into
       the general bank at reduction time, so it must be a real register
       number *)
    | Some (Symtab.Cc | Symtab.Noclass) | None ->
        tag <> tag_reg || (v >= 0 && v <= 15)
  in
  if not kind_ok then
    Some "token value does not match the terminal's declared kind"
  else if not class_ok then
    Some
      (if tag = tag_reg then "register binding out of machine range"
       else "register non-terminal token without a register binding")
  else None

let parse ?(dispatch = Comb) (tables : Tables.t)
    ~(reduce :
       prod:int ->
       rhs:frame ->
       remap:((Grammar.sym -> int -> int) -> unit) ->
       unit)
    (input : Ifl.Token.t list) : (outcome, error) result =
  let g = tables.Tables.grammar in
  let pt = tables.Tables.parse in
  let n_syms = Grammar.n_syms g in
  (* the action source, as encoded entries (Compress encoding); the comb
     path reads the packed int directly, the flat path encodes the
     variant (both allocation-free) *)
  let lookup : int -> int -> int =
    match dispatch with
    | Comb -> Compress.dispatcher tables.Tables.compressed
    | Flat ->
        let actions = pt.Parse_table.actions in
        fun state sym -> Compress.encode_action actions.(state).(sym)
  in
  let fr = create_frame () in
  (* -- the original input, read lazily --------------------------------
     [la_*] hold the next original token once the parse has reached it;
     [cursor] counts the originals shifted, and is the reported error
     [position].  [at_eof] is set once the end marker has been read. *)
  let rest = ref input in
  let at_eof = ref false in
  let la_loaded = ref false in
  let la_sym = ref 0 and la_tag = ref 0 and la_val = ref 0 in
  let cursor = ref 0 in
  (* register remaps a [need] transfer made before a token was read, in
     the order made (newest first); empty on every real compile *)
  let pending : (Grammar.sym -> int -> int) list ref = ref [] in
  (* prefixed tokens that fail interning or the value discipline get a
     negative sym indexing [bad]; the parse reports one only when the
     skeleton reaches it *)
  let bad : (Ifl.Token.t * string) list ref = ref [] in
  let n_bad = ref 0 in
  let bad_entry k = List.nth !bad (!n_bad - 1 - k) in
  push fr pt.Parse_table.automaton.Lr0.start min_int tag_unit 0;
  let shifts = ref 0 and reductions = ref 0 and max_stack = ref 1 in
  let reduce_run = ref 0 in
  let flush_metrics ~failed =
    if Metrics.enabled () then begin
      Metrics.add m_parses 1;
      (* every input token and the end marker, read or not, as when the
         whole input was prepared up front *)
      Metrics.add m_prepared (List.length input + 1);
      Metrics.add m_shifts !shifts;
      Metrics.add m_reductions !reductions;
      Metrics.peak m_max_stack !max_stack;
      if failed then begin
        Metrics.add m_errors 1;
        if !reduce_run > 0 then Metrics.add m_delayed 1
      end
    end
  in
  let remap f =
    for i = 0 to fr.sp - 1 do
      if fr.tags.(i) = tag_reg then fr.vals.(i) <- f fr.syms.(i) fr.vals.(i)
    done;
    for i = 0 to fr.pre_n - 1 do
      if fr.pre_tags.(i) = tag_reg && fr.pre_syms.(i) >= 0 then
        fr.pre_vals.(i) <- f fr.pre_syms.(i) fr.pre_vals.(i)
    done;
    if !la_loaded && !la_tag = tag_reg then la_val := f !la_sym !la_val;
    pending := f :: !pending
  in
  let fail state token msg =
    (* cap the expected-symbols list during construction: the printer
       shows at most 12, so anything past 13 is never observable *)
    let expected =
      let acc = ref [] and count = ref 0 and s = ref 0 in
      while !count < 13 && !s < n_syms do
        if
          Parse_table.action pt state !s <> Parse_table.Error
          && g.Grammar.in_if.(!s)
        then begin
          acc := Grammar.name g !s :: !acc;
          incr count
        end;
        incr s
      done;
      List.rev !acc
    in
    flush_metrics ~failed:true;
    Trace.instant "driver.error"
      ~args:
        [ ("state", string_of_int state); ("position", string_of_int !cursor) ];
    Error
      {
        position = !cursor;
        state;
        token;
        msg;
        expected;
        bogus_reductions = !reduce_run;
      }
  in
  let token_of sym tag v =
    Some { Ifl.Token.sym = Grammar.name g sym; value = value_of ~tag v }
  in
  (* the one-time coercion and discipline check of the prefixed tokens
     [lo, pre_n) (no hashing: emitters push interned ids, normally with
     well-formed register bindings) *)
  let reject i tok msg =
    bad := (tok, msg) :: !bad;
    incr n_bad;
    fr.pre_syms.(i) <- - !n_bad
  in
  let check_prefixed lo =
    for i = lo to fr.pre_n - 1 do
      let sym = fr.pre_syms.(i) in
      let tag = fr.pre_tags.(i) and v = fr.pre_vals.(i) in
      if sym < 0 || sym >= n_syms then
        reject i
          { Ifl.Token.sym = "<uninterned>"; value = value_of ~tag v }
          "symbol is not part of the machine grammar"
      else
        let tag = coerce tables sym tag in
        fr.pre_tags.(i) <- tag;
        match violation tables sym tag v with
        | None -> ()
        | Some msg ->
            reject i
              { Ifl.Token.sym = Grammar.name g sym; value = value_of ~tag v }
              msg
    done
  in
  let rec loop () =
    let state = fr.states.(fr.sp - 1) in
    if fr.pre_n > 0 then begin
      let i = fr.pre_n - 1 in
      let sym = fr.pre_syms.(i) in
      if sym < 0 then
        let t, msg = bad_entry (-sym - 1) in
        fail state (Some t) msg
      else step state true sym fr.pre_tags.(i) fr.pre_vals.(i)
    end
    else if !la_loaded then step state false !la_sym !la_tag !la_val
    else read state
  (* reach the next original token: intern, coerce and check it once *)
  and read state =
    match !rest with
    | tok :: tl -> (
        rest := tl;
        let sym = Grammar.id g tok.Ifl.Token.sym in
        if sym < 0 then
          fail state (Some tok) "symbol is not part of the machine grammar"
        else
          let value = tok.Ifl.Token.value in
          let tag = coerce tables sym (tag_of value) in
          let v = payload_of value in
          match violation tables sym tag v with
          | Some msg ->
              fail state
                (Some { tok with Ifl.Token.value = value_of ~tag v })
                msg
          | None ->
              let v =
                if tag = tag_reg && !pending <> [] then
                  List.fold_right (fun f v -> f sym v) !pending v
                else v
              in
              la_sym := sym;
              la_tag := tag;
              la_val := v;
              la_loaded := true;
              step state false sym tag v)
    | [] ->
        if !at_eof then fail state None "input exhausted without accept"
        else begin
          at_eof := true;
          la_sym := g.Grammar.eof;
          la_tag := tag_unit;
          la_val := 0;
          la_loaded := true;
          step state false g.Grammar.eof tag_unit 0
        end
  and step state from_pre sym tag v =
    (* encoded entry: 0 error, 1 accept, even shift, odd reduce *)
    let a = lookup state sym in
    if a = 0 then
      fail state (token_of sym tag v)
        "no action (invalid IF for this machine grammar)"
    else if a = 1 then begin
      flush_metrics ~failed:false;
      Ok { reductions = !reductions; shifts = !shifts; max_stack = !max_stack }
    end
    else if a land 1 = 0 then begin
      (* shift: four array writes, no allocation *)
      push fr ((a - 2) / 2) sym tag v;
      if from_pre then fr.pre_n <- fr.pre_n - 1
      else begin
        (* an original input token, not a reduction-prefixed one;
           consuming it also ends any speculative reduction run
           (synthetic LHS shifts interleave default-reduction runs, so
           resetting on every shift would undercount the speculation) *)
        la_loaded := false;
        incr cursor;
        reduce_run := 0
      end;
      incr shifts;
      if fr.sp > !max_stack then max_stack := fr.sp;
      loop ()
    end
    else begin
      (* reduce *)
      let p = (a - 3) / 2 in
      incr reductions;
      incr reduce_run;
      if !reduce_run > max_reductions_between_shifts then
        fail state (token_of sym tag v) "reduction livelock (invalid IF)"
      else begin
        let prod = Grammar.prod g p in
        let n = Array.length prod.Grammar.rhs in
        if n > fr.sp - 1 then
          (* only reachable through delayed error detection *)
          fail state (token_of sym tag v)
            "translation stack underflow (invalid IF)"
        else begin
          (* the RHS stays in place above the new top of stack *)
          let base = fr.sp - n in
          fr.sp <- base;
          fr.base <- base;
          fr.len <- n;
          let mark = fr.pre_n in
          if Tables.is_user_prod tables p then reduce ~prod:p ~rhs:fr ~remap
          else
            (* augmentation production: prefix the bare LHS *)
            prefix fr prod.Grammar.lhs tag_unit 0;
          reverse_prefixed fr mark (fr.pre_n - 1);
          check_prefixed mark;
          loop ()
        end
      end
    end
  in
  loop ()
