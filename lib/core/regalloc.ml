(** The code generator's register allocation routine (paper section 4.1).

    - [using] allocates any register of a class; [need] obtains a specific
      register, transferring its current contents to another register of
      the class if busy (the caller emits the [lr] and rebinds the
      translation stack).
    - Allocation is least-recently-used by a global usage index bumped at
      every reduction, "in an attempt to reduce operand contention in the
      pipeline"; round-robin and first-free strategies exist for the
      ablation benchmark.
    - Registers carry use counts: consuming an RHS occurrence decrements,
      pushing a result increments; a count of zero frees the register.
    - A register holding a common subexpression can be evicted (the caller
      stores it to the CSE's temporary); a register holding a live
      intermediate result cannot, and exhausting the pool on live values
      raises [Pressure]. *)

type bank = Gp | Fp

let bank_of_class : Symtab.reg_class -> bank = function
  | Symtab.Fpr | Symtab.Fpair -> Fp
  | Symtab.Gpr | Symtab.Pair | Symtab.Cc | Symtab.Noclass -> Gp

type strategy = Lru | Round_robin | First_free

let strategy_name = function
  | Lru -> "lru"
  | Round_robin -> "round-robin"
  | First_free -> "first-free"

type config = {
  gpr_pool : int list;
  pair_pool : int list;  (** even members; the odd partner is implied *)
  fpr_pool : int list;
  fpair_pool : int list;  (** quad pairs: f and f+2 *)
}

(** Pool matching the project's register conventions (r13 frame, r10 PSA,
    r12 code base, r0 zero, r14/r15 linkage via [need]). *)
let default_config =
  {
    gpr_pool = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 11 ];
    pair_pool = [ 2; 4; 6; 8 ];
    fpr_pool = [ 0; 2; 4; 6 ];
    fpair_pool = [ 0; 4 ];
  }

type reg = {
  mutable busy : bool;
  mutable use_count : int;
  mutable usage_index : int;
  mutable cse : int option;  (** CSE whose value this register holds *)
  mutable cse_shares : int;
      (** how much of [use_count] is reserved for future CSE uses; the
          rest are live translation-stack references *)
}

type stats = {
  mutable n_allocs : int;
  mutable n_evictions : int;
  mutable n_transfers : int;
  mutable reuse_sum : int;
      (** total usage-index distance at allocation, over every register
          allocated: the pipeline-contention proxy *)
  mutable reuse_count : int;  (** registers the distances were taken over *)
  mutable gp_peak : int;  (** most general registers ever busy at once *)
  mutable fp_peak : int;  (** most floating registers ever busy at once *)
}

type t = {
  config : config;
  strategy : strategy;
  gprs : reg array;
  fprs : reg array;
  gpr_pool : int array;
  pair_pool : int array;
  fpr_pool : int array;
  fpair_pool : int array;
  fp_prefix : char;
  mutable global_index : int;
  mutable cursor : int;
  stats : stats;
}

exception Pressure of string

let create ?(config = default_config) ?(strategy = Lru) ?(fp_prefix = 'r') () =
  let mk n = Array.init n (fun _ ->
      { busy = false; use_count = 0; usage_index = 0; cse = None;
        cse_shares = 0 })
  in
  {
    config;
    strategy;
    gprs = mk 16;
    fprs = mk 8;
    gpr_pool = Array.of_list config.gpr_pool;
    pair_pool = Array.of_list config.pair_pool;
    fpr_pool = Array.of_list config.fpr_pool;
    fpair_pool = Array.of_list config.fpair_pool;
    fp_prefix;
    global_index = 0;
    cursor = 0;
    stats =
      {
        n_allocs = 0;
        n_evictions = 0;
        n_transfers = 0;
        reuse_sum = 0;
        reuse_count = 0;
        gp_peak = 0;
        fp_peak = 0;
      };
  }

let regs t = function Gp -> t.gprs | Fp -> t.fprs

let pool t = function
  | Symtab.Gpr -> t.gpr_pool
  | Symtab.Pair -> t.pair_pool
  | Symtab.Fpr -> t.fpr_pool
  | Symtab.Fpair -> t.fpair_pool
  | Symtab.Cc | Symtab.Noclass -> [||]

(* An allocation of class [cls] rooted at [r] occupies [r] and, for the
   pair classes, its partner [r + partner cls] (the odd register of a
   pair, the high half of a quad); [partner] is 0 for single registers. *)
let partner = function Symtab.Pair -> 1 | Symtab.Fpair -> 2 | _ -> 0

(* the occupied registers as a list, for the pressure diagnostic *)
let covered cls r = match partner cls with 0 -> [ r ] | p -> [ r; r + p ]

let in_any_pool t bank r =
  match bank with
  | Fp -> List.mem r t.config.fpr_pool || List.mem r t.config.fpair_pool
          || List.mem (r - 2) t.config.fpair_pool
  | Gp ->
      List.mem r t.config.gpr_pool
      || List.mem r t.config.pair_pool
      || List.exists (fun e -> r = e + 1) t.config.pair_pool

(** Bump the global usage index; called once per reduction. *)
let begin_reduction t = t.global_index <- t.global_index + 1

(* -- selection ----------------------------------------------------------------
   Every predicate below reads the register file in place: one
   allocation scans its class's pool array a bounded number of times and
   allocates nothing but its result. *)

(* [r] and its partner (pair step [p]) are both free *)
let span_free (regs : reg array) r p =
  (not regs.(r).busy) && (p = 0 || not regs.(r + p).busy)

(* [r] is one half of a fully free pair of [pairs] (partner step [step]) *)
let breaks_free_pair regs (pairs : int array) step r =
  let hit = ref false in
  for i = 0 to Array.length pairs - 1 do
    let e = pairs.(i) in
    if (r = e || r = e + step) && span_free regs e step then hit := true
  done;
  !hit

let free_pairs regs (pairs : int array) step =
  let n = ref 0 in
  for i = 0 to Array.length pairs - 1 do
    if span_free regs pairs.(i) step then incr n
  done;
  !n

(* free, or a CSE-bound register whose every reference is a reserved
   share *)
let takeable st =
  (not st.busy) || (st.cse <> None && st.use_count <= st.cse_shares)

(* the whole span can be taken by evicting the CSE(s) it holds *)
let span_evictable regs r p =
  takeable regs.(r)
  && (p = 0 || takeable regs.(r + p))
  && (regs.(r).cse <> None || (p > 0 && regs.(r + p).cse <> None))

(* the pair class a single-register request of [cls] protects *)
let protected_class = function
  | Symtab.Gpr -> Symtab.Pair
  | Symtab.Fpr -> Symtab.Fpair
  | c -> c

(* Which pool members a pick chooses among: the free ones; the free ones
   that do not break up a fully free pair of the protected class; or,
   once nothing is free, the ones held only by evictable CSEs. *)
type choice = Free | Preserving | Evictable

let candidate t regs cls choice r =
  let p = partner cls in
  match choice with
  | Free -> span_free regs r p
  | Preserving ->
      let pcls = protected_class cls in
      span_free regs r p
      && not (breaks_free_pair regs (pool t pcls) (partner pcls) r)
  | Evictable -> span_evictable regs r p

(* single-register requests prefer registers that do not break up a fully
   free even/odd pair, so multiplies and divides can still find one (Fpr
   requests likewise protect quad pairs); only once such pairs become
   scarce, so simple programs still see the natural r1, r2, ... order *)
let choose t regs cls =
  let pcls = protected_class cls in
  match cls with
  | Symtab.Gpr | Symtab.Fpr
    when free_pairs regs (pool t pcls) (partner pcls) <= 2 ->
    let pool = pool t cls and any = ref false in
    for i = 0 to Array.length pool - 1 do
      if candidate t regs cls Preserving pool.(i) then any := true
    done;
    if !any then Preserving else Free
  | _ -> Free

(* the LRU key of a span: its most recent use *)
let last_use regs r p =
  if p = 0 then regs.(r).usage_index
  else max regs.(r).usage_index regs.(r + p).usage_index

(* the strategy's pick among the candidates, in pool order; -1 if none *)
let pick t regs cls choice =
  let pool = pool t cls in
  let n = Array.length pool in
  match t.strategy with
  | First_free ->
      let found = ref (-1) and i = ref 0 in
      while !found < 0 && !i < n do
        if candidate t regs cls choice pool.(!i) then found := pool.(!i);
        incr i
      done;
      !found
  | Round_robin ->
      let count = ref 0 in
      for i = 0 to n - 1 do
        if candidate t regs cls choice pool.(i) then incr count
      done;
      if !count = 0 then -1
      else begin
        let k = ref (t.cursor mod !count) and found = ref (-1) and i = ref 0 in
        t.cursor <- t.cursor + 1;
        while !found < 0 do
          let r = pool.(!i) in
          if candidate t regs cls choice r then
            if !k = 0 then found := r else decr k;
          incr i
        done;
        !found
      end
  | Lru ->
      (* the first of the least recently used *)
      let best = ref (-1) and best_use = ref 0 in
      for i = 0 to n - 1 do
        let r = pool.(i) in
        if candidate t regs cls choice r then begin
          let u = last_use regs r (partner cls) in
          if !best < 0 || u < !best_use then begin
            best := r;
            best_use := u
          end
        end
      done;
      !best

(* raise the bank's pressure high-water mark to the current busy count *)
let note_peak t bank =
  let regs = regs t bank in
  let n = ref 0 in
  for i = 0 to Array.length regs - 1 do
    if regs.(i).busy then incr n
  done;
  match bank with
  | Gp -> if !n > t.stats.gp_peak then t.stats.gp_peak <- !n
  | Fp -> if !n > t.stats.fp_peak then t.stats.fp_peak <- !n

let claim t st =
  t.stats.reuse_sum <- t.stats.reuse_sum + (t.global_index - st.usage_index);
  t.stats.reuse_count <- t.stats.reuse_count + 1;
  st.busy <- true;
  st.use_count <- 1;
  st.usage_index <- t.global_index;
  st.cse <- None;
  st.cse_shares <- 0

let mark_allocated t cls r =
  let bank = bank_of_class cls in
  let regs = regs t bank and p = partner cls in
  claim t regs.(r);
  if p > 0 then claim t regs.(r + p);
  t.stats.n_allocs <- t.stats.n_allocs + 1;
  note_peak t bank

let clear st =
  st.busy <- false;
  st.use_count <- 0;
  st.cse <- None;
  st.cse_shares <- 0

type evicted = { ev_cse : int; ev_reg : int }

(* diagnosable exhaustion: name the class, its pool, and what each member
   is holding (use counts, CSE bindings); built only when raised *)
let pressure_message t cls =
  let bank = bank_of_class cls in
  let regs = regs t bank in
  (* registers named as the target's listing names them *)
  let name r =
    Fmt.str "%c%d" (match bank with Gp -> 'r' | Fp -> t.fp_prefix) r
  in
  let pool = Array.to_list (pool t cls) in
  let members =
    List.sort_uniq compare (List.concat_map (covered cls) pool)
  in
  let holding =
    List.filter_map
      (fun i ->
        let st = regs.(i) in
        if not st.busy then None
        else
          Some
            (Fmt.str "%s:uses=%d%s" (name i) st.use_count
               (match st.cse with
               | Some c -> Fmt.str "[cse %d]" c
               | None -> "")))
      members
  in
  Fmt.str "no %a register available: pool {%s} holds only live values (%s)"
    Symtab.pp_reg_class cls
    (String.concat " " (List.map name pool))
    (String.concat ", " holding)

(* the CSE register [i] holds, if any, consed onto [rest] *)
let held_cse regs i rest =
  match regs.(i).cse with
  | Some c -> { ev_cse = c; ev_reg = i } :: rest
  | None -> rest

(** [alloc t cls] returns an allocated register (the even one for pairs)
    and, when the pool was full, every CSE-bound register that was
    evicted to make room (both halves of a pair may hold one) — the
    caller must store each to its CSE's temporary before using the
    allocation. *)
let alloc t (cls : Symtab.reg_class) : int * evicted list =
  match cls with
  | Symtab.Cc -> (0, []) (* the machine condition code: always available *)
  | Symtab.Noclass -> (0, [])
  | _ ->
      let regs = regs t (bank_of_class cls) in
      let r = pick t regs cls (choose t regs cls) in
      if r >= 0 then begin
        mark_allocated t cls r;
        (r, [])
      end
      else
        (* evict the least-recently-used CSE-bound span in the pool *)
        let r = pick t regs cls Evictable in
        if r < 0 then raise (Pressure (pressure_message t cls))
        else begin
          let p = partner cls in
          let evs =
            held_cse regs r (if p > 0 then held_cse regs (r + p) [] else [])
          in
          clear regs.(r);
          if p > 0 then clear regs.(r + p);
          t.stats.n_evictions <- t.stats.n_evictions + List.length evs;
          mark_allocated t cls r;
          (r, evs)
        end

type transfer = { tr_from : int; tr_to : int }

(** [need t cls r] secures the specific register [r].  If busy, its
    contents move to a freshly allocated register of the class; the caller
    emits [lr to,from] and rebinds stack/CSE state. *)
let need t (cls : Symtab.reg_class) (r : int) :
    (transfer option * evicted list, string) result =
  let bank = bank_of_class cls in
  let st = (regs t bank).(r) in
  if not st.busy then begin
    st.busy <- true;
    st.use_count <- 1;
    st.usage_index <- t.global_index;
    st.cse <- None;
    st.cse_shares <- 0;
    note_peak t bank;
    Ok (None, [])
  end
  else
    match alloc t (if cls = Symtab.Pair then Symtab.Gpr else cls) with
    | dst, ev ->
        let d = (regs t bank).(dst) in
        d.use_count <- st.use_count;
        d.cse <- st.cse;
        d.cse_shares <- st.cse_shares;
        st.busy <- true;
        st.use_count <- 1;
        st.usage_index <- t.global_index;
        st.cse <- None;
        st.cse_shares <- 0;
        t.stats.n_transfers <- t.stats.n_transfers + 1;
        Ok (Some { tr_from = r; tr_to = dst }, ev)
    | exception Pressure m -> Error m

(** Increment the use count (a result token referencing the register was
    pushed, or a CSE declared [cnt] future uses).  Dedicated registers
    (never allocated, hence never busy) are unaffected. *)
let retain ?(count = 1) t bank r =
  let st = (regs t bank).(r) in
  if st.busy then st.use_count <- st.use_count + count

(** Decrement the use count; at zero the register is freed.  Covers both
    pool registers and [need]-obtained linkage registers; dedicated base
    registers are never busy, so this is a no-op for them. *)
let release t bank r =
  let st = (regs t bank).(r) in
  if st.busy then begin
    st.use_count <- st.use_count - 1;
    if st.use_count <= 0 then clear st
  end

(** Release every register an allocation of class [cls] rooted at [r]
    occupies (both halves of a pair). *)
let release_allocation t cls r =
  let bank = bank_of_class cls in
  release t bank r;
  match partner cls with 0 -> () | p -> release t bank (r + p)

(** One reserved CSE use materializes (a [find_common] found the value in
    the register): the share converts into the stack reference the caller
    is about to push, so counts are left unchanged here beyond the share
    bookkeeping. *)
let consume_cse_share t bank r =
  let st = (regs t bank).(r) in
  if st.busy && st.cse_shares > 0 then begin
    st.cse_shares <- st.cse_shares - 1;
    st.use_count <- st.use_count - 1
  end

(** The register lost its CSE copy ([modifies]): drop all reserved
    shares — the remaining uses reload from the temporary. *)
let drop_cse_shares t bank r =
  let st = (regs t bank).(r) in
  if st.busy && st.cse_shares > 0 then begin
    st.use_count <- st.use_count - st.cse_shares;
    st.cse_shares <- 0;
    if st.use_count <= 0 then begin
      st.busy <- false;
      st.use_count <- 0;
      st.cse <- None
    end
  end

(** [modifies]: the register's contents changed — refresh its LRU stamp
    and report (and clear) any CSE binding so the caller can save it. *)
let touch t bank r : int option =
  let st = (regs t bank).(r) in
  st.usage_index <- t.global_index;
  let c = st.cse in
  st.cse <- None;
  c

let bind_cse ?(shares = 0) t bank r cse =
  if in_any_pool t bank r then begin
    (regs t bank).(r).cse <- Some cse;
    (regs t bank).(r).cse_shares <- shares
  end

(** Clear a CSE binding without touching liveness (e.g. after eviction). *)
let unbind_cse t bank r =
  if in_any_pool t bank r then (regs t bank).(r).cse <- None

let is_busy t bank r = (regs t bank).(r).busy
let use_count t bank r = (regs t bank).(r).use_count

(** All currently busy pool registers (diagnostics / invariant tests). *)
let busy_list t bank =
  let out = ref [] in
  Array.iteri
    (fun i st -> if st.busy && in_any_pool t bank i then out := i :: !out)
    (regs t bank);
  List.rev !out
