(** The code generator's register allocation routine (paper section 4.1).

    - [using] allocates any register of a class; [need] obtains a
      specific register, transferring its current contents to another
      register of the class if busy (the caller emits the [lr] and
      rebinds the translation stack).
    - Allocation is least-recently-used by a global usage index bumped at
      every reduction, "in an attempt to reduce operand contention in the
      pipeline"; round-robin and first-free strategies exist for the
      ablation benchmark.
    - Registers carry use counts: consuming an RHS occurrence decrements,
      pushing a result increments; a count of zero frees the register.
    - A register holding a common subexpression can be evicted (the
      caller stores it to the CSE's temporary); a register holding a live
      intermediate result cannot, and exhausting the pool on live values
      raises {!Pressure}. *)

(** The two register files of the 370. *)
type bank = Gp | Fp

val bank_of_class : Symtab.reg_class -> bank

type strategy = Lru | Round_robin | First_free

val strategy_name : strategy -> string

type config = {
  gpr_pool : int list;
  pair_pool : int list;  (** even members; the odd partner is implied *)
  fpr_pool : int list;
  fpair_pool : int list;  (** quad pairs: f and f+2 *)
}

val default_config : config
(** Pool matching the project's register conventions (r13 frame, r10 PSA,
    r12 code base, r0 zero, r14/r15 linkage via [need]). *)

type stats = {
  mutable n_allocs : int;
  mutable n_evictions : int;
  mutable n_transfers : int;
  mutable reuse_sum : int;
      (** total usage-index distance at allocation, over every register
          allocated: the pipeline-contention proxy of the ablation
          benchmark *)
  mutable reuse_count : int;
      (** registers allocated; the mean reuse distance is
          [reuse_sum / reuse_count] *)
  mutable gp_peak : int;  (** most general registers ever busy at once *)
  mutable fp_peak : int;  (** most floating registers ever busy at once *)
}

type t = private {
  config : config;
  strategy : strategy;
  gprs : reg array;
  fprs : reg array;
  gpr_pool : int array;  (** [config]'s pools, scanned in place *)
  pair_pool : int array;
  fpr_pool : int array;
  fpair_pool : int array;
  fp_prefix : char;  (** how messages name a floating register *)
  mutable global_index : int;
  mutable cursor : int;
  stats : stats;
}

and reg = {
  mutable busy : bool;
  mutable use_count : int;
  mutable usage_index : int;
  mutable cse : int option;
  mutable cse_shares : int;
}

exception Pressure of string
(** No register can be allocated: the pool holds only live values. *)

val create :
  ?config:config -> ?strategy:strategy -> ?fp_prefix:char -> unit -> t
(** [fp_prefix] (default ['r']) is the letter a {!Pressure} message names
    a floating-point register with, as the target's listing does;
    general registers are always [rN]. *)

val begin_reduction : t -> unit
(** Bump the global usage index; called once per reduction. *)

type evicted = { ev_cse : int; ev_reg : int }

val alloc : t -> Symtab.reg_class -> int * evicted list
(** [alloc t cls] returns an allocated register (the even one for pairs)
    and, when the pool was full, every CSE-bound register that was
    evicted to make room (both halves of a pair may hold one) — the
    caller must store each to its CSE's temporary before using the
    allocation.  Raises {!Pressure} when
    every register holds a live value.  The pick scans the class's pool
    in place and allocates nothing but the result; the {!Pressure}
    message is built only when raised. *)

type transfer = { tr_from : int; tr_to : int }

val need :
  t -> Symtab.reg_class -> int -> (transfer option * evicted list, string) result
(** [need t cls r] secures the specific register [r].  If busy, its
    contents move to a freshly allocated register of the class; the
    caller emits [lr to,from] and rebinds stack/CSE state. *)

val retain : ?count:int -> t -> bank -> int -> unit
(** Increment the use count (a result token referencing the register was
    pushed, or a CSE declared [count] future uses). *)

val release : t -> bank -> int -> unit
(** Decrement the use count; at zero the register is freed.  A no-op on
    dedicated (never-allocated) registers. *)

val release_allocation : t -> Symtab.reg_class -> int -> unit
(** [release_allocation t cls r] releases every register an allocation
    of class [cls] rooted at [r] occupies (both halves of a pair). *)

val consume_cse_share : t -> bank -> int -> unit
(** One reserved CSE use materializes: the share converts into the stack
    reference the caller is about to push. *)

val drop_cse_shares : t -> bank -> int -> unit
(** The register lost its CSE copy ([modifies]): the remaining uses will
    reload from the temporary. *)

val touch : t -> bank -> int -> int option
(** [modifies]: refresh the LRU stamp and report (and clear) any CSE
    binding so the caller can save it. *)

val bind_cse : ?shares:int -> t -> bank -> int -> int -> unit
val unbind_cse : t -> bank -> int -> unit
val is_busy : t -> bank -> int -> bool
val use_count : t -> bank -> int -> int

val busy_list : t -> bank -> int list
(** All currently busy pool registers (diagnostics / invariant tests). *)
