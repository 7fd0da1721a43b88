(** The skeletal LR parser driving the generated code generator
    (paper section 3).

    The parser consumes the linearized IF.  On a reduction it calls the
    code emission routine, which prefixes tokens back onto the input
    stream (normally the production's LHS bound to the result register;
    possibly a converted odd register or a CSE's location).  Because
    non-terminal tokens are shifted like any others, no separate GOTO
    table exists.

    {b Hot path memory discipline.}  A parse allocates its {!frame} and
    nothing per token: every token is ints in parallel arrays, the input
    list is read lazily with an allocation-free symbol lookup, and the
    emission routine reads the popped right-hand side in place and
    writes the tokens it prefixes into the frame. *)

type dispatch =
  | Flat  (** index the uncompressed [action array array] directly *)
  | Comb
      (** probe the comb-packed table carried in {!Tables.t}
          ({!Compress.action_code}); the default, and the production
          configuration of the paper's Table 2 *)

(** {2 Tokens as ints}

    The driver holds every token as a grammar symbol id, a value tag and
    an int payload: the tag names the {!Ifl.Value.t} constructor, the
    payload its argument ([0] for [Unit]).  The tags of the three
    constructors the emission routine reads or writes: *)

val tag_unit : int
val tag_int : int
val tag_reg : int

(** The translation stack and the prefix buffer, owned by one {!parse}
    and handed to the emission routine on every reduction.  Each stack
    slot [i < sp] is a parser state and a token
    ([syms.(i)], [tags.(i)], [vals.(i)]).  During a reduction the popped
    right-hand side is still in place: its [k]-th token is slot
    [base + k] for [k < len], just above the new top [sp = base].

    The prefix buffer is a stack of tokens waiting to be read before the
    rest of the input, the next one on top.  The emission routine adds
    to it with {!prefix} in the order the tokens are to be read; the
    driver puts them in stack order when the reduction returns. *)
type frame = {
  mutable states : int array;
  mutable syms : int array;
  mutable tags : int array;
  mutable vals : int array;
  mutable sp : int;
  mutable base : int;  (** the popped right-hand side's first slot *)
  mutable len : int;  (** its length *)
  mutable pre_syms : int array;
  mutable pre_tags : int array;
  mutable pre_vals : int array;
  mutable pre_n : int;
}

val prefix : frame -> Grammar.sym -> int -> int -> unit
(** [prefix fr sym tag payload] prefixes a token to the input.  A
    reduction's prefixed tokens are read first-added-first and must
    carry interned symbol ids. *)

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

val pp_error : Format.formatter -> error -> unit

type outcome = { reductions : int; shifts : int; max_stack : int }

val parse :
  ?dispatch:dispatch ->
  Tables.t ->
  reduce:
    (prod:int ->
    rhs:frame ->
    remap:((Grammar.sym -> int -> int) -> unit) ->
    unit) ->
  Ifl.Token.t list ->
  (outcome, error) result
(** [parse ?dispatch tables ~reduce input] runs the table-driven parse.

    [dispatch] selects the action source (default [Comb]).  Both sources
    run the same skeleton over array-backed stacks and take identical
    actions on well-formed IF; comb dispatch may delay (never lose)
    error detection on malformed IF, because default reductions stand in
    for error entries.

    [input] is read lazily, one token when the parse first reaches it:
    its [sym] string is interned to its grammar id, the integer
    coercions are applied and the value discipline is checked once.  An
    ill-formed token is therefore reported when the skeleton reaches it,
    with the position, state and message of a per-step check.

    [reduce ~prod ~rhs ~remap] is the code emission routine: [rhs] is
    the frame, holding the popped right-hand side in place; the routine
    prefixes its result tokens with {!prefix}.  [remap f] rewrites
    register bindings everywhere a live one can sit — the stack below
    the popped right-hand side, the prefix buffer and the input not yet
    shifted, read or not — replacing the payload [r] of each
    register-tagged token of symbol [sym] by [f sym r] (needed when a
    [need] directive transfers a busy register).

    Input tokens are type-checked against the specification: terminals
    must carry their declared value kind, register non-terminals a
    register binding (integer payloads are coerced for shaper
    convenience). *)
