(** The Loader Record Generator (paper sections 3 and 4.2).

    After all IF for a module has been processed, label references and
    branch instructions are resolved in a two-phase traversal of the
    dictionary and the object module's TEXT records are constructed.

    Branch targets are addressed off the code-base register, whose
    12-bit displacement reaches only the first 4096-byte page.  A branch
    whose target lies beyond needs the long form: an additional load
    establishing addressability (paper 4.2), here a load of the target
    offset from a literal pool placed at the head of the module.  Since
    lengthening a branch can push other targets across the page boundary
    (and grow the pool), sizing iterates to a fixpoint — the classical
    span-dependent-instruction algorithm the paper cites (Robertson;
    Leverett & Szymanski).

    The analysis is one sweep over the code buffer read in place:
    labels are interned to dense ids and references resolved once, a
    sizing pass walks only labels and references, the long-site count
    is maintained at widening, and emission encodes instructions
    directly into the result image. *)

type label_map
(** The resolved label offsets; see {!label_offset}. *)

type resolved = {
  code : Bytes.t;
  entry : int;  (** module-relative entry offset (after the literal pool) *)
  label_map : label_map;
  n_sites : int;  (** branch/case-load sites *)
  n_long : int;  (** sites that needed the long form *)
  pool_words : int;  (** literal pool size *)
  iterations : int;  (** fixpoint iterations *)
}

val label_offset : resolved -> Code_buffer.label -> int option
(** The module-relative offset of a label the module defines. *)

exception Resolve_error of string
(** Undefined/duplicate label, literal pool overflow, or divergence.
    (A [Word_label] naming an undefined label is also diagnosed this
    way, where it previously escaped as [Not_found].) *)

val resolve :
  ?code_base:int -> ?target:Machine.Target.t -> Code_buffer.t -> resolved
(** Resolve labels and branch sites.  The target's {!Machine.Target.site_model}
    selects the resolution strategy: [Span_dependent] (the 370 short/long
    fixpoint above, the default) or [Pc_relative] (every site a fixed-width
    pc-relative instruction, no pool, single pass). *)

val to_objmod :
  ?name:string ->
  ?code_base:int ->
  ?target:Machine.Target.t ->
  Code_buffer.t ->
  (Machine.Objmod.t * resolved, string) result
(** Resolve and wrap into an object module. *)
