(** Storage layout: the shaper "resolves variable addresses by assigning
    base registers and displacements" (paper section 1).

    Every activation's variables live in its stack frame, addressed off
    r13.  Subranges that fit get halfword storage, booleans and chars a
    byte, reals a doubleword — the operand-typing discipline of paper
    section 4.5.  The whole frame must stay within one page (4096 bytes)
    so plain 12-bit displacements reach everything. *)

module Ast = Pascal.Ast

type storage = Sfull | Shalf | Sbyte | Sdouble | Sset of int | Sarr of arr

and arr = { elem : storage; lo : int; n : int }

let rec size_of = function
  | Sfull -> 4
  | Shalf -> 2
  | Sbyte -> 1
  | Sdouble -> 8
  | Sset bytes -> bytes
  | Sarr { elem; n; _ } -> size_of elem * n

let align_of = function
  | Sfull -> 4
  | Shalf -> 2
  | Sbyte -> 1
  | Sdouble -> 8
  | Sset _ -> 4
  | Sarr { elem; _ } ->
      (match elem with Sdouble -> 8 | Sfull -> 4 | Shalf -> 2 | _ -> 1)

(** The IF type operator naming this storage format. *)
let type_operator = function
  | Sfull -> "fullword"
  | Shalf -> "hlfword"
  | Sbyte -> "byteword"
  | Sdouble -> "dblrealword"
  | Sset _ -> "byteword"
  | Sarr _ -> invalid_arg "Layout.type_operator: array"

let rec storage_of (t : Ast.ty) : storage =
  match t with
  | Ast.Tint -> Sfull
  | Ast.Tbool | Ast.Tchar -> Sbyte
  | Ast.Treal -> Sdouble
  | Ast.Tsub (lo, hi) ->
      if lo >= -32768 && hi <= 32767 then Shalf else Sfull
  | Ast.Tset n -> Sset ((n + 8) / 8)
  | Ast.Tarray { lo; hi; elem } ->
      Sarr { elem = storage_of elem; lo; n = hi - lo + 1 }

type var_info = { disp : int; stype : storage; ty : Ast.ty }

exception Frame_overflow of string

type t = {
  vars : (string, var_info) Hashtbl.t;
  mutable next : int;
  page_limit : int;
}

let create () =
  {
    vars = Hashtbl.create 16;
    next = Machine.Runtime.locals_base;
    page_limit = 4096;
  }

(* A placement that does not fit raises before touching the frame, so a
   caller may catch [Frame_overflow] and go on with the frame as it was. *)
let reserve t name size al =
  let disp = (t.next + al - 1) / al * al in
  if disp + size > t.page_limit then
    raise
      (Frame_overflow
         (Fmt.str "frame exceeds one page (4096 bytes) placing %s" name));
  t.next <- disp + size;
  disp

let add_var t (d : Ast.var_decl) : var_info =
  let stype = storage_of d.Ast.v_ty in
  let disp = reserve t d.Ast.v_name (size_of stype) (align_of stype) in
  let info = { disp; stype; ty = d.Ast.v_ty } in
  Hashtbl.replace t.vars d.Ast.v_name info;
  info

let find t name = Hashtbl.find_opt t.vars name

(** Anonymous temporaries (CSE homes, for-loop bounds, case selectors). *)
let temp t ?(size = 4) ?(al = 4) what : int = reserve t what size al

let frame_bytes t = t.next

(** A frame that places its own temporaries from where [t] stands.  The
    variable table is shared: only [add_var] writes it, never [temp]. *)
let copy t = { t with next = t.next }

let of_decls (decls : Ast.var_decl list) : t =
  let t = create () in
  List.iter (fun d -> ignore (add_var t d)) decls;
  t
