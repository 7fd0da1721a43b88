(** The shaping routine: typed Pascal AST -> intermediate-form trees.

    "The intermediate form emitted by the front end ... is manipulated by
    a shaping routine which resolves variable addresses by assigning base
    registers and displacements" (paper section 1).  This module is where
    all addressing decisions are made: dedicated base registers appear as
    pre-bound [r] tokens in the IF, storage formats select the typed
    operators ([fullword]/[hlfword]/[byteword]/[dblrealword]), and the
    machine-independent idioms (increment/decrement, shift-multiplies,
    halve) are exposed as the operators the grammar fuses. *)

module Ast = Pascal.Ast
module Tree = Ifl.Tree
module Token = Ifl.Token

type error = { msg : string }

let pp_error ppf e = Fmt.pf ppf "shaper: %s" e.msg

exception Fail of error

let fail fmt = Fmt.kstr (fun msg -> raise (Fail { msg })) fmt

(* -- branch masks (see lib/machine/runtime.ml) ------------------------------ *)

let true_mask = function
  | Ast.Lt -> 4
  | Ast.Le -> 12
  | Ast.Gt -> 2
  | Ast.Ge -> 10
  | Ast.Eq -> 8
  | Ast.Ne -> 7
  | _ -> invalid_arg "true_mask"

let false_mask op = 15 land lnot (true_mask op)
let false_cond = Machine.Runtime.mask_false (* boolean cc: branch if false *)
let true_cond = Machine.Runtime.mask_true

(* -- tree building ----------------------------------------------------------- *)

let node = Tree.node
let leaf_op name = Tree.leaf name
let leaf_int name v = Tree.Node (Token.int name v, [])
let leaf_reg n = Tree.Node (Token.reg "r" n, [])
let leaf_label l = Tree.Node (Token.label "lbl" l, [])
let leaf_cond m = Tree.Node (Token.cond "cond" m, [])
let leaf_cse c = Tree.Node (Token.cse "cse" c, [])
let r13 () = leaf_reg Machine.Runtime.stack_base
let r10 () = leaf_reg Machine.Runtime.pr_base

type ctx = {
  main : Layout.t;
  proc_frames : (string * Layout.t) list;
  proc_slots : (string * int * int) list; (* name, PSA slot, label *)
  mutable current : Layout.t; (* frame of the scope being generated *)
  mutable in_proc : bool;
  mutable next_label : int;
  checks : bool;
  out_int_disp : int;
  out_real_disp : int;
  wcount_i : int;
  wcount_r : int;
}

let fresh_label ctx =
  let l = ctx.next_label in
  ctx.next_label <- l + 1;
  l

(* -- places ------------------------------------------------------------------ *)

(** Where a scalar lives: type operator, displacement, optional (scaled)
    index tree, and the base-register tree. *)
type place = {
  top : string;
  dsp : int;
  index : Tree.t option;
  base : Tree.t;
  stype : Layout.storage;
}

let var_info ctx name : Layout.var_info * Tree.t =
  match Layout.find ctx.current name with
  | Some info -> (info, r13 ())
  | None -> (
      match Layout.find ctx.main name with
      | Some info when ctx.in_proc ->
          (* a global reached through the frame back-chain *)
          ( info,
            node "fullword" [ leaf_int "dsp" Machine.Runtime.old_base; r13 () ] )
      | Some info -> (info, r13 ())
      | None -> fail "unresolved variable %s" name)

let scalar_place ctx name : place =
  let info, base = var_info ctx name in
  match info.Layout.stype with
  | Layout.Sarr _ -> fail "array %s used as a scalar" name
  | st -> { top = Layout.type_operator st; dsp = info.Layout.disp; index = None; base; stype = st }

(* -- integer constants --------------------------------------------------------- *)

let rec const_tree (n : int) : Tree.t =
  if n >= 0 && n <= 4095 then node "pos_constant" [ leaf_int "v" n ]
  else if n < 0 && n >= -4095 then node "neg_constant" [ leaf_int "v" (-n) ]
  else if n < 0 then node "ineg" [ const_tree (-n) ]
  else
    (* Build from 12-bit pieces: (hi << 12) + lo.  The low piece is added
       through a register (AR), never the LA idiom: LA truncates to a
       24-bit address, which large constants would overflow. *)
    let hi = node "l_shift" [ const_tree (n lsr 12); leaf_int "v" 12 ] in
    if n land 0xFFF = 0 then hi
    else node "iadd" [ hi; const_tree (n land 0xFFF) ]

let power_of_two n =
  if n <= 0 then None
  else
    let rec go k v = if v = n then Some k else if v > n then None else go (k + 1) (v * 2) in
    go 0 1

(* -- expression generation ------------------------------------------------------ *)

(* expression types as the front end sees them *)
let rec expr_type ctx (e : Ast.expr) : Ast.ty =
  match e with
  | Ast.Eint _ -> Ast.Tint
  | Ast.Ereal _ -> Ast.Treal
  | Ast.Ebool _ -> Ast.Tbool
  | Ast.Echar _ -> Ast.Tchar
  | Ast.Evar v ->
      let info, _ = var_info ctx v in
      Ast.scalar info.Layout.ty
  | Ast.Eindex (v, _) -> (
      let info, _ = var_info ctx v in
      match info.Layout.ty with
      | Ast.Tarray { elem; _ } -> Ast.scalar elem
      | _ -> fail "%s is not an array" v)
  | Ast.Eun (Ast.Neg, e) -> expr_type ctx e
  | Ast.Eun (Ast.Not, _) -> Ast.Tbool
  | Ast.Ebin ((Ast.Add | Ast.Sub | Ast.Mul), a, b) -> (
      match (expr_type ctx a, expr_type ctx b) with
      | Ast.Tint, Ast.Tint -> Ast.Tint
      | _ -> Ast.Treal)
  | Ast.Ebin ((Ast.Div | Ast.Mod), _, _) -> Ast.Tint
  | Ast.Ebin (Ast.RDiv, _, _) -> Ast.Treal
  | Ast.Ebin ((Ast.And | Ast.Or | Ast.In), _, _) -> Ast.Tbool
  | Ast.Ebin ((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne), _, _) ->
      Ast.Tbool
  | Ast.Ecall ("abs", [ a ]) -> expr_type ctx a
  | Ast.Ecall ("sqr", [ a ]) -> expr_type ctx a
  | Ast.Ecall ("odd", _) -> Ast.Tbool
  | Ast.Ecall ("trunc", _) -> Ast.Tint
  | Ast.Ecall ("ord", _) -> Ast.Tint
  | Ast.Ecall ("chr", _) -> Ast.Tchar
  | Ast.Ecall (("succ" | "pred"), [ a ]) -> expr_type ctx a
  | Ast.Ecall (("min" | "max"), [ a; b ]) -> (
      match (expr_type ctx a, expr_type ctx b) with
      | Ast.Tint, Ast.Tint -> Ast.Tint
      | _ -> Ast.Treal)
  | Ast.Ecall (f, _) -> fail "unknown function %s" f

(* the (possibly indexed) place of an lvalue or variable access *)
and place_of ctx (name : string) (idx : Ast.expr option) : place =
  match idx with
  | None -> scalar_place ctx name
  | Some idx -> (
      let info, base = var_info ctx name in
      match info.Layout.stype with
      | Layout.Sarr { elem; lo; n } ->
          let elsize = Layout.size_of elem in
          let idx_t = gen_int ctx idx in
          let idx_t =
            if ctx.checks then
              node "subscript_check"
                [ idx_t; const_tree lo; const_tree (lo + n - 1) ]
            else idx_t
          in
          let scaled =
            match elsize with
            | 1 -> idx_t
            | 2 -> node "l_shift" [ idx_t; leaf_int "v" 1 ]
            | 4 -> node "l_shift" [ idx_t; leaf_int "v" 2 ]
            | 8 -> node "l_shift" [ idx_t; leaf_int "v" 3 ]
            | _ -> node "imult" [ idx_t; const_tree elsize ]
          in
          let adj = info.Layout.disp - (lo * elsize) in
          let dsp, index =
            if adj >= 0 && adj <= 4095 then (adj, scaled)
            else
              (info.Layout.disp, node "iadd" [ scaled; const_tree (-lo * elsize) ])
          in
          {
            top = Layout.type_operator elem;
            dsp;
            index = Some index;
            base;
            stype = elem;
          }
      | _ -> fail "%s is not an array" name)

and load_place (p : place) : Tree.t =
  match p.index with
  | None -> node p.top [ leaf_int "dsp" p.dsp; p.base ]
  | Some idx -> node p.top [ idx; leaf_int "dsp" p.dsp; p.base ]

(* integer-valued (GPR) expression *)
and gen_int ctx (e : Ast.expr) : Tree.t =
  match e with
  | Ast.Eint n -> const_tree n
  | Ast.Echar c -> const_tree (Char.code c)
  | Ast.Ebool _ -> gen_bool_r ctx e
  | Ast.Evar v -> (
      let info, _ = var_info ctx v in
      match Ast.scalar info.Layout.ty with
      | Ast.Tbool -> gen_bool_r ctx e
      | _ -> load_place (place_of ctx v None))
  | Ast.Eindex (v, idx) -> load_place (place_of ctx v (Some idx))
  | Ast.Eun (Ast.Neg, a) -> node "ineg" [ gen_int ctx a ]
  | Ast.Eun (Ast.Not, _) -> gen_bool_r ctx e
  (* The LA address-add idiom (incr, iadd-with-literal) truncates to 24
     bits on the real machine, so the shaper only emits it where values
     are provably small (constant-bounded for-loop counters, hidden
     write counters); a general x+1 goes through a register add. *)
  | Ast.Ebin (Ast.Add, a, b) -> node "iadd" [ gen_int ctx a; gen_int ctx b ]
  | Ast.Ebin (Ast.Sub, a, Ast.Eint 1) -> node "decr" [ gen_int ctx a ]
  | Ast.Ebin (Ast.Sub, a, b) -> node "isub" [ gen_int ctx a; gen_int ctx b ]
  | Ast.Ebin (Ast.Mul, a, Ast.Eint n) when power_of_two n <> None ->
      node "l_shift" [ gen_int ctx a; leaf_int "v" (Option.get (power_of_two n)) ]
  | Ast.Ebin (Ast.Mul, Ast.Eint n, a) when power_of_two n <> None ->
      node "l_shift" [ gen_int ctx a; leaf_int "v" (Option.get (power_of_two n)) ]
  | Ast.Ebin (Ast.Mul, a, b) -> node "imult" [ gen_int ctx a; gen_int ctx b ]
  | Ast.Ebin (Ast.Div, a, b) -> node "idiv" [ gen_int ctx a; gen_int ctx b ]
  | Ast.Ebin (Ast.Mod, a, b) -> node "imod" [ gen_int ctx a; gen_int ctx b ]
  | Ast.Ebin ((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne | Ast.In
              | Ast.And | Ast.Or), _, _) ->
      gen_bool_r ctx e
  | Ast.Ebin (Ast.RDiv, _, _) -> fail "real value in integer context"
  | Ast.Ecall ("abs", [ a ]) -> node "iabs" [ gen_int ctx a ]
  | Ast.Ecall ("sqr", [ a ]) ->
      let t = gen_int ctx a in
      node "imult" [ t; t ]
  | Ast.Ecall ("odd", _) -> gen_bool_r ctx e
  | Ast.Ecall ("ord", [ a ]) -> gen_int ctx a
  | Ast.Ecall ("chr", [ a ]) -> gen_int ctx a
  | Ast.Ecall ("succ", [ a ]) ->
      node "iadd" [ gen_int ctx a; const_tree 1 ]
  | Ast.Ecall ("pred", [ a ]) -> node "decr" [ gen_int ctx a ]
  | Ast.Ecall ("min", [ a; b ]) -> node "imin" [ gen_int ctx a; gen_int ctx b ]
  | Ast.Ecall ("max", [ a; b ]) -> node "imax" [ gen_int ctx a; gen_int ctx b ]
  | Ast.Ecall ("trunc", [ a ]) -> (
      match expr_type ctx a with
      | Ast.Tint -> gen_int ctx a
      | _ -> node "x_s_cnvrt" [ gen_real ctx a ])
  | Ast.Ereal _ -> fail "real value in integer context"
  | Ast.Ecall (f, _) -> fail "function %s not valid here" f

(* real (FPR) expression; integers are converted *)
and gen_real ctx (e : Ast.expr) : Tree.t =
  let as_real e =
    match expr_type ctx e with
    | Ast.Treal -> gen_real ctx e
    | _ -> node "s_x_cnvrt" [ gen_int ctx e ]
  in
  match e with
  | Ast.Ereal f -> real_const_tree f
  | Ast.Eint n -> node "s_x_cnvrt" [ const_tree n ]
  | Ast.Evar _ | Ast.Eindex _ -> (
      match expr_type ctx e with
      | Ast.Treal -> (
          match e with
          | Ast.Evar v -> load_place (place_of ctx v None)
          | Ast.Eindex (v, i) -> load_place (place_of ctx v (Some i))
          | _ -> assert false)
      | _ -> node "s_x_cnvrt" [ gen_int ctx e ])
  | Ast.Eun (Ast.Neg, a) -> node "rneg" [ as_real a ]
  | Ast.Ebin (Ast.RDiv, a, Ast.Ereal 2.0) -> node "halve" [ as_real a ]
  | Ast.Ebin (Ast.Add, a, b) -> node "radd" [ as_real a; as_real b ]
  | Ast.Ebin (Ast.Sub, a, b) -> node "rsub" [ as_real a; as_real b ]
  | Ast.Ebin (Ast.Mul, a, b) -> node "rmult" [ as_real a; as_real b ]
  | Ast.Ebin (Ast.RDiv, a, b) -> node "rdiv" [ as_real a; as_real b ]
  | Ast.Ecall ("abs", [ a ]) -> node "rabs" [ as_real a ]
  | Ast.Ecall ("sqr", [ a ]) ->
      let t = as_real a in
      node "rmult" [ t; t ]
  | Ast.Ecall ("min", [ a; b ]) -> node "rmin" [ as_real a; as_real b ]
  | Ast.Ecall ("max", [ a; b ]) -> node "rmax" [ as_real a; as_real b ]
  | _ -> (
      match expr_type ctx e with
      | Ast.Tint -> node "s_x_cnvrt" [ gen_int ctx e ]
      | _ -> fail "expression not valid in real context")

(* Real literal: synthesized as a 30-bit integer scaled by an exact power
   of two (divisions/multiplications by 2^k are exact in floating point,
   so the only error is the 2^-30 mantissa rounding).  There is no
   literal pool; the program text is the only source of reals. *)
and real_const_tree (f : float) : Tree.t =
  if Float.is_nan f || Float.abs f = Float.infinity then
    fail "real literal %g not representable" f
  else if f < 0.0 then node "rneg" [ real_const_tree (-.f) ]
  else if Float.is_integer f && f < 2147483647.0 then
    node "s_x_cnvrt" [ const_tree (int_of_float f) ]
  else begin
    let mant, e = Float.frexp f in
    (* f = mant * 2^e with mant in [0.5, 1); m/2^(30-e) ~ f *)
    let m = int_of_float (Float.round (Float.ldexp mant 30)) in
    let acc = node "s_x_cnvrt" [ const_tree m ] in
    let rec scale acc k =
      if k = 0 then acc
      else if k > 0 then
        let step = min k 30 in
        scale
          (node "rdiv" [ acc; node "s_x_cnvrt" [ const_tree (1 lsl step) ] ])
          (k - step)
      else
        let step = min (-k) 30 in
        scale
          (node "rmult" [ acc; node "s_x_cnvrt" [ const_tree (1 lsl step) ] ])
          (k + step)
    in
    scale acc (30 - e)
  end

(* boolean expression as a 0/1 register value *)
and gen_bool_r ctx (e : Ast.expr) : Tree.t =
  match e with
  | Ast.Ebool b -> const_tree (if b then 1 else 0)
  | Ast.Evar v -> (
      let info, _ = var_info ctx v in
      match Ast.scalar info.Layout.ty with
      | Ast.Tbool -> load_place (place_of ctx v None)
      | _ -> fail "%s is not a boolean" v)
  | Ast.Eindex (v, i) -> load_place (place_of ctx v (Some i))
  | Ast.Eun (Ast.Not, a) -> node "boolean_not" [ gen_bool_r ctx a ]
  | Ast.Ebin (Ast.And, a, b) ->
      node_cond false_cond
        (node "boolean_and" [ gen_bool_r ctx a; gen_bool_r ctx b ])
  | Ast.Ebin (Ast.Or, a, b) ->
      node_cond false_cond
        (node "boolean_or" [ gen_bool_r ctx a; gen_bool_r ctx b ])
  | Ast.Ebin ((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne) as op, _, _)
    ->
      node_cond (false_mask op) (compare_cc ctx e)
  | Ast.Ebin (Ast.In, _, _) -> node_cond false_cond (membership_cc ctx e)
  | Ast.Ecall ("odd", [ a ]) -> node "iodd" [ gen_int ctx a ]
  | _ -> fail "expression is not a boolean"

(* the r ::= cond cc production: materialize a condition as 0/1 *)
and node_cond (mask : int) (cc_tree : Tree.t) : Tree.t =
  Tree.Node (Token.cond "cond" mask, [ cc_tree ])

(* a comparison as a condition-code tree *)
and compare_cc ctx (e : Ast.expr) : Tree.t =
  match e with
  | Ast.Ebin ((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne), a, b) -> (
      match (expr_type ctx a, expr_type ctx b) with
      | (Ast.Treal | Ast.Tint), (Ast.Treal | Ast.Tint)
        when expr_type ctx a = Ast.Treal || expr_type ctx b = Ast.Treal ->
          node "rcompare" [ gen_real ctx a; gen_real ctx b ]
      | Ast.Tbool, Ast.Tbool ->
          node "icompare" [ gen_bool_r ctx a; gen_bool_r ctx b ]
      | _ -> node "icompare" [ gen_int ctx a; gen_int ctx b ])
  | _ -> invalid_arg "compare_cc"

(* set membership as a condition-code tree (TM-style) *)
and membership_cc ctx (e : Ast.expr) : Tree.t =
  match e with
  | Ast.Ebin (Ast.In, x, Ast.Evar s) -> (
      let info, base = var_info ctx s in
      match info.Layout.stype with
      | Layout.Sset _ -> (
          match x with
          | Ast.Eint k when k >= 0 ->
              node "test_bit_value"
                [
                  node "addr" [ leaf_int "dsp" (info.Layout.disp + (k / 8)); base ];
                  Tree.Node (Token.int "elmnt" (0x80 lsr (k mod 8)), []);
                ]
          | _ ->
              node "test_bit_value"
                [
                  node "addr" [ leaf_int "dsp" info.Layout.disp; base ];
                  gen_int ctx x;
                ])
      | _ -> fail "%s is not a set" s)
  | Ast.Ebin (Ast.In, _, _) -> fail "in requires a set variable"
  | _ -> invalid_arg "membership_cc"

(* -- conditions in branch context ---------------------------------------------- *)

let uncond_branch lbl = node "branch_op" [ leaf_label lbl ]
let cond_branch lbl mask cc = node "branch_op" [ leaf_label lbl; leaf_cond mask; cc ]
let label_def lbl = node "label_def" [ leaf_label lbl ]

(* emit statement trees that branch to [lbl] when [e] is false/true *)
let rec branch_false ctx (e : Ast.expr) (lbl : int) : Tree.t list =
  match e with
  | Ast.Ebool true -> []
  | Ast.Ebool false -> [ uncond_branch lbl ]
  | Ast.Eun (Ast.Not, a) -> branch_true ctx a lbl
  | Ast.Ebin (Ast.And, a, b) -> branch_false ctx a lbl @ branch_false ctx b lbl
  | Ast.Ebin (Ast.Or, a, b) ->
      let ltrue = fresh_label ctx in
      branch_true ctx a ltrue @ branch_false ctx b lbl @ [ label_def ltrue ]
  | Ast.Ebin ((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne) as op, _, _)
    ->
      [ cond_branch lbl (false_mask op) (compare_cc ctx e) ]
  | Ast.Ebin (Ast.In, _, _) ->
      [ cond_branch lbl false_cond (membership_cc ctx e) ]
  | Ast.Evar v -> (
      let info, _ = var_info ctx v in
      match Ast.scalar info.Layout.ty with
      | Ast.Tbool ->
          [
            cond_branch lbl false_cond
              (node "boolean_test" [ load_place (place_of ctx v None) ]);
          ]
      | _ -> fail "%s is not a boolean" v)
  | e ->
      [
        cond_branch lbl false_cond
          (node "boolean_test" [ gen_bool_r ctx e ]);
      ]

and branch_true ctx (e : Ast.expr) (lbl : int) : Tree.t list =
  match e with
  | Ast.Ebool true -> [ uncond_branch lbl ]
  | Ast.Ebool false -> []
  | Ast.Eun (Ast.Not, a) -> branch_false ctx a lbl
  | Ast.Ebin (Ast.Or, a, b) -> branch_true ctx a lbl @ branch_true ctx b lbl
  | Ast.Ebin (Ast.And, a, b) ->
      let lfalse = fresh_label ctx in
      branch_false ctx a lfalse @ branch_true ctx b lbl @ [ label_def lfalse ]
  | Ast.Ebin ((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne) as op, _, _)
    ->
      [ cond_branch lbl (true_mask op) (compare_cc ctx e) ]
  | Ast.Ebin (Ast.In, _, _) ->
      [ cond_branch lbl true_cond (membership_cc ctx e) ]
  | e ->
      [
        cond_branch lbl true_cond
          (node "boolean_test" [ gen_bool_r ctx e ]);
      ]

(* -- statements ------------------------------------------------------------------ *)

let assign_tree (p : place) (value : Tree.t) : Tree.t =
  let addr =
    match p.index with
    | None -> node p.top [ leaf_int "dsp" p.dsp; p.base ]
    | Some idx -> node p.top [ idx; leaf_int "dsp" p.dsp; p.base ]
  in
  node "assign" [ addr; value ]

let rec gen_stmt ctx (s : Ast.stmt) : Tree.t list =
  match s with
  | Ast.Sempty -> []
  | Ast.Sblock body -> List.concat_map (gen_stmt ctx) body
  | Ast.Sassign (lv, e) -> (
      let p =
        match lv with
        | Ast.Lvar v -> place_of ctx v None
        | Ast.Lindex (v, i) -> place_of ctx v (Some i)
      in
      match p.stype with
      | Layout.Sdouble -> [ assign_tree p (gen_real ctx e) ]
      | Layout.Sbyte -> (
          match expr_type ctx e with
          | Ast.Tbool -> [ assign_tree p (gen_bool_r ctx e) ]
          | _ -> [ assign_tree p (gen_int ctx e) ])
      | _ -> [ assign_tree p (gen_int ctx e) ])
  | Ast.Sif (c, a, []) ->
      let lend = fresh_label ctx in
      branch_false ctx c lend
      @ List.concat_map (gen_stmt ctx) a
      @ [ label_def lend ]
  | Ast.Sif (c, a, b) ->
      let lelse = fresh_label ctx in
      let lend = fresh_label ctx in
      branch_false ctx c lelse
      @ List.concat_map (gen_stmt ctx) a
      @ [ uncond_branch lend; label_def lelse ]
      @ List.concat_map (gen_stmt ctx) b
      @ [ label_def lend ]
  | Ast.Swhile (c, body) ->
      let ltop = fresh_label ctx in
      let lend = fresh_label ctx in
      [ label_def ltop ]
      @ branch_false ctx c lend
      @ List.concat_map (gen_stmt ctx) body
      @ [ uncond_branch ltop; label_def lend ]
  | Ast.Srepeat (body, c) ->
      let ltop = fresh_label ctx in
      [ label_def ltop ]
      @ List.concat_map (gen_stmt ctx) body
      @ branch_false ctx c ltop
  | Ast.Sfor { var; from_; downto_; to_; body } ->
      let p = place_of ctx var None in
      let limit = Layout.temp ctx.current "for-limit" in
      let limit_place =
        { top = "fullword"; dsp = limit; index = None; base = r13 ();
          stype = Layout.Sfull }
      in
      let ltop = fresh_label ctx in
      let lend = fresh_label ctx in
      let exit_mask = if downto_ then 4 (* < limit *) else 2 (* > limit *) in
      (* the LA increment idiom is only safe when the counter is known to
         stay within the 24-bit address range *)
      let small_bounds =
        match (from_, to_) with
        | Ast.Eint a, Ast.Eint b -> a >= 0 && b >= 0 && b < 0xFFFFFF
        | _ -> false
      in
      let step =
        if downto_ then node "decr" [ load_place p ]
        else if small_bounds then node "incr" [ load_place p ]
        else node "iadd" [ load_place p; const_tree 1 ]
      in
      [
        assign_tree limit_place (gen_int ctx to_);
        assign_tree p (gen_int ctx from_);
        label_def ltop;
        cond_branch lend exit_mask
          (node "icompare" [ load_place p; load_place limit_place ]);
      ]
      @ List.concat_map (gen_stmt ctx) body
      @ [ assign_tree p step; uncond_branch ltop; label_def lend ]
  | Ast.Scase (sel, arms, otherwise) -> gen_case ctx sel arms otherwise
  | Ast.Scall ("include", [ Ast.Evar s; e ]) -> [ gen_set_op ctx `Set s e ]
  | Ast.Scall ("exclude", [ Ast.Evar s; e ]) -> [ gen_set_op ctx `Clear s e ]
  | Ast.Scall (("include" | "exclude"), _) -> fail "bad include/exclude"
  | Ast.Scall ("write", [ e ]) -> gen_write ctx e
  | Ast.Scall (p, _) -> (
      match
        List.find_opt (fun (name, _, _) -> name = p) ctx.proc_slots
      with
      | Some (_, slot, _) ->
          [
            node "procedure_call"
              [
                leaf_int "cnt" 0;
                node "fullword"
                  [
                    leaf_int "dsp" (Machine.Runtime.psa_proctab + (4 * slot));
                    r10 ();
                  ];
              ];
          ]
      | None -> fail "unknown procedure %s" p)

and gen_set_op ctx op (s : string) (e : Ast.expr) : Tree.t =
  let info, base = var_info ctx s in
  match info.Layout.stype with
  | Layout.Sset _ -> (
      let opname =
        match op with `Set -> "set_bit_value" | `Clear -> "clear_bit_value"
      in
      match e with
      | Ast.Eint k when k >= 0 ->
          let mask = 0x80 lsr (k mod 8) in
          let mask = match op with `Set -> mask | `Clear -> 0xFF land lnot mask in
          node opname
            [
              node "addr" [ leaf_int "dsp" (info.Layout.disp + (k / 8)); base ];
              Tree.Node (Token.int "elmnt" mask, []);
            ]
      | _ ->
          node opname
            [
              node "addr" [ leaf_int "dsp" info.Layout.disp; base ];
              gen_int ctx e;
            ])
  | _ -> fail "%s is not a set" s

and gen_case ctx sel arms otherwise : Tree.t list =
  let labels = List.concat_map fst arms in
  (match labels with [] -> fail "empty case" | _ -> ());
  let lo = List.fold_left min max_int labels in
  let hi = List.fold_left max min_int labels in
  if hi - lo > 512 then fail "case label range too wide (%d..%d)" lo hi;
  let tmp = Layout.temp ctx.current "case-selector" in
  let tmp_place =
    { top = "fullword"; dsp = tmp; index = None; base = r13 ();
      stype = Layout.Sfull }
  in
  let ltable = fresh_label ctx in
  let lend = fresh_label ctx in
  let ldefault = fresh_label ctx in
  let arm_labels = List.map (fun arm -> (fresh_label ctx, arm)) arms in
  let label_for v =
    match
      List.find_opt (fun (_, (vals, _)) -> List.mem v vals) arm_labels
    with
    | Some (l, _) -> l
    | None -> ldefault
  in
  (* selector into its temp, range-routing to the default arm *)
  [ assign_tree tmp_place (gen_int ctx sel) ]
  @ [
      cond_branch ldefault 4 (node "icompare" [ load_place tmp_place; const_tree lo ]);
      cond_branch ldefault 2 (node "icompare" [ load_place tmp_place; const_tree hi ]);
    ]
  @ [
      node "case_index"
        [
          leaf_label ltable;
          node "isub" [ load_place tmp_place; const_tree lo ];
        ];
      label_def ltable;
    ]
  @ List.map
      (fun v -> node "label_index" [ leaf_label (label_for v) ])
      (List.init (hi - lo + 1) (fun i -> lo + i))
  @ List.concat_map
      (fun (l, (_, body)) ->
        (label_def l :: List.concat_map (gen_stmt ctx) body)
        @ [ uncond_branch lend ])
      arm_labels
  @ (label_def ldefault
     ::
     (match otherwise with
     | Some body -> List.concat_map (gen_stmt ctx) body
     | None -> [ node "abort_op" [ leaf_int "errno" 1 ] ]))
  @ [ label_def lend ]

and gen_write ctx (e : Ast.expr) : Tree.t list =
  let is_real = expr_type ctx e = Ast.Treal in
  let counter_disp = if is_real then ctx.wcount_r else ctx.wcount_i in
  let area = if is_real then ctx.out_real_disp else ctx.out_int_disp in
  let shift = if is_real then 3 else 2 in
  let counter =
    { top = "fullword"; dsp = counter_disp; index = None; base = r13 ();
      stype = Layout.Sfull }
  in
  let slot_index =
    node "l_shift" [ load_place counter; leaf_int "v" shift ]
  in
  let target =
    {
      top = (if is_real then "dblrealword" else "fullword");
      dsp = area;
      index = Some slot_index;
      base = r13 ();
      stype = (if is_real then Layout.Sdouble else Layout.Sfull);
    }
  in
  let value = if is_real then gen_real ctx e else gen_int ctx e in
  [
    assign_tree target value;
    assign_tree counter (node "incr" [ load_place counter ]);
  ]

(* -- whole programs ----------------------------------------------------------------- *)

type shaped = {
  trees : Tree.t list;
  main_frame : Layout.t;
  proc_frames : (string * Layout.t) list;
  proc_slots : (string * int * int) list;  (** name, PSA slot, entry label *)
  out_int_disp : int;
  out_real_disp : int;
  wcount_i_disp : int;
  wcount_r_disp : int;
  n_labels : int;
}

(** Shape a checked program into IF trees (one list entry per statement-
    level construct, in program order). *)
let shape ?(checks = false) (c : Pascal.Sema.checked) : (shaped, error) result
    =
  try
    let prog = c.Pascal.Sema.prog in
    let main = Layout.of_decls prog.Ast.globals in
    (* hidden output machinery *)
    let wcount_i = Layout.temp main "write-count-int" in
    let wcount_r = Layout.temp main "write-count-real" in
    let out_int_disp = Layout.temp main ~size:(64 * 4) "out-int-area" in
    let out_real_disp = Layout.temp main ~size:(32 * 8) ~al:8 "out-real-area" in
    let proc_frames =
      List.map
        (fun (p : Ast.proc_decl) -> (p.Ast.p_name, Layout.of_decls p.Ast.p_locals))
        prog.Ast.procs
    in
    let ctx =
      {
        main;
        proc_frames;
        proc_slots = [];
        current = main;
        in_proc = false;
        next_label = 1;
        checks;
        out_int_disp;
        out_real_disp;
        wcount_i;
        wcount_r;
      }
    in
    (* assign procedure slots and entry labels up front so calls resolve *)
    let proc_slots =
      List.mapi
        (fun i (p : Ast.proc_decl) -> (p.Ast.p_name, i, ctx.next_label + i))
        prog.Ast.procs
    in
    ctx.next_label <- ctx.next_label + List.length prog.Ast.procs;
    let ctx = { ctx with proc_slots } in
    let main_trees =
      (leaf_op "procedure_entry" :: List.concat_map (gen_stmt ctx) prog.Ast.main)
      @ [ leaf_op "procedure_exit" ]
    in
    let proc_trees =
      List.concat_map
        (fun (p : Ast.proc_decl) ->
          let _, _, lbl =
            List.find (fun (n, _, _) -> n = p.Ast.p_name) proc_slots
          in
          ctx.current <- List.assoc p.Ast.p_name proc_frames;
          ctx.in_proc <- true;
          let body = List.concat_map (gen_stmt ctx) p.Ast.p_body in
          ctx.current <- main;
          ctx.in_proc <- false;
          (label_def lbl :: leaf_op "procedure_entry" :: body)
          @ [ leaf_op "procedure_exit" ])
        prog.Ast.procs
    in
    Ok
      {
        trees = main_trees @ proc_trees;
        main_frame = main;
        proc_frames;
        proc_slots;
        out_int_disp;
        out_real_disp;
        wcount_i_disp = wcount_i;
        wcount_r_disp = wcount_r;
        n_labels = ctx.next_label;
      }
  with
  | Fail e -> Error e
  | Layout.Frame_overflow m -> Error { msg = m }
