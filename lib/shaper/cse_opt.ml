(** The IF optimizer's common-subexpression detection (paper section 4.4):
    "All CSEs are detected, and their use counts established, by an IF
    optimizer."

    Scope: within a single statement tree, which keeps the transformation
    trivially safe (no assignment can intervene between the definition and
    its uses).  Candidate subtrees are pure integer-register-valued
    computations of at least [min_nodes] nodes; the first occurrence is
    wrapped in [make_common] (with the shaper-allocated temporary), later
    occurrences become [use_common].  Each statement is hash-consed once,
    bottom-up, so the pass is O(size): the later walks read stored ints. *)

module Tree = Ifl.Tree
module Token = Ifl.Token

(* integer-register-valued operators eligible as CSE roots *)
let eligible_root = function
  | "iadd" | "isub" | "imult" | "idiv" | "imod" | "l_shift" | "r_shift"
  | "iabs" | "ineg" | "imax" | "imin" | "incr" | "decr" | "fullword"
  | "hlfword" | "byteword" ->
      true
  | _ -> false

(* purity: no label/branch/call machinery below, only arithmetic, loads
   and constants *)
let pure_op = function
  | "iodd" | "addr" | "pos_constant" | "neg_constant" | "dsp" | "v" | "r"
  | "lng" | "elmnt" ->
      true
  | sym -> eligible_root sym

let min_nodes = 3

(* One class per distinct subtree of a statement, interned on its token
   and its children's ids.  [uses] counts its candidate occurrences;
   [Chosen (number, temporary)] once it is to become a CSE. *)
type cls = {
  id : int;
  size : int;
  pure : bool;
  mutable uses : int;
  mutable cse : cse;
}

and cse = Unchosen | Chosen of int * int | Defined of int

type ann = A of Token.t * cls * ann list

(* Children in *positional* spots are grammar punctuation, not value
   expressions: the address of an assign, the procedure-address load of a
   call, the CSE temporary of make_common.  The node in such a spot can
   never be replaced (though computations nested deeper inside it can). *)
let positional sym i =
  match (sym, i) with
  | "assign", 0 -> true
  | "procedure_call", 1 -> true
  | "make_common", 2 -> true
  | _ -> false

(* [f ~root_ok] over the children of a node with operator [sym] *)
let map_kids sym f kids =
  List.mapi (fun i k -> f ~root_ok:(not (positional sym i)) k) kids

(* Annotate bottom-up, interning each node in [tbl] and counting the
   occurrences of every candidate (the census): an eligible root of at
   least [min_nodes] nodes, pure, in a non-positional spot. *)
let rec annotate tbl ~root_ok (Tree.Node (t, kids)) =
  let sym = t.Token.sym in
  let kids = map_kids sym (annotate tbl) kids in
  let key = (t, List.map (fun (A (_, k, _)) -> k.id) kids) in
  let c =
    match Hashtbl.find_opt tbl key with
    | Some c -> c
    | None ->
        let size, pure =
          List.fold_left
            (fun (n, p) (A (_, k, _)) -> (n + k.size, p && k.pure))
            (1, pure_op sym) kids
        in
        let id = Hashtbl.length tbl in
        let c = { id; size; pure; uses = 0; cse = Unchosen } in
        Hashtbl.add tbl key c;
        c
  in
  if root_ok && eligible_root sym && c.size >= min_nodes && c.pure then
    c.uses <- c.uses + 1;
  A (t, c, kids)

type state = { mutable next_cse : int; mutable frame : Layout.t }

(* Reserve the temporary for the repeated class [c] and record the
   choice.  False when the frame has no room left for it: the subtree
   stays uncommoned, which costs code size, never correctness, and the
   failed placement leaves the frame and the CSE numbering untouched. *)
let place (st : state) c =
  let id = st.next_cse in
  match Layout.temp st.frame (Fmt.str "cse-%d" id) with
  | temp ->
      st.next_cse <- id + 1;
      c.cse <- Chosen (id, temp);
      true
  | exception Layout.Frame_overflow _ -> false

(* choose outermost repeated subtrees: walk top-down, and when a node is
   chosen do not consider its descendants; every occurrence of a chosen
   subtree is replaced wholesale, so nothing below it can need its own
   CSE *)
let rec choose st ~root_ok (A (t, c, kids)) =
  if not (root_ok && (c.cse <> Unchosen || (c.uses >= 2 && place st c))) then
    List.iteri
      (fun i kid -> choose st ~root_ok:(not (positional t.Token.sym i)) kid)
      kids

(* rewrite: for chosen classes, first occurrence -> make_common, rest ->
   use_common.  Top-down so outermost repeats win; inside a replaced
   subtree no further rewriting happens (its copies are gone). *)
let rec rewrite ~root_ok (A (t, c, kids)) : Tree.t =
  let rewrite_kids () = map_kids t.Token.sym rewrite kids in
  match if root_ok then c.cse else Unchosen with
  | Chosen (id, temp) ->
      c.cse <- Defined id;
      (* definition: keep the computation, declare the CSE *)
      Tree.node "make_common"
        [
          Tree.Node (Token.cse "cse" id, []);
          Tree.Node (Token.int "cnt" (c.uses - 1), []);
          Tree.node "fullword"
            [
              Tree.Node (Token.int "dsp" temp, []);
              Tree.Node (Token.reg "r" Machine.Runtime.stack_base, []);
            ];
          Tree.Node (t, rewrite_kids ());
        ]
  | Defined id ->
      Tree.node "use_common" [ Tree.Node (Token.cse "cse" id, []) ]
  | Unchosen -> Tree.Node (t, rewrite_kids ())

(** Optimize one statement tree.  [state] carries the CSE numbering and
    the frame that provides temporaries. *)
let optimize_statement (st : state) (tree : Tree.t) : Tree.t =
  let a = annotate (Hashtbl.create 16) ~root_ok:true tree in
  let next = st.next_cse in
  choose st ~root_ok:true a;
  if st.next_cse = next then tree else rewrite ~root_ok:true a

(** Optimize a shaped program: CSEs are numbered across the module (they
    are "valid throughout the compilation"), temporaries come from the
    frame owning the statement.  The input is left as it was: the
    temporaries go into copies of its frames, returned in the result. *)
let optimize (shaped : Irgen.shaped) : Irgen.shaped =
  let main_frame = Layout.copy shaped.Irgen.main_frame in
  let proc_frames =
    List.map (fun (n, f) -> (n, Layout.copy f)) shaped.Irgen.proc_frames
  in
  let st = { next_cse = 1; frame = main_frame } in
  (* statements before the first procedure label belong to main; after a
     label_def that matches a procedure entry, switch frames *)
  let proc_label_frames =
    List.filter_map
      (fun (name, _, lbl) ->
        Option.map (fun f -> (lbl, f)) (List.assoc_opt name proc_frames))
      shaped.Irgen.proc_slots
  in
  let trees =
    List.map
      (fun tree ->
        (match tree with
        | Tree.Node ({ Token.sym = "label_def"; _ }, [ Tree.Node (l, []) ]) -> (
            match l.Token.value with
            | Ifl.Value.(Label n | Int n) -> (
                match List.assoc_opt n proc_label_frames with
                | Some f -> st.frame <- f
                | None -> ())
            | _ -> ())
        | _ -> ());
        optimize_statement st tree)
      shaped.Irgen.trees
  in
  { shaped with Irgen.trees; main_frame; proc_frames }
