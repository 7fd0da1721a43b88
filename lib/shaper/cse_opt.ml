(** The IF optimizer's common-subexpression detection (paper section 4.4):
    "All CSEs are detected, and their use counts established, by an IF
    optimizer."

    Scope: within a single statement tree, which keeps the transformation
    trivially safe (no assignment can intervene between the definition and
    its uses).  Candidate subtrees are pure integer-register-valued
    computations of at least [min_nodes] nodes; the first occurrence is
    wrapped in [make_common] (with the shaper-allocated temporary), later
    occurrences become [use_common]. *)

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
let rec pure (Tree.Node (t, kids)) =
  (match t.Token.sym with
  | "iadd" | "isub" | "imult" | "idiv" | "imod" | "l_shift" | "r_shift"
  | "iabs" | "ineg" | "imax" | "imin" | "iodd" | "incr" | "decr"
  | "fullword" | "hlfword" | "byteword" | "addr" | "pos_constant"
  | "neg_constant" | "dsp" | "v" | "r" | "lng" | "elmnt" ->
      true
  | _ -> false)
  && List.for_all pure kids

let min_nodes = 3

type state = {
  mutable next_cse : int;
  mutable frame : Layout.t;
  mutable temps : (int * int) list; (* cse id -> temp displacement *)
}

(* canonical key for structural equality *)
let rec key (Tree.Node (t, kids)) =
  Token.to_string t ^ "(" ^ String.concat "," (List.map key kids) ^ ")"

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

(* count occurrences of every eligible subtree *)
let rec census ?(root_ok = true) (tbl : (string, int) Hashtbl.t)
    (Tree.Node (t, kids) as tree) =
  if
    root_ok
    && eligible_root t.Token.sym
    && Tree.size tree >= min_nodes
    && pure tree
  then begin
    let k = key tree in
    Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0)
  end;
  List.iteri
    (fun i kid -> census ~root_ok:(not (positional t.Token.sym i)) tbl kid)
    kids

(* rewrite: for chosen keys, first occurrence -> make_common, rest ->
   use_common.  Top-down so outermost repeats win; inside a replaced
   subtree no further rewriting happens (its copies are gone). *)
type chosen = { id : int; total : int; mutable seen : int; temp : int }

let rec rewrite ?(root_ok = true) (choice : (string, chosen) Hashtbl.t)
    (Tree.Node (t, kids) as tree) : Tree.t =
  let rewrite_kids () =
    List.mapi
      (fun i kid -> rewrite ~root_ok:(not (positional t.Token.sym i)) choice kid)
      kids
  in
  match (if root_ok then Hashtbl.find_opt choice (key tree) else None) with
  | Some c when c.seen = 0 ->
      c.seen <- 1;
      (* definition: keep the computation, declare the CSE *)
      let inner = Tree.Node (t, rewrite_kids ()) in
      Tree.node "make_common"
        [
          Tree.Node (Token.cse "cse" c.id, []);
          Tree.Node (Token.int "cnt" (c.total - 1), []);
          Tree.node "fullword"
            [
              Tree.Node (Token.int "dsp" c.temp, []);
              Tree.Node (Token.reg "r" Machine.Runtime.stack_base, []);
            ];
          inner;
        ]
  | Some c ->
      c.seen <- c.seen + 1;
      Tree.node "use_common" [ Tree.Node (Token.cse "cse" c.id, []) ]
  | None -> Tree.Node (t, rewrite_kids ())

(* Reserve the temporary for the repeated subtree [k] and record the
   choice.  False when the frame has no room left for it: the subtree
   stays uncommoned, which costs code size, never correctness, and the
   failed placement leaves the frame and the CSE numbering untouched. *)
let place (st : state) tbl choice k =
  let id = st.next_cse in
  match Layout.temp st.frame (Fmt.str "cse-%d" id) with
  | temp ->
      st.next_cse <- id + 1;
      st.temps <- (id, temp) :: st.temps;
      Hashtbl.replace choice k
        { id; total = Hashtbl.find tbl k; seen = 0; temp };
      true
  | exception Layout.Frame_overflow _ -> false

(** Optimize one statement tree.  [state] carries the CSE numbering and
    the frame that provides temporaries. *)
let optimize_statement (st : state) (tree : Tree.t) : Tree.t =
  let tbl = Hashtbl.create 16 in
  census tbl tree;
  let choice = Hashtbl.create 4 in
  (* choose outermost repeated subtrees: walk top-down, and when a node is
     chosen do not consider its descendants *)
  let rec choose ?(root_ok = true) (Tree.Node (t, kids) as tr) =
    let k = key tr in
    if root_ok && Hashtbl.mem choice k then
      (* every occurrence of a chosen subtree is replaced wholesale, so
         nothing below it can need its own CSE *)
      ()
    else if
      not
        (root_ok
        && eligible_root t.Token.sym
        && Tree.size tr >= min_nodes
        && pure tr
        && Option.value (Hashtbl.find_opt tbl k) ~default:0 >= 2
        && place st tbl choice k)
    then
      List.iteri
        (fun i kid -> choose ~root_ok:(not (positional t.Token.sym i)) kid)
        kids
  in
  choose tree;
  if Hashtbl.length choice = 0 then tree else rewrite choice tree

(** Optimize a shaped program: CSEs are numbered across the module (they
    are "valid throughout the compilation"), temporaries come from the
    frame owning the statement. *)
let optimize (shaped : Irgen.shaped) : Irgen.shaped =
  let st = { next_cse = 1; frame = shaped.Irgen.main_frame; temps = [] } in
  (* statements before the first procedure label belong to main; after a
     label_def that matches a procedure entry, switch frames *)
  let proc_label_frames =
    List.filter_map
      (fun (name, _, lbl) ->
        Option.map (fun f -> (lbl, f)) (List.assoc_opt name shaped.Irgen.proc_frames))
      shaped.Irgen.proc_slots
  in
  let trees =
    List.map
      (fun tree ->
        (match tree with
        | Tree.Node (t, [ Tree.Node (l, []) ]) when t.Token.sym = "label_def"
          -> (
            match l.Token.value with
            | Ifl.Value.Label n | Ifl.Value.Int n -> (
                match List.assoc_opt n proc_label_frames with
                | Some f -> st.frame <- f
                | None -> ())
            | _ -> ())
        | _ -> ());
        optimize_statement st tree)
      shaped.Irgen.trees
  in
  { shaped with Irgen.trees }
