(** The IF optimizer's common-subexpression detection (paper section 4.4):
    "All CSEs are detected, and their use counts established, by an IF
    optimizer."

    Scope: within a single statement tree, which keeps the transformation
    trivially safe (no assignment can intervene between the definition and
    its uses).  Candidate subtrees are pure integer-register-valued
    computations of at least [min_nodes] nodes; the first occurrence is
    wrapped in [make_common] (with the shaper-allocated temporary), later
    occurrences become [use_common].  Each statement is hashed once,
    bottom-up, without allocating; only a statement in which two
    candidates hash alike is hash-consed into classes, so the pass is
    O(size) and most statements cost it no allocation. *)

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

(* A node's hash, from its token's and then its children's in order:
   equal subtrees hash equal.  Both walks below compute it. *)
let mix h kid = (h * 65599) + kid

(* -- the census pre-scan ------------------------------------------------------ *)

(* Most statements repeat no candidate (an eligible root of at least
   [min_nodes] nodes, pure, in a non-positional spot); for them the
   annotation would build a table and an annotated copy only to choose
   nothing.  The scan hashes every node bottom-up and keeps the hashes of
   the candidates.  When no two are equal, no class can reach two uses
   and the statement is returned as it is; a collision only sends a
   statement through the full pass.  The scan allocates nothing but the
   occasional doubling of [cands]: a node's hash and purity come back in
   the mutable fields, its size as the result. *)
type scan = {
  mutable hash : int;
  mutable pure : bool;
  mutable cands : int array;  (** the statement's candidate hashes *)
  mutable n : int;
}

let add_cand sc h =
  if sc.n = Array.length sc.cands then begin
    let a = Array.make (2 * sc.n) 0 in
    Array.blit sc.cands 0 a 0 sc.n;
    sc.cands <- a
  end;
  sc.cands.(sc.n) <- h;
  sc.n <- sc.n + 1

let rec scan_node sc ~root_ok (Tree.Node (t, kids)) =
  let sym = t.Token.sym in
  let size = scan_kids sc sym 0 (Hashtbl.hash t) 1 (pure_op sym) kids in
  if root_ok && eligible_root sym && size >= min_nodes && sc.pure then
    add_cand sc sc.hash;
  size

and scan_kids sc sym i h size pure = function
  | [] ->
      sc.hash <- h;
      sc.pure <- pure;
      size
  | k :: rest ->
      let s = scan_node sc ~root_ok:(not (positional sym i)) k in
      scan_kids sc sym (i + 1) (mix h sc.hash) (size + s) (pure && sc.pure) rest

let rec occurs sc h j = j < sc.n && (sc.cands.(j) = h || occurs sc h (j + 1))

let rec repeat_from sc i =
  i < sc.n && (occurs sc sc.cands.(i) (i + 1) || repeat_from sc (i + 1))

(* -- classes ------------------------------------------------------------------ *)

(* One class per distinct subtree of a statement: the first occurrence's
   token and annotated children, interned on its hash (classes whose
   hashes collide hang off the first one's [collide]).  [uses] counts its
   candidate occurrences; [Chosen (number, temporary)] once it is to
   become a CSE. *)
type cls = {
  hash : int;
  size : int;
  pure : bool;
  tok : Token.t;
  kids : ann list;
  mutable uses : int;
  mutable cse : cse;
  mutable collide : cls list;
}

and cse = Unchosen | Chosen of int * int | Defined of int
and ann = A of Token.t * cls * ann list

let rec kids_hash h = function
  | [] -> h
  | A (_, c, _) :: rest -> kids_hash (mix h c.hash) rest

let rec kids_size n = function
  | [] -> n
  | A (_, c, _) :: rest -> kids_size (n + c.size) rest

let rec kids_pure = function
  | [] -> true
  | A (_, c, _) :: rest -> c.pure && kids_pure rest

(* one class per distinct subtree, so children are equal exactly when
   their classes are the same *)
let rec same_kids a b =
  match (a, b) with
  | [], [] -> true
  | A (_, c, _) :: a, A (_, d, _) :: b -> c == d && same_kids a b
  | _ -> false

let is_class t kids c = Token.equal c.tok t && same_kids c.kids kids

let rec find_colliding t kids = function
  | [] -> raise Not_found
  | c :: rest -> if is_class t kids c then c else find_colliding t kids rest

let new_class hash t kids =
  {
    hash;
    size = kids_size 1 kids;
    pure = pure_op t.Token.sym && kids_pure kids;
    tok = t;
    kids;
    uses = 0;
    cse = Unchosen;
    collide = [];
  }

(* Annotate bottom-up, interning each node in [tbl] and counting the
   occurrences of every candidate (the census). *)
let rec annotate tbl ~root_ok (Tree.Node (t, kids)) =
  let sym = t.Token.sym in
  let kids = annotate_kids tbl sym 0 kids in
  let hash = kids_hash (Hashtbl.hash t) kids in
  let c =
    match Hashtbl.find tbl hash with
    | first when is_class t kids first -> first
    | first -> (
        match find_colliding t kids first.collide with
        | c -> c
        | exception Not_found ->
            let c = new_class hash t kids in
            first.collide <- c :: first.collide;
            c)
    | exception Not_found ->
        let c = new_class hash t kids in
        Hashtbl.add tbl hash c;
        c
  in
  if root_ok && eligible_root sym && c.size >= min_nodes && c.pure then
    c.uses <- c.uses + 1;
  A (t, c, kids)

and annotate_kids tbl sym i = function
  | [] -> []
  | k :: rest ->
      let a = annotate tbl ~root_ok:(not (positional sym i)) k in
      a :: annotate_kids tbl sym (i + 1) rest

type state = {
  mutable next_cse : int;
  mutable frame : Layout.t;
  scan : scan;
  classes : (int, cls) Hashtbl.t;  (** the statement's, cleared before each *)
}

(* Reserve the temporary for the repeated class [c] and record the
   choice.  False when the frame has no room left for it: the subtree
   stays uncommoned, which costs code size, never correctness, and the
   failed placement leaves the frame and the CSE numbering untouched. *)
let place (st : state) c =
  let id = st.next_cse in
  match Layout.temp st.frame ("cse-" ^ string_of_int id) with
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
  let rewrite_kids () =
    List.mapi
      (fun i k -> rewrite ~root_ok:(not (positional t.Token.sym i)) k)
      kids
  in
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
  st.scan.n <- 0;
  ignore (scan_node st.scan ~root_ok:true tree : int);
  if not (repeat_from st.scan 0) then tree
  else begin
    Hashtbl.clear st.classes;
    let a = annotate st.classes ~root_ok:true tree in
    let next = st.next_cse in
    choose st ~root_ok:true a;
    if st.next_cse = next then tree else rewrite ~root_ok:true a
  end

(** Optimize a shaped program: CSEs are numbered across the module (they
    are "valid throughout the compilation"), temporaries come from the
    frame owning the statement.  The input is left as it was: the
    temporaries go into copies of its frames, returned in the result. *)
let optimize (shaped : Irgen.shaped) : Irgen.shaped =
  let main_frame = Layout.copy shaped.Irgen.main_frame in
  let proc_frames =
    List.map (fun (n, f) -> (n, Layout.copy f)) shaped.Irgen.proc_frames
  in
  let st =
    {
      next_cse = 1;
      frame = main_frame;
      scan = { hash = 0; pure = true; cands = Array.make 16 0; n = 0 };
      classes = Hashtbl.create 64;
    }
  in
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
