(** LR(0) automaton construction.

    States are canonical sets of kernel items; closures are computed on
    demand.  Items are packed into ints: [(prod lsl DOT_BITS) lor dot].

    The frontier search is sequential (each new state can seed further
    states), so construction speed lives and dies on its constant
    factors: the kernel index is a hash table monomorphic over item arrays
    (FNV-1a over the packed ints, monomorphic equality — no polymorphic
    [compare]/[Hashtbl.hash] walks), the closure's visited set is a byte
    table indexed by packed item, and the per-state grouping structures
    are hoisted out of the work loop and reset between states instead of
    reallocated. *)

let dot_bits = 5
let max_rhs = (1 lsl dot_bits) - 1

type item = int

let item ~prod ~dot : item = (prod lsl dot_bits) lor dot
let item_prod (i : item) = i lsr dot_bits
let item_dot (i : item) = i land max_rhs

type state = {
  id : int;
  kernel : item array; (* sorted *)
  mutable closure : item array; (* kernel + nonkernel, sorted *)
  mutable transitions : (Grammar.sym * int) list; (* symbol -> state id *)
}

type t = {
  grammar : Grammar.t;
  states : state array;
  start : int;
}

let n_states t = Array.length t.states

let pp_item g ppf (i : item) =
  let p = Grammar.prod g (item_prod i) in
  let dot = item_dot i in
  Fmt.pf ppf "%s ::=" (Grammar.name g p.lhs);
  Array.iteri
    (fun k s ->
      if k = dot then Fmt.pf ppf " .";
      Fmt.pf ppf " %s" (Grammar.name g s))
    p.rhs;
  if dot = Array.length p.rhs then Fmt.pf ppf " ."

(* Kernels are small sorted int arrays; hash and compare them directly
   rather than through the polymorphic primitives (which dominate the
   frontier loop's profile on grammars with hundreds of states). *)
module Kernel_tbl = Hashtbl.Make (struct
  type t = item array

  let equal (a : item array) (b : item array) =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
    go 0

  let hash (a : item array) =
    let h = ref 0x811c9dc5 in
    for i = 0 to Array.length a - 1 do
      h := (!h lxor a.(i)) * 0x01000193 land 0x3fffffff
    done;
    !h
end)

let sort_items (a : item array) =
  Array.sort (fun (x : int) y -> Int.compare x y) a

(** Closure of an item set: a dot before non-terminal N adds N's
    productions with the dot at the start.  [seen] is a caller-provided
    byte table of size [n_prods lsl dot_bits]; it is used and wiped
    within the call. *)
let closure_into (g : Grammar.t) ~(seen : Bytes.t) (kernel : item array) :
    item array =
  let acc = ref [] in
  let count = ref 0 in
  let rec add i =
    if Bytes.unsafe_get seen i = '\000' then begin
      Bytes.unsafe_set seen i '\001';
      acc := i :: !acc;
      incr count;
      let p = Grammar.prod g (item_prod i) in
      let dot = item_dot i in
      if dot < Array.length p.rhs then
        let s = p.rhs.(dot) in
        if g.Grammar.is_nonterminal.(s) then
          List.iter
            (fun pid -> add (item ~prod:pid ~dot:0))
            g.Grammar.by_lhs.(s)
    end
  in
  Array.iter add kernel;
  let a = Array.make !count 0 in
  List.iteri
    (fun k i ->
      a.(!count - 1 - k) <- i;
      Bytes.unsafe_set seen i '\000')
    !acc;
  sort_items a;
  a

(** Standalone closure (tests, diagnostics): allocates its own table. *)
let closure (g : Grammar.t) (kernel : item array) : item array =
  closure_into g ~seen:(Bytes.make (Grammar.n_prods g lsl dot_bits) '\000') kernel

let build (g : Grammar.t) : t =
  if
    Array.exists
      (fun (p : Grammar.prod) -> Array.length p.rhs > max_rhs)
      g.Grammar.prods
  then invalid_arg "Lr0.build: production RHS too long";
  let goal_prod =
    match g.Grammar.by_lhs.(g.Grammar.goal) with
    | [ p ] -> p
    | _ -> invalid_arg "Lr0.build: goal must have exactly one production"
  in
  let states = ref [] in
  let n = ref 0 in
  let index : int Kernel_tbl.t = Kernel_tbl.create 256 in
  let worklist = Queue.create () in
  let get_state kernel =
    match Kernel_tbl.find_opt index kernel with
    | Some id -> id
    | None ->
        let id = !n in
        incr n;
        let st = { id; kernel; closure = [||]; transitions = [] } in
        Kernel_tbl.replace index kernel id;
        states := st :: !states;
        Queue.add st worklist;
        id
  in
  let start = get_state [| item ~prod:goal_prod ~dot:0 |] in
  (* hoisted per-state scratch: the closure's visited bytes, and the
     grouping of advanceable items by the symbol after the dot (an array
     indexed by symbol plus the list of symbols actually touched) *)
  let seen = Bytes.make (Grammar.n_prods g lsl dot_bits) '\000' in
  let n_syms = Grammar.n_syms g in
  let by_sym : item list array = Array.make n_syms [] in
  let touched = ref [] in
  while not (Queue.is_empty worklist) do
    let st = Queue.pop worklist in
    let cl = closure_into g ~seen st.kernel in
    st.closure <- cl;
    Array.iter
      (fun i ->
        let p = Grammar.prod g (item_prod i) in
        let dot = item_dot i in
        if dot < Array.length p.rhs then begin
          let s = p.rhs.(dot) in
          if by_sym.(s) = [] then touched := s :: !touched;
          by_sym.(s) <- item ~prod:(item_prod i) ~dot:(dot + 1) :: by_sym.(s)
        end)
      cl;
    let syms = Array.of_list !touched in
    Array.sort (fun (a : int) b -> Int.compare a b) syms;
    let trans =
      Array.to_list
        (Array.map
           (fun s ->
             let kernel = Array.of_list by_sym.(s) in
             by_sym.(s) <- [];
             sort_items kernel;
             (s, get_state kernel))
           syms)
    in
    touched := [];
    (* transitions are already in symbol order: deterministic tables *)
    st.transitions <- trans
  done;
  let arr = Array.make !n (List.hd !states) in
  List.iter (fun st -> arr.(st.id) <- st) !states;
  { grammar = g; states = arr; start }

(** Final (reducible) items of a state's closure. *)
let reducible (g : Grammar.t) (st : state) : item list =
  Array.to_list st.closure
  |> List.filter (fun i ->
         let p = Grammar.prod g (item_prod i) in
         item_dot i = Array.length p.rhs)

let goto (st : state) (s : Grammar.sym) : int option =
  List.assoc_opt s st.transitions
