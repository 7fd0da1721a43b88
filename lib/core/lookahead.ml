(** Reduce lookahead computation: SLR(1) and LALR(1).

    SLR uses FOLLOW sets.  LALR lookaheads are computed with the
    spontaneous-generation / propagation algorithm (Dragon book 4.63)
    over the LR(0) automaton, using a sentinel lookahead [#].

    Both modes are per-state data-parallel in their expensive phase (the
    SLR map over states; the LALR discovery of spontaneous lookaheads and
    propagation links), so [reductions] accepts an optional {!Pool}.  Each
    state's computation is the same sequential code at any worker count
    and the merge walks states in index order, so the result is
    independent of the pool size.  Hash tables are monomorphic over packed
    integer keys (items, and (state, item) pairs) — the polymorphic
    hash/equality on tuples otherwise shows up in the LALR profile. *)

module Symset = Grammar.Symset

type mode = Slr | Lalr

let sentinel = -1

(* Fibonacci-style multiplicative hash: items and packed (state, item)
   keys are small dense ints, which the identity hash would cluster. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) (b : int) = a = b
  let hash x = x * 0x9e3779b1 land 0x3fffffff
end)

(* LR(1) closure over (item -> lookahead set), as a fixpoint. *)
let closure1 (g : Grammar.t) (an : Grammar.analysis)
    (init : (Lr0.item * Symset.t) list) : Symset.t Int_tbl.t =
  let sets : Symset.t Int_tbl.t = Int_tbl.create 32 in
  let work = Queue.create () in
  let add item la =
    let cur = Option.value (Int_tbl.find_opt sets item) ~default:Symset.empty in
    let merged = Symset.union cur la in
    if not (Symset.equal cur merged) then begin
      Int_tbl.replace sets item merged;
      Queue.add item work
    end
  in
  List.iter (fun (i, la) -> add i la) init;
  while not (Queue.is_empty work) do
    let i = Queue.pop work in
    let la = Int_tbl.find sets i in
    let p = Grammar.prod g (Lr0.item_prod i) in
    let dot = Lr0.item_dot i in
    if dot < Array.length p.rhs then begin
      let b = p.rhs.(dot) in
      if g.Grammar.is_nonterminal.(b) then begin
        let fst, nullable = Grammar.first_of_seq an p.rhs ~from:(dot + 1) in
        let new_la = if nullable then Symset.union fst la else fst in
        List.iter
          (fun pid -> add (Lr0.item ~prod:pid ~dot:0) new_la)
          g.Grammar.by_lhs.(b)
      end
    end
  done;
  sets

(** LALR kernel lookaheads, keyed by [state * item_bound + item]. *)
let lalr_kernel_lookaheads ?pool (a : Lr0.t) (an : Grammar.analysis) :
    int * Symset.t Int_tbl.t =
  let g = a.Lr0.grammar in
  let item_bound = Grammar.n_prods g lsl Lr0.dot_bits in
  let key state item = (state * item_bound) + item in
  (* per-state discovery: for each kernel item, the spontaneous
     lookaheads it generates and the kernel items it propagates to.
     Pure per state, so it maps over the pool; the merge below walks the
     per-state results in state order, making the link-table layout (and
     hence everything downstream) independent of the worker count. *)
  let discover (st : Lr0.state) =
    let spont = ref [] and links = ref [] in
    Array.iter
      (fun k ->
        let cl = closure1 g an [ (k, Symset.singleton sentinel) ] in
        let my_links = ref [] in
        Int_tbl.iter
          (fun i iset ->
            let p = Grammar.prod g (Lr0.item_prod i) in
            let dot = Lr0.item_dot i in
            if dot < Array.length p.rhs then begin
              let x = p.rhs.(dot) in
              match Lr0.goto st x with
              | None -> ()
              | Some s' ->
                  let adv = Lr0.item ~prod:(Lr0.item_prod i) ~dot:(dot + 1) in
                  let s = Symset.remove sentinel iset in
                  if not (Symset.is_empty s) then
                    spont := (key s' adv, s) :: !spont;
                  if Symset.mem sentinel iset then
                    my_links := key s' adv :: !my_links
            end)
          cl;
        if !my_links <> [] then links := (key st.Lr0.id k, !my_links) :: !links)
      st.Lr0.kernel;
    (List.rev !spont, List.rev !links)
  in
  let discovered = Pool.maybe pool discover a.Lr0.states in
  let la : Symset.t Int_tbl.t = Int_tbl.create 256 in
  let links : int list Int_tbl.t = Int_tbl.create 256 in
  let get k = Option.value (Int_tbl.find_opt la k) ~default:Symset.empty in
  (* initial: goal item gets eof *)
  let goal_item = a.Lr0.states.(a.Lr0.start).Lr0.kernel.(0) in
  Int_tbl.replace la (key a.Lr0.start goal_item) (Symset.singleton g.Grammar.eof);
  Array.iter
    (fun (spont, lks) ->
      List.iter (fun (k, s) -> Int_tbl.replace la k (Symset.union (get k) s)) spont;
      List.iter
        (fun (src, dsts) ->
          Int_tbl.replace links src
            (dsts @ Option.value (Int_tbl.find_opt links src) ~default:[]))
        lks)
    discovered;
  (* propagate to fixpoint *)
  let changed = ref true in
  while !changed do
    changed := false;
    Int_tbl.iter
      (fun src dsts ->
        let s = get src in
        if not (Symset.is_empty s) then
          List.iter
            (fun dst ->
              let cur = get dst in
              let merged = Symset.union cur s in
              if not (Symset.equal cur merged) then begin
                Int_tbl.replace la dst merged;
                changed := true
              end)
            dsts)
      links
  done;
  (item_bound, la)

(** [reductions ?pool a an mode] returns, per state, the reducible
    productions with their lookahead sets. *)
let reductions ?pool (a : Lr0.t) (an : Grammar.analysis) (mode : mode) :
    (int * Symset.t) list array =
  let g = a.Lr0.grammar in
  match mode with
  | Slr ->
      Pool.maybe pool
        (fun st ->
          Lr0.reducible g st
          |> List.map (fun i ->
                 let p = Lr0.item_prod i in
                 (p, an.Grammar.follow.((Grammar.prod g p).lhs)))
          |> List.sort_uniq compare)
        a.Lr0.states
  | Lalr ->
      let item_bound, kla = lalr_kernel_lookaheads ?pool a an in
      Pool.maybe pool
        (fun (st : Lr0.state) ->
          (* run the lookahead closure over the kernel with its final
             lookahead sets, then read off the final items *)
          let init =
            Array.to_list st.Lr0.kernel
            |> List.map (fun k ->
                   ( k,
                     Option.value
                       (Int_tbl.find_opt kla ((st.Lr0.id * item_bound) + k))
                       ~default:Symset.empty ))
          in
          let cl = closure1 g an init in
          Int_tbl.fold
            (fun i iset acc ->
              let p = Grammar.prod g (Lr0.item_prod i) in
              if Lr0.item_dot i = Array.length p.rhs then (p.id, iset) :: acc
              else acc)
            cl []
          |> List.sort_uniq compare)
        a.Lr0.states
