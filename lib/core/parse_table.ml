(** Parse (action) table construction with Graham-Glanville conflict
    resolution.

    The table is indexed by state and by *every* grammar symbol: in this
    scheme non-terminals are shifted like tokens (reductions prefix their
    LHS back onto the input stream, paper footnote 3), so the classical
    ACTION and GOTO tables collapse into one.

    Conflicts are resolved as Glanville prescribes for machine grammars:
    - shift/reduce: shift (maximal munch over addressing idioms);
    - reduce/reduce: the production with the longer RHS wins; ties go to
      the earlier declaration.
    All resolutions are recorded for reporting. *)

type action = Shift of int | Reduce of int | Accept | Error

type conflict = {
  c_state : int;
  c_sym : Grammar.sym;
  c_kind : [ `Shift_reduce | `Reduce_reduce ];
  c_chosen : action;
  c_dropped : action;
}

type t = {
  grammar : Grammar.t;
  automaton : Lr0.t;
  mode : Lookahead.mode;
  actions : action array array; (* state x symbol *)
  conflicts : conflict list;
}

let n_states t = Array.length t.actions
let action t state sym = t.actions.(state).(sym)

let pp_action g ppf = function
  | Shift s -> Fmt.pf ppf "s%d" s
  | Reduce p -> Fmt.pf ppf "r%d(%s)" p (Grammar.prod_to_string g (Grammar.prod g p))
  | Accept -> Fmt.pf ppf "acc"
  | Error -> Fmt.pf ppf "."

let pp_conflict g ppf c =
  Fmt.pf ppf "state %d on %s: %s; kept %a, dropped %a" c.c_state
    (Grammar.name g c.c_sym)
    (match c.c_kind with
    | `Shift_reduce -> "shift/reduce"
    | `Reduce_reduce -> "reduce/reduce")
    (pp_action g) c.c_chosen (pp_action g) c.c_dropped

(* One value per distinct action.  A table has tens of thousands of
   shift and reduce entries but only [n_states + n_prods] distinct ones;
   a row that holds the shared values instead of a box per entry halves
   the table's memory, and with it a long-lived part of every process
   that compiles. *)
let interner ~n_states ~n_prods =
  let shifts = Array.init n_states (fun s -> Shift s)
  and reduces = Array.init n_prods (fun p -> Reduce p) in
  function
  | Shift s when s >= 0 && s < n_states -> shifts.(s)
  | Reduce p when p >= 0 && p < n_prods -> reduces.(p)
  | a -> a

(** Resolve two competing actions; returns (winner, conflict record).
    The winner is one of the two values given, never a copy. *)
let resolve g state sym a b : action * conflict option =
  if a = b then (a, None)
  else
    match (a, b) with
    | Error, x | x, Error -> (x, None)
    | Accept, x | x, Accept ->
        (* accept only competes on %eof; keep accept *)
        ( Accept,
          Some
            {
              c_state = state;
              c_sym = sym;
              c_kind = `Shift_reduce;
              c_chosen = Accept;
              c_dropped = x;
            } )
    | (Shift _ as shift), (Reduce _ as reduce)
    | (Reduce _ as reduce), (Shift _ as shift) ->
        ( shift,
          Some
            {
              c_state = state;
              c_sym = sym;
              c_kind = `Shift_reduce;
              c_chosen = shift;
              c_dropped = reduce;
            } )
    | Reduce p, Reduce q ->
        let len i = Array.length (Grammar.prod g i).rhs in
        let winner, loser =
          if len p > len q then (a, b)
          else if len q > len p then (b, a)
          else if p < q then (a, b)
          else (b, a)
        in
        ( winner,
          Some
            {
              c_state = state;
              c_sym = sym;
              c_kind = `Reduce_reduce;
              c_chosen = winner;
              c_dropped = loser;
            } )
    | Shift s1, Shift s2 ->
        (* impossible in a deterministic LR(0) automaton *)
        invalid_arg
          (Fmt.str "Parse_table.resolve: shift/shift %d/%d in state %d" s1 s2
             state)

let build ?pool ?(mode = Lookahead.Slr) (a : Lr0.t) : t =
  let g = a.Lr0.grammar in
  let an = Grammar.analyze g in
  let n_syms = Grammar.n_syms g in
  let reds = Lookahead.reductions ?pool a an mode in
  let shared = interner ~n_states:(Lr0.n_states a) ~n_prods:(Grammar.n_prods g) in
  (* Each state's row depends only on that state's transitions and
     reductions, so the fill maps over the pool one state at a time.
     Conflicts are collected per state and concatenated in state order
     below, which makes both the table and the conflict report identical
     at any worker count (and to the sequential build: within a state,
     shifts apply before reductions, exactly as before). *)
  let fill (st : Lr0.state) =
    let row = Array.make n_syms Error in
    let conflicts = ref [] in
    let set sym act =
      let cur = row.(sym) in
      let winner, c = resolve g st.Lr0.id sym cur act in
      row.(sym) <- winner;
      match c with Some c -> conflicts := c :: !conflicts | None -> ()
    in
    (* shifts (including non-terminal "gotos") *)
    List.iter
      (fun (sym, dst) ->
        if sym = g.Grammar.eof then
          (* the goal item shifts eof; that is acceptance *)
          set sym Accept
        else set sym (shared (Shift dst)))
      st.Lr0.transitions;
    (* reductions *)
    List.iter
      (fun (p, las) ->
        Grammar.Symset.iter
          (fun sym ->
            if sym >= 0 && sym <> g.Grammar.goal then set sym (shared (Reduce p)))
          las)
      reds.(st.Lr0.id);
    (row, List.rev !conflicts)
  in
  let filled = Pool.maybe pool fill a.Lr0.states in
  let actions = Array.map fst filled in
  let conflicts = List.concat_map snd (Array.to_list filled) in
  { grammar = g; automaton = a; mode; actions; conflicts }

(** Number of non-error entries (the paper's "significant entries"),
    counted over the given symbol columns. *)
let significant_entries ?(cols = None) t =
  let keep =
    match cols with
    | None -> fun _ -> true
    | Some set -> fun s -> List.mem s set
  in
  Array.fold_left
    (fun acc row ->
      let c = ref 0 in
      Array.iteri (fun s a -> if keep s && a <> Error then incr c) row;
      acc + !c)
    0 t.actions
