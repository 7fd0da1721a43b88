(** Context-free grammar over interned symbols.

    The grammar describes the capabilities of the intermediate form
    (paper section 1).  A peculiarity of the Graham-Glanville setting:
    non-terminals can appear literally in the input stream (dedicated
    registers such as the stack base arrive as [r] tokens), so every
    symbol is simultaneously a potential input token; [first] sets
    therefore include the non-terminal itself. *)

type sym = int

type prod = {
  id : int;
  lhs : sym;
  rhs : sym array;
  line : int;  (** source line in the specification, for diagnostics *)
}

type t = {
  names : string array;  (** symbol id -> name *)
  index : (string, sym) Hashtbl.t;
  is_nonterminal : bool array;  (** appears as an LHS / register class *)
  in_if : bool array;  (** can this symbol appear in the IF input stream? *)
  prods : prod array;
  by_lhs : int list array;  (** lhs sym -> production ids *)
  goal : sym;
  lambda : sym;
  stmts : sym;
  eof : sym;
}

let name g s = g.names.(s)
let sym g n = Hashtbl.find_opt g.index n

(* [sym] without the option: the id, or -1 for a name outside the
   grammar; allocates nothing on either path *)
let id g n =
  match Hashtbl.find g.index n with s -> s | exception Not_found -> -1

let n_syms g = Array.length g.names
let n_prods g = Array.length g.prods
let prod g i = g.prods.(i)

let pp_prod g ppf (p : prod) =
  Fmt.pf ppf "%s ::=%a" (name g p.lhs)
    (fun ppf rhs -> Array.iter (fun s -> Fmt.pf ppf " %s" (name g s)) rhs)
    p.rhs

let prod_to_string g p = Fmt.str "%a" (pp_prod g) p

(** Reserved internal symbol names used by the augmentation. *)
let goal_name = "%goal"
let stmts_name = "%stmts"
let eof_name = "%eof"
let lambda_name = "lambda"

type builder = {
  mutable b_names : string list; (* reversed *)
  b_index : (string, sym) Hashtbl.t;
  mutable b_count : int;
  mutable b_prods : (sym * sym array * int) list; (* reversed *)
  b_nonterminal : (sym, unit) Hashtbl.t;
  b_not_in_if : (sym, unit) Hashtbl.t;
}

let builder () =
  {
    b_names = [];
    b_index = Hashtbl.create 64;
    b_count = 0;
    b_prods = [];
    b_nonterminal = Hashtbl.create 16;
    b_not_in_if = Hashtbl.create 16;
  }

let intern b name =
  match Hashtbl.find_opt b.b_index name with
  | Some s -> s
  | None ->
      let s = b.b_count in
      b.b_count <- s + 1;
      b.b_names <- name :: b.b_names;
      Hashtbl.replace b.b_index name s;
      s

(** Declare [name] as a non-terminal (registers classes, lambda, ...). *)
let declare_nonterminal ?(in_if = true) b name =
  let s = intern b name in
  Hashtbl.replace b.b_nonterminal s ();
  if not in_if then Hashtbl.replace b.b_not_in_if s ();
  s

(** Declare a terminal or operator: a plain input symbol. *)
let declare_terminal b name = intern b name

let add_prod b ~lhs ~rhs ~line =
  b.b_prods <- (lhs, rhs, line) :: b.b_prods

(** Finalize: augments the grammar with
    [%goal ::= %stmts %eof], [%stmts ::= %stmts lambda] and [%stmts ::= ]
    so a linearized IF program (a sequence of statements) is one parse. *)
let finish b =
  let lambda =
    match Hashtbl.find_opt b.b_index lambda_name with
    | Some s -> s
    | None -> declare_nonterminal ~in_if:false b lambda_name
  in
  Hashtbl.replace b.b_nonterminal lambda ();
  Hashtbl.replace b.b_not_in_if lambda ();
  (* lambda is pushed back to the input on reduction, so it *does* occur
     in the stream the parser sees; it is excluded from the IF surface
     (the shaper never emits it) but the action table needs a column.
     We treat "in_if" as "emitted by the shaper" for statistics; lambda
     keeps its column regardless. *)
  let goal = declare_nonterminal ~in_if:false b goal_name in
  let stmts = declare_nonterminal ~in_if:false b stmts_name in
  let eof = intern b eof_name in
  Hashtbl.replace b.b_not_in_if eof ();
  (* user productions first (their ids are meaningful for templates),
     augmentation productions last *)
  let user = List.rev b.b_prods in
  let all =
    user
    @ [
        (goal, [| stmts; eof |], 0);
        (stmts, [| stmts; lambda |], 0);
        (stmts, [||], 0);
      ]
  in
  let names = Array.of_list (List.rev b.b_names) in
  let n = Array.length names in
  let is_nonterminal = Array.make n false in
  Hashtbl.iter (fun s () -> is_nonterminal.(s) <- true) b.b_nonterminal;
  let in_if = Array.make n true in
  Hashtbl.iter (fun s () -> in_if.(s) <- false) b.b_not_in_if;
  let prods =
    Array.of_list
      (List.mapi (fun id (lhs, rhs, line) -> { id; lhs; rhs; line }) all)
  in
  (* every LHS must be a non-terminal *)
  Array.iter
    (fun p ->
      if not is_nonterminal.(p.lhs) then
        invalid_arg
          (Fmt.str "Grammar.finish: LHS %s is not a non-terminal" names.(p.lhs)))
    prods;
  let by_lhs = Array.make n [] in
  Array.iter (fun p -> by_lhs.(p.lhs) <- p.id :: by_lhs.(p.lhs)) prods;
  Array.iteri (fun i l -> by_lhs.(i) <- List.rev l) by_lhs;
  {
    names;
    index = b.b_index;
    is_nonterminal;
    in_if;
    prods;
    by_lhs;
    goal;
    lambda;
    stmts;
    eof;
  }

(* -- FIRST sets ----------------------------------------------------------- *)

module Symset = Set.Make (Int)

type analysis = {
  first : Symset.t array;  (** FIRST(X), including X itself (see above) *)
  nullable : bool array;
  follow : Symset.t array;  (** FOLLOW over non-terminals *)
}

let first_of_seq (an : analysis) (seq : sym array) ~from : Symset.t * bool =
  (* FIRST of seq.[from..], and whether the suffix is nullable *)
  let rec go i acc =
    if i >= Array.length seq then (acc, true)
    else
      let s = seq.(i) in
      let acc = Symset.union acc an.first.(s) in
      if an.nullable.(s) then go (i + 1) acc else (acc, false)
  in
  go from Symset.empty

let analyze (g : t) : analysis =
  let n = n_syms g in
  let first = Array.init n (fun s -> Symset.singleton s) in
  (* Every symbol can appear literally in the input, hence the self-
     inclusion; non-terminals additionally derive their productions'
     first symbols. *)
  let nullable = Array.make n false in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun p ->
        (* nullable *)
        let all_null = Array.for_all (fun s -> nullable.(s)) p.rhs in
        if all_null && not nullable.(p.lhs) then begin
          nullable.(p.lhs) <- true;
          changed := true
        end;
        (* first *)
        let rec add i =
          if i < Array.length p.rhs then begin
            let s = p.rhs.(i) in
            let before = first.(p.lhs) in
            first.(p.lhs) <- Symset.union before first.(s);
            if not (Symset.equal before first.(p.lhs)) then changed := true;
            if nullable.(s) then add (i + 1)
          end
        in
        add 0)
      g.prods
  done;
  (* FOLLOW *)
  let follow = Array.make n Symset.empty in
  follow.(g.goal) <- Symset.singleton g.eof;
  let an0 = { first; nullable; follow } in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun p ->
        let m = Array.length p.rhs in
        for i = 0 to m - 1 do
          let s = p.rhs.(i) in
          if g.is_nonterminal.(s) then begin
            let fst_rest, rest_nullable = first_of_seq an0 p.rhs ~from:(i + 1) in
            let before = follow.(s) in
            let acc = Symset.union before fst_rest in
            let acc =
              if rest_nullable then Symset.union acc follow.(p.lhs) else acc
            in
            if not (Symset.equal before acc) then begin
              follow.(s) <- acc;
              changed := true
            end
          end
        done)
      g.prods
  done;
  { first; nullable; follow }
