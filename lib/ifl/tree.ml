(** Tree view of the intermediate form.

    The input to the code generator "is actually a linearized tree
    structure" (paper, section 6).  The front end builds trees; the shaper
    rewrites them; [linearize] produces the prefix token stream the
    table-driven code generator parses. *)

type t = Node of Token.t * t list

let node ?value sym children = Node (Token.make ?value sym, children)
let leaf ?value sym = Node (Token.make ?value sym, [])
let token (Node (t, _)) = t
let children (Node (_, cs)) = cs

let rec size (Node (_, cs)) = 1 + List.fold_left (fun a c -> a + size c) 0 cs

(* the prefix order built right to left: a tree's children are
   linearized onto the tokens that follow them, then the tree's own
   token goes in front, so each token is consed once and the result
   needs no reversal *)
let rec linearize_onto (Node (t, cs)) rest =
  t :: List.fold_right linearize_onto cs rest

(** Prefix (Polish) linearization of one tree. *)
let linearize t = linearize_onto t []

(** Linearize a program: a sequence of statement trees becomes one token
    stream, statement by statement. *)
let linearize_program ts = List.fold_right linearize_onto ts []

let rec pp ppf (Node (t, cs)) =
  match cs with
  | [] -> Token.pp ppf t
  | _ -> Fmt.pf ppf "(@[%a@ %a@])" Token.pp t (Fmt.list ~sep:Fmt.sp pp) cs

let to_string t = Fmt.str "%a" pp t

let rec equal (Node (t1, c1)) (Node (t2, c2)) =
  Token.equal t1 t2
  && List.length c1 = List.length c2
  && List.for_all2 equal c1 c2
