(** Line-oriented parser for the specification language (Appendix 2
    syntax).  All errors carry line numbers. *)

type error = { line : int; msg : string }

let pp_error ppf e =
  if e.line > 0 then Fmt.pf ppf "spec:%d: %s" e.line e.msg
  else Fmt.pf ppf "spec: %s" e.msg

exception Fail of error

let fail line fmt = Fmt.kstr (fun msg -> raise (Fail { line; msg })) fmt

(* -- lexical helpers ------------------------------------------------------ *)

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '%'

let is_ident c = is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

(* Split an operand field at top-level commas (commas inside parentheses
   separate sub-operands). *)
let split_operands line s =
  let out = ref [] and buf = Buffer.create 16 and depth = ref 0 in
  String.iter
    (fun c ->
      match c with
      | '(' ->
          incr depth;
          Buffer.add_char buf c
      | ')' ->
          decr depth;
          if !depth < 0 then fail line "unbalanced ')' in operands";
          Buffer.add_char buf c
      | ',' when !depth = 0 ->
          out := Buffer.contents buf :: !out;
          Buffer.clear buf
      | c -> Buffer.add_char buf c)
    s;
  if !depth <> 0 then fail line "unbalanced '(' in operands";
  out := Buffer.contents buf :: !out;
  List.rev_map String.trim !out

let parse_atom line (s : string) : Spec_ast.atom =
  let s = String.trim s in
  if s = "" then fail line "empty operand atom"
  else if is_digit s.[0] || s.[0] = '-' then
    match int_of_string_opt s with
    | Some n -> Anum n
    | None -> fail line "malformed number %S" s
  else
    match String.index_opt s '.' with
    | None ->
        if not (String.for_all is_ident s) then
          fail line "malformed identifier %S" s;
        Asym (Spec_ast.ssym s)
    | Some i -> (
        let base = String.sub s 0 i in
        let idx = String.sub s (i + 1) (String.length s - i - 1) in
        if base = "" || not (String.for_all is_ident base) then
          fail line "malformed identifier %S" s;
        match int_of_string_opt idx with
        | Some n when n >= 0 -> Asym (Spec_ast.ssym ~idx:n base)
        | _ -> fail line "malformed index in %S" s)

let parse_operand line (s : string) : Spec_ast.operand =
  let s = String.trim s in
  match String.index_opt s '(' with
  | None -> { o_base = parse_atom line s; o_subs = [] }
  | Some i ->
      if s.[String.length s - 1] <> ')' then
        fail line "operand %S: expected closing ')'" s;
      let base = String.sub s 0 i in
      let inner = String.sub s (i + 1) (String.length s - i - 2) in
      let subs =
        String.split_on_char ',' inner |> List.map (parse_atom line)
      in
      if List.length subs > 2 then
        fail line "operand %S: at most two sub-operands" s;
      { o_base = parse_atom line base; o_subs = subs }

let parse_ssym line (s : string) : Spec_ast.ssym =
  match parse_atom line s with
  | Asym x -> x
  | Anum _ -> fail line "expected a symbol, got number %S" s

(* split a line into whitespace-separated words *)
let words s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

(* -- sections ------------------------------------------------------------- *)

type section =
  | Options
  | Nonterminals
  | Terminals
  | Operators
  | Opcodes
  | Constants
  | Productions

let section_of_header line (s : string) =
  let l = String.lowercase_ascii s in
  let has p =
    String.length l >= String.length p && String.sub l 0 (String.length p) = p
  in
  if has "$options" then Options
  else if has "$non-terminals" || has "$nonterminals" then Nonterminals
  else if has "$terminals" then Terminals
  else if has "$operators" then Operators
  else if has "$opcodes" then Opcodes
  else if has "$constants" then Constants
  else if has "$productions" then Productions
  else fail line "unknown section header %S" s

(* -- declarations ---------------------------------------------------------- *)

(* Declarations are comma/semicolon separated [name], [name = word] or
   [name = number] entries, possibly spanning many lines. *)
let parse_decl_entry lineno (s : string) : Spec_ast.decl option =
  let s = String.trim s in
  if s = "" then None
  else
    match String.index_opt s '=' with
    | None ->
        if not (String.for_all is_ident s) then
          fail lineno "malformed declaration %S" s;
        Some { d_name = s; d_value = Dnone; d_line = lineno }
    | Some i ->
        let name = String.trim (String.sub s 0 i) in
        let v = String.trim (String.sub s (i + 1) (String.length s - i - 1)) in
        if name = "" || not (String.for_all is_ident name) then
          fail lineno "malformed declaration name %S" s;
        if v = "" then fail lineno "missing value in declaration %S" s;
        let dv =
          if is_digit v.[0] || v.[0] = '-' then
            match int_of_string_opt v with
            | Some n -> Spec_ast.Dnum n
            | None -> fail lineno "malformed number %S" v
          else if String.for_all is_ident v then Spec_ast.Dkind v
          else fail lineno "malformed declaration value %S" v
        in
        Some { d_name = name; d_value = dv; d_line = lineno }

(* -- main ------------------------------------------------------------------ *)

type state = {
  mutable sect : section;
  mutable nonterminals : Spec_ast.decl list;
  mutable terminals : Spec_ast.decl list;
  mutable operators : Spec_ast.decl list;
  mutable opcodes : Spec_ast.decl list;
  mutable constants : Spec_ast.decl list;
  mutable productions : Spec_ast.production list; (* reversed *)
  mutable current : Spec_ast.production option;
}

let flush_current st =
  match st.current with
  | None -> ()
  | Some p ->
      st.productions <-
        { p with p_templates = List.rev p.p_templates } :: st.productions;
      st.current <- None

let add_decls st lineno (body : string) =
  let entries =
    String.split_on_char ',' body
    |> List.concat_map (String.split_on_char ';')
    |> List.filter_map (parse_decl_entry lineno)
  in
  match st.sect with
  | Nonterminals -> st.nonterminals <- st.nonterminals @ entries
  | Terminals -> st.terminals <- st.terminals @ entries
  | Operators -> st.operators <- st.operators @ entries
  | Opcodes -> st.opcodes <- st.opcodes @ entries
  | Constants -> st.constants <- st.constants @ entries
  | Options -> ()
  | Productions -> fail lineno "declaration outside a declaration section"

let parse_production_header st lineno (line : string) =
  flush_current st;
  match String.index_opt line ':' with
  | Some i
    when i + 2 < String.length line
         && line.[i + 1] = ':'
         && line.[i + 2] = '=' ->
      let lhs_s = String.trim (String.sub line 0 i) in
      let rhs_s = String.sub line (i + 3) (String.length line - i - 3) in
      let lhs = parse_ssym lineno lhs_s in
      let rhs = List.map (parse_ssym lineno) (words rhs_s) in
      if rhs = [] then fail lineno "empty production right-hand side";
      st.current <-
        Some { p_lhs = lhs; p_rhs = rhs; p_templates = []; p_line = lineno }
  | _ -> fail lineno "expected '::=' in production %S" line

let parse_template st lineno (line : string) =
  match st.current with
  | None -> fail lineno "template before any production"
  | Some p -> (
      match words line with
      | [] -> ()
      | op :: rest ->
          if not (String.for_all is_ident op) then
            fail lineno "malformed template opcode %S" op;
          let op = String.lowercase_ascii op in
          let operands =
            match rest with
            | [] -> []
            | field :: _comment ->
                (* the operand field is the single word after the opcode;
                   anything later on the line is commentary *)
                if is_ident_start field.[0] || is_digit field.[0]
                   || field.[0] = '-'
                then
                  split_operands lineno field
                  |> List.map (parse_operand lineno)
                else []
          in
          let t = { Spec_ast.t_op = op; t_operands = operands; t_line = lineno } in
          st.current <- Some { p with p_templates = t :: p.p_templates })

let of_string (text : string) : (Spec_ast.t, error) result =
  let st =
    {
      sect = Options;
      nonterminals = [];
      terminals = [];
      operators = [];
      opcodes = [];
      constants = [];
      productions = [];
      current = None;
    }
  in
  try
    let lines = String.split_on_char '\n' text in
    List.iteri
      (fun i raw ->
        let lineno = i + 1 in
        let line =
          (* strip trailing CR and trailing spaces *)
          let l = String.length raw in
          let l = if l > 0 && raw.[l - 1] = '\r' then l - 1 else l in
          String.sub raw 0 l
        in
        let trimmed = String.trim line in
        if trimmed = "" then ()
        else if trimmed.[0] = '*' then ()
        else if trimmed.[0] = '$' then begin
          flush_current st;
          st.sect <- section_of_header lineno trimmed
        end
        else
          match st.sect with
          | Options -> ()
          | Productions ->
              if line.[0] = ' ' || line.[0] = '\t' then
                parse_template st lineno trimmed
              else parse_production_header st lineno trimmed
          | _ -> add_decls st lineno trimmed)
      lines;
    flush_current st;
    Ok
      {
        Spec_ast.nonterminals = st.nonterminals;
        terminals = st.terminals;
        operators = st.operators;
        opcodes = st.opcodes;
        constants = st.constants;
        productions = List.rev st.productions;
      }
  with Fail e -> Error e

(* an unreadable file is an [Error] at line 0, never a [Sys_error] *)
let of_file (path : string) : (Spec_ast.t, error) result =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error msg -> Error { line = 0; msg }
