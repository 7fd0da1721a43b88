(* Seeded inputs of every workload.  Each input is drawn from
   [Fuzz.Rng.derive ~seed ~index], so a (seed, index) pair names one
   input forever; the program under test only ever sees the result. *)

module Rng = Fuzz.Rng

let rng ~seed ~index = Rng.derive ~seed ~index

(* 0 .. n-1 in an order the seed shuffles *)
let deck ~seed ~index n =
  let a = Array.init n Fun.id and r = rng ~seed ~index in
  for i = n - 1 downto 1 do
    let j = Rng.int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* -- pascal-real ----------------------------------------------------------- *)

(* The eight real programs, in an order the seed permutes. *)
let pascal_real ~seed : (string * string) array =
  let a = Array.of_list (Util.bank ()) in
  Array.map (Array.get a) (deck ~seed ~index:0 (Array.length a))

(* -- if-direct ------------------------------------------------------------- *)

let if_streams = 96

(* Well-formed IF streams, one in four branch-heavy.  Stream sizes (in
   statements) follow a fixed schedule over the generator's own ranges,
   3-20 and 150-400, and the seed draws the contents: every seed gives
   a pass of the same shape, so the pass time varies little between
   seeds. *)
let if_direct ~seed : Ifl.Token.t list array =
  Array.init if_streams (fun i ->
      let branch_heavy = i mod 4 = 3 in
      let size =
        if branch_heavy then 150 + (i / 4 * 37 mod 251) else 3 + (i * 7 mod 18)
      in
      Fuzz.Gen_if.program ~branch_heavy ~size (rng ~seed ~index:i))

(* -- spec-edit -------------------------------------------------------------

   The edit kinds of the incremental-construction oracle
   (test/incremental_oracle.ml), applied to the raw spec text as an
   author would make them: a template tweak (one [modifies] line
   duplicated) keeps the grammar shape, so the rebuild splices the LR
   automaton, action table and comb packing; duplicating or removing a
   production block changes the shape and forces them to be rebuilt. *)

type edit_kind = Tweak | Remove | Duplicate

let kind_name = function
  | Tweak -> "template-tweak"
  | Remove -> "production-remove"
  | Duplicate -> "production-duplicate"

type edit = { kind : edit_kind; at : int; text : string }

let is_header line =
  String.length line > 0
  && (not (List.mem line.[0] [ ' '; '\t'; '*'; '$' ]))
  &&
  let rec has_prod i =
    i + 3 <= String.length line
    && (String.sub line i 3 = "::=" || has_prod (i + 1))
  in
  has_prod 0

(* (start, length) of every production block: a left-aligned header
   plus its indented lines up to the next header *)
let blocks (lines : string array) : (int * int) array =
  let n = Array.length lines in
  let rec next i = if i >= n || is_header lines.(i) then i else next (i + 1) in
  let rec go i acc =
    let i = next i in
    if i >= n then Array.of_list (List.rev acc)
    else
      let stop = next (i + 1) in
      go stop ((i, stop - i) :: acc)
  in
  go 0 []

let tweak_sites (lines : string array) : int array =
  Array.to_list lines
  |> List.mapi (fun i l -> (i, String.trim l))
  |> List.filter_map (fun (i, t) ->
         if String.length t > 9 && String.sub t 0 9 = "modifies " then Some i
         else None)
  |> Array.of_list

let apply_edit (base : string) (kind : edit_kind) (r : Rng.t) : edit =
  let lines = Array.of_list (String.split_on_char '\n' base) in
  let join l = String.concat "\n" l in
  let all = Array.to_list lines in
  match kind with
  | Tweak ->
      let at = Rng.choose r (tweak_sites lines) in
      let text =
        join (List.concat (List.mapi (fun j x -> if j = at then [ x; x ] else [ x ]) all))
      in
      { kind; at; text }
  | Remove ->
      let start, len = Rng.choose r (blocks lines) in
      let text = join (List.filteri (fun i _ -> i < start || i >= start + len) all) in
      { kind; at = start; text }
  | Duplicate ->
      let start, len = Rng.choose r (blocks lines) in
      let block = List.filteri (fun i _ -> i >= start && i < start + len) all in
      { kind; at = start; text = join (all @ block) }

(* Distinct edits per run; the timed loop cycles through them. *)
let n_edits = 48

(* One edit in four changes the grammar shape, removing and duplicating
   a production in turn; the rest are template tweaks.  With that mix
   the median rebuild is a splice and the 90th percentile a
   shape-changing rebuild, each well inside its own group.  The seed
   picks where each edit lands. *)
let spec_edit ~seed ~(base : string) : edit array =
  Array.init n_edits (fun i ->
      let kind =
        match i mod 8 with 3 -> Remove | 7 -> Duplicate | _ -> Tweak
      in
      apply_edit base kind (rng ~seed ~index:i))

(* -- serve-mix ------------------------------------------------------------- *)

type request = { source : string; base : int; write : bool }

(* A leading comment, on the program's first line so that no line
   number moves: the daemon sees a new source, the compiler the same
   program. *)
let salt ~seed ~tag (src : string) = Printf.sprintf "{ %s %d } %s" tag seed src

(* Sources the clients keep coming back to: the bank as is, plus one
   seed-salted variant of each program. *)
let hot_set ~seed (bank : string array) : (string * int) array =
  Array.append
    (Array.mapi (fun i s -> (s, i)) bank)
    (Array.mapi (fun i s -> (salt ~seed ~tag:"hot" s, i)) bank)

(* The share of writes, one request in [write_every].  It is an
   assumption: there is no log of a daemon's real requests to take it
   from.  README.md shows how the latencies move when it is changed
   here. *)
let write_every = 4

(* Request [k] of the stream: one in [write_every] is a write, a fresh
   comment-salted variant of a bank program that no earlier request
   carried (a compile, then a cache insert); the rest are reads of the
   hot set (inline hits, plus the recompiles of first hits and of
   entries the writes have evicted).  Writes go through the bank, and
   reads through the hot set, as through decks of cards the seed
   shuffles afresh for every pass, so every stretch of requests has the
   same mix: drawing each request independently let the mix, and with
   it the throughput, differ between seeds by about 4%. *)
let serve_request ~seed ~(bank : string array) ~(hot : (string * int) array) k
    : request =
  if k mod write_every = write_every - 1 then
    let j = k / write_every and n = Array.length bank in
    let b = (deck ~seed ~index:(2 * (j / n)) n).(j mod n) in
    {
      source = salt ~seed ~tag:(Printf.sprintf "write %d" k) bank.(b);
      base = b;
      write = true;
    }
  else
    let i = k - (k / write_every) and n = Array.length hot in
    let source, base = hot.((deck ~seed ~index:((2 * (i / n)) + 1) n).(i mod n)) in
    { source; base; write = false }

(* -- digests ----------------------------------------------------------------- *)

let digest_strings (xs : string list) =
  Digest.to_hex (Digest.string (String.concat "\000" xs))

(* The digest of a workload's inputs; for serve-mix, whose request
   stream is unbounded, of its first 1024 requests. *)
let digest ~seed (workload : string) : string =
  match workload with
  | "pascal-real" ->
      digest_strings (Array.to_list (Array.map snd (pascal_real ~seed)))
  | "if-direct" ->
      digest_strings
        (Array.to_list (Array.map Fuzz.Gen_if.to_text (if_direct ~seed)))
  | "spec-edit" ->
      let base = Util.spec_text () in
      digest_strings
        (Array.to_list (Array.map (fun e -> e.text) (spec_edit ~seed ~base)))
  | "serve-mix" ->
      let bank = Array.of_list (List.map snd (Util.bank ())) in
      let hot = hot_set ~seed bank in
      digest_strings
        (List.init 1024 (fun k -> (serve_request ~seed ~bank ~hot k).source))
  | w -> Util.fail "unknown workload %s" w
