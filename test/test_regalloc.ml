(* The register allocation routine in isolation (paper section 4.1):
   LRU policy, use counts, specific-register transfer, CSE shares and
   eviction. *)

module R = Cogg.Regalloc
module S = Cogg.Symtab

let check_int = Alcotest.(check int)

let test_alloc_distinct () =
  let t = R.create () in
  R.begin_reduction t;
  let a, _ = R.alloc t S.Gpr in
  let b, _ = R.alloc t S.Gpr in
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check bool) "both busy" true
    (R.is_busy t R.Gp a && R.is_busy t R.Gp b)

let test_release_frees () =
  let t = R.create () in
  R.begin_reduction t;
  let a, _ = R.alloc t S.Gpr in
  R.release t R.Gp a;
  Alcotest.(check bool) "freed" false (R.is_busy t R.Gp a)

let test_use_counts () =
  let t = R.create () in
  R.begin_reduction t;
  let a, _ = R.alloc t S.Gpr in
  R.retain t R.Gp a;
  R.retain t R.Gp a;
  check_int "count 3" 3 (R.use_count t R.Gp a);
  R.release t R.Gp a;
  R.release t R.Gp a;
  Alcotest.(check bool) "still busy" true (R.is_busy t R.Gp a);
  R.release t R.Gp a;
  Alcotest.(check bool) "now free" false (R.is_busy t R.Gp a)

let test_dedicated_registers_untouched () =
  let t = R.create () in
  (* base registers are never busy; retain/release must be no-ops *)
  R.retain t R.Gp 13;
  R.release t R.Gp 13;
  Alcotest.(check bool) "r13 never busy" false (R.is_busy t R.Gp 13)

let test_pair_allocation () =
  let t = R.create () in
  R.begin_reduction t;
  let e, _ = R.alloc t S.Pair in
  check_int "even" 0 (e mod 2);
  Alcotest.(check bool) "both halves busy" true
    (R.is_busy t R.Gp e && R.is_busy t R.Gp (e + 1));
  R.release t R.Gp e;
  R.release t R.Gp (e + 1);
  Alcotest.(check bool) "both freed" false
    (R.is_busy t R.Gp e || R.is_busy t R.Gp (e + 1))

let test_lru_prefers_coldest () =
  let t = R.create ~strategy:R.Lru () in
  (* allocate and free a register at reduction 1; allocate and free
     another at reduction 5; the next allocation should prefer the one
     untouched the longest *)
  R.begin_reduction t;
  let a, _ = R.alloc t S.Gpr in
  R.release t R.Gp a;
  for _ = 1 to 4 do R.begin_reduction t done;
  let b, _ = R.alloc t S.Gpr in
  Alcotest.(check bool) "picked a different register" true (b <> a || a = b);
  R.release t R.Gp b;
  R.begin_reduction t;
  let c, _ = R.alloc t S.Gpr in
  Alcotest.(check bool) "coldest register chosen over warm one" true (c <> b)

let test_need_free_register () =
  let t = R.create () in
  R.begin_reduction t;
  match R.need t S.Gpr 14 with
  | Ok (None, []) -> Alcotest.(check bool) "busy" true (R.is_busy t R.Gp 14)
  | _ -> Alcotest.fail "unexpected transfer"

let test_need_busy_register_transfers () =
  let t = R.create ~strategy:R.First_free () in
  R.begin_reduction t;
  (* first-free gives r1; then need r1 specifically *)
  let a, _ = R.alloc t S.Gpr in
  check_int "got r1" 1 a;
  R.retain t R.Gp a (* a live stack reference *);
  match R.need t S.Gpr 1 with
  | Ok (Some tr, _) ->
      check_int "from r1" 1 tr.R.tr_from;
      Alcotest.(check bool) "to another register" true (tr.R.tr_to <> 1);
      Alcotest.(check bool) "destination holds the moved value" true
        (R.is_busy t R.Gp tr.R.tr_to);
      check_int "moved use count" 2 (R.use_count t R.Gp tr.R.tr_to);
      check_int "needed register reserved" 1 (R.use_count t R.Gp 1)
  | Ok (None, _) -> Alcotest.fail "no transfer reported"
  | Error m -> Alcotest.fail m

let test_cse_eviction () =
  let t = R.create () in
  R.begin_reduction t;
  (* fill the whole pool with CSE-bound registers *)
  let regs =
    List.init 10 (fun i ->
        let r, ev = R.alloc t S.Gpr in
        Alcotest.(check bool) "no eviction while free regs remain" true
          (ev = []);
        R.retain t R.Gp r;
        R.bind_cse ~shares:2 t R.Gp r (100 + i);
        (* drop the allocation's own reference: count = shares *)
        R.release t R.Gp r;
        r)
  in
  ignore regs;
  (* the pool is full; the next allocation must evict a CSE *)
  match R.alloc t S.Gpr with
  | _, [ ev ] ->
      Alcotest.(check bool) "evicted a bound CSE" true (ev.R.ev_cse >= 100)
  | _, [] -> Alcotest.fail "no eviction happened"
  | _, _ -> Alcotest.fail "a single register held more than one CSE"

(* a pair request that evicts a span whose halves both hold CSEs must
   hand back both, or the odd half's value is lost unspilled *)
let test_pair_eviction_returns_both_halves () =
  let t = R.create ~strategy:R.First_free () in
  R.begin_reduction t;
  for _ = 1 to 10 do
    let r, _ = R.alloc t S.Gpr in
    R.bind_cse ~shares:1 t R.Gp r (100 + r)
  done;
  match R.alloc t S.Pair with
  | e, evs ->
      Alcotest.(check (list (pair int int)))
        "both halves' CSEs evicted, even half first"
        [ (100 + e, e); (101 + e, e + 1) ]
        (List.map (fun ev -> (ev.R.ev_cse, ev.R.ev_reg)) evs);
      check_int "two evictions counted" 2 t.R.stats.R.n_evictions
  | exception R.Pressure m -> Alcotest.fail m

let test_live_values_not_evicted () =
  let t = R.create () in
  R.begin_reduction t;
  (* fill the pool with *live* (non-CSE) values *)
  for _ = 1 to 10 do
    ignore (R.alloc t S.Gpr)
  done;
  match R.alloc t S.Gpr with
  | exception R.Pressure _ -> ()
  | _ -> Alcotest.fail "live register clobbered"

let test_pressure_message_names_class_and_holders () =
  let t = R.create () in
  R.begin_reduction t;
  for _ = 1 to 10 do
    ignore (R.alloc t S.Gpr)
  done;
  match R.alloc t S.Gpr with
  | exception R.Pressure m ->
      Alcotest.(check bool) "names the register class" true
        (Util.contains m "gpr");
      Alcotest.(check bool) "lists the pool members" true
        (Util.contains m "pool {");
      Alcotest.(check bool) "lists the busy holders with use counts" true
        (Util.contains m "uses=")
  | _ -> Alcotest.fail "pool should have been exhausted"

let test_pressure_tracks_peak_occupancy () =
  let t = R.create () in
  R.begin_reduction t;
  let held = List.init 6 (fun _ -> fst (R.alloc t S.Gpr)) in
  List.iter (fun r -> R.release t R.Gp r) held;
  (* the high-water mark survives the releases *)
  Alcotest.(check int) "gp peak" 6 t.R.stats.R.gp_peak;
  Alcotest.(check int) "fp bank untouched" 0 t.R.stats.R.fp_peak

let test_cse_with_stack_ref_not_evicted () =
  let t = R.create () in
  R.begin_reduction t;
  (* CSE-bound register that ALSO has a live stack reference *)
  let a, _ = R.alloc t S.Gpr in
  R.retain t R.Gp a;
  R.bind_cse ~shares:1 t R.Gp a 7;
  (* count 2 = 1 stack + 1 share: eviction illegal *)
  for _ = 1 to 9 do ignore (R.alloc t S.Gpr) done;
  match R.alloc t S.Gpr with
  | exception R.Pressure _ -> ()
  | _, evs when List.exists (fun ev -> ev.R.ev_reg = a) evs ->
      Alcotest.fail "live CSE register evicted"
  | _ -> Alcotest.fail "pool should have been exhausted"

(* The paper-section-1 machine: [r ::= word d] always allocates, so a
   deeply right-nested [iadd] chain keeps every left operand live and
   exhausts the pool — the Emit-level failure must attribute the
   exhaustion to the directive and production being served. *)
let intro_spec =
  {|
$Non-terminals
 r = gpr
$Terminals
 d = displacement
$Operators
 word, iadd, store, ret
$Opcodes
 l, ar, st, bcr
$Constants
 fifteen = 15
$Productions
r.2 ::= word d.1
 using r.2
 l     r.2,d.1
r.1 ::= iadd r.1 r.2
 modifies r.1
 ar    r.1,r.2
lambda ::= store word d.1 r.2
 st    r.2,d.1
lambda ::= ret
 need r.14
 bcr   fifteen,r.14
|}

let intro =
  lazy
    (match Cogg.Cogg_build.build_string intro_spec with
    | Ok t -> t
    | Error es ->
        Alcotest.failf "intro spec failed to build: %a"
          (Fmt.list Cogg.Cogg_build.pp_error)
          es)

let test_emit_pressure_names_production () =
  let b = Buffer.create 256 in
  Buffer.add_string b "store word d:0 ";
  for i = 1 to 12 do
    Buffer.add_string b (Printf.sprintf "iadd word d:%d " (4 * i))
  done;
  Buffer.add_string b "word d:52";
  match Cogg.Codegen.generate_string (Lazy.force intro) (Buffer.contents b) with
  | Ok _ -> Alcotest.fail "expected register pressure"
  | Error m ->
      Alcotest.(check bool) "names the directive being served" true
        (Util.contains m "using gpr");
      Alcotest.(check bool) "names the production" true
        (Util.contains m "production");
      Alcotest.(check bool) "quotes the production text" true
        (Util.contains m "::=");
      Alcotest.(check bool) "keeps the allocator's pool detail" true
        (Util.contains m "pool {")

let test_consume_share () =
  let t = R.create () in
  R.begin_reduction t;
  let a, _ = R.alloc t S.Gpr in
  R.retain ~count:2 t R.Gp a;
  R.bind_cse ~shares:2 t R.Gp a 5;
  R.release t R.Gp a (* the defining stack ref dies *);
  check_int "two shares left" 2 (R.use_count t R.Gp a);
  R.consume_cse_share t R.Gp a;
  check_int "one share left" 1 (R.use_count t R.Gp a);
  R.drop_cse_shares t R.Gp a;
  Alcotest.(check bool) "freed once shares drain" false (R.is_busy t R.Gp a)

let test_touch_reports_cse () =
  let t = R.create () in
  R.begin_reduction t;
  let a, _ = R.alloc t S.Gpr in
  R.bind_cse ~shares:1 t R.Gp a 9;
  (match R.touch t R.Gp a with
  | Some 9 -> ()
  | _ -> Alcotest.fail "touch must report the binding");
  match R.touch t R.Gp a with
  | None -> ()
  | Some _ -> Alcotest.fail "binding must be cleared"

let test_strategies_cover_pool () =
  (* allocating 10 times with any strategy must yield 10 distinct GPRs *)
  List.iter
    (fun strategy ->
      let t = R.create ~strategy () in
      R.begin_reduction t;
      let rs = List.init 10 (fun _ -> fst (R.alloc t S.Gpr)) in
      check_int
        (R.strategy_name strategy ^ " distinct")
        10
        (List.length (List.sort_uniq compare rs)))
    [ R.Lru; R.Round_robin; R.First_free ]

let test_fpr_bank_independent () =
  let t = R.create () in
  R.begin_reduction t;
  let g, _ = R.alloc t S.Gpr in
  let f, _ = R.alloc t S.Fpr in
  ignore g;
  (* float register numbers overlap GPR numbers without interference *)
  Alcotest.(check bool) "fpr busy" true (R.is_busy t R.Fp f);
  R.release t R.Fp f;
  Alcotest.(check bool) "gpr untouched by fpr release" true (R.is_busy t R.Gp g)

(* -- equivalence with the list-based selector ---------------------------- *)

(* A reference copy of the allocator's selection as it was written before
   it scanned the pool in place: candidate lists, pair protection by
   list filtering, a fold for LRU.  [ref_alloc] predicts, without
   touching the register file, what [R.alloc] must do from the current
   state: the register and eviction it picks (or the exact pressure
   message), the round-robin cursor afterwards, and which rule decided. *)
module Ref = struct
  let covered cls r =
    match cls with S.Pair -> [ r; r + 1 ] | S.Fpair -> [ r; r + 2 ] | _ -> [ r ]

  let regs (t : R.t) = function R.Gp -> t.R.gprs | R.Fp -> t.R.fprs

  let pool (t : R.t) = function
    | S.Gpr -> t.R.config.R.gpr_pool
    | S.Pair -> t.R.config.R.pair_pool
    | S.Fpr -> t.R.config.R.fpr_pool
    | S.Fpair -> t.R.config.R.fpair_pool
    | S.Cc | S.Noclass -> []

  let free_for t bank cls r =
    List.for_all (fun i -> not (regs t bank).(i).R.busy) (covered cls r)

  (* the pick and the cursor after it *)
  let pick (t : R.t) cursor cls = function
    | [] -> (None, cursor)
    | cs -> (
        let bank = R.bank_of_class cls in
        match t.R.strategy with
        | R.First_free -> (Some (List.hd cs), cursor)
        | R.Round_robin ->
            (Some (List.nth cs (cursor mod List.length cs)), cursor + 1)
        | R.Lru ->
            ( Some
                (List.fold_left
                   (fun best r ->
                     let idx =
                       List.fold_left
                         (fun m i -> max m (regs t bank).(i).R.usage_index)
                         0 (covered cls r)
                     in
                     match best with
                     | Some (_, bidx) when bidx <= idx -> best
                     | _ -> Some (r, idx))
                   None cs
                |> Option.get |> fst),
              cursor ))

  let pressure t cls =
    let bank = R.bank_of_class cls in
    let members =
      List.sort_uniq compare (List.concat_map (covered cls) (pool t cls))
    in
    let holding =
      List.filter_map
        (fun i ->
          let st = (regs t bank).(i) in
          if not st.R.busy then None
          else
            Some
              (Fmt.str "r%d:uses=%d%s" i st.R.use_count
                 (match st.R.cse with
                 | Some c -> Fmt.str "[cse %d]" c
                 | None -> "")))
        members
    in
    Fmt.str "no %a register available: pool {%s} holds only live values (%s)"
      S.pp_reg_class cls
      (String.concat " " (List.map (fun r -> "r" ^ string_of_int r) (pool t cls)))
      (String.concat ", " holding)

  type rule = Free | Protected | Unprotected | Evicted | Pressure

  let alloc (t : R.t) cls :
      ((int * (int * int) list, string) result * int) * rule =
    let bank = R.bank_of_class cls in
    let free = List.filter (free_for t bank cls) (pool t cls) in
    let candidates, rule =
      let protect pair_pool step pcls =
        let free_pairs = List.filter (fun e -> free_for t bank pcls e) pair_pool in
        if List.length free_pairs > 2 then (free, Free)
        else
          let breaking r = List.exists (fun e -> r = e || r = e + step) free_pairs in
          let preserving = List.filter (fun r -> not (breaking r)) free in
          if preserving <> [] then (preserving, Protected) else (free, Unprotected)
      in
      match cls with
      | S.Gpr -> protect t.R.config.R.pair_pool 1 S.Pair
      | S.Fpr -> protect t.R.config.R.fpair_pool 2 S.Fpair
      | _ -> (free, Free)
    in
    match pick t t.R.cursor cls candidates with
    | Some r, cursor -> ((Ok (r, []), cursor), rule)
    | None, cursor -> (
        let evictable r =
          List.for_all
            (fun i ->
              let st = (regs t bank).(i) in
              (not st.R.busy) || (st.R.cse <> None && st.R.use_count <= st.R.cse_shares))
            (covered cls r)
          && List.exists (fun i -> (regs t bank).(i).R.cse <> None) (covered cls r)
        in
        match pick t cursor cls (List.filter evictable (pool t cls)) with
        | None, cursor -> ((Error (pressure t cls), cursor), Pressure)
        | Some r, cursor ->
            let ev =
              List.filter_map
                (fun i -> Option.map (fun c -> (c, i)) (regs t bank).(i).R.cse)
                (covered cls r)
            in
            ((Ok (r, ev), cursor), Evicted))
end

let classes = [| S.Gpr; S.Pair; S.Fpr; S.Fpair |]

(* Seeded random walks over the register file: allocations of every
   class, releases, CSE bindings whose only references are shares (so
   they become evictable), share consumption, [modifies] touches and
   reduction boundaries.  Before every allocation the reference predicts
   the outcome, and the allocator must match it exactly. *)
let test_selector_matches_reference () =
  let rules = Hashtbl.create 8 in
  List.iter
    (fun strategy ->
      for seed = 1 to 60 do
        let rng = Random.State.make [| seed; 7919 |] in
        let t = R.create ~strategy () in
        let held = ref [] (* (class, root) of live allocations *) in
        let next_cse = ref 0 in
        let pick_held () = List.nth !held (Random.State.int rng (List.length !held)) in
        let drop (cls, r) =
          held := List.filter (fun h -> h <> (cls, r)) !held;
          R.release_allocation t cls r
        in
        for _ = 1 to 120 do
          match Random.State.int rng 20 with
          | 0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 -> (
              let cls = classes.(Random.State.int rng (Array.length classes)) in
              let (expected, cursor), rule = Ref.alloc t cls in
              Hashtbl.replace rules rule ();
              let label =
                Fmt.str "%s seed %d %a" (R.strategy_name strategy) seed
                  S.pp_reg_class cls
              in
              let actual =
                match R.alloc t cls with
                | res -> Ok res
                | exception R.Pressure m -> Error m
              in
              (match (expected, actual) with
              | Ok (r, ev), Ok (r', ev') ->
                  check_int (label ^ ": register") r r';
                  Alcotest.(check (list (pair int int)))
                    (label ^ ": eviction") ev
                    (List.map (fun e -> (e.R.ev_cse, e.R.ev_reg)) ev');
                  (* an evicted CSE's holder is no longer live here *)
                  List.iter
                    (fun (_, i) ->
                      held :=
                        List.filter
                          (fun (c, root) ->
                            not (List.mem i (Ref.covered c root)))
                          !held)
                    ev;
                  held := (cls, r) :: !held
              | Error m, Error m' ->
                  Alcotest.(check string) (label ^ ": pressure text") m m'
              | Error m, Ok _ -> Alcotest.failf "%s: expected pressure: %s" label m
              | Ok _, Error m -> Alcotest.failf "%s: unexpected pressure: %s" label m);
              check_int (label ^ ": cursor") cursor t.R.cursor)
          | 8 | 9 | 10 | 11 -> if !held <> [] then drop (pick_held ())
          | 12 | 13 ->
              (* bind a CSE whose remaining references are all shares *)
              if !held <> [] then begin
                let cls, r = pick_held () in
                let bank = R.bank_of_class cls in
                let shares = 1 + Random.State.int rng 2 in
                incr next_cse;
                R.retain ~count:shares t bank r;
                R.bind_cse ~shares t bank r !next_cse;
                R.release t bank r;
                held := List.filter (fun h -> h <> (cls, r)) !held
              end
          | 14 | 15 -> for _ = 0 to Random.State.int rng 3 do R.begin_reduction t done
          | 16 ->
              let bank = if Random.State.bool rng then R.Gp else R.Fp in
              List.iter (R.consume_cse_share t bank) (R.busy_list t bank)
          | 17 ->
              let bank = if Random.State.bool rng then R.Gp else R.Fp in
              (match R.busy_list t bank with
              | r :: _ -> R.drop_cse_shares t bank r
              | [] -> ())
          | 18 ->
              if !held <> [] then begin
                let cls, r = pick_held () in
                ignore (R.touch t (R.bank_of_class cls) r)
              end
          | _ -> (
              (* exhaust: allocate until pressure, which must carry the
                 reference's exact message *)
              let cls = classes.(Random.State.int rng (Array.length classes)) in
              let (expected, _), rule = Ref.alloc t cls in
              match expected with
              | Error m -> (
                  Hashtbl.replace rules rule ();
                  match R.alloc t cls with
                  | exception R.Pressure m' ->
                      Alcotest.(check string) "pressure text" m m'
                  | _ -> Alcotest.fail "expected pressure")
              | Ok _ -> ())
        done
      done)
    [ R.Lru; R.Round_robin; R.First_free ];
  List.iter
    (fun (rule, name) ->
      Alcotest.(check bool) ("walks reach the " ^ name ^ " rule") true
        (Hashtbl.mem rules rule))
    Ref.
      [
        (Free, "free");
        (Protected, "pair-protection");
        (Unprotected, "unprotected fallback");
        (Evicted, "eviction");
        (Pressure, "pressure");
      ]

(* the whole Emit-level pressure diagnostic, byte for byte *)
let test_emit_pressure_text_exact () =
  let b = Buffer.create 256 in
  Buffer.add_string b "store word d:0 ";
  for i = 1 to 12 do
    Buffer.add_string b (Printf.sprintf "iadd word d:%d " (4 * i))
  done;
  Buffer.add_string b "word d:52";
  match Cogg.Codegen.generate_string (Lazy.force intro) (Buffer.contents b) with
  | Ok _ -> Alcotest.fail "expected register pressure"
  | Error m ->
      Alcotest.(check string) "pressure text"
        "code emission failed: no gpr register available: pool {r1 r2 r3 r4 \
         r5 r6 r7 r8 r9 r11} holds only live values (r1:uses=1, r2:uses=1, \
         r3:uses=1, r4:uses=1, r5:uses=1, r6:uses=1, r7:uses=1, r8:uses=1, \
         r9:uses=1, r11:uses=1) — while serving 'using gpr' of production 0 \
         (r ::= word d)"
        m

(* The same diagnostic on the floating bank, on each shipped target: a
   right-nested [radd] chain whose left operands are themselves sums,
   so each holds a live floating register, exhausts the four-register
   pool.  The message names the registers as that target's listing
   does: amdahl470 writes r0..r6, RISC-32 f0..f6. *)
let fp_pressure_if =
  let word i = Printf.sprintf "dblrealword dsp:%d r:13" (80 + (8 * i)) in
  let rec chain i =
    if i > 5 then word 20
    else
      Printf.sprintf "radd radd %s %s %s" (word (2 * i)) (word ((2 * i) + 1))
        (chain (i + 1))
  in
  Util.prog (Printf.sprintf "assign %s %s" (word 0) (chain 1))

let fp_pressure_text =
  [
    ( "amdahl470",
      "code emission failed: no fpr register available: pool {r0 r2 r4 r6} \
       holds only live values (r0:uses=1, r2:uses=1, r4:uses=1, r6:uses=1) — \
       while serving 'using fpr' of production 132 (f ::= dblrealword dsp r)"
    );
    ( "risc32",
      "code emission failed: no fpr register available: pool {f0 f2 f4 f6} \
       holds only live values (f0:uses=1, f2:uses=1, f4:uses=1, f6:uses=1) — \
       while serving 'using fpr' of production 138 (f ::= radd dblrealword \
       dsp r f)" );
  ]

let fp_pressure_cases =
  List.map
    (fun (target, expected) ->
      Alcotest.test_case
        (Printf.sprintf "fp pressure text is exact (%s)" target)
        `Quick
        (fun () ->
          let tables = Util.tables target in
          match Cogg.Codegen.generate_string tables fp_pressure_if with
          | Ok _ -> Alcotest.fail "expected floating register pressure"
          | Error m -> Alcotest.(check string) "pressure text" expected m))
    fp_pressure_text

let () =
  Alcotest.run "regalloc"
    [
      ( "basics",
        [
          Alcotest.test_case "alloc distinct" `Quick test_alloc_distinct;
          Alcotest.test_case "release frees" `Quick test_release_frees;
          Alcotest.test_case "use counts" `Quick test_use_counts;
          Alcotest.test_case "dedicated untouched" `Quick test_dedicated_registers_untouched;
          Alcotest.test_case "pairs" `Quick test_pair_allocation;
          Alcotest.test_case "lru picks coldest" `Quick test_lru_prefers_coldest;
          Alcotest.test_case "banks independent" `Quick test_fpr_bank_independent;
          Alcotest.test_case "strategies cover pool" `Quick test_strategies_cover_pool;
        ] );
      ( "need",
        [
          Alcotest.test_case "free register" `Quick test_need_free_register;
          Alcotest.test_case "busy register transfers" `Quick test_need_busy_register_transfers;
        ] );
      ( "cse",
        [
          Alcotest.test_case "eviction" `Quick test_cse_eviction;
          Alcotest.test_case "pair eviction returns both halves" `Quick
            test_pair_eviction_returns_both_halves;
          Alcotest.test_case "live values safe" `Quick test_live_values_not_evicted;
          Alcotest.test_case "pressure message is diagnosable" `Quick
            test_pressure_message_names_class_and_holders;
          Alcotest.test_case "peak occupancy tracked" `Quick
            test_pressure_tracks_peak_occupancy;
          Alcotest.test_case "emit attributes pressure to production" `Quick
            test_emit_pressure_names_production;
          Alcotest.test_case "stack-referenced CSE safe" `Quick test_cse_with_stack_ref_not_evicted;
          Alcotest.test_case "share consumption" `Quick test_consume_share;
          Alcotest.test_case "touch reports binding" `Quick test_touch_reports_cse;
          Alcotest.test_case "pressure text is exact" `Quick
            test_emit_pressure_text_exact;
        ]
        @ fp_pressure_cases );
      ( "selector",
        [
          Alcotest.test_case "matches the list-based reference" `Quick
            test_selector_matches_reference;
        ] );
    ]
