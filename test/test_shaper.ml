(* The shaping routine in isolation: storage layout, IF tree shapes, and
   the CSE optimizer's rewriting rules. *)

module Ast = Pascal.Ast
module Tree = Ifl.Tree

let check_int = Alcotest.(check int)

(* -- layout ----------------------------------------------------------------- *)

let test_storage_formats () =
  Alcotest.(check bool) "int is fullword" true
    (Shaper.Layout.storage_of Ast.Tint = Shaper.Layout.Sfull);
  Alcotest.(check bool) "bool is byte" true
    (Shaper.Layout.storage_of Ast.Tbool = Shaper.Layout.Sbyte);
  Alcotest.(check bool) "small subrange is halfword" true
    (Shaper.Layout.storage_of (Ast.Tsub (-100, 100)) = Shaper.Layout.Shalf);
  Alcotest.(check bool) "large subrange is fullword" true
    (Shaper.Layout.storage_of (Ast.Tsub (0, 100000)) = Shaper.Layout.Sfull);
  Alcotest.(check bool) "real is doubleword" true
    (Shaper.Layout.storage_of Ast.Treal = Shaper.Layout.Sdouble);
  check_int "set of 0..15 is 2 bytes" 2
    (Shaper.Layout.size_of (Shaper.Layout.storage_of (Ast.Tset 15)))

let test_layout_alignment () =
  let l = Shaper.Layout.create () in
  let b = Shaper.Layout.add_var l { Ast.v_name = "b"; v_ty = Ast.Tbool } in
  let r = Shaper.Layout.add_var l { Ast.v_name = "r"; v_ty = Ast.Treal } in
  let h = Shaper.Layout.add_var l { Ast.v_name = "h"; v_ty = Ast.Tsub (0, 10) } in
  check_int "byte first" Machine.Runtime.locals_base b.Shaper.Layout.disp;
  check_int "double aligned to 8" 0 (r.Shaper.Layout.disp mod 8);
  check_int "half aligned to 2" 0 (h.Shaper.Layout.disp mod 2)

let test_layout_overflow () =
  let l = Shaper.Layout.create () in
  match
    Shaper.Layout.add_var l
      { Ast.v_name = "big";
        v_ty = Ast.Tarray { lo = 0; hi = 2000; elem = Ast.Tint } }
  with
  | exception Shaper.Layout.Frame_overflow _ -> ()
  | _ -> Alcotest.fail "page overflow not detected"

(* -- shaping ---------------------------------------------------------------- *)

let shape ?checks src =
  match Pascal.Sema.front_end src with
  | Error m -> Alcotest.fail m
  | Ok c -> (
      match Shaper.Irgen.shape ?checks c with
      | Ok sh -> sh
      | Error e -> Alcotest.failf "%a" Shaper.Irgen.pp_error e)

let rec tree_ops (Tree.Node (t, kids)) =
  t.Ifl.Token.sym :: List.concat_map tree_ops kids

let program_ops (sh : Shaper.Irgen.shaped) =
  List.concat_map tree_ops sh.Shaper.Irgen.trees

let test_decrement_idiom () =
  let sh = shape "program p; var x : integer; begin x := x - 1 end." in
  Alcotest.(check bool) "decr emitted" true (List.mem "decr" (program_ops sh))

let test_shift_strength_reduction () =
  let sh = shape "program p; var x : integer; begin x := x * 8 end." in
  let ops = program_ops sh in
  Alcotest.(check bool) "l_shift emitted" true (List.mem "l_shift" ops);
  Alcotest.(check bool) "no multiply" false (List.mem "imult" ops)

let test_general_add_not_la () =
  (* x + 1 on an arbitrary integer must not use the 24-bit LA idiom *)
  let sh = shape "program p; var x, y : integer; begin y := x + 1 end." in
  let ops = program_ops sh in
  Alcotest.(check bool) "no incr on general add" false (List.mem "incr" ops);
  Alcotest.(check bool) "iadd used" true (List.mem "iadd" ops)

let test_for_loop_uses_incr () =
  let sh =
    shape "program p; var i, s : integer; begin for i := 1 to 9 do s := s + i end."
  in
  Alcotest.(check bool) "constant-bounded loop counter uses incr" true
    (List.mem "incr" (program_ops sh))

let test_checks_flag () =
  let src =
    "program p; var a : array[2..9] of integer; i : integer; begin a[i] := 1 end."
  in
  let without = shape ~checks:false src in
  let with_ = shape ~checks:true src in
  Alcotest.(check bool) "no check by default" false
    (List.mem "subscript_check" (program_ops without));
  Alcotest.(check bool) "check when asked" true
    (List.mem "subscript_check" (program_ops with_))

let test_global_access_through_chain () =
  let sh =
    shape
      "program p; var g : integer; procedure q; var l : integer; begin l := \
       g; g := l end; begin q end."
  in
  (* inside the procedure, g's base register is a loaded back chain:
     fullword dsp:4 r:13 appears under another fullword *)
  let rec has_chain (Tree.Node (t, kids)) =
    (t.Ifl.Token.sym = "fullword"
    && match kids with
       | [ Tree.Node (d, []); Tree.Node (b, []) ] ->
           d.Ifl.Token.value = Ifl.Value.Int Machine.Runtime.old_base
           && b.Ifl.Token.value = Ifl.Value.Reg Machine.Runtime.stack_base
       | _ -> false)
    || List.exists has_chain kids
  in
  Alcotest.(check bool) "chain load present" true
    (List.exists has_chain sh.Shaper.Irgen.trees)

let test_proc_slots_and_labels () =
  let sh =
    shape
      "program p; var x : integer; procedure a; begin x := 1 end; procedure \
       b; begin x := 2 end; begin a; b end."
  in
  check_int "two procedure slots" 2 (List.length sh.Shaper.Irgen.proc_slots);
  let slots = List.map (fun (_, s, _) -> s) sh.Shaper.Irgen.proc_slots in
  Alcotest.(check (list int)) "slot indices" [ 0; 1 ] slots

(* -- CSE optimizer ------------------------------------------------------------ *)

let optimize sh = Shaper.Cse_opt.optimize sh

let count_op op sh =
  List.length (List.filter (String.equal op) (program_ops sh))

let test_cse_rewrites_repeats () =
  let sh =
    shape "program p; var a, b, x : integer; begin x := (a + b) * (a + b) end."
  in
  let opt = optimize sh in
  check_int "one make_common" 1 (count_op "make_common" opt);
  check_int "one use_common" 1 (count_op "use_common" opt);
  (* the second (a+b) is gone *)
  check_int "one iadd remains" 1 (count_op "iadd" opt)

let test_cse_not_in_assign_target () =
  (* the address operand of an assignment looks like a load but is
     positional; it must never become a CSE definition or use *)
  let sh = shape "program p; var x : integer; begin x := x + x end." in
  let opt = optimize sh in
  (* x's two loads inside the expression may CSE, but the target
     fullword must survive as the first child of assign *)
  List.iter
    (fun tree ->
      match tree with
      | Tree.Node (t, first :: _) when t.Ifl.Token.sym = "assign" ->
          Alcotest.(check bool)
            "assign target intact" true
            ((Tree.token first).Ifl.Token.sym = "fullword")
      | _ -> ())
    opt.Shaper.Irgen.trees

let test_cse_no_cross_statement () =
  (* the same expression in two statements must not share a CSE: an
     assignment could intervene *)
  let sh =
    shape
      "program p; var a, b, x, y : integer; begin x := a + b; a := 0; y := a \
       + b end."
  in
  let opt = optimize sh in
  check_int "no make_common across statements" 0 (count_op "make_common" opt)

let test_cse_impure_not_shared () =
  (* calls and divisions by possibly-zero values are still pure in this
     language, but make sure write counters (hidden incr) are untouched *)
  let sh =
    shape "program p; var a : integer; begin write(a); write(a) end."
  in
  let opt = optimize sh in
  check_int "write counters not CSEd" 0 (count_op "make_common" opt)

let test_cse_temp_allocated_in_frame () =
  let sh =
    shape "program p; var a, b, x : integer; begin x := (a + b) * (a + b) end."
  in
  let before = Shaper.Layout.frame_bytes sh.Shaper.Irgen.main_frame in
  let opt = optimize sh in
  let after = Shaper.Layout.frame_bytes opt.Shaper.Irgen.main_frame in
  Alcotest.(check bool) "temporary reserved" true (after = before + 4)

let frame_sizes (sh : Shaper.Irgen.shaped) =
  Shaper.Layout.frame_bytes sh.Shaper.Irgen.main_frame
  :: List.map
       (fun (_, f) -> Shaper.Layout.frame_bytes f)
       sh.Shaper.Irgen.proc_frames

let test_cse_pure () =
  (* optimizing the same shaped value twice gives the same answer, and
     the temporaries land in the result's frames, not the input's *)
  let sh =
    shape
      "program p; var a, b, x : integer; procedure q; var c, d, y : integer; \
       begin y := (c - d) * (c - d) end; begin x := (a + b) * (a + b); q end."
  in
  let before = frame_sizes sh in
  let o1 = optimize sh in
  let o2 = optimize sh in
  Alcotest.(check bool) "same trees" true
    (List.equal Tree.equal o1.Shaper.Irgen.trees o2.Shaper.Irgen.trees);
  Alcotest.(check (list int)) "same frame_bytes" (frame_sizes o1)
    (frame_sizes o2);
  Alcotest.(check (list int)) "input frames unmoved" before (frame_sizes sh);
  Alcotest.(check (list int)) "one temporary per frame"
    (List.map (fun b -> b + 4) before)
    (frame_sizes o1)

(* Allocation of [Cse_opt.optimize] on one statement: an n-term chain
   [a + b + a + ...] plus the product of two parenthesised copies of it.
   Allocation is deterministic, so the ratio means the same on any
   machine.  A linear optimizer doubles it from n = 64 to n = 128; one
   that rebuilds a subtree key at every node (O(size x depth)) grows it
   about 3.5 times. *)
let test_cse_linear () =
  let words n =
    let term i = if i mod 2 = 0 then "a" else "b" in
    let chain = String.concat " + " (List.init n term) in
    let sh =
      shape
        (Fmt.str
           "program p; var a, b, x : integer; begin x := %s + (%s) * (%s) end."
           chain chain chain)
    in
    let once () =
      let w0 = Gc.minor_words () in
      ignore (Sys.opaque_identity (optimize sh));
      Gc.minor_words () -. w0
    in
    List.fold_left min infinity (List.init 3 (fun _ -> once ()))
  in
  let w64 = words 64 and w128 = words 128 in
  let ratio = w128 /. w64 in
  if ratio > 2.5 then
    Alcotest.failf
      "CSE allocation grows faster than linear: %.0f words at n = 64, %.0f \
       at n = 128 (ratio %.2f > 2.5)"
      w64 w128 ratio

(* A statement whose candidates all differ is returned as it is, and the
   hashing scan that decides so allocates nothing: each further such
   statement costs the optimizer only its cell in the result list, never
   a table or an annotated copy.  Allocation is deterministic. *)
let test_cse_skips_unrepeated () =
  let program n =
    shape
      (Fmt.str "program p; var a, x : integer; begin %s end."
         (String.concat "; " (List.init n (Fmt.str "x := a * %d"))))
  in
  let words sh =
    let once () =
      let w0 = Gc.minor_words () in
      ignore (Sys.opaque_identity (optimize sh));
      Gc.minor_words () -. w0
    in
    List.fold_left min infinity (List.init 3 (fun _ -> once ()))
  in
  let sh = program 64 in
  let opt = optimize sh in
  check_int "no make_common" 0 (count_op "make_common" opt);
  List.iter2
    (fun a b -> Alcotest.(check bool) "statement returned as it is" true (a == b))
    sh.Shaper.Irgen.trees opt.Shaper.Irgen.trees;
  let n_trees sh = List.length sh.Shaper.Irgen.trees in
  let big = program 128 in
  let per_statement =
    (words big -. words sh) /. float_of_int (n_trees big - n_trees sh)
  in
  if per_statement > 4. then
    Alcotest.failf "%.1f words per unrepeated statement (> 4)" per_statement

(* Classes are interned on a hash and confirmed by structure: two loads
   whose displacements hash alike send the statement through the full
   pass, and there they stay two classes. *)
let test_cse_hash_collision () =
  let dsp i = Ifl.Token.int "dsp" i in
  let seen = Hashtbl.create 4096 in
  let rec search i =
    let h = Hashtbl.hash (dsp i) in
    match Hashtbl.find_opt seen h with
    | Some j -> (j, i)
    | None ->
        Hashtbl.add seen h i;
        search (i + 1)
  in
  let i, j = search 0 in
  let load d =
    Tree.node "fullword"
      [ Tree.Node (dsp d, []); Tree.Node (Ifl.Token.reg "r" 13, []) ]
  in
  let assign rhs = Tree.node "assign" [ load 0; rhs ] in
  let run trees =
    let sh = shape "program p; var x : integer; begin x := 0 end." in
    optimize { sh with Shaper.Irgen.trees }
  in
  let distinct = run [ assign (Tree.node "iadd" [ load i; load j ]) ] in
  check_int "colliding loads: no make_common" 0 (count_op "make_common" distinct);
  let repeated =
    run [ assign (Tree.node "iadd" [ Tree.node "iadd" [ load i; load j ]; load i ]) ]
  in
  check_int "the repeat is commoned" 1 (count_op "make_common" repeated);
  check_int "once" 1 (count_op "use_common" repeated);
  (* the colliding load is left in place *)
  let dsps =
    List.concat_map
      (fun t ->
        let rec go (Tree.Node (tok, kids)) =
          (if tok.Ifl.Token.sym = "dsp" then [ Ifl.Value.to_int tok.Ifl.Token.value ]
           else [])
          @ List.concat_map go kids
        in
        go t)
      repeated.Shaper.Irgen.trees
  in
  Alcotest.(check bool) "colliding load kept" true (List.mem j dsps)

let () =
  Alcotest.run "shaper"
    [
      ( "layout",
        [
          Alcotest.test_case "storage formats" `Quick test_storage_formats;
          Alcotest.test_case "alignment" `Quick test_layout_alignment;
          Alcotest.test_case "page overflow" `Quick test_layout_overflow;
        ] );
      ( "shapes",
        [
          Alcotest.test_case "decrement idiom" `Quick test_decrement_idiom;
          Alcotest.test_case "shift strength reduction" `Quick test_shift_strength_reduction;
          Alcotest.test_case "general add avoids LA" `Quick test_general_add_not_la;
          Alcotest.test_case "loop counter incr" `Quick test_for_loop_uses_incr;
          Alcotest.test_case "checks flag" `Quick test_checks_flag;
          Alcotest.test_case "global chain" `Quick test_global_access_through_chain;
          Alcotest.test_case "procedure slots" `Quick test_proc_slots_and_labels;
        ] );
      ( "cse",
        [
          Alcotest.test_case "rewrites repeats" `Quick test_cse_rewrites_repeats;
          Alcotest.test_case "assign target excluded" `Quick test_cse_not_in_assign_target;
          Alcotest.test_case "no cross-statement sharing" `Quick test_cse_no_cross_statement;
          Alcotest.test_case "write counters untouched" `Quick test_cse_impure_not_shared;
          Alcotest.test_case "temp allocated" `Quick test_cse_temp_allocated_in_frame;
          Alcotest.test_case "pure: input untouched" `Quick test_cse_pure;
          Alcotest.test_case "linear allocation" `Quick test_cse_linear;
          Alcotest.test_case "unrepeated statements untouched" `Quick test_cse_skips_unrepeated;
          Alcotest.test_case "hash collision" `Quick test_cse_hash_collision;
        ] );
    ]
