(* End-to-end compiler tests: Pascal source through the CoGG-generated
   code generator, executed on the 370 simulator and checked against the
   reference interpreter.  Includes a property test over randomly
   generated programs. *)

let tables () = Lazy.force Util.amdahl_tables

let verify_ok ?cse ?checks ?strategy name src =
  match Pipeline.verify ?cse ?checks ?strategy (tables ()) src with
  | Error m -> Alcotest.failf "%s: %s" name m
  | Ok v ->
      if not v.Pipeline.agreed then
        Alcotest.failf "%s: machine and interpreter disagree: %s" name
          (String.concat "; " v.Pipeline.mismatches);
      v

let test_named_programs () =
  List.iter (fun (name, src) -> ignore (verify_ok name src)) Pipeline.Programs.all

let test_named_programs_no_cse () =
  List.iter
    (fun (name, src) -> ignore (verify_ok ~cse:false name src))
    Pipeline.Programs.all

let test_named_programs_with_checks () =
  List.iter
    (fun (name, src) -> ignore (verify_ok ~checks:true name src))
    Pipeline.Programs.all

let test_appendix1_equation_value () =
  let v = verify_ok "appendix1a" Pipeline.Programs.appendix1_equation in
  Alcotest.(check (list int))
    "x[q]"
    [ 100 + (3 * (50 - 8)) + (900 / (7 + 13) * 2) ]
    v.Pipeline.executed.Pipeline.written_ints

let test_appendix1_branches_value () =
  let v = verify_ok "appendix1b" Pipeline.Programs.appendix1_branches in
  Alcotest.(check (list int))
    "i and l" [ 40; 7 ] v.Pipeline.executed.Pipeline.written_ints

let test_gcd_value () =
  let v = verify_ok "gcd" Pipeline.Programs.gcd in
  Alcotest.(check (list int)) "gcd" [ 252 ] v.Pipeline.executed.Pipeline.written_ints

let test_sieve_value () =
  let v = verify_ok "sieve" Pipeline.Programs.sieve in
  Alcotest.(check (list int))
    "primes up to 120" [ 30 ] v.Pipeline.executed.Pipeline.written_ints

let test_fib_value () =
  let v = verify_ok "fib" Pipeline.Programs.fibonacci in
  Alcotest.(check (list int)) "fib 30" [ 832040 ] v.Pipeline.executed.Pipeline.written_ints

let test_procedures_value () =
  let v = verify_ok "procs" Pipeline.Programs.procedures in
  (* total = (10+1) + (20+1) = 32, value = 20 *)
  Alcotest.(check (list int)) "globals through chain" [ 32; 20 ]
    v.Pipeline.executed.Pipeline.written_ints

let test_integral_value () =
  let v = verify_ok "integral" Pipeline.Programs.integral in
  match v.Pipeline.executed.Pipeline.written_reals with
  | [ x ] -> Alcotest.(check (float 1e-3)) "integral of x^2" 0.3333 x
  | _ -> Alcotest.fail "expected one real"

let test_cse_actually_fires () =
  let t = tables () in
  match Pipeline.compile ~cse:true t Pipeline.Programs.cse_demo with
  | Error m -> Alcotest.fail m
  | Ok c ->
      let has_common =
        List.exists
          (fun (tok : Ifl.Token.t) -> tok.Ifl.Token.sym = "make_common")
          c.Pipeline.tokens
      in
      Alcotest.(check bool) "make_common present" true has_common;
      (* and the optimized program is shorter than the unoptimized one *)
      (match Pipeline.compile ~cse:false t Pipeline.Programs.cse_demo with
      | Error m -> Alcotest.fail m
      | Ok c0 ->
          let len c =
            Bytes.length c.Pipeline.gen.Cogg.Codegen.resolved.Cogg.Loader_gen.code
          in
          Alcotest.(check bool)
            "CSE code is smaller" true
            (len c < len c0))

(* Nine repeated subexpressions next to a 3456-byte array: the main
   frame fits the program and the first four CSE temporaries, not the
   fifth.  The optimizer must skip the candidates it cannot place and
   leave the frame within its page.  The procedure's own frame still has
   room, and its temporary must take the next id: a skipped candidate
   consumes none. *)
let cse_frame_overflow =
  {|
program cseoverflow;
var i, j, k, s, t : integer;
    a : array[1..864] of integer;
procedure p;
var u : integer;
begin
  u := (i * j + k) - (i * j + k);
  s := s + u
end;
begin
  i := 3; j := 5; k := 7; s := 0; t := 0;
  s := (i + j * k) + (i + j * k);
  t := (j + k * i) - (j + k * i);
  s := s + (k + i * j) * (k + i * j);
  t := t + (i - j * k) + (i - j * k);
  s := s - (j - k * i) + (j - k * i);
  t := t + (k - i * j) * (k - i * j);
  s := s + (i + k * j) + (i + k * j);
  t := t - (j + i * k) + (j + i * k);
  s := s + (k + j * i) - (k + j * i);
  p;
  a[1] := s + t;
  write(s);
  write(t);
  write(a[1])
end.
|}

let test_cse_skips_unplaceable_temps () =
  List.iter
    (fun (tables : Cogg.Tables.t) ->
      let target = tables.Cogg.Tables.target.Machine.Target.name in
      List.iter
        (fun cse ->
          match Pipeline.verify ~cse tables cse_frame_overflow with
          | Error m -> Alcotest.failf "%s (cse %b): %s" target cse m
          | Ok v ->
              if not v.Pipeline.agreed then
                Alcotest.failf "%s (cse %b): %s" target cse
                  (String.concat "; " v.Pipeline.mismatches))
        [ true; false ];
      match Pipeline.compile tables cse_frame_overflow with
      | Error m -> Alcotest.fail m
      | Ok c ->
          let ids =
            List.sort_uniq compare
              (List.filter_map
                 (fun (tok : Ifl.Token.t) ->
                   match tok.Ifl.Token.value with
                   | Ifl.Value.Cse n -> Some n
                   | _ -> None)
                 c.Pipeline.tokens)
          in
          Alcotest.(check (list int))
            (target ^ ": ids numbered without gaps")
            (List.init (List.length ids) (fun i -> i + 1))
            ids;
          Alcotest.(check bool)
            (target ^ ": the procedure still gets its temporaries")
            true
            (List.length ids > 4);
          Alcotest.(check int)
            (target ^ ": frame filled to its page, not past it")
            4096
            (Shaper.Layout.frame_bytes c.Pipeline.shaped.Shaper.Irgen.main_frame))
    [ tables (); Lazy.force Util.risc32_tables ]

let test_subscript_check_catches () =
  let src =
    {|
program oob;
var a : array[0..9] of integer;
    i : integer;
begin
  i := 15;
  a[i] := 1
end.
|}
  in
  let t = tables () in
  match Pipeline.compile ~checks:true t src with
  | Error m -> Alcotest.fail m
  | Ok c -> (
      match Pipeline.execute c with
      | Error _ -> ()
      | Ok x ->
          Alcotest.(check bool)
            "aborted on bad subscript" true
            (x.Pipeline.outcome.Machine.Runtime.aborted <> None))

let test_case_without_otherwise_aborts () =
  let src =
    {|
program badcase;
var x, y : integer;
begin
  x := 9;
  case x of
    1: y := 1;
    2: y := 2
  end
end.
|}
  in
  let t = tables () in
  match Pipeline.compile t src with
  | Error m -> Alcotest.fail m
  | Ok c -> (
      match Pipeline.execute c with
      | Error _ -> ()
      | Ok x ->
          Alcotest.(check bool)
            "aborted on unmatched case" true
            (x.Pipeline.outcome.Machine.Runtime.aborted <> None))

let test_front_end_errors () =
  let t = tables () in
  let bad =
    [
      ("type mismatch", "program p; var x : integer; begin x := true end.");
      ("undeclared", "program p; begin x := 1 end.");
      ("syntax", "program p; begin if then end.");
      ("real div", "program p; var r : real; begin r := r div r end.");
      ("bool condition", "program p; var x : integer; begin if x then x := 1 end.");
      ("nested proc call",
       "program p; var x : integer; procedure a; begin x := 1 end; \
        procedure b; begin a end; begin b end.");
    ]
  in
  List.iter
    (fun (name, src) ->
      match Pipeline.compile t src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: bad program accepted" name)
    bad

(* The even/odd-pair eviction regression, read from its corpus seed:
   on amdahl470 both halves of the pair an [imult] claims hold CSEs,
   and both must be spilled.  Every target, with and without CSE. *)
let pair_cse_eviction_src =
  lazy
    (match Util.find_up (Sys.getcwd ()) "test/corpus/11-pair-cse-eviction.pas" with
    | Some p -> In_channel.with_open_bin p In_channel.input_all
    | None -> Alcotest.fail "cannot locate test/corpus/11-pair-cse-eviction.pas")

let test_pair_cse_eviction () =
  List.iter
    (fun (target, _) ->
      List.iter
        (fun cse ->
          let label = Printf.sprintf "%s, cse=%b" target cse in
          match
            Pipeline.verify ~cse (Util.tables target)
              (Lazy.force pair_cse_eviction_src)
          with
          | Error m -> Alcotest.failf "%s: %s" label m
          | Ok v ->
              Alcotest.(check bool)
                (label ^ ": machine = interpreter")
                true v.Pipeline.agreed;
              Alcotest.(check (list int))
                (label ^ ": s")
                [ -3 ] v.Pipeline.executed.Pipeline.written_ints)
        [ true; false ])
    Machine.Targets.all

(* -- random program property test ------------------------------------------- *)

(* A generator of well-formed integer programs over variables v0..v4.
   Expressions avoid division by zero by only dividing by non-zero
   constants. *)
let gen_program : string QCheck.Gen.t =
  let open QCheck.Gen in
  let var = map (fun i -> Printf.sprintf "v%d" i) (int_bound 4) in
  let int_lit =
    map
      (fun n -> if n < 0 then Printf.sprintf "(%d)" n else string_of_int n)
      (int_range (-50) 50)
  in
  let rec expr depth =
    if depth = 0 then oneof [ int_lit; var ]
    else
      let sub = expr (depth - 1) in
      oneof
        [
          int_lit;
          var;
          map2 (Printf.sprintf "(%s + %s)") sub sub;
          map2 (Printf.sprintf "(%s - %s)") sub sub;
          map2 (Printf.sprintf "(%s * %s)") (expr 0) (expr 0);
          map2
            (fun a d -> Printf.sprintf "(%s div %d)" a d)
            sub (int_range 1 9);
          map2
            (fun a d -> Printf.sprintf "(%s mod %d)" a d)
            sub (int_range 1 9);
          map (Printf.sprintf "abs(%s)") sub;
          map2 (Printf.sprintf "min(%s, %s)") sub sub;
          map2 (Printf.sprintf "max(%s, %s)") sub sub;
        ]
  in
  let relation =
    let op = oneofl [ "<"; "<="; ">"; ">="; "="; "<>" ] in
    map3 (fun a o b -> Printf.sprintf "%s %s %s" a o b) (expr 1) op (expr 1)
  in
  let rec stmt depth =
    let assign =
      map2 (fun v e -> Printf.sprintf "%s := %s" v e) var (expr 2)
    in
    if depth = 0 then assign
    else
      let body = stmts (depth - 1) in
      oneof
        [
          assign;
          map2
            (fun c (a, b) ->
              Printf.sprintf "if %s then begin %s end else begin %s end" c a b)
            relation (pair body body);
          map2
            (fun lo body ->
              (* the control variable is dedicated and unique per nesting
                 depth: reuse or reassignment could loop forever *)
              Printf.sprintf "for w%d := %d to %d do begin %s end" depth lo
                (lo + 3) body)
            (int_range 0 5) body;
        ]
  and stmts depth =
    map (String.concat "; ") (list_size (int_range 1 4) (stmt depth))
  in
  map
    (fun body ->
      Printf.sprintf
        "program rand; var v0, v1, v2, v3, v4, w0, w1, w2 : integer; begin %s end."
        body)
    (stmts 2)

let prop_random_programs =
  QCheck.Test.make ~count:60 ~name:"random programs: machine = interpreter"
    (QCheck.make gen_program ~print:Fun.id)
    (fun src ->
      match Pipeline.verify (tables ()) src with
      | Error m -> QCheck.Test.fail_reportf "pipeline error: %s\n%s" m src
      | Ok v ->
          if not v.Pipeline.agreed then
            QCheck.Test.fail_reportf "disagreement: %s\n%s"
              (String.concat "; " v.Pipeline.mismatches)
              src
          else true)

let prop_random_programs_no_cse =
  QCheck.Test.make ~count:30 ~name:"random programs (no CSE)"
    (QCheck.make gen_program ~print:Fun.id)
    (fun src ->
      match Pipeline.verify ~cse:false (tables ()) src with
      | Error m -> QCheck.Test.fail_reportf "pipeline error: %s\n%s" m src
      | Ok v -> v.Pipeline.agreed)

let () =
  Alcotest.run "pipeline"
    [
      ( "programs",
        [
          Alcotest.test_case "all named programs agree" `Quick test_named_programs;
          Alcotest.test_case "without CSE" `Quick test_named_programs_no_cse;
          Alcotest.test_case "with runtime checks" `Quick test_named_programs_with_checks;
        ] );
      ( "values",
        [
          Alcotest.test_case "appendix 1 equation" `Quick test_appendix1_equation_value;
          Alcotest.test_case "appendix 1 branches" `Quick test_appendix1_branches_value;
          Alcotest.test_case "gcd" `Quick test_gcd_value;
          Alcotest.test_case "sieve" `Quick test_sieve_value;
          Alcotest.test_case "fibonacci" `Quick test_fib_value;
          Alcotest.test_case "procedures" `Quick test_procedures_value;
          Alcotest.test_case "integral" `Quick test_integral_value;
          Alcotest.test_case "pair CSE eviction, every target" `Quick
            test_pair_cse_eviction;
        ] );
      ( "optimization",
        [
          Alcotest.test_case "CSE fires and shrinks code" `Quick test_cse_actually_fires;
          Alcotest.test_case "CSE skips temporaries the frame cannot hold"
            `Quick test_cse_skips_unplaceable_temps;
        ] );
      ( "safety",
        [
          Alcotest.test_case "subscript check" `Quick test_subscript_check_catches;
          Alcotest.test_case "unmatched case aborts" `Quick test_case_without_otherwise_aborts;
          Alcotest.test_case "front end rejects bad programs" `Quick test_front_end_errors;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_random_programs; prop_random_programs_no_cse ] );
    ]
