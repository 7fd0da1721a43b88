(* The serve smoke gate (`dune build @serve-smoke`, folded into
   `dune runtest`): fork a real daemon on a throwaway socket, drive the
   example corpus through it cold, warm and hot, and hold the service to
   the repo's standing batch-fingerprint invariant — the served bytes
   must digest to exactly what `Pipeline.Batch.compile_all` produces.
   The hot pass must be answered from the result cache alone: no
   compile, one inline hit per source.  COGG_JOBS sizes the daemon's
   pool (the fork happens before any domain is spawned). *)

let expected_fingerprint = "d522ac078361a58b19cef0d83e2260c8"

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("serve_smoke: " ^ m);
      exit 1)
    fmt

let rec find_up depth dir rel =
  let candidate = Filename.concat dir rel in
  if Sys.file_exists candidate then Some candidate
  else if depth = 0 then None
  else find_up (depth - 1) (Filename.dirname dir) rel

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let jobs () =
  match Sys.getenv_opt "COGG_JOBS" with
  | Some "max" -> max 2 (Domain.recommended_domain_count ())
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 2)
  | None -> 2

let daemon ~spec_path ~sock : 'a =
  let tables =
    match Cogg.Cogg_build.build_file spec_path with
    | Ok t -> t
    | Error _ -> Unix._exit 3
  in
  let table_key =
    Cogg.Tables_cache.key ~mode:Cogg.Lookahead.Slr (read_file spec_path)
  in
  let n = jobs () in
  let pool = if n > 1 then Some (Cogg.Pool.create ~domains:n ()) else None in
  (match
     Serve.Server.create ?pool ~table_key ~socket_path:sock tables
   with
  | Ok server -> Serve.Server.run server
  | Error m ->
      prerr_endline ("serve_smoke daemon: " ^ m);
      Unix._exit 3);
  Unix._exit 0

let connect_retry sock =
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec go () =
    match Serve.Client.connect sock with
    | Ok c -> c
    | Error m ->
        if Unix.gettimeofday () > deadline then
          failwith ("daemon did not come up: " ^ m)
        else begin
          Unix.sleepf 0.05;
          go ()
        end
  in
  go ()

let () =
  let spec_path =
    match
      find_up 6 (Sys.getcwd ()) (Filename.concat "specs" "amdahl470.cgg")
    with
    | Some p -> p
    | None -> fail "cannot locate specs/amdahl470.cgg from %s" (Sys.getcwd ())
  in
  let sock = Filename.temp_file "serve-smoke" ".sock" in
  Sys.remove sock;
  match Unix.fork () with
  | 0 -> daemon ~spec_path ~sock
  | pid ->
      let status = ref 0 in
      let flunk fmt =
        Printf.ksprintf
          (fun m ->
            prerr_endline ("serve_smoke: " ^ m);
            status := 1)
          fmt
      in
      let contains hay needle =
        let n = String.length needle and h = String.length hay in
        let rec go i =
          i + n <= h && (String.sub hay i n = needle || go (i + 1))
        in
        n = 0 || go 0
      in
      let checks () =
        let c = connect_retry sock in
        (* the 32-job bench batch: the example corpus cycled, exactly
           what the standing fingerprint digests (names play no part) *)
        let corpus = Array.of_list (List.map snd Pipeline.Programs.all) in
        let srcs =
          Array.init 32 (fun i -> corpus.(i mod Array.length corpus))
        in
        let pass label expect_cached =
          match Serve.Client.compile_batch c srcs with
          | Error m -> flunk "%s batch failed: %s" label m
          | Ok replies ->
              Array.iteri
                (fun i r ->
                  match r with
                  | Serve.Wire.Compiled { cached; _ } ->
                      if cached <> expect_cached then
                        flunk "%s reply %d cached=%b, wanted %b" label i
                          cached expect_cached
                  | _ -> flunk "%s reply %d is not a compile" label i)
                replies;
              let fp = Serve.Wire.fingerprint replies in
              if fp <> expected_fingerprint then
                flunk "%s fingerprint drifted: %s (want %s)" label fp
                  expected_fingerprint
        in
        let stats () =
          match Serve.Client.stats c with
          | Error m -> failwith ("stats failed: " ^ m)
          | Ok text -> text
        in
        (* one [key value] line of the Stats reply *)
        let counter text key =
          let value line =
            match String.split_on_char ' ' line with
            | [ k; v ] when k = key -> int_of_string_opt v
            | _ -> None
          in
          match List.find_map value (String.split_on_char '\n' text) with
          | Some v -> v
          | None -> failwith (Printf.sprintf "no %S in stats:\n%s" key text)
        in
        pass "cold" false;
        pass "warm" true;
        (* the warm pass's Verify_once recompiles marked every entry
           verified, so a third pass must be answered inline without a
           single compile: the work count behind "a hit is much faster
           than a miss", with no wall-clock threshold to flake *)
        let before = stats () in
        pass "hot" true;
        let after = stats () in
        let delta key = counter after key - counter before key in
        if delta "compiles" <> 0 then
          flunk "hot pass ran %d compiles, wanted 0" (delta "compiles");
        if delta "inline_hits" <> Array.length srcs then
          flunk "hot pass answered %d inline hits, wanted %d"
            (delta "inline_hits") (Array.length srcs);
        let want = Printf.sprintf "pool_size %d" (jobs ()) in
        if not (contains after want) then
          flunk "COGG_JOBS not respected, wanted %S in:\n%s" want after;
        Serve.Client.close c
      in
      (try checks ()
       with e -> flunk "unexpected exception: %s" (Printexc.to_string e));
      (match Serve.Client.connect sock with
      | Ok c ->
          ignore (Serve.Client.shutdown c);
          Serve.Client.close c
      | Error _ -> (
          try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()));
      ignore (Unix.waitpid [] pid);
      if Sys.file_exists sock then Sys.remove sock;
      if !status = 0 then
        print_endline
          ("serve-smoke: corpus fingerprint " ^ expected_fingerprint
         ^ " served cold, warm and hot; hot pass all inline hits");
      exit !status
