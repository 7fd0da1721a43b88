(* The compile service end to end: a real serve_helper daemon process
   on a throwaway socket, driven through Serve.Client.  The properties:
   served batches are byte-identical to direct Pipeline compiles, cache
   hits are byte-identical to misses, admission control answers
   Overloaded deterministically, restarts are cold/warm equivalent, and
   concurrent clients all see the same bytes. *)

let helper_path () =
  let p =
    Filename.concat (Filename.dirname Sys.executable_name) "serve_helper.exe"
  in
  if Sys.file_exists p then p
  else Alcotest.failf "serve_helper.exe not found at %s" p

let with_daemon ?(args = []) (f : string -> 'a) : 'a =
  let sock = Filename.temp_file "pascd-test" ".sock" in
  Sys.remove sock;
  let helper = helper_path () in
  let argv = Array.of_list (helper :: "--socket" :: sock :: args) in
  let pid =
    Unix.create_process helper argv Unix.stdin Unix.stdout Unix.stderr
  in
  Fun.protect
    ~finally:(fun () ->
      (match Serve.Client.connect sock with
      | Ok c ->
          ignore (Serve.Client.shutdown c);
          Serve.Client.close c
      | Error _ -> ( try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()));
      ignore (Unix.waitpid [] pid);
      if Sys.file_exists sock then Sys.remove sock)
    (fun () -> f sock)

(* the daemon builds its tables before binding, so give it a while *)
let connect_retry sock =
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec go () =
    match Serve.Client.connect sock with
    | Ok c -> c
    | Error m ->
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "daemon did not come up: %s" m
        else begin
          Unix.sleepf 0.05;
          go ()
        end
  in
  go ()

let with_client sock f =
  let c = connect_retry sock in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)

let sources () = Array.of_list (List.map snd Pipeline.Programs.all)

let jobs () =
  Array.of_list
    (List.map
       (fun (name, source) -> { Pipeline.Batch.name; source })
       Pipeline.Programs.all)

let direct_fingerprint =
  lazy
    (Pipeline.Batch.fingerprint
       (Pipeline.Batch.compile_all (Lazy.force Util.amdahl_tables) (jobs ())))

let batch c srcs =
  match Serve.Client.compile_batch c srcs with
  | Ok replies -> replies
  | Error m -> Alcotest.failf "batch failed: %s" m

let check_all_cached what expect replies =
  Array.iteri
    (fun i r ->
      match r with
      | Serve.Wire.Compiled { cached; _ } ->
          if cached <> expect then
            Alcotest.failf "%s: reply %d has cached=%b, wanted %b" what i
              cached expect
      | _ -> Alcotest.failf "%s: reply %d is not a compile result" what i)
    replies

(* (a) a served batch is byte-identical to compiling directly *)
let test_batch_matches_direct () =
  with_daemon (fun sock ->
      with_client sock (fun c ->
          let replies = batch c (sources ()) in
          check_all_cached "cold batch" false replies;
          Alcotest.(check string)
            "served fingerprint equals the direct Pipeline fingerprint"
            (Lazy.force direct_fingerprint)
            (Serve.Wire.fingerprint replies)))

(* (b) a cache hit serves exactly the bytes the miss produced — under
   Verify_always every hit recompiles and compares, so a single gate
   failure would surface in the stats *)
let test_hit_equals_miss () =
  with_daemon ~args:[ "--verify"; "always" ] (fun sock ->
      with_client sock (fun c ->
          let src = snd (List.hd Pipeline.Programs.all) in
          let miss =
            match Serve.Client.compile c src with
            | Ok r -> r
            | Error m -> Alcotest.failf "miss failed: %s" m
          in
          let hit =
            match Serve.Client.compile c src with
            | Ok r -> r
            | Error m -> Alcotest.failf "hit failed: %s" m
          in
          (match (miss, hit) with
          | ( Serve.Wire.Compiled { cached = false; outcome = o1; _ },
              Serve.Wire.Compiled { cached = true; outcome = o2; _ } ) ->
              Alcotest.(check bool)
                "hit outcome byte-identical to miss" true (o1 = o2)
          | _ -> Alcotest.fail "expected a miss then a hit");
          match Serve.Client.stats c with
          | Error m -> Alcotest.failf "stats failed: %s" m
          | Ok text ->
              Alcotest.(check bool)
                "determinism gate never failed" true
                (Util.contains text "gate_failures 0")))

(* (c) admission control: with the drain paused and a queue of two,
   exactly the first two of eight unique compiles are admitted and the
   other six are refused *)
let test_overloaded_backpressure () =
  with_daemon ~args:[ "--queue"; "2"; "--verify"; "never" ] (fun sock ->
      with_client sock (fun c ->
          (match Serve.Client.pause c 800 with
          | Ok () -> ()
          | Error m -> Alcotest.failf "pause failed: %s" m);
          let gcd = Pipeline.Programs.gcd in
          let unique =
            Array.init 8 (fun i -> Printf.sprintf "{ refusal %d }\n%s" i gcd)
          in
          let replies = batch c unique in
          Array.iteri
            (fun i r ->
              match r with
              | Serve.Wire.Compiled { cached = false; outcome = Ok _; _ }
                when i < 2 ->
                  ()
              | Serve.Wire.Overloaded _ when i >= 2 -> ()
              | Serve.Wire.Compiled _ when i < 2 ->
                  Alcotest.failf "admitted request %d did not compile" i
              | _ ->
                  Alcotest.failf
                    "request %d: wanted %s, got something else" i
                    (if i < 2 then "a compile" else "Overloaded"))
            replies;
          (* once the pause lapses and the queue drains, service resumes *)
          match Serve.Client.compile c gcd with
          | Ok (Serve.Wire.Compiled { outcome = Ok _; _ }) -> ()
          | Ok _ -> Alcotest.fail "post-pause compile was refused"
          | Error m -> Alcotest.failf "post-pause compile failed: %s" m))

(* (c2) the backoff hint: with the drain paused and the queue full,
   every rejection carries a positive retry_after_ms (pause remainder
   plus queue depth) *)
let test_retry_after_hint () =
  with_daemon ~args:[ "--queue"; "1"; "--verify"; "never" ] (fun sock ->
      with_client sock (fun c ->
          (match Serve.Client.pause c 600 with
          | Ok () -> ()
          | Error m -> Alcotest.failf "pause failed: %s" m);
          let gcd = Pipeline.Programs.gcd in
          let unique =
            Array.init 3 (fun i -> Printf.sprintf "{ hint %d }\n%s" i gcd)
          in
          let replies = batch c unique in
          Array.iteri
            (fun i r ->
              match r with
              | Serve.Wire.Compiled { outcome = Ok _; _ } when i = 0 -> ()
              | Serve.Wire.Overloaded { retry_after_ms; _ } when i > 0 ->
                  if retry_after_ms <= 0 then
                    Alcotest.failf "rejection %d: hint %d is not positive" i
                      retry_after_ms
              | _ -> Alcotest.failf "reply %d has the wrong shape" i)
            replies))

(* (c3) honoring the hint: a pause-driven burst that overflows the
   queue becomes an all-Ok batch under [~retry:true] — the rejected
   slots are resubmitted once, after the daemon's suggested backoff,
   by which time the pause has lapsed and the queue has drained *)
let test_retry_recovers () =
  with_daemon ~args:[ "--queue"; "4"; "--verify"; "never" ] (fun sock ->
      with_client sock (fun c ->
          (match Serve.Client.pause c 400 with
          | Ok () -> ()
          | Error m -> Alcotest.failf "pause failed: %s" m);
          let gcd = Pipeline.Programs.gcd in
          let unique =
            Array.init 6 (fun i -> Printf.sprintf "{ retry %d }\n%s" i gcd)
          in
          match Serve.Client.compile_batch c ~retry:true unique with
          | Error m -> Alcotest.failf "retrying batch failed: %s" m
          | Ok replies ->
              Array.iteri
                (fun i r ->
                  match r with
                  | Serve.Wire.Compiled { cached = false; outcome = Ok _; _ }
                    ->
                      ()
                  | Serve.Wire.Overloaded _ ->
                      Alcotest.failf
                        "reply %d still Overloaded after the bounded retry" i
                  | _ -> Alcotest.failf "reply %d has the wrong shape" i)
                replies))

(* (d) restart equivalence: a cold daemon, a warm cache, and a fresh
   daemon all produce the same fingerprint *)
let test_restart_cold_warm () =
  let first_cold, first_warm =
    with_daemon (fun sock ->
        with_client sock (fun c ->
            let cold = batch c (sources ()) in
            check_all_cached "cold" false cold;
            let warm = batch c (sources ()) in
            check_all_cached "warm" true warm;
            (Serve.Wire.fingerprint cold, Serve.Wire.fingerprint warm)))
  in
  Alcotest.(check string) "warm equals cold" first_cold first_warm;
  let second_cold =
    with_daemon (fun sock ->
        with_client sock (fun c ->
            let cold = batch c (sources ()) in
            check_all_cached "restarted cold" false cold;
            Serve.Wire.fingerprint cold))
  in
  Alcotest.(check string) "fresh daemon equals the old one" first_cold
    second_cold;
  Alcotest.(check string) "and both equal the direct pipeline"
    (Lazy.force direct_fingerprint) second_cold

(* (e) concurrent clients on their own connections all read identical
   bytes — the sharded cache and the pool never cross results *)
let test_concurrent_clients () =
  with_daemon ~args:[ "--jobs"; "2" ] (fun sock ->
      (* one pass to warm the cache so the racers mix hits and misses *)
      with_client sock (fun c -> ignore (batch c (sources ())));
      let n = 4 in
      let fingerprints = Array.make n "" in
      let racer i =
        with_client sock (fun c ->
            fingerprints.(i) <- Serve.Wire.fingerprint (batch c (sources ())))
      in
      let threads = Array.init n (fun i -> Thread.create racer i) in
      Array.iter Thread.join threads;
      Array.iteri
        (fun i fp ->
          Alcotest.(check string)
            (Printf.sprintf "client %d matches the direct pipeline" i)
            (Lazy.force direct_fingerprint)
            fp)
        fingerprints)

(* (f) send-side frame cap: an oversized payload is refused before a
   single byte goes out, so the stream stays clean for a recovery
   reply.  Pre-fix, write_frame would happily emit a frame the peer's
   length check must drop the connection over. *)
let test_write_frame_cap () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      let big = String.make (Serve.Wire.max_frame + 1) 'x' in
      (match Serve.Wire.write_frame a big with
      | () -> Alcotest.fail "oversized frame was written"
      | exception Serve.Wire.Frame_too_large n ->
          Alcotest.(check int) "reported size" (Serve.Wire.max_frame + 1) n);
      (* nothing leaked: the peer has nothing to read *)
      Unix.set_nonblock b;
      match Unix.read b (Bytes.create 1) 0 1 with
      | _ -> Alcotest.fail "bytes were written before the size check"
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ())

(* (g) a reply whose encoding exceeds the cap is replaced by a
   structured error carrying the same id, and the substitute itself
   fits the wire *)
let test_oversized_substitute () =
  let huge = String.make (Serve.Wire.max_frame + 64) 'L' in
  let r =
    Serve.Wire.Compiled { id = 7; cached = false; outcome = Ok (huge, "") }
  in
  let size = String.length (Serve.Wire.encode_reply r) in
  Alcotest.(check bool)
    "the synthetic reply really is oversized" true
    (size > Serve.Wire.max_frame);
  match Serve.Wire.oversized_substitute r ~size with
  | Serve.Wire.Compiled { id = 7; cached = false; outcome = Error m } as sub ->
      Alcotest.(check bool) "error names the cap" true
        (Util.contains m "frame cap");
      Alcotest.(check bool) "substitute fits the wire" true
        (String.length (Serve.Wire.encode_reply sub) <= Serve.Wire.max_frame)
  | _ -> Alcotest.fail "substitute lost the reply's id or shape"

(* (h) Hello names the serving target, the stats report it too, and a
   daemon serving the second backend really compiles for it *)
let test_hello_target () =
  with_daemon (fun sock ->
      with_client sock (fun c ->
          match Serve.Client.hello c with
          | Ok t -> Alcotest.(check string) "default daemon" "amdahl470" t
          | Error m -> Alcotest.failf "hello failed: %s" m));
  with_daemon ~args:[ "--target"; "risc32" ] (fun sock ->
      with_client sock (fun c ->
          (match Serve.Client.hello c with
          | Ok t -> Alcotest.(check string) "risc32 daemon" "risc32" t
          | Error m -> Alcotest.failf "hello failed: %s" m);
          (match Serve.Client.stats c with
          | Ok text ->
              Alcotest.(check bool) "stats name the target" true
                (Util.contains text "target risc32")
          | Error m -> Alcotest.failf "stats failed: %s" m);
          match Serve.Client.compile c Pipeline.Programs.gcd with
          | Ok (Serve.Wire.Compiled { outcome = Ok _; _ }) -> ()
          | Ok _ -> Alcotest.fail "risc32 daemon refused a known program"
          | Error m -> Alcotest.failf "compile failed: %s" m))

(* (i) EINTR immunity: a 1ms interval timer signal-bombs the client for
   the whole of a large batch; every read/write/select in the framing
   path must retry rather than tear a frame.  Pre-fix, Unix.write in
   write_frame (or the batch's select/read/single_write) raises
   Unix_error EINTR and the batch fails. *)
let test_eintr_signal_bomb () =
  with_daemon ~args:[ "--jobs"; "2" ] (fun sock ->
      with_client sock (fun c ->
          let old = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ())) in
          let tick = { Unix.it_interval = 0.001; it_value = 0.001 } in
          ignore (Unix.setitimer Unix.ITIMER_REAL tick);
          Fun.protect
            ~finally:(fun () ->
              ignore
                (Unix.setitimer Unix.ITIMER_REAL
                   { Unix.it_interval = 0.; it_value = 0. });
              Sys.set_signal Sys.sigalrm old)
            (fun () ->
              (* a large all-miss batch first: plenty of frames in both
                 directions while the timer fires *)
              let gcd = Pipeline.Programs.gcd in
              let unique =
                Array.init 48 (fun i ->
                    Printf.sprintf "{ eintr %d }\n%s" i gcd)
              in
              Array.iteri
                (fun i r ->
                  match r with
                  | Serve.Wire.Compiled { outcome = Ok _; _ } -> ()
                  | _ -> Alcotest.failf "bombed batch: reply %d not Ok" i)
                (batch c unique);
              (* and the standing corpus must still digest identically *)
              Alcotest.(check string)
                "signal-bombed batch matches the direct pipeline"
                (Lazy.force direct_fingerprint)
                (Serve.Wire.fingerprint (batch c (sources ()))))))

let () =
  Alcotest.run "serve"
    [
      ( "service",
        [
          Alcotest.test_case "served batch matches direct compile" `Quick
            test_batch_matches_direct;
          Alcotest.test_case "cache hit equals miss byte-for-byte" `Quick
            test_hit_equals_miss;
          Alcotest.test_case "overload answers Overloaded" `Quick
            test_overloaded_backpressure;
          Alcotest.test_case "rejections carry a backoff hint" `Quick
            test_retry_after_hint;
          Alcotest.test_case "bounded retry honors the hint" `Quick
            test_retry_recovers;
          Alcotest.test_case "restart is cold/warm equivalent" `Quick
            test_restart_cold_warm;
          Alcotest.test_case "concurrent clients agree" `Quick
            test_concurrent_clients;
        ] );
      ( "wire robustness",
        [
          Alcotest.test_case "send-side frame cap refuses cleanly" `Quick
            test_write_frame_cap;
          Alcotest.test_case "oversized reply becomes a structured error"
            `Quick test_oversized_substitute;
          Alcotest.test_case "hello names the serving target" `Quick
            test_hello_target;
          Alcotest.test_case "EINTR bombing never tears a frame" `Quick
            test_eintr_signal_bomb;
        ] );
    ]
