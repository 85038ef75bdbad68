open Loseq_sim

let test_time_units () =
  Alcotest.(check int) "ns" 1_000 (Time.to_ps (Time.ns 1));
  Alcotest.(check int) "us" 1_000_000 (Time.to_ps (Time.us 1));
  Alcotest.(check int) "ms" 1_000_000_000 (Time.to_ps (Time.ms 1));
  Alcotest.(check int) "add" 1_500 (Time.to_ps (Time.add (Time.ns 1) (Time.ps 500)));
  Alcotest.(check int) "sub saturates" 0
    (Time.to_ps (Time.sub (Time.ns 1) (Time.ns 2)))

let test_time_rejects_negative () =
  match Time.ns (-5) with
  | (_ : Time.t) -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_time_pp () =
  Alcotest.(check string) "ns" "90 ns" (Time.to_string (Time.ns 90));
  Alcotest.(check string) "ps" "1500 ps" (Time.to_string (Time.ps 1500));
  Alcotest.(check string) "zero" "0 s" (Time.to_string Time.zero)

let test_wait_for_ordering () =
  let k = Kernel.create () in
  let log = ref [] in
  let say s = log := s :: !log in
  Kernel.spawn k (fun () ->
      Kernel.wait_for k (Time.ns 20);
      say "late");
  Kernel.spawn k (fun () ->
      Kernel.wait_for k (Time.ns 10);
      say "early");
  Kernel.run k;
  Alcotest.(check (list string)) "order" [ "early"; "late" ] (List.rev !log);
  Alcotest.(check int) "final time" 20_000 (Time.to_ps (Kernel.now k))

let test_same_time_fifo () =
  let k = Kernel.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Kernel.spawn k (fun () ->
        Kernel.wait_for k (Time.ns 10);
        log := i :: !log)
  done;
  Kernel.run k;
  Alcotest.(check (list int)) "fifo at same instant" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_delta_notification () =
  let k = Kernel.create () in
  let ev = Kernel.event k in
  let got = ref false in
  Kernel.spawn k (fun () ->
      Kernel.wait ev;
      got := true);
  Kernel.spawn k (fun () -> Kernel.notify ev);
  Kernel.run k;
  Alcotest.(check bool) "woken in delta" true !got;
  Alcotest.(check int) "no time passed" 0 (Time.to_ps (Kernel.now k))

let test_notification_not_persistent () =
  let k = Kernel.create () in
  let ev = Kernel.event k in
  let got = ref false in
  (* Notify before anyone waits: lost, as in SystemC. *)
  Kernel.spawn k (fun () -> Kernel.notify ev);
  Kernel.spawn k (fun () ->
      Kernel.wait_for k (Time.ns 1);
      match Kernel.wait_timeout ev (Time.ns 5) with
      | `Event -> got := true
      | `Timeout -> ());
  Kernel.run k;
  Alcotest.(check bool) "notification lost" false !got

let test_notify_after () =
  let k = Kernel.create () in
  let ev = Kernel.event k in
  let woke_at = ref (-1) in
  Kernel.spawn k (fun () ->
      Kernel.wait ev;
      woke_at := Time.to_ps (Kernel.now k));
  Kernel.spawn k (fun () -> Kernel.notify_after ev (Time.ns 30));
  Kernel.run k;
  Alcotest.(check int) "woken at 30ns" 30_000 !woke_at

let test_wait_timeout_event_wins () =
  let k = Kernel.create () in
  let ev = Kernel.event k in
  let outcome = ref `Timeout in
  Kernel.spawn k (fun () -> outcome := Kernel.wait_timeout ev (Time.ns 100));
  Kernel.spawn k (fun () ->
      Kernel.wait_for k (Time.ns 10);
      Kernel.notify ev);
  Kernel.run k;
  Alcotest.(check bool) "event" true (!outcome = `Event);
  (* The pending timeout callback still drains but has no effect. *)
  Alcotest.(check bool) "time advanced to timeout" true
    (Time.to_ps (Kernel.now k) >= 100_000)

let test_wait_any () =
  let k = Kernel.create () in
  let e1 = Kernel.event ~name:"e1" k and e2 = Kernel.event ~name:"e2" k in
  let winner = ref "" in
  Kernel.spawn k (fun () ->
      let ev = Kernel.wait_any [ e1; e2 ] in
      winner := Kernel.event_name ev);
  Kernel.spawn k (fun () ->
      Kernel.wait_for k (Time.ns 5);
      Kernel.notify e2);
  Kernel.run k;
  Alcotest.(check string) "e2 won" "e2" !winner

let test_schedule_and_cancel () =
  let k = Kernel.create () in
  let fired = ref [] in
  let (_ : Kernel.handle) =
    Kernel.schedule k ~after:(Time.ns 10) (fun () -> fired := 1 :: !fired)
  in
  let h2 =
    Kernel.schedule k ~after:(Time.ns 20) (fun () -> fired := 2 :: !fired)
  in
  Kernel.cancel h2;
  Kernel.run k;
  Alcotest.(check (list int)) "only first" [ 1 ] !fired

let test_schedule_at_past_raises () =
  let k = Kernel.create () in
  Kernel.spawn k (fun () ->
      Kernel.wait_for k (Time.ns 100);
      match Kernel.schedule_at k ~at:(Time.ns 50) ignore with
      | (_ : Kernel.handle) -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ());
  Kernel.run k

let test_run_until_clamps () =
  let k = Kernel.create () in
  let fired = ref false in
  let (_ : Kernel.handle) =
    Kernel.schedule k ~after:(Time.us 100) (fun () -> fired := true)
  in
  Kernel.run ~until:(Time.us 10) k;
  Alcotest.(check bool) "not fired" false !fired;
  Alcotest.(check int) "clock at horizon" 10_000_000 (Time.to_ps (Kernel.now k));
  Alcotest.(check bool) "still pending" true (Kernel.pending k)

(* [run ~until] returns early when nothing is due by [until]; that exit
   must leave the kernel exactly as the full scheduling loop does. *)
let test_run_until_idle_boundary () =
  let k = Kernel.create () in
  let fired = ref [] in
  let at ps =
    ignore
      (Kernel.schedule_at k ~at:(Time.ps ps) (fun () -> fired := ps :: !fired))
  in
  at 100;
  at 101;
  Kernel.run ~until:(Time.ps 100) k;
  Alcotest.(check (list int)) "a thunk at until fires" [ 100 ] !fired;
  Alcotest.(check int) "now at until" 100 (Time.to_ps (Kernel.now k));
  (* idle up to the next deadline: nothing runs, only the clock moves *)
  Kernel.run ~until:(Time.ps 100) k;
  Alcotest.(check (list int)) "until + 1 does not fire" [ 100 ] !fired;
  Alcotest.(check int) "now stays" 100 (Time.to_ps (Kernel.now k));
  Kernel.run ~until:(Time.ps 101) k;
  Alcotest.(check (list int)) "fires at its time" [ 101; 100 ] !fired;
  Kernel.run ~until:(Time.ps 5_000) k;
  Alcotest.(check int) "empty heap: now ends at until" 5_000
    (Time.to_ps (Kernel.now k));
  (* a stopped run leaves [stopped] set; the next run, idle or not,
     clears it *)
  Kernel.spawn k (fun () ->
      Kernel.stop k;
      Kernel.wait_for k (Time.ns 10));
  Kernel.run k;
  Alcotest.(check bool) "stopped" true (Kernel.stopped k);
  Kernel.run ~until:(Time.ps 5_001) k;
  Alcotest.(check bool) "idle exit resets stopped" false (Kernel.stopped k);
  Alcotest.(check int) "idle exit moves now" 5_001 (Time.to_ps (Kernel.now k));
  Alcotest.(check bool) "the wait is still pending" true (Kernel.pending k)

let test_wait_loose_bounds_and_determinism () =
  let sample seed =
    let k = Kernel.create ~seed () in
    let out = ref 0 in
    Kernel.spawn k (fun () ->
        Kernel.wait_loose k (Time.ns 90) (Time.ns 110);
        out := Time.to_ps (Kernel.now k));
    Kernel.run k;
    !out
  in
  let x = sample 11 and y = sample 11 and z = sample 12 in
  Alcotest.(check int) "deterministic" x y;
  Alcotest.(check bool) "in bounds" true (x >= 90_000 && x <= 110_000);
  Alcotest.(check bool) "seeds differ (very likely)" true (x <> z || x >= 90_000)

let test_signal_wait_until () =
  let k = Kernel.create () in
  let s = Signal.create k 0 in
  let seen = ref (-1) in
  Kernel.spawn k (fun () -> seen := Signal.wait_until s (fun v -> v > 2));
  Kernel.spawn k (fun () ->
      for i = 1 to 5 do
        Kernel.wait_for k (Time.ns 1);
        Signal.write s i
      done);
  Kernel.run k;
  Alcotest.(check int) "first satisfying" 3 !seen

let test_signal_no_event_on_same_value () =
  let k = Kernel.create () in
  let s = Signal.create k 7 in
  let changes = ref 0 in
  Signal.on_change s (fun _ -> incr changes);
  Signal.write s 7;
  Signal.write s 8;
  Signal.write s 8;
  Alcotest.(check int) "one effective change" 1 !changes

let test_fifo_blocking () =
  let k = Kernel.create () in
  let f = Fifo.create ~capacity:2 k () in
  let produced = ref 0 and consumed = ref [] in
  Kernel.spawn k (fun () ->
      for i = 1 to 6 do
        Fifo.put f i;
        produced := i
      done);
  Kernel.spawn k (fun () ->
      for _ = 1 to 6 do
        Kernel.wait_for k (Time.ns 10);
        consumed := Fifo.get f :: !consumed
      done);
  Kernel.run k;
  Alcotest.(check int) "all produced" 6 !produced;
  Alcotest.(check (list int)) "order preserved" [ 1; 2; 3; 4; 5; 6 ]
    (List.rev !consumed)

let test_fifo_try_ops () =
  let k = Kernel.create () in
  let f = Fifo.create ~capacity:1 k () in
  Alcotest.(check bool) "put ok" true (Fifo.try_put f 1);
  Alcotest.(check bool) "full" false (Fifo.try_put f 2);
  Alcotest.(check (option int)) "get" (Some 1) (Fifo.try_get f);
  Alcotest.(check (option int)) "empty" None (Fifo.try_get f)

let test_fifo_rejects_bad_capacity () =
  let k = Kernel.create () in
  match Fifo.create ~capacity:0 k () with
  | (_ : int Fifo.t) -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_nested_spawn () =
  let k = Kernel.create () in
  let log = ref [] in
  Kernel.spawn k (fun () ->
      log := "outer" :: !log;
      Kernel.spawn k (fun () ->
          Kernel.wait_for k (Time.ns 5);
          log := "inner" :: !log);
      Kernel.wait_for k (Time.ns 10);
      log := "outer done" :: !log);
  Kernel.run k;
  Alcotest.(check (list string)) "sequence"
    [ "outer"; "inner"; "outer done" ]
    (List.rev !log)

let test_stop_requests_termination () =
  let k = Kernel.create () in
  let after_stop = ref false in
  Kernel.spawn k (fun () ->
      Kernel.wait_for k (Time.ns 10);
      Kernel.stop k;
      Kernel.wait_for k (Time.ns 10);
      after_stop := true);
  Kernel.run k;
  Alcotest.(check bool) "stopped flag" true (Kernel.stopped k);
  Alcotest.(check bool) "process frozen at stop" false !after_stop;
  Alcotest.(check bool) "activity pending" true (Kernel.pending k);
  Alcotest.(check int) "time frozen" 10_000 (Time.to_ps (Kernel.now k));
  (* A later run resumes where the simulation left off. *)
  Kernel.run k;
  Alcotest.(check bool) "resumed" true !after_stop;
  Alcotest.(check bool) "flag cleared" false (Kernel.stopped k)

let test_stats () =
  let k = Kernel.create () in
  let ev = Kernel.event k in
  Kernel.spawn k (fun () -> Kernel.wait ev);
  Kernel.spawn k (fun () -> Kernel.notify ev);
  Kernel.run k;
  let spawned, delivered = Kernel.stats k in
  Alcotest.(check int) "spawned" 2 spawned;
  Alcotest.(check int) "delivered" 1 delivered

let () =
  Alcotest.run "sim"
    [
      ( "time",
        [
          Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "negative" `Quick test_time_rejects_negative;
          Alcotest.test_case "pp" `Quick test_time_pp;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "wait ordering" `Quick test_wait_for_ordering;
          Alcotest.test_case "same-time fifo" `Quick test_same_time_fifo;
          Alcotest.test_case "delta notify" `Quick test_delta_notification;
          Alcotest.test_case "notify not persistent" `Quick
            test_notification_not_persistent;
          Alcotest.test_case "notify after" `Quick test_notify_after;
          Alcotest.test_case "wait timeout" `Quick
            test_wait_timeout_event_wins;
          Alcotest.test_case "wait any" `Quick test_wait_any;
          Alcotest.test_case "schedule/cancel" `Quick test_schedule_and_cancel;
          Alcotest.test_case "schedule_at past" `Quick
            test_schedule_at_past_raises;
          Alcotest.test_case "run until" `Quick test_run_until_clamps;
          Alcotest.test_case "run until, idle boundary" `Quick
            test_run_until_idle_boundary;
          Alcotest.test_case "loose timing" `Quick
            test_wait_loose_bounds_and_determinism;
          Alcotest.test_case "nested spawn" `Quick test_nested_spawn;
          Alcotest.test_case "stop/resume" `Quick
            test_stop_requests_termination;
          Alcotest.test_case "stats" `Quick test_stats;
        ] );
      ( "channels",
        [
          Alcotest.test_case "signal wait_until" `Quick test_signal_wait_until;
          Alcotest.test_case "signal change detection" `Quick
            test_signal_no_event_on_same_value;
          Alcotest.test_case "fifo blocking" `Quick test_fifo_blocking;
          Alcotest.test_case "fifo try ops" `Quick test_fifo_try_ops;
          Alcotest.test_case "fifo capacity" `Quick
            test_fifo_rejects_bad_capacity;
        ] );
    ]
