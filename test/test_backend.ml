(* The monitor-backend abstraction: four strategies (structural Drct,
   compiled flat-table, whole-suite flat engine, PSL progression)
   behind one interface, their capabilities, and — the load-bearing
   part — their agreement on random patterns and traces, both offline
   and hosted on a simulated tap. *)

open Loseq_core
open Loseq_sim
open Loseq_verif
open Loseq_testutil

let verdict_class = function
  | Backend.Running -> "running"
  | Backend.Satisfied -> "satisfied"
  | Backend.Violated _ -> "violated"

(* Feed a whole trace (verdicts are sticky), then finalize at its end. *)
let run_offline b trace =
  List.iter (fun e -> ignore (b.Backend.step e)) trace;
  b.Backend.finalize ~now:(Trace.end_time trace)

(* ---- unit: accessors and capabilities --------------------------------- *)

let test_alphabet_accessors () =
  let p = pat "{a, b} < c << i" in
  let expected = Pattern.alpha p in
  Alcotest.(check bool)
    "monitor alphabet" true
    (Name.Set.equal expected (Monitor.alphabet (Monitor.create p)));
  Alcotest.(check bool)
    "compiled alphabet" true
    (Name.Set.equal expected (Compiled.alphabet (Compiled.compile p)));
  List.iter
    (fun (label, b) ->
      Alcotest.(check bool) (label ^ " backend alphabet") true
        (Name.Set.equal expected b.Backend.alphabet))
    [
      ("direct", Backend.direct p);
      ("compiled", Backend.compiled p);
      ("flat", Backend.flat p);
      ("psl", Loseq_psl.Progress.backend p);
    ]

let test_capabilities () =
  let p = pat "a <<! i" in
  let direct = Backend.direct p in
  let compiled = Backend.compiled p in
  let flat = Backend.flat p in
  Alcotest.(check bool) "direct has states" true (direct.Backend.states <> None);
  Alcotest.(check bool) "direct has acceptable" true
    (direct.Backend.acceptable <> None);
  Alcotest.(check bool) "compiled has no states" true
    (compiled.Backend.states = None);
  Alcotest.(check bool) "flat has no states" true (flat.Backend.states = None);
  Alcotest.(check bool) "flat persists" true (flat.Backend.persist <> None);
  Alcotest.(check bool) "flat restores" true (flat.Backend.restore <> None);
  Alcotest.(check string) "labels" "direct/compiled/flat"
    (direct.Backend.label ^ "/" ^ compiled.Backend.label ^ "/"
   ^ flat.Backend.label)

let test_next_deadline_mirrors () =
  let p = pat "a => b < c within 100" in
  let m = Monitor.create p in
  let c = Compiled.compile p in
  let step name time =
    ignore (Monitor.step m { Trace.name = Name.v name; time });
    ignore (Compiled.step c { Trace.name = Name.v name; time });
    Alcotest.(check (option int))
      (Printf.sprintf "deadlines agree after %s@%d" name time)
      (Monitor.next_deadline m) (Compiled.next_deadline c)
  in
  Alcotest.(check (option int)) "unarmed" None (Compiled.next_deadline c);
  step "a" 10;
  Alcotest.(check (option int)) "armed at 110" (Some 110)
    (Compiled.next_deadline c);
  step "b" 20;
  step "c" 30

let test_reset () =
  let b = Backend.compiled (pat "a <<! i") in
  ignore (b.Backend.step { Trace.name = Name.v "i"; time = 1 });
  Alcotest.(check string) "violated" "violated"
    (verdict_class (b.Backend.verdict ()));
  b.Backend.reset ();
  Alcotest.(check string) "running again" "running"
    (verdict_class (b.Backend.verdict ()));
  ignore (b.Backend.step { Trace.name = Name.v "a"; time = 2 });
  ignore (b.Backend.step { Trace.name = Name.v "i"; time = 3 });
  Alcotest.(check string) "clean rerun" "running"
    (verdict_class (b.Backend.verdict ()))

(* The signature-style extension point. *)
module Direct_sig = struct
  type state = Monitor.t

  let label = "direct-sig"
  let create p = Monitor.create p
  let alphabet = Monitor.alphabet
  let step = Monitor.step
  let check_time = Monitor.check_time
  let next_deadline = Monitor.next_deadline
  let finalize = Monitor.finalize
  let verdict = Monitor.verdict
  let reset _ = ()
end

let test_pack () =
  let p = pat "{a, b} << i" in
  let b = Backend.pack (module Direct_sig) p in
  Alcotest.(check string) "label" "direct-sig" b.Backend.label;
  Alcotest.(check string) "accepts" "satisfied"
    (verdict_class (run_offline b (tr [ "a"; "b"; "i" ])));
  let b = Backend.pack (module Direct_sig) p in
  Alcotest.(check string) "rejects" "violated"
    (verdict_class (run_offline b (tr [ "a"; "i" ])))

(* ---- property: offline agreement -------------------------------------- *)

let prop_direct_compiled_agree (p, trace) =
  let d = Backend.direct p in
  let c = Backend.compiled p in
  let f = Backend.flat p in
  List.iter
    (fun e ->
      let vd = d.Backend.step e in
      let vc = c.Backend.step e in
      let vf = f.Backend.step e in
      if
        verdict_class vd <> verdict_class vc
        || verdict_class vc <> verdict_class vf
      then
        QCheck2.Test.fail_reportf
          "step %a@%d: direct %s, compiled %s, flat %s" Name.pp e.Trace.name
          e.Trace.time (verdict_class vd) (verdict_class vc)
          (verdict_class vf);
      if d.Backend.next_deadline () <> c.Backend.next_deadline () then
        QCheck2.Test.fail_reportf "deadline mismatch after %a@%d" Name.pp
          e.Trace.name e.Trace.time;
      if c.Backend.next_deadline () <> f.Backend.next_deadline () then
        QCheck2.Test.fail_reportf "flat deadline mismatch after %a@%d" Name.pp
          e.Trace.name e.Trace.time)
    trace;
  let now = Trace.end_time trace in
  verdict_class (d.Backend.finalize ~now)
  = verdict_class (c.Backend.finalize ~now)
  && verdict_class (c.Backend.verdict ())
     = verdict_class (f.Backend.finalize ~now)

(* Compiled and flat must agree not just on the verdict class but on
   the full rendered diagnostic. *)
let prop_compiled_flat_diagnostics_agree (p, trace) =
  let c = Backend.compiled p in
  let f = Backend.flat p in
  List.iter
    (fun e ->
      ignore (c.Backend.step e);
      ignore (f.Backend.step e))
    trace;
  let now = Trace.end_time trace in
  let render v = Format.asprintf "%a" Backend.pp_verdict v in
  let vc = render (c.Backend.finalize ~now)
  and vf = render (f.Backend.finalize ~now) in
  if vc <> vf then
    QCheck2.Test.fail_reportf "compiled %S, flat %S" vc vf
  else true

(* ---- property: hosted agreement (SoC-style tap) ------------------------ *)

(* Replay the trace on a simulated tap with the checker hosted on a hub,
   and run the kernel well past every possible deadline: deadline-only
   violations (no trailing event) must be caught by the merged wheel. *)
let hosted backend p trace =
  let kernel = Kernel.create () in
  let tap = Tap.create kernel in
  let hub = Hub.create tap in
  let checker = Hub.add ~backend hub p in
  Stimuli.replay tap trace;
  Kernel.run ~until:(Time.ps (Trace.end_time trace + 500)) kernel;
  Hub.finalize hub;
  Checker.verdict checker

(* The engine-direct hosting path: the hub steps the shared flat
   engine straight from the tap, no per-checker closure chain. *)
let hosted_flat_engine p trace =
  let kernel = Kernel.create () in
  let tap = Tap.create kernel in
  let suite = [ { Suite.label = "p"; pattern = p; line = 1 } ] in
  let hub, _eng = Suite.attach_hub_flat tap suite in
  Stimuli.replay tap trace;
  Kernel.run ~until:(Time.ps (Trace.end_time trace + 500)) kernel;
  Hub.finalize hub;
  match Hub.checkers hub with
  | [ c ] -> Checker.verdict c
  | _ -> Alcotest.fail "expected exactly one hosted checker"

let prop_hosted_agree (p, trace) =
  let vd = hosted (fun p -> Backend.direct p) p trace in
  let vc = hosted Backend.compiled p trace in
  let vf = hosted Backend.flat p trace in
  let ve = hosted_flat_engine p trace in
  if
    verdict_class vd <> verdict_class vc
    || verdict_class vc <> verdict_class vf
    || verdict_class vf <> verdict_class ve
  then
    QCheck2.Test.fail_reportf
      "hosted: direct %s, compiled %s, flat view %s, flat engine %s"
      (verdict_class vd) (verdict_class vc) (verdict_class vf)
      (verdict_class ve)
  else true

(* Suite-level: whole-suite flat compilation vs per-entry compiled
   monitors over a merged trace. *)
let gen_suite_case =
  QCheck2.Gen.(
    let* c1 = gen_pattern_and_trace in
    let* c2 = gen_pattern_and_trace in
    return (c1, c2))

let prop_suite_level_agree ((p1, t1), (p2, t2)) =
  let suite =
    [
      { Suite.label = "p1"; pattern = p1; line = 1 };
      { Suite.label = "p2"; pattern = p2; line = 2 };
    ]
  in
  let trace =
    List.stable_sort
      (fun (a : Trace.event) (b : Trace.event) -> compare a.time b.time)
      (t1 @ t2)
  in
  let per_entry = Suite.check_trace suite trace in
  let whole_suite =
    Suite.check_trace ~suite_backend:Backend.flat_views suite trace
  in
  if per_entry <> whole_suite then
    QCheck2.Test.fail_reportf "per-entry compiled %s, flat suite %s"
      (String.concat ","
         (List.map (fun (l, ok) -> Printf.sprintf "%s=%b" l ok) per_entry))
      (String.concat ","
         (List.map (fun (l, ok) -> Printf.sprintf "%s=%b" l ok) whole_suite))
  else true

(* A deterministic deadline-only case on top of the random ones: the
   premise fires, nothing else ever does, and only the hub's timer can
   notice. *)
let test_hosted_deadline_only () =
  let p = pat "a => b within 100" in
  List.iter
    (fun (label, backend) ->
      let v =
        hosted backend p [ { Trace.name = Name.v "a"; time = 10 } ]
      in
      Alcotest.(check string) label "violated" (verdict_class v))
    [
      ("direct", fun p -> Backend.direct p);
      ("compiled", Backend.compiled);
      ("flat", Backend.flat);
    ];
  let v =
    hosted_flat_engine p [ { Trace.name = Name.v "a"; time = 10 } ]
  in
  Alcotest.(check string) "flat engine" "violated" (verdict_class v)

(* ---- property: PSL backend vs progression oracle ----------------------- *)

(* The PSL backend (online lexer + progression) must agree with the
   reference pipeline (expand the whole word, progress, weak-accept) on
   untimed patterns; foreign names are filtered by the backend, so the
   oracle gets the filtered word. *)
let prop_psl_matches_oracle (p, trace) =
  let b = Loseq_psl.Progress.backend p in
  let hosted_passed = Backend.passed (run_offline b trace) in
  let word =
    List.filter
      (fun n -> Name.Set.mem n (Pattern.alpha p))
      (Trace.names trace)
  in
  let oracle = Loseq_psl.Progress.monitor_pattern p word in
  if hosted_passed <> oracle then
    QCheck2.Test.fail_reportf "psl backend %b, oracle %b" hosted_passed oracle
  else true

let gen_antecedent_and_trace =
  QCheck2.Gen.(
    let* p = gen_antecedent in
    let* trace = gen_trace_for p in
    return (p, trace))

let () =
  Alcotest.run "backend"
    [
      ( "interface",
        [
          Alcotest.test_case "alphabet accessors" `Quick
            test_alphabet_accessors;
          Alcotest.test_case "capabilities" `Quick test_capabilities;
          Alcotest.test_case "compiled next_deadline mirrors monitor" `Quick
            test_next_deadline_mirrors;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "MONITOR_BACKEND pack" `Quick test_pack;
        ] );
      ( "equivalence",
        [
          qtest "direct, compiled and flat agree offline"
            gen_pattern_and_trace print_pattern_and_trace
            prop_direct_compiled_agree;
          qtest ~count:300 "compiled and flat render equal diagnostics"
            gen_pattern_and_trace print_pattern_and_trace
            prop_compiled_flat_diagnostics_agree;
          qtest ~count:200 "all backends agree hosted"
            gen_pattern_and_trace print_pattern_and_trace prop_hosted_agree;
          qtest ~count:200 "flat suite agrees with per-entry compiled"
            gen_suite_case
            (fun (c1, c2) ->
              print_pattern_and_trace c1 ^ " | " ^ print_pattern_and_trace c2)
            prop_suite_level_agree;
          Alcotest.test_case "deadline-only violation, hosted" `Quick
            test_hosted_deadline_only;
          qtest ~count:300 "psl backend matches progression oracle"
            gen_antecedent_and_trace print_pattern_and_trace
            prop_psl_matches_oracle;
        ] );
    ]
