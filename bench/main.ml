(* Benchmark harness: regenerates every evaluation artifact of the paper.

   Section 1  — Figure 6: the Drct vs ViaPSL comparison table, with the
                paper's reported numbers, our analytic models and the
                measured values of the real OCaml monitors.
   Section 2  — Section-7 complexity claims: parameter sweeps showing the
                published Θ-shapes (range width, fragment width, chain
                length).
   Section 3  — Case-study workload: the properties monitored on traces
                from the Fig. 2 virtual platform.
   Section 4  — Bechamel wall-clock micro-benchmarks of Monitor.step for
                each Fig. 6 configuration.

   Run with: dune exec bench/main.exe *)

open Loseq_core

let pat = Parser.pattern_exn

let line = String.make 78 '-'

let section title =
  Format.printf "@.%s@.%s@.%s@." line title line

(* ---- provenance --------------------------------------------------------- *)

(* Every BENCH_*.json artifact records where it came from: the git
   revision of the tree that produced it, the backend it exercises,
   and the toolchain — so a number in CI can be traced to a commit. *)
let read_first_line path =
  match open_in path with
  | ic ->
      let l = try input_line ic with End_of_file -> "" in
      close_in ic;
      Some (String.trim l)
  | exception Sys_error _ -> None

let git_rev () =
  (* benches may run from the project root or a dune sandbox: walk up a
     few levels looking for .git/HEAD, then follow one "ref: " hop. *)
  let rec find dir depth =
    if depth > 4 then None
    else if Sys.file_exists (Filename.concat dir ".git/HEAD") then Some dir
    else find (Filename.concat dir Filename.parent_dir_name) (depth + 1)
  in
  match find Filename.current_dir_name 0 with
  | None -> "unknown"
  | Some dir -> (
      match read_first_line (Filename.concat dir ".git/HEAD") with
      | None | Some "" -> "unknown"
      | Some head ->
          if String.length head > 5 && String.sub head 0 5 = "ref: " then
            let ref_path =
              String.trim (String.sub head 5 (String.length head - 5))
            in
            Option.value ~default:"unknown"
              (read_first_line
                 (Filename.concat (Filename.concat dir ".git") ref_path))
          else head)

let provenance_json ~backend =
  Printf.sprintf
    {|"provenance": { "git_rev": %S, "backend": %S, "ocaml": %S, "loseq_version": %S }|}
    (git_rev ()) backend Sys.ocaml_version Version.current

(* Mean measured ops/event and measured storage of the real monitor on a
   satisfying workload. *)
let measured ?(rounds = 20) p =
  let rng = Random.State.make [| 0xbe7c |] in
  let trace = Generate.valid ~rounds ~max_run:4 rng p in
  let ops = ref 0 in
  let monitor = Monitor.create ~ops p in
  List.iter (fun e -> ignore (Monitor.step monitor e)) trace;
  let events = max 1 (Trace.length trace) in
  (!ops / events, Monitor.space_bits monitor, events)

(* ---- Section 1: Figure 6 ---------------------------------------------- *)

type fig6_row = {
  label : string;
  source : string;
  paper_drct : int * int;
  paper_viapsl : string * string;
}

let fig6_rows =
  [
    { label = "(n << i, true)"; source = "n <<! i";
      paper_drct = (80, 192); paper_viapsl = ("238+D", "896+D") };
    { label = "(n[100,60K] << i, true)"; source = "n[100,60000] <<! i";
      paper_drct = (80, 192); paper_viapsl = ("4x10^11+D", "2x10^12+D") };
    { label = "(({n1..n4},and) << i, false)"; source = "{n1, n2, n3, n4} << i";
      paper_drct = (230, 1132); paper_viapsl = ("1785+D", "6720+D") };
    { label = "(({n1..n5},and) << i, false)";
      source = "{n1, n2, n3, n4, n5} << i";
      paper_drct = (280, 1568); paper_viapsl = ("2142+D", "8064+D") };
    { label = "(n1 => n2<n3<n4, T)";
      source = "n1 => n2 < n3 < n4 within 1000";
      paper_drct = (296, 1051); paper_viapsl = ("1428+D", "5376+D") };
    { label = "(n1 => n2[100,60K]<n3<n4, T)";
      source = "n1 => n2[100,60000] < n3 < n4 within 1000";
      paper_drct = (296, 1051); paper_viapsl = ("4x10^11+D", "2x10^12+D") };
  ]

let human n =
  if n < 100_000 then string_of_int n
  else Printf.sprintf "%.1e" (float_of_int n)

let figure6 () =
  section "Figure 6 - Comparison of Drct and ViaPSL strategies";
  Format.printf
    "%-34s | %18s | %18s | %18s@."
    "configuration" "Drct paper" "Drct model" "Drct measured";
  Format.printf
    "%-34s | %18s | %18s | %18s@."
    "" "(ops, bits)" "(ops, bits)" "(ops, bits)";
  Format.printf "%s@." line;
  List.iter
    (fun row ->
      let p = pat row.source in
      let model = Cost.drct p in
      let m_ops, m_bits, _ = measured p in
      let paper_ops, paper_bits = row.paper_drct in
      Format.printf "%-34s | %8d, %8d | %8d, %8d | %8d, %8d@." row.label
        paper_ops paper_bits model.Cost.ops_per_event model.Cost.space_bits
        m_ops m_bits)
    fig6_rows;
  Format.printf "@.%-34s | %24s | %24s@." "configuration" "ViaPSL paper"
    "ViaPSL model (ops, bits)";
  Format.printf "%s@." line;
  List.iter
    (fun row ->
      let p = pat row.source in
      let via = Loseq_psl.Cost.via_psl p in
      let paper_ops, paper_bits = row.paper_viapsl in
      Format.printf "%-34s | %11s, %11s | %10s+D, %10s+D  (D=%s)@." row.label
        paper_ops paper_bits
        (human via.Loseq_psl.Cost.ops_per_event)
        (human via.Loseq_psl.Cost.space_bits)
        (human via.Loseq_psl.Cost.delta))
    fig6_rows;
  Format.printf
    "@.shape check: Drct model reproduces the paper's Drct column exactly;@.";
  Format.printf
    "ranges do not affect Drct at all, while they push ViaPSL to ~10^11 ops@.";
  Format.printf "and ~10^12 bits, as reported.@."

(* ---- Section 2: complexity sweeps -------------------------------------- *)

let sweep_range_width () =
  section
    "Sweep A (S7): range width w in n[1,w] - Drct flat, ViaPSL quadratic";
  Format.printf "%-10s | %12s | %12s | %14s | %14s@." "width" "Drct ops"
    "Drct bits" "ViaPSL ops" "ViaPSL bits";
  List.iter
    (fun w ->
      let p =
        Pattern.antecedent ~repeated:true
          [ Pattern.fragment [ Pattern.range ~lo:1 ~hi:w (Name.v "n") ] ]
          ~trigger:(Name.v "i")
      in
      let d = Cost.drct p in
      let v = Loseq_psl.Cost.via_psl p in
      Format.printf "%-10d | %12d | %12d | %14s | %14s@." w
        d.Cost.ops_per_event d.Cost.space_bits
        (human v.Loseq_psl.Cost.ops_per_event)
        (human v.Loseq_psl.Cost.space_bits))
    [ 1; 10; 100; 1_000; 10_000; 60_000 ]

let sweep_fragment_width () =
  section
    "Sweep B (S7): names per fragment k - Drct time THETA(max |alpha(F)|)";
  Format.printf "%-10s | %12s | %12s | %12s | %14s@." "k" "Drct model"
    "Drct meas." "Drct bits" "ViaPSL ops";
  List.iter
    (fun k ->
      let ranges =
        List.init k (fun j -> Pattern.range (Name.v (Printf.sprintf "n%d" j)))
      in
      let p =
        Pattern.antecedent [ Pattern.fragment ranges ] ~trigger:(Name.v "i")
      in
      let d = Cost.drct p in
      let m_ops, _, _ = measured p in
      let v = Loseq_psl.Cost.via_psl p in
      Format.printf "%-10d | %12d | %12d | %12d | %14s@." k
        d.Cost.ops_per_event m_ops d.Cost.space_bits
        (human v.Loseq_psl.Cost.ops_per_event))
    [ 1; 2; 4; 8; 16; 32 ]

let sweep_chain_length () =
  section
    "Sweep C (S7): q chained single-name fragments - Drct per-event time flat";
  Format.printf "%-10s | %12s | %12s | %12s | %14s@." "q" "Drct model*"
    "Drct meas." "Drct bits" "ViaPSL ops";
  Format.printf "  (*) the analytic model is calibrated on total names; the \
                 measured column@.      shows the max-active-fragment \
                 behaviour the paper's THETA describes.@.";
  List.iter
    (fun q ->
      let fragments =
        List.init q (fun j -> Pattern.single (Name.v (Printf.sprintf "n%d" j)))
      in
      let p = Pattern.antecedent fragments ~trigger:(Name.v "i") in
      let d = Cost.drct p in
      let m_ops, _, _ = measured p in
      let v = Loseq_psl.Cost.via_psl p in
      Format.printf "%-10d | %12d | %12d | %12d | %14s@." q
        d.Cost.ops_per_event m_ops d.Cost.space_bits
        (human v.Loseq_psl.Cost.ops_per_event))
    [ 1; 2; 4; 8; 16; 32 ]

(* ---- Section 2b: empirical ViaPSL (progression) ------------------------ *)

(* The ViaPSL numbers above come from a cost model; with the progression
   monitor the strategy can also be *executed* and measured, monitor
   against monitor, on identical satisfying workloads. *)
let empirical_viapsl () =
  section
    "Empirical Drct vs ViaPSL: both monitors executed on the same workload";
  Format.printf "%-34s | %10s | %12s | %12s@." "configuration"
    "Drct ops" "PSL rewrites" "PSL peak |f|";
  Format.printf
    "  (ops and rewrites per event; rows with 60000-wide ranges cannot@.";
  Format.printf
    "   even materialize their PSL formula - the point of the comparison)@.";
  List.iter
    (fun row ->
      let p = pat row.source in
      let rng = Random.State.make [| 0xd0c |] in
      let trace = Generate.valid ~rounds:10 ~max_run:4 rng p in
      let events = max 1 (Trace.length trace) in
      let drct_ops, _, _ = measured p in
      match Loseq_psl.Translate.to_psl p with
      | formula ->
          let monitor = Loseq_psl.Progress.create formula in
          List.iter
            (fun (e : Trace.event) ->
              ignore (Loseq_psl.Progress.step monitor e.Trace.name))
            (List.map
               (fun n -> { Trace.name = n; time = 0 })
               (Loseq_psl.Translate.expand_trace p (Trace.names trace)));
          Format.printf "%-34s | %10d | %12d | %12d@." row.label drct_ops
            (Loseq_psl.Progress.steps monitor / events)
            (Loseq_psl.Progress.peak_size monitor)
      | exception Invalid_argument _ ->
          Format.printf "%-34s | %10d | %12s | %12s@." row.label drct_ops
            "(too wide)" "(too wide)")
    fig6_rows

(* ---- Section 2c: explicit product automata ----------------------------- *)

let automaton_sizes () =
  section
    "Explicit monitor automata: the explosion the modular encoding avoids";
  Format.printf "%-34s | %12s | %12s | %12s@." "configuration" "DFA states"
    "minimized" "Drct bits";
  List.iter
    (fun (label, src) ->
      let p = pat src in
      let drct = Cost.drct p in
      match Automaton.of_pattern ~max_states:20000 p with
      | a ->
          let m = Automaton.minimize a in
          Format.printf "%-34s | %12d | %12d | %12d@." label
            a.Automaton.num_states m.Automaton.num_states drct.Cost.space_bits
      | exception Automaton.Too_many_states n ->
          Format.printf "%-34s | %9d+... | %12s | %12d@." label n "-"
            drct.Cost.space_bits)
    [
      ("(n << i, true)", "n <<! i");
      ("(({n1..n4},and) << i, false)", "{n1, n2, n3, n4} << i");
      ("(({n1..n5},and) << i, false)", "{n1, n2, n3, n4, n5} << i");
      ("fig. 4 property", "{n1, n2} < {n3[2,8] | n4} < n5 << i");
      ("(n1 => n2<n3<n4, T) shape", "n1 => n2 < n3 < n4 within 1000");
      ("n[1,2000] (counter blow-up)", "n[1,2000] <<! i");
    ]

(* ---- Section 2d: ablation - online monitor vs oracle re-checking ------- *)

let ablation_oracle () =
  section
    "Ablation: online Drct monitor vs per-event oracle re-checking";
  let p = pat "{a, b} < {c[2,8] | d} < e <<! i" in
  let rng = Random.State.make [| 77 |] in
  Format.printf "%-10s | %14s | %14s@." "events" "monitor (s)" "oracle (s)";
  List.iter
    (fun rounds ->
      let trace = Generate.valid ~rounds ~max_run:4 rng p in
      let events = Trace.length trace in
      let t0 = Sys.time () in
      let monitor = Monitor.create p in
      List.iter (fun e -> ignore (Monitor.step monitor e)) trace;
      let monitor_time = Sys.time () -. t0 in
      let t0 = Sys.time () in
      let consumed = ref [] in
      List.iter
        (fun e ->
          consumed := e :: !consumed;
          ignore (Semantics.holds p (List.rev !consumed)))
        trace;
      let oracle_time = Sys.time () -. t0 in
      Format.printf "%-10d | %14.4f | %14.4f@." events monitor_time
        oracle_time)
    [ 20; 100; 300 ]

(* ---- Section 3: case-study workload ------------------------------------ *)

let case_study () =
  section "Case study (Section 3): properties on the Fig. 2 platform";
  let open Loseq_platform in
  let open Loseq_verif in
  let run_one label config =
    let soc = Soc.create ~config () in
    let report = Soc.attach_standard_checkers soc in
    let t0 = Sys.time () in
    Soc.run soc;
    Report.finalize report;
    let dt = Sys.time () -. t0 in
    Format.printf
      "%-28s | %6d events | %d recognitions | verdicts: %-9s | %5.2fs host@."
      label
      (Tap.count (Soc.tap soc))
      (Ipu.recognitions (Soc.ipu soc))
      (if Report.all_passed report then "all PASS"
       else
         Printf.sprintf "%d FAIL" (List.length (Report.failures report)))
      dt
  in
  run_one "correct firmware" Soc.default_config;
  run_one "bug: start-before-config"
    { Soc.default_config with cpu_bug = Some Cpu.Start_before_config;
      presses = 1 };
  run_one "bug: skip gl_size"
    { Soc.default_config with cpu_bug = Some Cpu.Skip_gl_size; presses = 1 };
  run_one "bug: double gl_addr"
    { Soc.default_config with cpu_bug = Some Cpu.Double_gl_addr; presses = 1 };
  run_one "bug: slow IPU (deadline)"
    { Soc.default_config with slow_ipu = true; presses = 1 }

(* ---- Section 3b: hosted dispatch --------------------------------------- *)

(* N checkers with disjoint alphabets on one tap.  Broadcast hosting
   steps every structural monitor on every event (N steps/event); the
   hub routes each event to the one compiled backend whose alphabet
   contains it (1 step/event) - the hosted realization of the paper's
   THETA(max |alpha(F_i)|) per-event bound. *)
let hosted_dispatch () =
  section
    "Hosted dispatch: N checkers on one tap - broadcast Drct vs routed hub";
  let open Loseq_sim in
  let open Loseq_verif in
  let target_events = 120_000 in
  let bench n =
    let patterns =
      List.init n (fun i -> pat (Printf.sprintf "{a%d, b%d} <<! go%d" i i i))
    in
    let names =
      Array.init n (fun i ->
          [|
            Name.v (Printf.sprintf "a%d" i);
            Name.v (Printf.sprintf "b%d" i);
            Name.v (Printf.sprintf "go%d" i);
          |])
    in
    (* Round-robin satisfying workload: a_i b_i go_i, cycling i. *)
    let events = target_events / (3 * n) * 3 * n in
    let emit_all tap =
      for j = 0 to events - 1 do
        Tap.emit_name tap names.((j / 3) mod n).(j mod 3)
      done
    in
    let timed checkers_of_tap =
      let kernel = Kernel.create () in
      let tap = Tap.create ~record:false kernel in
      let checkers = checkers_of_tap tap in
      let t0 = Sys.time () in
      emit_all tap;
      let dt = Sys.time () -. t0 in
      assert (List.for_all Checker.passed checkers);
      Float.max dt 1e-6
    in
    let broadcast_s =
      timed (fun tap ->
          List.map
            (fun p ->
              let c = Checker.make (Backend.direct p) in
              Tap.subscribe tap (fun e -> Checker.deliver c e);
              c)
            patterns)
    in
    let hub_s =
      timed (fun tap ->
          let hub = Hub.create tap in
          List.map (fun p -> Hub.add hub p) patterns)
    in
    (n, events, broadcast_s, hub_s)
  in
  let rows = List.map bench [ 1; 4; 16; 64 ] in
  Format.printf "%-10s | %8s | %26s | %26s | %8s@." "checkers" "events"
    "broadcast direct" "hub compiled" "speedup";
  Format.printf "%-10s | %8s | %12s %13s | %12s %13s |@." "" "" "events/s"
    "steps/event" "events/s" "steps/event";
  List.iter
    (fun (n, events, broadcast_s, hub_s) ->
      let eps dt = float_of_int events /. dt in
      Format.printf "%-10d | %8d | %12.3e %13d | %12.3e %13d | %7.1fx@." n
        events (eps broadcast_s) n (eps hub_s) 1
        (eps hub_s /. eps broadcast_s))
    rows;
  (* Machine-readable artifact next to the other BENCH_* outputs. *)
  let oc = open_out "BENCH_hosted_dispatch.json" in
  let row_json (n, events, broadcast_s, hub_s) =
    let eps dt = float_of_int events /. dt in
    Printf.sprintf
      {|    { "checkers": %d, "events": %d,
      "broadcast_direct": { "seconds": %.6f, "events_per_sec": %.1f, "checker_steps_per_event": %d },
      "hub_compiled": { "seconds": %.6f, "events_per_sec": %.1f, "checker_steps_per_event": 1 },
      "speedup": %.2f }|}
      n events broadcast_s (eps broadcast_s) n hub_s (eps hub_s)
      (eps hub_s /. eps broadcast_s)
  in
  Printf.fprintf oc
    "{\n  \"benchmark\": \"hosted_dispatch\",\n  \"workload\": \"N disjoint \
     {a_i, b_i} <<! go_i checkers, round-robin satisfying stream\",\n  %s,\n  \
     \"rows\": [\n%s\n  ]\n}\n"
    (provenance_json ~backend:"compiled")
    (String.concat ",\n" (List.map row_json rows));
  close_out oc;
  Format.printf "@.written: BENCH_hosted_dispatch.json@."

(* ---- Section 3b': whole-suite flat engine ------------------------------- *)

(* The tentpole acceptance gate: the suite-level flat engine hosted
   engine-direct must beat per-checker compiled hub hosting by >= 2x
   at 64 checkers on the dispatch workload above.  Two hostings of the
   identical stream: the routed hub over per-pattern compiled backends
   (baseline) and Hub.host_flat stepping the engine's dispatch table
   directly. *)
let flat_table () =
  section
    "Flat suite engine: hub compiled vs engine-direct dispatch";
  let open Loseq_sim in
  let open Loseq_verif in
  let target_events = 120_000 in
  let bench n =
    let suite =
      List.init n (fun i ->
          {
            Suite.label = Printf.sprintf "p%d" i;
            pattern = pat (Printf.sprintf "{a%d, b%d} <<! go%d" i i i);
            line = i + 1;
          })
    in
    let names =
      Array.init n (fun i ->
          [|
            Name.v (Printf.sprintf "a%d" i);
            Name.v (Printf.sprintf "b%d" i);
            Name.v (Printf.sprintf "go%d" i);
          |])
    in
    let events = target_events / (3 * n) * 3 * n in
    let timed attach =
      let kernel = Kernel.create () in
      let tap = Tap.create ~record:false kernel in
      let hub = attach tap in
      (* pre-bound ports: the harness should measure dispatch + step
         cost, not per-event name hashing *)
      let ports = Array.map (Array.map (Tap.port tap)) names in
      let t0 = Sys.time () in
      for j = 0 to events - 1 do
        ports.((j / 3) mod n).(j mod 3) ()
      done;
      let dt = Sys.time () -. t0 in
      (* verdict agreement across hostings: this workload satisfies
         every checker, whichever path delivered the events *)
      assert (Hub.all_passed hub);
      Float.max dt 1e-6
    in
    let hub_compiled tap =
      let hub = Hub.create tap in
      List.iter
        (fun (e : Suite.entry) -> ignore (Hub.add ~name:e.label hub e.pattern))
        suite;
      hub
    in
    let flat_engine tap = fst (Suite.attach_hub_flat tap suite) in
    (* interleaved best-of so frequency drift cancels *)
    ignore (timed hub_compiled);
    let hub_s = ref infinity and engine_s = ref infinity in
    for _ = 1 to 5 do
      hub_s := Float.min !hub_s (timed hub_compiled);
      engine_s := Float.min !engine_s (timed flat_engine)
    done;
    (n, events, !hub_s, !engine_s)
  in
  let rows = List.map bench [ 1; 4; 16; 64 ] in
  Format.printf "%-10s | %8s | %12s | %12s | %8s@." "checkers" "events"
    "hub compiled" "flat engine" "speedup";
  List.iter
    (fun (n, events, hub_s, engine_s) ->
      let eps dt = float_of_int events /. dt in
      Format.printf "%-10d | %8d | %12.3e | %12.3e | %7.2fx@." n events
        (eps hub_s) (eps engine_s)
        (eps engine_s /. eps hub_s))
    rows;
  let at64 =
    List.find_map
      (fun (n, _, hub_s, engine_s) ->
        if n = 64 then Some (hub_s /. engine_s) else None)
      rows
  in
  (match at64 with
  | Some s ->
      Format.printf
        "@.engine-direct speedup at 64 checkers: %.2fx (acceptance bound: \
         2x)@."
        s
  | None -> ());
  let oc = open_out "BENCH_flat_table.json" in
  let row_json (n, events, hub_s, engine_s) =
    let eps dt = float_of_int events /. dt in
    Printf.sprintf
      {|    { "checkers": %d, "events": %d,
      "hub_compiled": { "seconds": %.6f, "events_per_sec": %.1f },
      "flat_engine": { "seconds": %.6f, "events_per_sec": %.1f },
      "speedup_vs_compiled": %.2f }|}
      n events hub_s (eps hub_s) engine_s (eps engine_s)
      (hub_s /. engine_s)
  in
  Printf.fprintf oc
    "{\n  \"benchmark\": \"flat_table\",\n  \"workload\": \"N disjoint {a_i, \
     b_i} <<! go_i checkers, round-robin satisfying stream, two \
     hostings\",\n  %s,\n  \"meets_2x_at_64\": %b,\n  \"hosted_dispatch\": \
     [\n%s\n  ]\n}\n"
    (provenance_json ~backend:"flat")
    (match at64 with Some s -> s >= 2.0 | None -> false)
    (String.concat ",\n" (List.map row_json rows));
  close_out oc;
  Format.printf "@.written: BENCH_flat_table.json@."

(* ---- Section 3c: ingest throughput ------------------------------------- *)

(* The live-ingestion acceptance bound: streaming bytes through
   Codec.Decoder -> Session -> verdicts must stay within 2x of raw
   in-memory hub dispatch on the 16-checker workload above.  Three
   timings on the identical 120K-event stream: the hub alone (the
   baseline), the binary decoder alone, and the full pipeline the way
   [serve] runs it — wire ids mapped to {!Session.port}s on each define
   record, events admitted by id. *)
let ingest_throughput () =
  section
    "Ingest throughput: bytes -> decoder -> session vs in-memory hub dispatch";
  let open Loseq_sim in
  let open Loseq_verif in
  let open Loseq_ingest in
  let n = 16 in
  let target_events = 120_000 in
  let patterns =
    List.init n (fun i -> pat (Printf.sprintf "{a%d, b%d} <<! go%d" i i i))
  in
  let suite =
    List.mapi
      (fun i p ->
        { Suite.label = Printf.sprintf "p%d" i; pattern = p; line = i + 1 })
      patterns
  in
  let names =
    Array.init n (fun i ->
        [|
          Name.v (Printf.sprintf "a%d" i);
          Name.v (Printf.sprintf "b%d" i);
          Name.v (Printf.sprintf "go%d" i);
        |])
  in
  let events = target_events / (3 * n) * 3 * n in
  (* Round-robin satisfying workload, time advancing one tick per
     recognition triple — the shape a virtual platform emits. *)
  let trace =
    List.init events (fun j ->
        { Trace.name = names.((j / 3) mod n).(j mod 3); time = j / 3 })
  in
  let trace_arr = Array.of_list trace in
  let bytes = Codec.encode_exn trace in
  let best f =
    (* min of three runs: these are one-shot wall-clock measurements *)
    let run () =
      let t0 = Sys.time () in
      f ();
      Float.max (Sys.time () -. t0) 1e-6
    in
    List.fold_left (fun acc _ -> Float.min acc (run ())) (run ()) [ 1; 2 ]
  in
  let hub_s =
    best (fun () ->
        let kernel = Kernel.create () in
        let tap = Tap.create ~record:false kernel in
        let hub = Hub.create tap in
        let checkers = List.map (fun p -> Hub.add hub p) patterns in
        Array.iter (fun (e : Trace.event) -> Tap.emit_name tap e.name)
          trace_arr;
        assert (List.for_all Checker.passed checkers))
  in
  let chunk = 65_536 in
  let feed_chunks decoder feed =
    let len = String.length bytes in
    let off = ref 0 in
    while !off < len do
      let l = min chunk (len - !off) in
      (match feed decoder ~off:!off ~len:l with
      | Ok () -> ()
      | Error msg -> failwith msg);
      off := !off + l
    done;
    match Codec.Decoder.finish decoder with
    | Ok () -> ()
    | Error msg -> failwith msg
  in
  let decode_s =
    best (fun () ->
        let decoder = Codec.Decoder.create () in
        feed_chunks decoder (fun d ~off ~len ->
            Codec.Decoder.feed d ~off ~len bytes ~emit:ignore);
        assert (Codec.Decoder.events decoder = events))
  in
  let e2e_s =
    best (fun () ->
        let session = Session.create suite in
        let decoder = Codec.Decoder.create () in
        let ports = ref [||] in
        let define id nm =
          if id >= Array.length !ports then
            ports := Array.append !ports (Array.make (max 16 id) ignore);
          !ports.(id) <- Session.port session nm
        in
        let event id time = !ports.(id) time in
        feed_chunks decoder (fun d ~off ~len ->
            Codec.Decoder.feed_ids d ~off ~len bytes ~define ~event);
        ignore (Session.finalize session);
        assert (Session.all_passed session))
  in
  let eps dt = float_of_int events /. dt in
  let ratio = eps hub_s /. eps e2e_s in
  Format.printf "%-26s | %10s | %12s | %10s@." "stage" "seconds" "events/s"
    "vs hub";
  let row label dt =
    Format.printf "%-26s | %10.4f | %12.3e | %9.2fx@." label dt (eps dt)
      (eps hub_s /. eps dt)
  in
  row "hub dispatch (baseline)" hub_s;
  row "binary decode alone" decode_s;
  row "decode + session ports" e2e_s;
  Format.printf
    "@.stream: %d events, %d bytes (%.2f bytes/event); end-to-end is %.2fx \
     the@.baseline cost - the acceptance bound is 2x.@."
    events (String.length bytes)
    (float_of_int (String.length bytes) /. float_of_int events)
    ratio;
  let oc = open_out "BENCH_ingest.json" in
  Printf.fprintf oc
    {|{
  "benchmark": "ingest_throughput",
  "workload": "16 disjoint {a_i, b_i} <<! go_i checkers, round-robin satisfying LSQB stream; hub_dispatch on per-checker compiled hosting, end_to_end through flat-session ports",
  %s,
  "events": %d,
  "stream_bytes": %d,
  "hub_dispatch": { "seconds": %.6f, "events_per_sec": %.1f },
  "decode_only": { "seconds": %.6f, "events_per_sec": %.1f },
  "end_to_end": { "seconds": %.6f, "events_per_sec": %.1f },
  "slowdown_vs_hub": %.3f,
  "within_2x": %b
}
|}
    (provenance_json ~backend:"compiled")
    events (String.length bytes) hub_s (eps hub_s) decode_s (eps decode_s)
    e2e_s (eps e2e_s) ratio (ratio <= 2.0);
  close_out oc;
  Format.printf "@.written: BENCH_ingest.json@."

(* ---- Section 3d: telemetry overhead ------------------------------------ *)

(* The 16-checker workload as a session suite plus its timed run: one
   port per name, the clock one tick per recognition triple. *)
let session_workload () =
  let open Loseq_verif in
  let n = 16 in
  let target_events = 120_000 in
  let suite =
    List.init n (fun i ->
        {
          Suite.label = Printf.sprintf "p%d" i;
          pattern = pat (Printf.sprintf "{a%d, b%d} <<! go%d" i i i);
          line = i + 1;
        })
  in
  let names =
    Array.init n (fun i ->
        [|
          Name.v (Printf.sprintf "a%d" i);
          Name.v (Printf.sprintf "b%d" i);
          Name.v (Printf.sprintf "go%d" i);
        |])
  in
  let events = target_events / (3 * n) * 3 * n in
  let timed session =
    let module Session = Loseq_ingest.Session in
    let ports = Array.map (Array.map (Session.port session)) names in
    (* the loop allocates little; without this, major-GC work left by
       the previous session lands in whichever run comes next *)
    Gc.full_major ();
    let t0 = Sys.time () in
    for j = 0 to events - 1 do
      ports.((j / 3) mod n).(j mod 3) (j / 3)
    done;
    let dt = Sys.time () -. t0 in
    ignore (Session.finalize session);
    assert (Session.all_passed session);
    Float.max dt 1e-6
  in
  (suite, events, timed)

(* The acceptance bound for the obs layer: hosting the 16-checker
   dispatch workload with a live metrics registry must stay within 5%
   of the noop-sink baseline.  Counters are pre-registered bare int
   bumps and the dispatch-latency histogram is 1-in-64 sampled, so the
   per-event delta is a handful of increments.  The suite is hosted the
   way [serve] hosts it: one flat-engine {!Session}, fed through
   {!Session.port}s. *)
let telemetry_overhead () =
  section
    "Telemetry overhead: session ports with noop vs live metrics registry";
  let module Obs = Loseq_obs.Metrics in
  let suite, events, run = session_workload () in
  let timed metrics = run (Loseq_ingest.Session.create ~metrics suite) in
  (* Interleaved best-of: noop and live alternate within each round so
     CPU-frequency drift between the two series cancels; min-of-rounds
     discards scheduler noise.  One discarded warm-up round first. *)
  let last_live = ref Obs.noop in
  let run_live () =
    let m = Obs.create () in
    last_live := m;
    timed m
  in
  ignore (timed Obs.noop);
  ignore (run_live ());
  let rounds = 9 in
  let noop_s = ref infinity and live_s = ref infinity in
  for _ = 1 to rounds do
    noop_s := Float.min !noop_s (timed Obs.noop);
    live_s := Float.min !live_s (run_live ())
  done;
  let noop_s = !noop_s and live_s = !live_s in
  (* conservation sanity on the last live run *)
  let dispatched =
    Option.value ~default:(-1)
      (Obs.read_counter !last_live ~name:"loseq_events_dispatched_total" ())
  in
  assert (dispatched = events);
  let eps dt = float_of_int events /. dt in
  let overhead_pct = (live_s -. noop_s) /. noop_s *. 100. in
  Format.printf "%-26s | %10s | %12s@." "registry" "seconds" "events/s";
  Format.printf "%-26s | %10.4f | %12.3e@." "noop sink" noop_s (eps noop_s);
  Format.printf "%-26s | %10.4f | %12.3e@." "live registry" live_s
    (eps live_s);
  Format.printf
    "@.live-vs-noop overhead: %+.2f%% on %d events (acceptance bound: 5%%)@."
    overhead_pct events;
  let oc = open_out "BENCH_obs.json" in
  Printf.fprintf oc
    {|{
  "benchmark": "telemetry_overhead",
  "workload": "16 disjoint {a_i, b_i} <<! go_i checkers, round-robin satisfying stream, one flat-engine session fed through ports",
  %s,
  "events": %d,
  "noop": { "seconds": %.6f, "events_per_sec": %.1f },
  "live": { "seconds": %.6f, "events_per_sec": %.1f },
  "events_dispatched_total": %d,
  "overhead_pct": %.3f,
  "within_5pct": %b
}
|}
    (provenance_json ~backend:"flat")
    events noop_s (eps noop_s) live_s (eps live_s) dispatched overhead_pct
    (overhead_pct <= 5.0);
  close_out oc;
  Format.printf "@.written: BENCH_obs.json@."

(* The acceptance bound for the flight recorder: hosting the same
   16-checker session workload with a live trace ring must stay
   within 5% of the noop-recorder baseline.  Dispatch spans are
   1-in-64 sampled and every record is four fixed-width stores into a
   pre-allocated ring, so the per-event delta is branch-predictable. *)
let trace_overhead () =
  section
    "Flight-recorder overhead: session ports with noop vs live trace ring";
  let module Tr = Loseq_obs.Trace in
  let suite, events, run = session_workload () in
  let timed trace = run (Loseq_ingest.Session.create ~trace suite) in
  (* Interleaved best-of, as in {!telemetry_overhead}: noop and live
     alternate within each round so frequency drift cancels. *)
  let last_live = ref Tr.noop in
  let run_live () =
    let tr = Tr.create () in
    last_live := tr;
    timed tr
  in
  ignore (timed Tr.noop);
  ignore (run_live ());
  let rounds = 9 in
  let noop_s = ref infinity and live_s = ref infinity in
  for _ = 1 to rounds do
    noop_s := Float.min !noop_s (timed Tr.noop);
    live_s := Float.min !live_s (run_live ())
  done;
  let noop_s = !noop_s and live_s = !live_s in
  (* the last live ring must have recorded the sampled spans *)
  let recorded = Tr.total !last_live in
  assert (recorded > 0);
  let eps dt = float_of_int events /. dt in
  let overhead_pct = (live_s -. noop_s) /. noop_s *. 100. in
  Format.printf "%-26s | %10s | %12s@." "recorder" "seconds" "events/s";
  Format.printf "%-26s | %10.4f | %12.3e@." "noop recorder" noop_s
    (eps noop_s);
  Format.printf "%-26s | %10.4f | %12.3e@." "live ring" live_s (eps live_s);
  Format.printf
    "@.live-vs-noop overhead: %+.2f%% on %d events (%d records, acceptance \
     bound: 5%%)@."
    overhead_pct events recorded;
  let oc = open_out "BENCH_trace.json" in
  Printf.fprintf oc
    {|{
  "benchmark": "trace_overhead",
  "workload": "16 disjoint {a_i, b_i} <<! go_i checkers, round-robin satisfying stream, one flat-engine session fed through ports, flight recorder on the hub and ingest tracks",
  %s,
  "events": %d,
  "noop": { "seconds": %.6f, "events_per_sec": %.1f },
  "live": { "seconds": %.6f, "events_per_sec": %.1f },
  "records_emitted": %d,
  "records_dropped": %d,
  "overhead_pct": %.3f,
  "within_5pct": %b
}
|}
    (provenance_json ~backend:"flat")
    events noop_s (eps noop_s) live_s (eps live_s) recorded
    (Tr.dropped !last_live) overhead_pct
    (overhead_pct <= 5.0);
  close_out oc;
  Format.printf "@.written: BENCH_trace.json@."

(* ---- Section 3e: race analysis ----------------------------------------- *)

(* Cost of the static commutation analysis and the suite lateness-
   robustness certificate on the case-study contract: per-entry
   pairwise commutation (reachable-state exploration + partition
   refinement + witness concretization) and the combined certificate. *)
let race_analysis () =
  section
    "Race analysis: pairwise commutation + lateness certificate (ipu.suite)";
  let open Loseq_verif in
  let open Loseq_analysis in
  let suite_path =
    List.find_opt Sys.file_exists
      [ "examples/specs/ipu.suite"; "../examples/specs/ipu.suite" ]
    |> Option.value ~default:"examples/specs/ipu.suite"
  in
  let suite =
    match Suite.load suite_path with
    | Ok s -> s
    | Error e -> failwith (Format.asprintf "%a" Suite.pp_error e)
  in
  let best f =
    let run () =
      let t0 = Sys.time () in
      let r = f () in
      (r, Float.max (Sys.time () -. t0) 1e-6)
    in
    let r, dt0 = run () in
    let _, dt1 = run () in
    (r, Float.min dt0 dt1)
  in
  Format.printf "%-26s | %8s | %6s | %10s | %8s@." "entry" "seconds" "races"
    "commuting" "decided";
  let rows =
    List.map
      (fun (e : Suite.entry) ->
        let r, dt = best (fun () -> Commute.analyze e.pattern) in
        Format.printf "%-26s | %8.4f | %6d | %10d | %8b@." e.label dt
          (List.length r.Commute.races)
          (List.length r.Commute.commuting)
          r.Commute.complete;
        (e.label, dt, r))
      suite
  in
  let labeled = List.map (fun (e : Suite.entry) -> (e.label, e.pattern)) suite in
  let cert, cert_dt = best (fun () -> Robust.certificate labeled) in
  Format.printf
    "@.suite certificate: lateness bound %s, decided %b (%.4fs)@."
    (Robust.bound_to_string cert.Robust.bound)
    cert.Robust.decided cert_dt;
  let oc = open_out "BENCH_races.json" in
  Printf.fprintf oc
    {|{
  "benchmark": "race_analysis",
  "suite": %S,
  %s,
  "entries": [
%s  ],
  "certificate": { "seconds": %.6f, "bound": %S, "decided": %b }
}
|}
    suite_path
    (provenance_json ~backend:"analysis")
    (String.concat ""
       (List.map
          (fun (label, dt, (r : Commute.result)) ->
            Printf.sprintf
              "    { \"label\": %S, \"seconds\": %.6f, \"races\": %d, \
               \"commuting\": %d, \"decided\": %b }%s\n"
              label dt
              (List.length r.Commute.races)
              (List.length r.Commute.commuting)
              r.Commute.complete
              (if label = (match List.rev rows with (l, _, _) :: _ -> l | [] -> "")
               then ""
               else ","))
          rows))
    cert_dt
    (Robust.bound_to_string cert.Robust.bound)
    cert.Robust.decided;
  close_out oc;
  Format.printf "@.written: BENCH_races.json@."

(* ---- Section 3f: mutation gate ----------------------------------------- *)

(* Cost and outcome of the mutation quality gate on the case-study
   contract: generate every first-order mutant, kill each by static
   findings, exact product equivalence or differential replay, and
   record the per-tier attribution the CI gate consumes. *)
let mutation_gate () =
  section "Mutation analysis: three-tier kill pipeline (ipu.suite)";
  let open Loseq_analysis in
  let suite_path =
    List.find_opt Sys.file_exists
      [ "examples/specs/ipu.suite"; "../examples/specs/ipu.suite" ]
    |> Option.value ~default:"examples/specs/ipu.suite"
  in
  let suite =
    match Loseq_verif.Suite.load suite_path with
    | Ok s ->
        List.map
          (fun (e : Loseq_verif.Suite.entry) -> (e.label, e.pattern))
          s
    | Error e -> failwith (Format.asprintf "%a" Loseq_verif.Suite.pp_error e)
  in
  let t0 = Sys.time () in
  let s = Mutate.run suite in
  let dt = Sys.time () -. t0 in
  let killed =
    s.Mutate.killed_static + s.Mutate.killed_equivalence
    + s.Mutate.killed_differential
  in
  Format.printf
    "%d mutants in %.2fs: %d killed (static %d, equivalence %d, \
     differential %d), %d stillborn, %d survived@."
    s.Mutate.generated dt killed s.Mutate.killed_static
    s.Mutate.killed_equivalence s.Mutate.killed_differential
    s.Mutate.stillborn
    (List.length s.Mutate.survivors);
  Format.printf
    "kill rate %.1f%%; %d flat/compiled lockstep replays, %d divergences@."
    (100. *. s.Mutate.kill_rate)
    s.Mutate.cross_checked
    (List.length s.Mutate.divergences);
  let oc = open_out "BENCH_mutation.json" in
  Printf.fprintf oc
    {|{
  "benchmark": "mutation_gate",
  "suite": %S,
  %s,
  "seconds": %.6f,
  "mutants": %d,
  "stillborn": %d,
  "killed": { "static": %d, "equivalence": %d, "differential": %d },
  "survivors": [%s],
  "kill_rate": %.4f,
  "meets_90pct": %b,
  "cross_checked": %d,
  "divergences": %d
}
|}
    suite_path
    (provenance_json ~backend:"analysis")
    dt s.Mutate.generated s.Mutate.stillborn s.Mutate.killed_static
    s.Mutate.killed_equivalence s.Mutate.killed_differential
    (String.concat ", "
       (List.map
          (fun (r : Mutate.result) -> Printf.sprintf "%S" r.mutant.id)
          s.Mutate.survivors))
    s.Mutate.kill_rate
    (s.Mutate.kill_rate >= 0.9)
    s.Mutate.cross_checked
    (List.length s.Mutate.divergences);
  close_out oc;
  Format.printf "@.written: BENCH_mutation.json@."

(* ---- Section 4: Bechamel micro-benchmarks ------------------------------ *)

let bechamel_benches () =
  section "Bechamel: wall-clock cost of Monitor.step (one Test per Fig. 6 row)";
  let open Bechamel in
  let workloads =
    List.map
      (fun row ->
        let p = pat row.source in
        let rng = Random.State.make [| 0xcafe |] in
        let trace =
          Array.of_list (Generate.valid ~rounds:50 ~max_run:4 rng p)
        in
        (row, p, trace))
      fig6_rows
  in
  let make_test (row, p, trace) =
    let n = Array.length trace in
    Test.make ~name:row.label
      (Staged.stage (fun () ->
           let monitor = Monitor.create p in
           for i = 0 to n - 1 do
             ignore (Monitor.step monitor trace.(i))
           done))
  in
  (* The compiled monitor's intended usage is compile-once / reset per
     run, so its setup cost is excluded (the reference monitor has no
     reset and is re-created, which is its usage). *)
  let make_compiled_test (row, p, trace) =
    let n = Array.length trace in
    let monitor = Compiled.compile p in
    Test.make ~name:(row.label ^ " [compiled]")
      (Staged.stage (fun () ->
           Compiled.reset monitor;
           for i = 0 to n - 1 do
             ignore (Compiled.step monitor trace.(i))
           done))
  in
  let tests =
    List.map make_test workloads @ List.map make_compiled_test workloads
  in
  let grouped = Test.make_grouped ~name:"fig6" tests in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  Format.printf "%-40s | %8s | %12s | %9s | %6s@." "configuration" "events"
    "ns/workload" "ns/event" "r^2";
  let print_row label events result =
    let estimate, per_event =
      match Analyze.OLS.estimates result with
      | Some [ e ] ->
          (Printf.sprintf "%.0f" e,
           Printf.sprintf "%.1f" (e /. float_of_int events))
      | Some _ | None -> ("n/a", "n/a")
    in
    let r2 =
      match Analyze.OLS.r_square result with
      | Some r -> Printf.sprintf "%.3f" r
      | None -> "n/a"
    in
    Format.printf "%-40s | %8d | %12s | %9s | %6s@." label events estimate
      per_event r2
  in
  List.iter
    (fun (row, _, trace) ->
      let events = Array.length trace in
      print_row row.label events
        (Hashtbl.find results ("fig6/" ^ row.label));
      print_row (row.label ^ " [compiled]") events
        (Hashtbl.find results ("fig6/" ^ row.label ^ " [compiled]")))
    workloads

(* ---- Section 3g: speculative verdict latency --------------------------- *)

(* The acceptance claim of the ooo engine: on a disordered stream the
   buffered path cannot report a verdict until the watermark passes it
   (a lag that grows with the lateness bound K), while the speculative
   engine reports at the deciding event's arrival and the certificate
   fast path keeps repair free on a fully certified workload.  We
   measure verdict latency in arrival indices — how many events after
   the deciding one arrives is the verdict first reported — for
   K in {2, 8, 32}. *)
let ooo_latency () =
  section "Speculative vs buffered verdict latency (lateness sweep)";
  let open Loseq_ingest in
  let open Loseq_verif in
  let module Engine = Loseq_ooo.Engine in
  let nchk = 16 and rounds = 60 in
  let half = nchk / 2 in
  let suite =
    List.init nchk (fun i ->
        {
          Suite.label = Printf.sprintf "chk%02d" i;
          pattern = pat (Printf.sprintf "{a%d, b%d} <<! go%d" i i i);
          line = i + 1;
        })
  in
  (* Checkers half..nchk-1 violate once each, staggered across the run:
     their b_i is omitted in round viol_round(i), so the deciding event
     is that round's go_i. *)
  let viol_round i =
    if i < half then -1 else (i - half) * rounds / (half + 2)
  in
  let ev t nm = { Trace.time = t; name = Name.v nm } in
  let chronological =
    let t = ref (-1) in
    let next () = incr t; !t in
    List.concat
      (List.concat
         (List.init rounds (fun r ->
              List.init nchk (fun i ->
                  let a = ev (next ()) (Printf.sprintf "a%d" i) in
                  let b =
                    if r = viol_round i then []
                    else [ ev (next ()) (Printf.sprintf "b%d" i) ]
                  in
                  let go = ev (next ()) (Printf.sprintf "go%d" i) in
                  (a :: b) @ [ go ]))))
  in
  (* The arrival stream: every premise pair swapped — b_i arrives first,
     a_i is one tick late.  The pair is certified commuting, so the
     speculative engine should absorb every swap in place. *)
  let scrambled =
    let rec swap = function
      | (a : Trace.event) :: b :: rest
        when a.Trace.time + 1 = b.Trace.time
             && (Name.to_string a.Trace.name).[0] = 'a'
             && (Name.to_string b.Trace.name).[0] = 'b' ->
          b :: a :: swap rest
      | e :: rest -> e :: swap rest
      | [] -> []
    in
    swap chronological
  in
  let scrambled_arr = Array.of_list scrambled in
  let violating = List.filter (fun i -> viol_round i >= 0) (List.init nchk Fun.id) in
  (* The deciding event of checker i is the go_i of its violating round:
     find its timestamp by counting go_i occurrences along the
     chronological trace, then look the arrival index up. *)
  let deciding_time = Hashtbl.create 8 in
  let go_count = Hashtbl.create 16 in
  List.iter
    (fun (e : Trace.event) ->
      let nm = Name.to_string e.Trace.name in
      if String.length nm > 2 && String.sub nm 0 2 = "go" then begin
        let i = int_of_string (String.sub nm 2 (String.length nm - 2)) in
        let r = Option.value ~default:0 (Hashtbl.find_opt go_count i) in
        Hashtbl.replace go_count i (r + 1);
        if r = viol_round i then Hashtbl.replace deciding_time i e.Trace.time
      end)
    chronological;
  let arrival_idx_of_time = Hashtbl.create 64 in
  Array.iteri
    (fun idx (e : Trace.event) ->
      Hashtbl.replace arrival_idx_of_time e.Trace.time idx)
    scrambled_arr;
  let idx_of_checker i =
    Hashtbl.find arrival_idx_of_time (Hashtbl.find deciding_time i)
  in
  let label_index lbl = Scanf.sscanf lbl "chk%d" Fun.id in
  let median xs =
    match List.sort compare xs with
    | [] -> 0
    | sorted -> List.nth sorted (List.length sorted / 2)
  in
  let expected = Suite.check_trace suite chronological in
  let run_k k =
    (* buffered: first report happens when the reorder buffer delivers
       the deciding event — the watermark lag. *)
    let report_idx = Hashtbl.create 8 in
    let session = Session.create ~lateness:k suite in
    let idx = ref 0 in
    Session.on_violation session (fun ~name _ ->
        let i = label_index name in
        if not (Hashtbl.mem report_idx i) then Hashtbl.replace report_idx i !idx);
    Array.iteri
      (fun j e ->
        idx := j;
        Session.offer_force session e)
      scrambled_arr;
    idx := Array.length scrambled_arr;
    let report = Session.finalize session in
    assert (List.map (fun (l, v) -> (l, Backend.passed v)) (Report.summary report) = expected);
    let buffered_lat =
      List.map (fun i -> Hashtbl.find report_idx i - idx_of_checker i) violating
    in
    (* speculative: first (speculative) report and settlement. *)
    let spec_idx = Hashtbl.create 8 and settle_idx = Hashtbl.create 8 in
    let idx = ref 0 in
    let eng =
      Engine.create
        ~notice:(fun n ->
          match n with
          | Engine.Violation { label; _ } ->
              let i = label_index label in
              if not (Hashtbl.mem spec_idx i) then Hashtbl.replace spec_idx i !idx
          | Engine.Settled { label; _ } ->
              let i = label_index label in
              if not (Hashtbl.mem settle_idx i) then
                Hashtbl.replace settle_idx i !idx
          | Engine.Retracted _ -> ())
        ~lateness:k
        (List.map (fun (e : Suite.entry) -> (e.Suite.label, e.Suite.pattern)) suite)
    in
    Array.iteri
      (fun j e ->
        idx := j;
        ignore (Engine.offer eng e))
      scrambled_arr;
    idx := Array.length scrambled_arr;
    Engine.finalize eng;
    assert (
      List.map (fun (l, v) -> (l, Backend.passed v)) (Engine.report eng)
      = expected);
    let spec_lat =
      List.map (fun i -> Hashtbl.find spec_idx i - idx_of_checker i) violating
    in
    let settle_lat =
      List.map
        (fun i ->
          match Hashtbl.find_opt settle_idx i with
          | Some s -> s - idx_of_checker i
          | None -> Array.length scrambled_arr - idx_of_checker i)
        violating
    in
    let stats = Engine.stats eng in
    ( median buffered_lat,
      median spec_lat,
      median settle_lat,
      stats )
  in
  let ks = [ 2; 8; 32 ] in
  let results = List.map (fun k -> (k, run_k k)) ks in
  Format.printf "%-10s | %18s | %20s | %16s | %12s | %9s@." "lateness"
    "buffered median" "speculative median" "settled median" "commute hits"
    "rollbacks";
  List.iter
    (fun (k, (b, s, st, stats)) ->
      Format.printf "%-10d | %18d | %20d | %16d | %12d | %9d@." k b s st
        stats.Engine.commute_hits stats.Engine.rollbacks)
    results;
  let _, (b8, s8, _, stats8) =
    List.find (fun (k, _) -> k = 8) results
  in
  Format.printf
    "@.%d checkers, %d violating, %d events; every premise pair swapped \
     (certified@.commuting): the speculative engine reports at arrival while \
     the buffered path@.waits out the watermark.@."
    nchk (List.length violating)
    (Array.length scrambled_arr);
  let oc = open_out "BENCH_ooo.json" in
  Printf.fprintf oc
    {|{
  "benchmark": "ooo_verdict_latency",
  "workload": "%d disjoint {a_i, b_i} <<! go_i checkers, %d violating (staggered), every premise pair swapped in arrival order",
  %s,
  "events": %d,
  "late_events_per_run": %d,
  "sweep": [
%s  ],
  "acceptance": {
    "median_latency_below_buffered_at_k8": %b,
    "commute_hits_nonzero": %b,
    "zero_rollbacks": %b
  }
}
|}
    nchk (List.length violating)
    (provenance_json ~backend:"compiled")
    (Array.length scrambled_arr)
    stats8.Engine.late
    (String.concat ""
       (List.map
          (fun (k, (b, s, st, stats)) ->
            Printf.sprintf
              "    { \"lateness\": %d, \"buffered_median\": %d, \
               \"speculative_median\": %d, \"settled_median\": %d, \
               \"commute_hits\": %d, \"rollbacks\": %d, \"replayed\": %d, \
               \"dropped_late\": %d }%s\n"
              k b s st stats.Engine.commute_hits stats.Engine.rollbacks
              stats.Engine.replayed stats.Engine.dropped_late
              (if k = List.nth ks (List.length ks - 1) then "" else ","))
          results))
    (s8 < b8)
    (stats8.Engine.commute_hits > 0)
    (stats8.Engine.rollbacks = 0);
  close_out oc;
  Format.printf "@.written: BENCH_ooo.json@."

(* ---- Section 3h: shard planning ---------------------------------------- *)

(* Cost and quality of the static shard-plan analysis on the case-study
   contract: interference-graph construction (per-entry commutation +
   cross-checker products), the balance of the greedy partition at
   N = 4, and the sequential sharded replay against the unsharded
   verdicts on the recorded trace. *)
let shard_planning () =
  section "Shard planning: interference graph + balanced partition (ipu.suite)";
  let open Loseq_analysis in
  let suite_path =
    List.find_opt Sys.file_exists
      [ "examples/specs/ipu.suite"; "../examples/specs/ipu.suite" ]
    |> Option.value ~default:"examples/specs/ipu.suite"
  in
  let trace_path =
    List.find_opt Sys.file_exists
      [ "examples/traces/ipu.csv"; "../examples/traces/ipu.csv" ]
    |> Option.value ~default:"examples/traces/ipu.csv"
  in
  let suite =
    match Loseq_verif.Suite.load suite_path with
    | Ok s -> s
    | Error e -> failwith (Format.asprintf "%a" Loseq_verif.Suite.pp_error e)
  in
  let labeled = Loseq_verif.Suite.entries_of suite in
  let n_shards = 4 in
  Memo.reset ();
  let t0 = Sys.time () in
  let plan = Shard.analyze ~shards:n_shards labeled in
  let plan_dt = Sys.time () -. t0 in
  Format.printf "%a@." Shard.pp plan;
  Format.printf "planned in %.4fs (%d explorations)@." plan_dt
    (Memo.explorations_performed ());
  let tr =
    match Loseq_core.Trace_io.load_csv trace_path with
    | Ok t -> t
    | Error msg -> failwith msg
  in
  let t1 = Sys.time () in
  let unsharded = Loseq_verif.Suite.check_trace suite tr in
  let unsharded_dt = Sys.time () -. t1 in
  let t2 = Sys.time () in
  let sharded =
    Loseq_verif.Sharded.run
      ~plan:(Array.to_list plan.Shard.shards)
      suite tr
  in
  let sharded_dt = Sys.time () -. t2 in
  let agrees = sharded = unsharded in
  Format.printf
    "replay on %s: unsharded %.4fs, sharded %.4fs, verdicts agree %b@."
    trace_path unsharded_dt sharded_dt agrees;
  let balanced = plan.Shard.balance <= 1.5 in
  let oc = open_out "BENCH_shard.json" in
  Printf.fprintf oc
    {|{
  "benchmark": "shard_planning",
  "suite": %S,
  "trace": %S,
  %s,
  "shards": %d,
  "plan_seconds": %.6f,
  "explorations": %d,
  "shard_costs": [%s],
  "per_shard": [
%s  ],
  "balance": %.4f,
  "certified": %b,
  "replay": { "unsharded_seconds": %.6f, "sharded_seconds": %.6f,
              "verdicts_agree": %b },
  "acceptance": { "balanced_1_5x": %b, "certified": %b,
                  "verdicts_agree": %b }
}
|}
    suite_path trace_path
    (provenance_json ~backend:"analysis")
    n_shards plan_dt
    (Memo.explorations_performed ())
    (String.concat ", "
       (List.map string_of_int (Array.to_list plan.Shard.shard_costs)))
    (String.concat ""
       (List.mapi
          (fun s members ->
            Printf.sprintf
              "    { \"shard\": %d, \"cost\": %d, \"checkers\": [%s] }%s\n" s
              plan.Shard.shard_costs.(s)
              (String.concat ", "
                 (List.map
                    (fun ck ->
                      Printf.sprintf "%S" (fst plan.Shard.entries.(ck)))
                    members))
              (if s = Array.length plan.Shard.shards - 1 then "" else ","))
          (Array.to_list plan.Shard.shards)))
    plan.Shard.balance plan.Shard.certified unsharded_dt sharded_dt agrees
    balanced plan.Shard.certified agrees;
  close_out oc;
  Format.printf "@.written: BENCH_shard.json@."

(* Sections are addressable from the command line so CI can run just
   one: `bench/main.exe ingest`.  No arguments runs everything. *)
let sections_by_name =
  [
    ("fig6", figure6);
    ("sweep-range", sweep_range_width);
    ("sweep-fragment", sweep_fragment_width);
    ("sweep-chain", sweep_chain_length);
    ("empirical-psl", empirical_viapsl);
    ("automata", automaton_sizes);
    ("ablation", ablation_oracle);
    ("case-study", case_study);
    ("hosted-dispatch", hosted_dispatch);
    ("flat-table", flat_table);
    ("ingest", ingest_throughput);
    ("obs", telemetry_overhead);
    ("trace", trace_overhead);
    ("races", race_analysis);
    ("mutation", mutation_gate);
    ("ooo", ooo_latency);
    ("shard", shard_planning);
    ("bechamel", bechamel_benches);
  ]

let usage () =
  Printf.eprintf "usage: bench/main.exe [SECTION]...\n\n";
  Printf.eprintf
    "Runs the named benchmark sections in order (all of them when none \
     are\ngiven).  Available sections:\n";
  List.iter (fun (nm, _) -> Printf.eprintf "  %s\n" nm) sections_by_name

let () =
  Format.printf
    "loseq benchmark harness - reproduces the evaluation of:@.  Romenska & \
     Maraninchi, \"Efficient Monitoring of Loose-Ordering@.  Properties for \
     SystemC/TLM\", DATE 2016@.";
  let chosen =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> List.map snd sections_by_name
    | requested ->
        List.map
          (fun nm ->
            match List.assoc_opt nm sections_by_name with
            | Some f -> f
            | None ->
                Printf.eprintf "unknown bench section %S\n\n" nm;
                usage ();
                exit 2)
          requested
  in
  List.iter (fun f -> f ()) chosen;
  Format.printf "@.done.@."
