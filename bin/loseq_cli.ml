(* loseq — command-line front end.

   Subcommands: check, psl, cost, gen, dfa, lint, analyze, mutate,
   suite, soc, serve, convert, feed, stats, trace, explain-verdict.
   Run `loseq_cli --help`. *)

open Loseq_core

let pattern_conv =
  let parse s =
    match Parser.pattern s with
    | Ok p -> Ok p
    | Error e -> Error (`Msg (Format.asprintf "%a" Parser.pp_error e))
  in
  Cmdliner.Arg.conv (parse, Pattern.pp)

let pattern_arg =
  let doc =
    "The loose-ordering pattern, e.g. '{a, b} << start' or \
     'start => read[100,60000] < irq within 60000'."
  in
  Cmdliner.Arg.(
    required & pos 0 (some pattern_conv) None & info [] ~docv:"PATTERN" ~doc)

(* ---- backend selection ------------------------------------------------ *)

let backend_kind_arg =
  (* The shared description lives in [Cli_doc] so check/suite/soc
     can't drift apart and the test suite can pin it. *)
  let doc = Cli_doc.backend_doc in
  Cmdliner.Arg.(
    value
    & opt
        (enum
           [
             ("direct", `Direct);
             ("compiled", `Compiled);
             ("flat", `Flat);
             ("psl", `Psl);
           ])
        `Compiled
    & info [ "backend" ] ~docv:"BACKEND" ~doc)

let factory_of = function
  | `Direct -> fun p -> Backend.direct p
  | `Compiled -> Backend.compiled
  | `Flat -> Backend.flat
  | `Psl -> Loseq_psl.Progress.backend

(* The flat backend is suite-level: given the whole suite it compiles
   one engine and hands out per-entry views.  The other kinds host per
   pattern. *)
let suite_factory_of = function
  | `Flat -> Some Backend.flat_views
  | `Direct | `Compiled | `Psl -> None

(* ---- telemetry (--stats) ---------------------------------------------- *)

module Obs = Loseq_obs.Metrics

let stats_arg =
  Cmdliner.Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Collect runtime telemetry (monitor steps, dispatches, \
           verdict transitions) and print the counters to stderr when \
           done.")

(* The batch commands share one policy: a live registry when --stats
   was given, the noop sink otherwise, a human-readable dump at the
   end.  [f] gets the registry and returns the exit code. *)
let with_stats enabled f =
  let metrics = if enabled then Obs.create () else Obs.noop in
  let code = f metrics in
  if enabled then Format.eprintf "%a" Loseq_obs.Expo.pp_human metrics;
  code

(* Instrument every backend the factory builds (hosted paths thread the
   registry themselves; the batch paths wrap here). *)
let instrumented metrics factory =
  if Obs.is_live metrics then fun p -> Backend.instrument metrics (factory p)
  else factory

(* ---- check ----------------------------------------------------------- *)

let read_all ic =
  let buf = Buffer.create 65536 in
  (try
     while true do
       Buffer.add_channel buf ic 4096
     done
   with End_of_file -> ());
  Buffer.contents buf

(* Any of the three trace formats, by content: the LSQB magic wins,
   then a comma in the first payload line means CSV, otherwise the
   whitespace name@time format. *)
let parse_sniffed data =
  match Loseq_ingest.Codec.sniff data with
  | `Binary -> Loseq_ingest.Codec.decode data
  | `Csv -> Trace_io.of_csv data
  | `Tokens -> Trace.parse data

let read_stdin_sniffed () =
  set_binary_mode_in stdin true;
  parse_sniffed (read_all stdin)

let read_trace = function
  | Some "-" | None -> read_stdin_sniffed ()
  | Some file -> (
      match open_in_bin file with
      | ic ->
          let s = read_all ic in
          close_in ic;
          parse_sniffed s
      | exception Sys_error msg -> Error msg)

let check_cmd =
  let run pattern trace_file trace_inline strict final_time backend_kind stats =
    let trace_result =
      match trace_inline with
      | Some "-" -> read_stdin_sniffed ()
      | Some s -> Trace.parse s
      | None -> read_trace trace_file
    in
    match trace_result with
    | Error msg ->
        Format.eprintf "trace error: %s@." msg;
        1
    | Ok trace -> (
        (* Strict mode must see foreign events; only the structural
           monitor supports it, whatever backend was asked for. *)
        let backend_result =
          if strict then Ok (Backend.direct ~mode:Monitor.Strict pattern)
          else
            match (factory_of backend_kind) pattern with
            | b -> Ok b
            | exception Invalid_argument msg -> Error msg
        in
        match backend_result with
        | Error msg ->
            Format.eprintf "backend error: %s@." msg;
            2
        | Ok b -> (
            with_stats stats @@ fun metrics ->
            let b =
              if Obs.is_live metrics then Backend.instrument metrics b else b
            in
            let expected = ref Name.Set.empty in
            let update () =
              match b.Backend.acceptable with
              | Some acceptable -> expected := acceptable ()
              | None -> ()
            in
            update ();
            let rec feed = function
              | [] -> ()
              | e :: rest -> (
                  match b.Backend.step e with
                  | Backend.Running | Backend.Satisfied ->
                      update ();
                      feed rest
                  | Backend.Violated _ -> ())
            in
            feed trace;
            let final_time =
              match final_time with
              | Some ft -> ft
              | None -> Trace.end_time trace
            in
            match b.Backend.finalize ~now:final_time with
            | Backend.Running ->
                Format.printf "PASS (recognition in progress, no violation)@.";
                0
            | Backend.Satisfied ->
                Format.printf "PASS (property satisfied)@.";
                0
            | Backend.Violated v ->
                Format.printf "FAIL: %a@." Diag.pp_violation v;
                if not (Name.Set.is_empty !expected) then
                  Format.printf "the monitor would have accepted: %a@."
                    Name.pp_set !expected;
                1))
  in
  let open Cmdliner in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "f"; "file" ] ~docv:"FILE"
          ~doc:
            "Trace file — tokens ('name' or 'name@time', whitespace \
             separated), CSV, or LSQB binary, sniffed by content; \
             $(b,-) or absent reads stdin the same way.")
  in
  let trace_inline =
    Arg.(
      value
      & opt (some string) None
      & info [ "t"; "trace" ] ~docv:"TRACE"
          ~doc:"Inline trace; $(b,-) reads stdin (sniffed).")
  in
  let strict =
    Arg.(value & flag & info [ "strict" ] ~doc:"Reject non-alphabet events.")
  in
  let final_time =
    Arg.(
      value
      & opt (some int) None
      & info [ "final-time" ] ~docv:"T"
          ~doc:"Observation end time for deadline checks.")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Run a monitor backend on a trace")
    Term.(
      const run $ pattern_arg $ trace_file $ trace_inline $ strict
      $ final_time $ backend_kind_arg $ stats_arg)

(* ---- psl ------------------------------------------------------------- *)

let psl_cmd =
  let run pattern size_only buchi =
    let size = Loseq_psl.Translate.formula_size pattern in
    Format.printf "formula size: %d nodes (+ lexer D = %d)@." size
      (Loseq_psl.Translate.delta_cost pattern);
    if not size_only then begin
      match Loseq_psl.Translate.to_psl pattern with
      | f ->
          Format.printf "%a@." Loseq_psl.Psl.pp f;
          if buchi then
            Format.printf "Buchi automaton: %a@." Loseq_psl.Buchi.pp_stats
              (Loseq_psl.Buchi.of_ltl f)
      | exception Invalid_argument msg -> Format.printf "(not materialized: %s)@." msg
    end;
    0
  in
  let open Cmdliner in
  let size_only =
    Arg.(value & flag & info [ "size-only" ] ~doc:"Only report the size.")
  in
  let buchi =
    Arg.(
      value & flag
      & info [ "buchi" ] ~doc:"Also translate to a Buchi automaton.")
  in
  Cmd.v
    (Cmd.info "psl" ~doc:"Translate a pattern into PSL (Section 5)")
    Term.(const run $ pattern_arg $ size_only $ buchi)

(* ---- cost ------------------------------------------------------------ *)

let fig6_rows =
  [
    ("(n << i, true)", "n <<! i", (80, 192), ("238+D", "896+D"));
    ("(n[100,60K] << i, true)", "n[100,60000] <<! i", (80, 192),
     ("4e11+D", "2e12+D"));
    ("(({n1..n4},/\\) << i, false)", "{n1, n2, n3, n4} << i", (230, 1132),
     ("1785+D", "6720+D"));
    ("(({n1..n5},/\\) << i, false)", "{n1, n2, n3, n4, n5} << i", (280, 1568),
     ("2142+D", "8064+D"));
    ("(n1 => n2<n3<n4, T)", "n1 => n2 < n3 < n4 within 1000", (296, 1051),
     ("1428+D", "5376+D"));
    ("(n1 => n2[100,60K]<n3<n4, T)",
     "n1 => n2[100,60000] < n3 < n4 within 1000", (296, 1051),
     ("4e11+D", "2e12+D"));
  ]

let print_cost_line p =
  let drct = Cost.drct p in
  let via = Loseq_psl.Cost.via_psl p in
  Format.printf
    "  Drct:   %d ops/event, %d bits@.  ViaPSL: %d+D ops/event, %d+D bits \
     (|f| = %d, D = %d)@."
    drct.Cost.ops_per_event drct.Cost.space_bits via.Loseq_psl.Cost.ops_per_event
    via.Loseq_psl.Cost.space_bits via.Loseq_psl.Cost.formula_size
    via.Loseq_psl.Cost.delta

let cost_cmd =
  let run patterns =
    (match patterns with
    | [] ->
        Format.printf
          "Figure 6 configurations (paper values in parentheses):@.";
        List.iter
          (fun (label, src, (ops, bits), (via_ops, via_bits)) ->
            let p = Parser.pattern_exn src in
            Format.printf "@.%s   [%s]@." label src;
            Format.printf "  paper:  Drct %d ops, %d bits; ViaPSL %s ops, %s \
                           bits@." ops bits via_ops via_bits;
            print_cost_line p)
          fig6_rows
    | ps ->
        List.iter
          (fun p ->
            Format.printf "%a@." Pattern.pp p;
            print_cost_line p)
          ps);
    0
  in
  let open Cmdliner in
  let patterns =
    Arg.(value & pos_all pattern_conv [] & info [] ~docv:"PATTERN")
  in
  Cmd.v
    (Cmd.info "cost"
       ~doc:"Print Drct/ViaPSL monitor costs (Fig. 6 by default)")
    Term.(const run $ patterns)

(* ---- gen ------------------------------------------------------------- *)

let gen_cmd =
  let run pattern rounds seed violating =
    let rng = Random.State.make [| seed |] in
    if violating then (
      match Generate.violating rng pattern with
      | Some tr ->
          Format.printf "%s@." (Trace.to_string tr);
          0
      | None ->
          Format.eprintf "no violating mutation found@.";
          1)
    else begin
      Format.printf "%s@."
        (Trace.to_string (Generate.valid ~rounds rng pattern));
      0
    end
  in
  let open Cmdliner in
  let rounds =
    Arg.(
      value & opt int 3
      & info [ "rounds" ] ~docv:"N" ~doc:"Recognition rounds to generate.")
  in
  let seed = Arg.(value & opt int 0x5eed & info [ "seed" ] ~docv:"SEED") in
  let violating =
    Arg.(
      value & flag
      & info [ "violating" ] ~doc:"Generate a violating trace instead.")
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:"Generate random traces from a pattern (stimuli generation)")
    Term.(const run $ pattern_arg $ rounds $ seed $ violating)

(* ---- lint / analyze --------------------------------------------------- *)

let format_arg =
  let format_conv =
    Cmdliner.Arg.conv
      ( (fun s ->
          match Finding.format_of_string s with
          | Ok f -> Ok f
          | Error e -> Error (`Msg e)),
        fun ppf f ->
          Format.pp_print_string ppf
            (match f with
            | Finding.Text -> "text"
            | Finding.Json -> "json"
            | Finding.Sarif -> "sarif") )
  in
  Cmdliner.Arg.(
    value
    & opt format_conv Finding.Text
    & info [ "format" ] ~docv:"FORMAT"
        ~doc:"Output format: $(b,text), $(b,json) or $(b,sarif).")

let suppress_arg =
  Cmdliner.Arg.(
    value & opt_all string []
    & info [ "suppress" ] ~docv:"CODE"
        ~doc:
          "Drop findings with this code (repeatable).  Suppressed \
           findings affect neither the output nor the exit code.")

let suites_arg =
  Cmdliner.Arg.(
    value & opt_all file []
    & info [ "suite" ] ~docv:"FILE"
        ~doc:"Analyze every entry of a property suite file (repeatable).")

let patterns_arg =
  Cmdliner.Arg.(value & pos_all pattern_conv [] & info [] ~docv:"PATTERN")

(* Inline patterns and suite entries, unified as analyzer items. *)
let gather_items suites patterns =
  let rec load acc = function
    | [] -> Ok (List.rev acc)
    | file :: rest -> (
        match Loseq_verif.Suite.load file with
        | Error e ->
            Error
              (Format.asprintf "%s: %a" file Loseq_verif.Suite.pp_error e)
        | Ok entries ->
            let items =
              List.map
                (fun (e : Loseq_verif.Suite.entry) ->
                  Loseq_analysis.Analysis.item ~file ~line:e.line e.label
                    e.pattern)
                entries
            in
            load (List.rev_append items acc) rest)
  in
  match load [] suites with
  | Error _ as e -> e
  | Ok suite_items ->
      let pattern_items =
        List.mapi
          (fun i p ->
            Loseq_analysis.Analysis.item
              (Printf.sprintf "pattern-%d" (i + 1))
              p)
          patterns
      in
      Ok (suite_items @ pattern_items)

(* Render + exit-code policy: 0 clean, 1 warnings, 2 errors (3 is
   reserved for usage and I/O failures). *)
let render_findings format suppressed fs =
  let fs = Finding.suppress suppressed (Finding.order fs) in
  (match (format, fs) with
  | Finding.Text, [] -> Format.printf "no findings@."
  | _ ->
      Finding.render ~tool_name:"loseq" ~tool_version:Version.current
        ~rules:Loseq_analysis.Analysis.rules format Format.std_formatter fs);
  Finding.exit_code fs

let lint_cmd =
  let run patterns suites format suppressed =
    if patterns = [] && suites = [] then begin
      Format.eprintf "nothing to lint: give PATTERN arguments or --suite FILE@.";
      3
    end
    else
      match gather_items suites patterns with
      | Error msg ->
          Format.eprintf "%s@." msg;
          3
      | Ok items ->
          let fs =
            List.concat_map
              (fun (it : Loseq_analysis.Analysis.item) ->
                List.map
                  (Finding.with_origin ~subject:it.label ?file:it.file
                     ?line:it.line)
                  (Lint.lint it.pattern))
              items
          in
          render_findings format suppressed fs
  in
  let open Cmdliner in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Flag suspicious (but legal) patterns - fast syntactic checks; \
          see $(b,analyze) for the semantic decision procedures")
    Term.(const run $ patterns_arg $ suites_arg $ format_arg $ suppress_arg)

(* ---- analyze --------------------------------------------------------- *)

(* Robustness findings carry the entry label as subject; give them the
   suite file/line the analyzer items know about. *)
let attach_origins (items : Loseq_analysis.Analysis.item list) fs =
  let origin label =
    List.find_opt
      (fun (it : Loseq_analysis.Analysis.item) -> String.equal it.label label)
      items
  in
  List.map
    (fun (f : Finding.t) ->
      match Option.bind f.subject origin with
      | Some it -> Finding.with_origin ?file:it.file ?line:it.line f
      | None -> f)
    fs

let pp_certificate ppf (cert : Loseq_analysis.Robust.certificate) =
  List.iter
    (fun (e : Loseq_analysis.Robust.entry) ->
      Format.fprintf ppf "%-24s lateness bound %-4s%s@." e.label
        (Loseq_analysis.Robust.bound_to_string e.bound)
        (if e.decided then ""
         else " (undecided within budget: conservative)"))
    cert.entries;
  Format.fprintf ppf "suite certified lateness bound: %s@."
    (Loseq_analysis.Robust.bound_to_string cert.bound)

(* Every readable file of a directory, parsed as a trace (tokens, CSV
   or LSQB binary, sniffed).  Sorted by name so runs are stable. *)
(* A workload directory may hold files the batch analyses cannot use —
   e.g. arrival-order captures for the speculative path, which are
   deliberately non-chronological.  Skip those with a warning rather
   than refusing the whole directory. *)
let read_traces_dir dir =
  match Sys.readdir dir with
  | exception Sys_error msg -> Error msg
  | files ->
      Array.sort compare files;
      Array.fold_left
        (fun ts f ->
          let path = Filename.concat dir f in
          if Sys.is_directory path then ts
          else
            match read_trace (Some path) with
            | Ok t -> t :: ts
            | Error msg ->
                Format.eprintf "warning: skipping %s: %s@." path msg;
                ts)
        [] files
      |> List.rev |> Result.ok

let traces_dir_arg =
  Cmdliner.Arg.(
    value
    & opt (some dir) None
    & info [ "traces" ] ~docv:"DIR"
        ~doc:
          "Read every file of $(docv) as a trace (tokens, CSV or LSQB \
           binary, sniffed by content) and add them to the workload.")

(* --shard-plan: plan, render, optionally verify sharded-vs-unsharded
   verdicts over the --traces workload.  Verification replays every
   trace through [Verif.Sharded] (one hub per shard over the sliced
   slab) and the unsharded [Suite.check_trace]; a mismatch on a
   certified plan is a [shard-divergence] error finding. *)
let shard_divergences plan suite traces =
  List.concat
    (List.mapi
       (fun k trace ->
         let sharded =
           Loseq_verif.Sharded.run
             ~plan:(Array.to_list plan.Loseq_analysis.Shard.shards)
             suite trace
         in
         let unsharded =
           Loseq_verif.Suite.check_trace ~suite_backend:Backend.flat_views
             suite trace
         in
         List.filter_map
           (fun ((label, sv), (label', uv)) ->
             assert (String.equal label label');
             if sv = uv then None
             else
               Some
                 (Finding.v ~subject:label Finding.Error "shard-divergence"
                    "trace #%d: sharded execution says %s, unsharded says \
                     %s — the plan's independence certificate is unsound"
                    (k + 1)
                    (if sv then "PASS" else "FAIL")
                    (if uv then "PASS" else "FAIL")))
           (List.combine sharded unsharded))
       traces)

let analyze_cmd =
  let run positionals suites format suppressed suppress_file explain races
      certify coverage shard_plan profile plan_out traces_dir budget =
    match explain with
    | Some "" ->
        (* no code: list every registered finding code *)
        List.iter
          (fun (e : Loseq_analysis.Explain.entry) ->
            Format.printf "%-22s %-8s %s@." e.code
              (Format.asprintf "%a" Finding.pp_severity e.severity)
              e.title)
          Loseq_analysis.Explain.all;
        0
    | Some code -> (
        match Loseq_analysis.Explain.find code with
        | Some entry ->
            Format.printf "%a@." Loseq_analysis.Explain.pp entry;
            0
        | None ->
            Format.eprintf "unknown finding code %S; known codes:@." code;
            List.iter
              (fun (e : Loseq_analysis.Explain.entry) ->
                Format.eprintf "  %s@." e.code)
              Loseq_analysis.Explain.all;
            3)
    | None -> (
        let suppressed =
          match suppress_file with
          | None -> Ok suppressed
          | Some path -> (
              match Finding.load_suppress_file path with
              | Ok codes -> Ok (suppressed @ codes)
              | Error e -> Error (Printf.sprintf "--suppress-file: %s" e))
        in
        (* a positional naming an existing file is a suite file, anything
           else must parse as an inline pattern *)
        let files, inline = List.partition Sys.file_exists positionals in
        let patterns =
          List.fold_left
            (fun acc s ->
              match acc with
              | Error _ -> acc
              | Ok ps -> (
                  match Parser.pattern s with
                  | Ok p -> Ok (p :: ps)
                  | Error e ->
                      Error
                        (Format.asprintf "%s: %a" s Parser.pp_error e)))
            (Ok []) inline
        in
        match (suppressed, patterns) with
        | Error msg, _ | _, Error msg ->
            Format.eprintf "%s@." msg;
            3
        | Ok suppressed, Ok patterns -> (
            let patterns = List.rev patterns in
            let suites = suites @ files in
            if patterns = [] && suites = [] then begin
              Format.eprintf
                "nothing to analyze: give PATTERN arguments or --suite \
                 FILE@.";
              3
            end
            else
              match gather_items suites patterns with
              | Error msg ->
                  Format.eprintf "%s@." msg;
                  3
              | Ok items -> (
                  let labeled =
                    List.map
                      (fun (it : Loseq_analysis.Analysis.item) ->
                        (it.label, it.pattern))
                      items
                  in
                  match shard_plan with
                  | Some n when n < 1 ->
                      Format.eprintf "--shard-plan: N must be >= 1@.";
                      3
                  | Some n -> (
                      let inputs =
                        (* --profile accepts either a loseq-profile/1
                           artifact (measured per-checker load from a
                           live run) or a raw trace to re-derive the
                           alphabet frequencies from. *)
                        let profile =
                          match profile with
                          | None -> Ok (None, [])
                          | Some path -> (
                              match open_in_bin path with
                              | exception Sys_error msg -> Error msg
                              | ic -> (
                                  let data = read_all ic in
                                  close_in ic;
                                  match Json.of_string data with
                                  | Ok json ->
                                      Result.map
                                        (fun measured -> (None, measured))
                                        (Loseq_analysis.Shard.profile_of_json
                                           json)
                                  | Error _ ->
                                      Result.map
                                        (fun tr -> (Some tr, []))
                                        (parse_sniffed data)))
                        in
                        let traces =
                          match traces_dir with
                          | None -> Ok []
                          | Some dir -> read_traces_dir dir
                        in
                        match (profile, traces) with
                        | Error msg, _ ->
                            Error (Printf.sprintf "--profile: %s" msg)
                        | _, Error msg ->
                            Error (Printf.sprintf "--traces: %s" msg)
                        | Ok p, Ok ts -> Ok (p, ts)
                      in
                      match inputs with
                      | Error msg ->
                          Format.eprintf "%s@." msg;
                          3
                      | Ok ((profile, measured), traces) ->
                          let plan =
                            Loseq_analysis.Shard.analyze ~budget ?profile
                              ~measured ~shards:n labeled
                          in
                          if format = Finding.Text then
                            Format.printf "@[<v>%a@]@."
                              Loseq_analysis.Shard.pp plan;
                          (match plan_out with
                          | None -> ()
                          | Some path ->
                              let oc = open_out path in
                              output_string oc
                                (Json.to_string
                                   (Loseq_analysis.Shard.to_json plan));
                              output_char oc '\n';
                              close_out oc);
                          let suite =
                            List.map
                              (fun (label, pattern) ->
                                { Loseq_verif.Suite.label; pattern; line = 0 })
                              labeled
                          in
                          render_findings format suppressed
                            (attach_origins items
                               (Loseq_analysis.Shard.findings plan
                               @ shard_divergences plan suite traces)))
                  | None ->
                  if coverage then begin
                    match
                      match traces_dir with
                      | None -> Ok []
                      | Some dir -> read_traces_dir dir
                    with
                    | Error msg ->
                        Format.eprintf "--traces: %s@." msg;
                        3
                    | Ok traces ->
                        let reports =
                          Loseq_analysis.Cover.suite_report ~budget labeled
                            traces
                        in
                        if format = Finding.Text then
                          List.iter
                            (fun r ->
                              Format.printf "%a@." Loseq_analysis.Cover.pp r)
                            reports;
                        render_findings format suppressed
                          (attach_origins items
                             (Loseq_analysis.Cover.findings reports))
                  end
                  else
                  match certify with
                  | Some k when k < -1 ->
                      Format.eprintf "--certify-lateness: K must be >= 0@.";
                      3
                  | Some k ->
                      let cert =
                        Loseq_analysis.Robust.certificate ~budget labeled
                      in
                      if format = Finding.Text then
                        Format.printf "%a" pp_certificate cert;
                      if k < 0 then 0
                      else
                        render_findings format suppressed
                          (attach_origins items
                             (Loseq_analysis.Robust.findings ~lateness:k cert))
                  | None ->
                      if races then
                        render_findings format suppressed
                          (attach_origins items
                             (Loseq_analysis.Robust.race_findings ~budget
                                labeled))
                      else
                        render_findings format suppressed
                          (Loseq_analysis.Analysis.analyze ~budget items))))
  in
  let open Cmdliner in
  let explain =
    Arg.(
      value
      & opt ~vopt:(Some "") (some string) None
      & info [ "explain" ] ~docv:"CODE"
          ~doc:
            "Print the rationale behind a finding code (with a live \
             witness on a minimal example) instead of analyzing; \
             without $(docv), list every registered code.")
  in
  let coverage =
    Arg.(
      value & flag
      & info [ "coverage" ]
          ~doc:
            "Reachable-coverage report: score the --traces set against \
             each entry's reachable abstract states and transitions \
             (the analyzer's own reachable set, not an estimate); \
             uncovered reachable states are $(b,coverage-gap) findings \
             with a BFS-minimal witness trace.")
  in
  let budget =
    Arg.(
      value & opt int 200_000
      & info [ "budget" ] ~docv:"STATES"
          ~doc:
            "Abstract-state exploration budget per pattern or pair; \
             beyond it unreachability-based checks are skipped.")
  in
  let positionals =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"PATTERN|SUITE"
          ~doc:
            "Inline patterns, or paths of suite files (a positional \
             naming an existing file is loaded like --suite).")
  in
  let suppress_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "suppress-file" ] ~docv:"PATH"
          ~doc:
            "Read suppressed finding codes from a file (one code per \
             line, '#' starts a comment); merged with --suppress.")
  in
  let races =
    Arg.(
      value & flag
      & info [ "races" ]
          ~doc:
            "Commutation analysis only: report racy name pairs with \
             twin-trace witnesses ($(b,race-pair)) and \
             timestamp-fragile deadlines ($(b,jitter-fragile)).")
  in
  let certify =
    Arg.(
      value
      & opt ~vopt:(Some (-1)) (some int) None
      & info [ "certify-lateness" ] ~docv:"K"
          ~doc:
            "Print the suite's certified lateness-robustness bound (the \
             maximal reorder window that provably cannot flip any \
             verdict).  With a value $(docv), additionally emit a \
             $(b,reorder-unsafe) error finding for every entry whose \
             bound is below $(docv).")
  in
  let shard_plan =
    Arg.(
      value
      & opt ~vopt:(Some 4) (some int) None
      & info [ "shard-plan" ] ~docv:"N"
          ~doc:
            "Partition the suite into $(docv) shards (default 4): build \
             the checker-interference graph (shared names, \
             non-commuting cross-checker pairs, deadline coupling), \
             balance a static cost model over the shards and print the \
             certified plan.  Coupling constraints are \
             $(b,shard-coupled) findings; a lopsided plan is \
             $(b,shard-imbalance).  With --traces, every trace is \
             additionally replayed sharded and unsharded — a verdict \
             mismatch is a $(b,shard-divergence) error.")
  in
  let profile =
    Arg.(
      value
      & opt (some file) None
      & info [ "profile" ] ~docv:"TRACE|PROFILE"
          ~doc:
            "Weight the shard-plan cost model with measured load.  A \
             loseq-profile/1 JSON artifact (from $(b,loseq serve \
             --profile-out) or $(b,loseq trace)) charges each checker \
             its measured alphabet-event count; a raw trace (tokens, \
             CSV or LSQB, sniffed) charges the number of profile \
             events in its alphabet.")
  in
  let plan_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan-out" ] ~docv:"FILE"
          ~doc:"Write the shard plan's JSON artifact to $(docv).")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Semantic analysis of patterns and suites: satisfiability, \
          vacuity, deadline feasibility, subsumption and conflicts, \
          commutation races and reorder robustness, by exhaustive \
          exploration of the monitor automata"
       ~man:
         [
           `S Cmdliner.Manpage.s_exit_status;
           `P
             "0 on no findings, 1 if the worst finding is a warning, 2 \
              if any error-severity finding remains after suppression, \
              3 on usage or I/O errors.";
         ])
    Term.(
      const run $ positionals $ suites_arg $ format_arg $ suppress_arg
      $ suppress_file $ explain $ races $ certify $ coverage $ shard_plan
      $ profile $ plan_out $ traces_dir_arg $ budget)

(* ---- mutate ----------------------------------------------------------- *)

let mutate_cmd =
  let module Mutate = Loseq_analysis.Mutate in
  let run file traces_dir budget seed kill_floor mutant list_only weak format
      suppressed =
    match Loseq_verif.Suite.load file with
    | Error e ->
        Format.eprintf "%a@." Loseq_verif.Suite.pp_error e;
        3
    | Ok suite -> (
        let entries =
          List.map
            (fun (e : Loseq_verif.Suite.entry) -> (e.label, e.pattern))
            suite
        in
        if list_only then begin
          List.iter
            (fun (m : Mutate.mutant) ->
              Format.printf "%-46s %s@." m.id m.description)
            (List.concat_map (Mutate.mutants_of ~seed) entries);
          0
        end
        else
          match
            match traces_dir with
            | None -> Ok []
            | Some dir -> read_traces_dir dir
          with
          | Error msg ->
              Format.eprintf "--traces: %s@." msg;
              3
          | Ok traces ->
              let s =
                Mutate.run ~budget ~seed ~traces ~weak ?only:mutant entries
              in
              if s.results = [] && mutant <> None then begin
                Format.eprintf "unknown mutant id %S (try --list)@."
                  (Option.get mutant);
                3
              end
              else begin
                if format = Finding.Text then begin
                  List.iter
                    (fun (r : Mutate.result) ->
                      let outcome, detail =
                        match r.outcome with
                        | Mutate.Stillborn -> ("stillborn", "")
                        | Mutate.Killed k ->
                            ("killed:" ^ Mutate.tier_name k.tier, "")
                        | Mutate.Survived { undecided } ->
                            ( "SURVIVED",
                              if undecided then " (product budget exhausted)"
                              else "" )
                      in
                      Format.printf "%-46s %s%s@." r.mutant.id outcome detail)
                    s.results;
                  let killed =
                    s.killed_static + s.killed_equivalence
                    + s.killed_differential
                  in
                  Format.printf
                    "%d mutants: %d killed (static %d, equivalence %d, \
                     differential %d), %d stillborn (pruned), %d survived@."
                    s.generated killed s.killed_static s.killed_equivalence
                    s.killed_differential s.stillborn
                    (List.length s.survivors);
                  Format.printf
                    "kill rate %.1f%% of %d non-stillborn; %d \
                     flat/compiled lockstep replays, %d divergences@."
                    (100. *. s.kill_rate)
                    (s.generated - s.stillborn)
                    s.cross_checked
                    (List.length s.divergences)
                end;
                let fs =
                  Mutate.findings ?floor:kill_floor ~suite:file s
                in
                if format = Finding.Text && fs = [] then 0
                else render_findings format suppressed fs
              end)
  in
  let open Cmdliner in
  let file =
    Arg.(
      required
      & pos 0 (some Arg.file) None
      & info [] ~docv:"SUITE"
          ~doc:"Property suite file ('name: pattern' per line).")
  in
  let budget =
    Arg.(
      value & opt int 200_000
      & info [ "budget" ] ~docv:"STATES"
          ~doc:
            "Exact-product exploration budget per mutant for the \
             equivalence tier; a mutant that exhausts it can be \
             neither killed nor pruned there.")
  in
  let seed =
    Arg.(
      value & opt int 0x5eed
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Seed for table-operator sampling and generated workload \
             traces; mutant ids are stable per seed.")
  in
  let kill_floor =
    Arg.(
      value
      & opt (some float) None
      & info [ "kill-floor" ] ~docv:"PCT"
          ~doc:
            "Fail (exit 2, $(b,mutation-kill-floor)) when the kill \
             rate over non-stillborn mutants drops below $(docv) \
             percent.")
  in
  let mutant =
    Arg.(
      value
      & opt (some string) None
      & info [ "mutant" ] ~docv:"ID"
          ~doc:
            "Run a single mutant (the replay command attached to every \
             $(b,mutant-survived) finding).")
  in
  let list_only =
    Arg.(
      value & flag
      & info [ "list" ]
          ~doc:"List the generated mutants without running any tier.")
  in
  let weak =
    Arg.(
      value & flag
      & info [ "weak" ]
          ~doc:
            "Replace the boundary-probing differential workload by a \
             single generated trace — demonstrates how trace quality \
             moves the kill rate.")
  in
  Cmd.v
    (Cmd.info "mutate"
       ~doc:
         "Mutation analysis of a property suite: seed first-order \
          faults into every compiled monitor and kill each mutant \
          statically, by exact product equivalence, or by differential \
          replay (which doubles as flat-vs-compiled cross-validation)"
       ~man:
         [
           `S Cmdliner.Manpage.s_exit_status;
           `P
             "0 when every non-stillborn mutant was killed (and no \
              floor breached), 1 when mutants survived, 2 when the \
              kill-rate floor was breached or the engines diverged, 3 \
              on usage or I/O errors.";
         ])
    Term.(
      const run $ file $ traces_dir_arg $ budget $ seed $ kill_floor
      $ mutant $ list_only $ weak $ format_arg $ suppress_arg)

(* ---- suite ----------------------------------------------------------- *)

let suite_cmd =
  let run file trace_file trace_inline final_time backend_kind stats =
    match Loseq_verif.Suite.load file with
    | Error e ->
        Format.eprintf "%a@." Loseq_verif.Suite.pp_error e;
        2
    | Ok suite -> (
        let trace_result =
          match trace_inline with
          | Some "-" -> read_stdin_sniffed ()
          | Some s -> Trace.parse s
          | None -> read_trace trace_file
        in
        match trace_result with
        | Error msg ->
            Format.eprintf "trace error: %s@." msg;
            2
        | Ok trace -> (
            with_stats stats @@ fun metrics ->
            match
              Loseq_verif.Suite.check_trace ~metrics
                ~backend:(factory_of backend_kind)
                ?suite_backend:(suite_factory_of backend_kind)
                ?final_time suite trace
            with
            | results ->
                List.iter
                  (fun (label, passed) ->
                    Format.printf "%-40s %s@." label
                      (if passed then "PASS" else "FAIL"))
                  results;
                if List.for_all snd results then 0 else 1
            | exception Invalid_argument msg ->
                Format.eprintf "backend error: %s@." msg;
                2))
  in
  let open Cmdliner in
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"SUITE"
          ~doc:"Property suite file ('name: pattern' per line).")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "f"; "file" ] ~docv:"FILE"
          ~doc:
            "Trace file (tokens, CSV or LSQB binary, sniffed); $(b,-) \
             or absent reads stdin.")
  in
  let trace_inline =
    Arg.(
      value
      & opt (some string) None
      & info [ "t"; "trace" ] ~docv:"TRACE"
          ~doc:"Inline trace; $(b,-) reads stdin (sniffed).")
  in
  let final_time =
    Arg.(
      value
      & opt (some int) None
      & info [ "final-time" ] ~docv:"T")
  in
  Cmd.v
    (Cmd.info "suite" ~doc:"Check a property-suite file against a trace")
    Term.(
      const run $ file $ trace_file $ trace_inline $ final_time
      $ backend_kind_arg $ stats_arg)

(* ---- serve / convert / feed / stats (live ingestion) ------------------ *)

let parse_addr flag s =
  match String.rindex_opt s ':' with
  | None ->
      Error (Printf.sprintf "%s %S: expected HOST:PORT" flag s)
  | Some i -> (
      let host = String.sub s 0 i
      and port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p >= 0 && p < 65536 ->
          Ok ((if host = "" then "127.0.0.1" else host), p)
      | _ -> Error (Printf.sprintf "%s %S: invalid port" flag s))

let serve_cmd =
  let run file socket lateness window checkpoint checkpoint_every resume
      strict_reorder ooo final_time metrics_addr stats_interval trace_out
      profile_out latency_sample_rate =
    let addr_result =
      match metrics_addr with
      | None -> Ok None
      | Some s -> Result.map Option.some (parse_addr "--metrics-addr" s)
    in
    match (Loseq_verif.Suite.load file, addr_result) with
    | Error e, _ ->
        Format.eprintf "%a@." Loseq_verif.Suite.pp_error e;
        2
    | _, Error msg ->
        Format.eprintf "%s@." msg;
        2
    | Ok suite, Ok metrics_addr ->
        let input =
          match socket with Some path -> `Socket path | None -> `Stdin
        in
        Loseq_ingest.Server.serve ?metrics_addr ~stats_interval ~lateness ~window ?checkpoint ~checkpoint_every ~resume
          ~strict_reorder ~ooo ?final_time ?trace_out ?profile_out
          ?latency_sample_rate ~input suite
  in
  let open Cmdliner in
  let file =
    Arg.(
      required
      & opt (some Arg.file) None
      & info [ "suite" ] ~docv:"FILE"
          ~doc:"Property suite file to host ('name: pattern' per line).")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket (one connection) instead of \
             reading stdin.")
  in
  let lateness =
    Arg.(
      value & opt int 0
      & info [ "lateness" ] ~docv:"K"
          ~doc:
            "Absorb events up to $(docv) ticks out of order; later ones \
             are dropped (reported in the summary).")
  in
  let window =
    Arg.(
      value & opt int 1024
      & info [ "window" ] ~docv:"N"
          ~doc:
            "Reorder/backpressure window: at most $(docv) events pending \
             release.")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:"Checkpoint file (written on SIGTERM and periodically).")
  in
  let checkpoint_every =
    Arg.(
      value & opt int 0
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Also checkpoint every $(docv) accepted events.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Restore from --checkpoint if it exists; the producer must \
             replay the stream from the start (already-counted events \
             are skipped).")
  in
  let strict_reorder =
    Arg.(
      value & flag
      & info [ "strict-reorder" ]
          ~doc:
            "Refuse to start (exit 2) when --lateness exceeds the \
             suite's certified lateness-robustness bound (see \
             $(b,loseq analyze --certify-lateness)): beyond it, \
             reorderings the buffer silently absorbs could flip a \
             verdict.  Without this flag the mismatch is only reported \
             in the reorder-certificate record.")
  in
  let ooo =
    Arg.(value & flag & info [ "ooo" ] ~doc:Cli_doc.ooo_doc)
  in
  let final_time =
    Arg.(
      value
      & opt (some int) None
      & info [ "final-time" ] ~docv:"T"
          ~doc:"Observation end time for the final deadline check.")
  in
  let metrics_addr =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-addr" ] ~docv:"HOST:PORT"
          ~doc:
            "Expose runtime telemetry over HTTP at $(docv): \
             $(b,GET /metrics) answers Prometheus text format, \
             $(b,GET /stats.json) the same registry as JSON.  The \
             endpoint is multiplexed into the serve loop and stays up \
             after end of stream until SIGTERM.")
  in
  let stats_interval =
    Arg.(
      value & opt int 0
      & info [ "stats-interval" ] ~docv:"N"
          ~doc:
            "Emit a {\"type\":\"stats\",...} NDJSON record every \
             $(docv) accepted events (0 disables).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Record a flight-recorder trace of the run (dispatch spans, \
             deadline firings, admission/backpressure/checkpoint spans, \
             speculation records under --ooo) and write it to $(docv) on \
             end of stream or interruption: NDJSON when $(docv) ends in \
             .ndjson, Chrome trace-event JSON (Perfetto-loadable) \
             otherwise.")
  in
  let profile_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile-out" ] ~docv:"FILE"
          ~doc:
            "Write a loseq-profile/1 artifact on exit: measured \
             per-checker event counts and the dispatch-latency \
             histogram.  $(b,loseq analyze --shard-plan N --profile \
             FILE) consumes it as measured load.")
  in
  let latency_sample_rate =
    Arg.(
      value
      & opt (some int) None
      & info [ "latency-sample-rate" ] ~docv:"N"
          ~doc:
            "Sample one dispatch in $(docv) for the latency histogram \
             and trace spans (default 64; rounded up to a power of \
             two).  1 samples every dispatch.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Host a property suite as a live monitor: stream events in \
          (stdin or Unix socket, binary or CSV), NDJSON records out"
       ~man:
         [
           `S Cmdliner.Manpage.s_description;
           `P Cli_doc.serve_modes_doc;
           `S Cmdliner.Manpage.s_exit_status;
           `P
             "0 when every property passed (or the server was \
              interrupted by SIGTERM after writing its checkpoint), 1 \
              when some property failed, 2 on input or setup errors.";
         ])
    Term.(
      const run $ file $ socket $ lateness $ window $ checkpoint
      $ checkpoint_every $ resume $ strict_reorder $ ooo $ final_time
      $ metrics_addr $ stats_interval $ trace_out $ profile_out
      $ latency_sample_rate)

let convert_cmd =
  let run input output to_format =
    let data_result =
      match input with
      | Some "-" | None ->
          set_binary_mode_in stdin true;
          Ok (read_all stdin)
      | Some file -> (
          match open_in_bin file with
          | ic ->
              let s = read_all ic in
              close_in ic;
              Ok s
          | exception Sys_error msg -> Error msg)
    in
    match data_result with
    | Error msg ->
        Format.eprintf "convert: %s@." msg;
        2
    | Ok data -> (
        match parse_sniffed data with
        | Error msg ->
            Format.eprintf "convert: %s@." msg;
            2
        | Ok trace -> (
            let to_format =
              match to_format with
              | Some f -> f
              | None -> (
                  (* No explicit target: flip between the two wire-able
                     formats (binary in -> CSV out, text in -> binary). *)
                  match Loseq_ingest.Codec.sniff data with
                  | `Binary -> `Csv
                  | `Csv | `Tokens -> `Binary)
            in
            let rendered =
              match to_format with
              | `Csv -> Ok (Trace_io.to_csv trace)
              | `Tokens -> Ok (Trace.to_string trace ^ "\n")
              | `Binary -> Loseq_ingest.Codec.encode trace
            in
            match rendered with
            | Error msg ->
                Format.eprintf "convert: %s@." msg;
                2
            | Ok rendered -> (
                match output with
                | Some path when path <> "-" -> (
                    match open_out_bin path with
                    | oc ->
                        output_string oc rendered;
                        close_out oc;
                        0
                    | exception Sys_error msg ->
                        Format.eprintf "convert: %s@." msg;
                        2)
                | _ ->
                    set_binary_mode_out stdout true;
                    print_string rendered;
                    0)))
  in
  let open Cmdliner in
  let input =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Input trace (tokens, CSV or LSQB binary, sniffed); \
                $(b,-) or absent reads stdin.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Output file; $(b,-) or absent writes stdout.")
  in
  let to_format =
    Arg.(
      value
      & opt
          (some (enum [ ("csv", `Csv); ("binary", `Binary); ("tokens", `Tokens) ]))
          None
      & info [ "to" ] ~docv:"FORMAT"
          ~doc:
            "Target format: $(b,csv), $(b,binary) or $(b,tokens).  \
             Default: binary input becomes CSV, text input becomes \
             binary.")
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:"Convert traces between CSV, token text and LSQB binary")
    Term.(const run $ input $ output $ to_format)

let feed_cmd =
  let run socket input =
    let ic_result =
      match input with
      | Some "-" | None ->
          set_binary_mode_in stdin true;
          Ok (stdin, false)
      | Some file -> (
          match open_in_bin file with
          | ic -> Ok (ic, true)
          | exception Sys_error msg -> Error msg)
    in
    match ic_result with
    | Error msg ->
        Format.eprintf "feed: %s@." msg;
        2
    | Ok (ic, close) -> (
        let result = Loseq_ingest.Server.feed ~path:socket ic in
        if close then close_in ic;
        match result with
        | Ok _ -> 0
        | Error msg ->
            Format.eprintf "feed: %s@." msg;
            2)
  in
  let open Cmdliner in
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix-domain socket of a running $(b,loseq serve).")
  in
  let input =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Bytes to send; $(b,-) or absent is stdin.")
  in
  Cmd.v
    (Cmd.info "feed"
       ~doc:
         "Copy a trace byte stream into a serve socket (a socat-free \
          producer for shell pipelines)")
    Term.(const run $ socket $ input)

(* ---- stats ------------------------------------------------------------ *)

(* A curl-free client for the serve metrics endpoint: one GET with
   [Connection: close], read to EOF, split status from body. *)
let http_get ~host ~port ~path =
  let addr_result =
    match Unix.inet_addr_of_string host with
    | a -> Ok a
    | exception Failure _ -> (
        match Unix.gethostbyname host with
        | exception Not_found -> Error (Printf.sprintf "unknown host %S" host)
        | { Unix.h_addr_list = [||]; _ } ->
            Error (Printf.sprintf "unknown host %S" host)
        | h -> Ok h.Unix.h_addr_list.(0))
  in
  match addr_result with
  | Error _ as e -> e
  | Ok addr -> (
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
      @@ fun () ->
      match
        Unix.connect sock (Unix.ADDR_INET (addr, port));
        let request =
          Printf.sprintf
            "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n" path
            host
        in
        let rec send off =
          if off < String.length request then
            send
              (off
              + Unix.write_substring sock request off
                  (String.length request - off))
        in
        send 0;
        let buf = Bytes.create 65536 and data = Buffer.create 4096 in
        let rec recv () =
          match Unix.read sock buf 0 (Bytes.length buf) with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes data buf 0 n;
              recv ()
        in
        recv ();
        Buffer.contents data
      with
      | exception Unix.Unix_error (e, fn, _) ->
          Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
      | response -> (
          let header_end =
            let n = String.length response in
            let rec at i =
              if i + 4 > n then None
              else if String.sub response i 4 = "\r\n\r\n" then Some i
              else at (i + 1)
            in
            at 0
          in
          match header_end with
          | None -> Error "malformed HTTP response"
          | Some i -> (
              let status_line =
                match String.index_opt response '\r' with
                | Some j -> String.sub response 0 j
                | None -> response
              in
              let body =
                String.sub response (i + 4) (String.length response - i - 4)
              in
              match String.split_on_char ' ' status_line with
              | _ :: "200" :: _ -> Ok body
              | _ -> Error (Printf.sprintf "server answered %S" status_line))))

let pp_stats_body ppf json =
  let metrics =
    Option.value ~default:[]
      (Option.bind (Json.member "metrics" json) Json.to_list_opt)
  in
  List.iter
    (fun m ->
      let str k = Option.bind (Json.member k m) Json.to_string_opt in
      let int k =
        match Json.member k m with Some (Json.Int n) -> Some n | _ -> None
      in
      let name = Option.value ~default:"?" (str "name") in
      let labels =
        match Json.member "labels" m with
        | Some (Json.Obj ((_ :: _) as kvs)) ->
            "{"
            ^ String.concat ","
                (List.map
                   (fun (k, v) ->
                     Printf.sprintf "%s=%s" k
                       (Option.value ~default:"?" (Json.to_string_opt v)))
                   kvs)
            ^ "}"
        | _ -> ""
      in
      let cell = name ^ labels in
      match str "type" with
      | Some "histogram" ->
          let count = Option.value ~default:0 (int "count") in
          Format.fprintf ppf "%-44s count=%d sum=%d@." cell count
            (Option.value ~default:0 (int "sum"));
          (* quantiles from the cumulative buckets the payload already
             carries — same estimator as the server-side --stats dump *)
          let buckets =
            Option.value ~default:[]
              (Option.bind (Json.member "buckets" m) Json.to_list_opt)
            |> List.filter_map (fun b ->
                   match (Json.member "le" b, Json.member "count" b) with
                   | Some (Json.Int le), Some (Json.Int c) -> Some (le, c)
                   | _ -> None)
            |> Array.of_list
          in
          if count > 0 && Array.length buckets > 0 then
            Format.fprintf ppf "  %-42s p50 %.1f  p90 %.1f  p99 %.1f@."
              "quantiles"
              (Loseq_obs.Profile.quantile ~count ~buckets 0.5)
              (Loseq_obs.Profile.quantile ~count ~buckets 0.9)
              (Loseq_obs.Profile.quantile ~count ~buckets 0.99)
      | _ ->
          Format.fprintf ppf "%-44s %d@." cell
            (Option.value ~default:0 (int "value")))
    metrics

let stats_cmd =
  let run addr prometheus raw =
    match parse_addr "--addr" addr with
    | Error msg ->
        Format.eprintf "stats: %s@." msg;
        2
    | Ok (host, port) -> (
        let path = if prometheus then "/metrics" else "/stats.json" in
        match http_get ~host ~port ~path with
        | Error msg ->
            Format.eprintf "stats: %s@." msg;
            2
        | Ok body -> (
            if prometheus || raw then begin
              print_string body;
              if body = "" || body.[String.length body - 1] <> '\n' then
                print_newline ();
              0
            end
            else
              match Json.of_string body with
              | Error msg ->
                  Format.eprintf "stats: bad /stats.json payload: %s@." msg;
                  2
              | Ok json ->
                  Format.printf "%a" pp_stats_body json;
                  0))
  in
  let open Cmdliner in
  let addr =
    Arg.(
      required
      & opt (some string) None
      & info [ "addr" ] ~docv:"HOST:PORT"
          ~doc:
            "Metrics endpoint of a running $(b,loseq serve \
             --metrics-addr).")
  in
  let prometheus =
    Arg.(
      value & flag
      & info [ "prometheus" ]
          ~doc:"Fetch and print the raw Prometheus text (/metrics).")
  in
  let raw =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the raw /stats.json payload instead of a table.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Query a live serve's metrics endpoint and print the counters \
          (a curl-free /stats.json client)")
    Term.(const run $ addr $ prometheus $ raw)

(* ---- trace ------------------------------------------------------------ *)

(* Offline flight recording: replay a recorded trace through a hosted
   session with the recorder live, then export the ring — the whole
   serve-side instrumentation without a server. *)

let trace_cmd =
  let module Tr = Loseq_obs.Trace in
  let run file trace_file out profile_out lateness latency_sample_rate
      final_time =
    match (Loseq_verif.Suite.load file, read_trace trace_file) with
    | Error e, _ ->
        Format.eprintf "%a@." Loseq_verif.Suite.pp_error e;
        2
    | _, Error msg ->
        Format.eprintf "trace error: %s@." msg;
        2
    | Ok suite, Ok events -> (
        let metrics = Obs.create () in
        let tr = Tr.create () in
        match
          Loseq_ingest.Session.create ~metrics ~trace:tr ?latency_sample_rate
            ~lateness suite
        with
        | exception Wellformed.Ill_formed (p, errs) ->
            Format.eprintf "ill-formed pattern %a:@ %a@." Pattern.pp p
              (Format.pp_print_list Wellformed.pp_error)
              errs;
            2
        | exception Invalid_argument msg ->
            Format.eprintf "trace: %s@." msg;
            2
        | session -> (
            let prov =
              Loseq_verif.Provenance.create
                (Loseq_verif.Hub.tap (Loseq_ingest.Session.hub session))
                suite
            in
            List.iter (Loseq_ingest.Session.offer_force session) events;
            let report =
              Loseq_ingest.Session.finalize ?final_time session
            in
            let ndjson = Filename.check_suffix out ".ndjson" in
            let write path data =
              let oc = open_out path in
              output_string oc data;
              close_out oc
            in
            match
              write out (if ndjson then Tr.to_ndjson tr else Tr.to_chrome tr)
            with
            | exception Sys_error msg ->
                Format.eprintf "trace: %s@." msg;
                2
            | () -> (
                Format.printf
                  "%s: %d records (%d dropped) over %d events, %s@." out
                  (Tr.length tr) (Tr.dropped tr) (List.length events)
                  (if ndjson then "NDJSON" else "Chrome trace-event JSON");
                match profile_out with
                | None ->
                    if Loseq_verif.Report.all_passed report then 0 else 1
                | Some path -> (
                    match
                      write path
                        (Loseq_obs.Profile.render ~metrics
                           ~checkers:(Loseq_verif.Provenance.seen prov)
                           ())
                    with
                    | exception Sys_error msg ->
                        Format.eprintf "trace: %s@." msg;
                        2
                    | () ->
                        Format.printf "%s: loseq-profile/1 (%d checkers)@."
                          path (List.length suite);
                        if Loseq_verif.Report.all_passed report then 0
                        else 1))))
  in
  let open Cmdliner in
  let file =
    Arg.(
      required
      & opt (some Arg.file) None
      & info [ "suite" ] ~docv:"FILE"
          ~doc:"Property suite to host during the replay.")
  in
  let trace_file =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"TRACE"
          ~doc:
            "Recorded trace (tokens, CSV or LSQB, sniffed); $(b,-) or \
             absent reads stdin.")
  in
  let out =
    Arg.(
      value
      & opt string "loseq-trace.json"
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Flight-recorder export: NDJSON when $(docv) ends in \
             .ndjson, Chrome trace-event JSON otherwise.")
  in
  let profile_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile-out" ] ~docv:"FILE"
          ~doc:
            "Also write a loseq-profile/1 artifact (measured \
             per-checker load + dispatch-latency histogram) for \
             $(b,loseq analyze --shard-plan --profile).")
  in
  let lateness =
    Arg.(
      value & opt int 0
      & info [ "lateness" ] ~docv:"K"
          ~doc:"Reorder window for the hosting session (default 0).")
  in
  let latency_sample_rate =
    Arg.(
      value
      & opt (some int) None
      & info [ "latency-sample-rate" ] ~docv:"N"
          ~doc:
            "Sample one dispatch in $(docv) (default 64; 1 samples \
             every dispatch).")
  in
  let final_time =
    Arg.(
      value
      & opt (some int) None
      & info [ "final-time" ] ~docv:"T"
          ~doc:"Observation end time for the final deadline check.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Replay a recorded trace through a hosted suite with the \
          flight recorder live and export the ring (plus an optional \
          measured profile)"
       ~man:
         [
           `S Cmdliner.Manpage.s_exit_status;
           `P
             "0 when every property passed, 1 when some failed, 2 on \
              input or setup errors.";
         ])
    Term.(
      const run $ file $ trace_file $ out $ profile_out $ lateness
      $ latency_sample_rate $ final_time)

(* ---- explain-verdict --------------------------------------------------- *)

(* Standalone verdict provenance: reproduce a Fail from a recorded
   trace, minimize its causal chain, and prove the chain self-contained
   by replaying it on both the compiled and the flat backend. *)

let explain_verdict_cmd =
  let module Prov = Loseq_verif.Provenance in
  let run file property trace_file final_time format =
    match (Loseq_verif.Suite.load file, read_trace trace_file) with
    | Error e, _ ->
        Format.eprintf "%a@." Loseq_verif.Suite.pp_error e;
        2
    | _, Error msg ->
        Format.eprintf "trace error: %s@." msg;
        2
    | Ok suite, Ok events -> (
        match
          List.find_opt
            (fun (e : Loseq_verif.Suite.entry) -> e.label = property)
            suite
        with
        | None ->
            Format.eprintf "explain-verdict: no property %S in %s@."
              property file;
            2
        | Some entry -> (
            match Loseq_ingest.Session.create suite with
            | exception Wellformed.Ill_formed (p, errs) ->
                Format.eprintf "ill-formed pattern %a:@ %a@." Pattern.pp p
                  (Format.pp_print_list Wellformed.pp_error)
                  errs;
                2
            | session ->
                let prov =
                  Prov.create
                    (Loseq_verif.Hub.tap (Loseq_ingest.Session.hub session))
                    suite
                in
                Loseq_ingest.Session.on_violation session (fun ~name v ->
                    Prov.note_violation prov ~label:name v);
                List.iter (Loseq_ingest.Session.offer_force session) events;
                let report =
                  Loseq_ingest.Session.finalize ?final_time session
                in
                let passed =
                  match
                    List.assoc_opt property
                      (Loseq_verif.Report.summary report)
                  with
                  | Some v -> Backend.passed v
                  | None -> true
                in
                if passed then begin
                  Format.eprintf
                    "explain-verdict: %S passed on this trace — nothing \
                     to explain@."
                    property;
                  1
                end
                else begin
                  let ft = Loseq_ingest.Session.now session in
                  let chain =
                    Prov.minimize ~final_time:ft ~label:property
                      entry.pattern
                      (Prov.captured prov property)
                  in
                  (* the chain must be self-contained: replaying it
                     alone reproduces the Fail on both hosting kinds *)
                  let compiled_fails =
                    not
                      (Prov.replay ~final_time:ft ~label:property
                         entry.pattern chain)
                  in
                  let flat_fails =
                    not
                      (Prov.replay ~backend:Backend.flat ~final_time:ft
                         ~label:property entry.pattern chain)
                  in
                  let json =
                    Json.Obj
                      [
                        ("property", Json.String property);
                        ("final_time", Json.Int ft);
                        ( "provenance",
                          Prov.chain_json
                            ?violation:(Prov.violation_of prov property)
                            chain );
                        ( "replays",
                          Json.Obj
                            [
                              ("compiled_fails", Json.Bool compiled_fails);
                              ("flat_fails", Json.Bool flat_fails);
                            ] );
                      ]
                  in
                  (match format with
                  | `Json -> Format.printf "%a@." Json.pp json
                  | `Text ->
                      Format.printf "%s: Fail at %d — %d-event causal \
                                     chain@."
                        property ft (List.length chain);
                      List.iter
                        (fun (l : Prov.link) ->
                          Format.printf "  %6d  %s@." l.time
                            (Name.to_string l.name))
                        chain;
                      (match Prov.violation_of prov property with
                      | Some v ->
                          Format.printf "  %s@."
                            (Diag.violation_to_string v)
                      | None -> ());
                      Format.printf
                        "replay: compiled %s, flat %s@."
                        (if compiled_fails then "Fail" else "PASS")
                        (if flat_fails then "Fail" else "PASS"));
                  if compiled_fails && flat_fails then 0 else 2
                end))
  in
  let open Cmdliner in
  let file =
    Arg.(
      required
      & opt (some Arg.file) None
      & info [ "suite" ] ~docv:"FILE" ~doc:"Property suite file.")
  in
  let property =
    Arg.(
      required
      & opt (some string) None
      & info [ "property" ] ~docv:"LABEL"
          ~doc:"The suite entry whose Fail to explain.")
  in
  let trace_file =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"TRACE"
          ~doc:
            "Recorded trace (tokens, CSV or LSQB, sniffed); $(b,-) or \
             absent reads stdin.")
  in
  let final_time =
    Arg.(
      value
      & opt (some int) None
      & info [ "final-time" ] ~docv:"T"
          ~doc:"Observation end time for the final deadline check.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Output format: $(b,text) or $(b,json).")
  in
  Cmd.v
    (Cmd.info "explain-verdict"
       ~doc:
         "Reproduce a property's Fail from a recorded trace and print \
          the minimal causal chain behind it (delta-debugged verdict \
          provenance, replay-checked on the compiled and flat backends)"
       ~man:
         [
           `S Cmdliner.Manpage.s_exit_status;
           `P
             "0 when the property fails and its minimized chain \
              reproduces the Fail on both backends, 1 when the \
              property passes on the trace, 2 on input errors or a \
              replay disagreement.";
         ])
    Term.(
      const run $ file $ property $ trace_file $ final_time $ format)

(* ---- dfa ------------------------------------------------------------- *)

let dfa_cmd =
  let run pattern dot minimize_flag max_states =
    match Automaton.of_pattern ~max_states pattern with
    | automaton ->
        let automaton =
          if minimize_flag then Automaton.minimize automaton else automaton
        in
        Format.printf "%a@." Automaton.pp_stats automaton;
        if dot then print_string (Automaton.to_dot automaton);
        0
    | exception Automaton.Too_many_states n ->
        Format.eprintf
          "state space exceeds %d states (wide ranges make the explicit            product explode; that is what the modular monitors avoid)@."
          n;
        1
  in
  let open Cmdliner in
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Print Graphviz source.")
  in
  let minimize_flag =
    Arg.(value & flag & info [ "minimize" ] ~doc:"Minimize first.")
  in
  let max_states =
    Arg.(value & opt int 4096 & info [ "max-states" ] ~docv:"N")
  in
  Cmd.v
    (Cmd.info "dfa"
       ~doc:"Materialize the monitor's explicit state machine")
    Term.(const run $ pattern_arg $ dot $ minimize_flag $ max_states)

(* ---- soc ------------------------------------------------------------- *)

let soc_cmd =
  let run presses bug slow_ipu seed verbose vcd csv backend_kind stats =
    let open Loseq_platform in
    let cpu_bug =
      match bug with
      | Some "start-first" -> Some Cpu.Start_before_config
      | Some "skip-size" -> Some Cpu.Skip_gl_size
      | Some "double-addr" -> Some Cpu.Double_gl_addr
      | Some other ->
          Format.eprintf "unknown bug %S@." other;
          exit 2
      | None -> None
    in
    let config =
      { Soc.default_config with presses; cpu_bug; slow_ipu; seed }
    in
    with_stats stats @@ fun metrics ->
    let soc = Soc.create ~config () in
    let report =
      match
        Soc.attach_standard_checkers
          ~backend:(instrumented metrics (factory_of backend_kind))
          soc
      with
      | report -> report
      | exception Invalid_argument msg ->
          (* e.g. the PSL backend rejecting read_img[100,60000]. *)
          Format.eprintf "backend error: %s@." msg;
          exit 2
    in
    Soc.run soc;
    Loseq_verif.Report.finalize report;
    if verbose then
      Format.printf "trace (%d events):@.%s@.@."
        (Loseq_verif.Tap.count (Soc.tap soc))
        (Trace.to_string (Loseq_verif.Tap.trace (Soc.tap soc)));
    (match vcd with
    | Some path ->
        Loseq_verif.Vcd.write ~path (Loseq_verif.Tap.trace (Soc.tap soc));
        Format.printf "waveform dumped to %s@." path
    | None -> ());
    (match csv with
    | Some path ->
        Trace_io.save_csv ~path (Loseq_verif.Tap.trace (Soc.tap soc));
        Format.printf "trace dumped to %s@." path
    | None -> ());
    Loseq_verif.Report.print report;
    Format.printf
      "recognitions: %d, matches: %d, lock opened %d time(s)@."
      (Ipu.recognitions (Soc.ipu soc))
      (Cpu.matches_seen (Soc.cpu soc))
      (Lock.open_count (Soc.lock soc));
    if Loseq_verif.Report.all_passed report then 0 else 1
  in
  let open Cmdliner in
  let presses =
    Arg.(value & opt int 3 & info [ "presses" ] ~docv:"N" ~doc:"Button presses.")
  in
  let bug =
    Arg.(
      value
      & opt (some string) None
      & info [ "bug" ] ~docv:"BUG"
          ~doc:"Inject a firmware bug: start-first, skip-size, double-addr.")
  in
  let slow_ipu =
    Arg.(value & flag & info [ "slow-ipu" ] ~doc:"Miss the recognition deadline.")
  in
  let seed = Arg.(value & opt int 0xface & info [ "seed" ] ~docv:"SEED") in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Dump the observed trace.")
  in
  let vcd =
    Arg.(
      value
      & opt (some string) None
      & info [ "vcd" ] ~docv:"FILE" ~doc:"Write the trace as a VCD waveform.")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:
            "Write the observed trace as CSV (replayable through \
             $(b,loseq serve) or $(b,loseq convert)).")
  in
  Cmd.v
    (Cmd.info "soc"
       ~doc:"Simulate the access-control platform with monitors attached")
    Term.(
      const run $ presses $ bug $ slow_ipu $ seed $ verbose $ vcd $ csv
      $ backend_kind_arg $ stats_arg)

let () =
  let open Cmdliner in
  let info =
    Cmd.info "loseq_cli" ~version:Version.current
      ~doc:"Loose-ordering property monitoring for SystemC/TLM-style models"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ check_cmd; psl_cmd; cost_cmd; gen_cmd; dfa_cmd; lint_cmd;
            analyze_cmd; mutate_cmd; suite_cmd; soc_cmd; serve_cmd;
            convert_cmd; feed_cmd; stats_cmd; trace_cmd;
            explain_verdict_cmd ]))
