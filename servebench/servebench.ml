(* The serve-level benchmark.  See README.md for the metrics, the
   workloads and why each exists.

     servebench --workload NAME --seed N --seconds S --trace 0|1
                --loseq PATH --work DIR [--dump DIR]
     servebench --calibrate

   --trace 0 spawns the real `loseq serve` repeatedly for S seconds and
   prints the end-to-end metrics; --trace 1 runs the in-process layer
   ladder (plus serve runs for the consistency check) and prints the
   per-layer metrics.  The last stdout line is the result JSON; the
   exit code is non-zero when any verdict or consistency check fails.
   --calibrate runs one host-speed calibration pass (calib.ml). *)

open Loseq_core

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let loseq = ref ""
let work = ref ""
let dump = ref ""
let calibrate = ref false

let spec =
  [
    ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Workload.names);
    ("--seed", Arg.Set_int seed, "N workload generator seed");
    ("--seconds", Arg.Set_int seconds, "S measuring time per run");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or the traced layer ladder (1)");
    ("--loseq", Arg.Set_string loseq, "PATH the loseq binary to serve with");
    ("--work", Arg.Set_string work, "DIR scratch directory for inputs and reports");
    ( "--dump",
      Arg.Set_string dump,
      "DIR write each workload's suite, input and serve command, then exit" );
    ("--calibrate", Arg.Set calibrate, " run one host-speed calibration pass, print its seconds");
  ]

let usage = "servebench --workload NAME --seed N --seconds S --trace 0|1 --loseq PATH --work DIR"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("servebench: " ^ s); exit 2) fmt

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* ---- files a run hands to serve ------------------------------------------ *)

type files = { suite : string; input : string; empty : string; checkpoint : string }

let write_inputs dir (w : Workload.t) =
  mkdir_p dir;
  let ext = match w.format with Workload.Lsqb -> "lsqb" | Csv -> "csv" in
  let f =
    {
      suite = Filename.concat dir (w.name ^ ".suite");
      input = Filename.concat dir (w.name ^ "." ^ ext);
      empty = Filename.concat dir "empty.input";
      checkpoint = Filename.concat dir (w.name ^ ".ckpt");
    }
  in
  write_file f.suite w.suite_text;
  write_file f.input w.input;
  write_file f.empty "";
  f

let serve_flags f w = Workload.serve_flags ~checkpoint:f.checkpoint w

(* ---- environment block --------------------------------------------------- *)

let read_first_line path =
  try In_channel.with_open_bin path (fun ic -> Option.map String.trim (In_channel.input_line ic))
  with Sys_error _ -> None

(* The checkout may not be a git repository at all; then the revision
   is "unknown". *)
let git_rev () =
  match read_first_line ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read_first_line (Filename.concat ".git" r) with Some h -> h | None -> "unknown")
  | Some head when head <> "" -> head
  | _ -> "unknown"

let environment (w : Workload.t) =
  Json.Obj
    [
      ("git_rev", Json.String (git_rev ()));
      ("loseq_version", Json.String Version.current);
      ("ocaml", Json.String Sys.ocaml_version);
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("seed", Json.Int !seed);
      ("workload", Json.String w.name);
      ("events", Json.Int (Array.length w.arrival));
      ("input_bytes", Json.Int (String.length w.input));
      ("properties", Json.Int (List.length w.suite));
      ("serve_flags", Json.List (List.map (fun s -> Json.String s) (Workload.serve_flags w)));
    ]

(* ---- run diagnostics ------------------------------------------------------ *)

let describe (o : Child.outcome) =
  Printf.sprintf "status=%s errors=[%s]"
    (match o.status with
    | Child.Exited c -> Printf.sprintf "exit %d" c
    | Signaled s -> Printf.sprintf "signal %d" s
    | Timed_out -> "timed out")
    (String.concat "; " o.errors)

(* ---- result line ---------------------------------------------------------- *)

let print_result ~correct ~attempted ~failed metrics =
  let finite v = if Float.is_finite v then Json.Float v else Json.Float (-1.) in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, unit_, v) ->
                     (name, Json.Obj [ ("value", finite v); ("unit", Json.String unit_) ]))
                   metrics) );
          ]))

(* ---- end to end ------------------------------------------------------------ *)

let child_timeout = 60.

(* Set-up-only spawns on an empty input come first, for up to a
   twentieth of [seconds] (at most 40): they warm the binary and
   enlarge the set-up sample.  Full serve runs follow until [seconds]
   have passed, give or take half a run (at least three), each after
   calibration passes lasting about half the last stream phase.
   Throughput is the events of a run over the mean stream time; set-up
   and the GC figures are medians.  Both times are then stated at the
   reference host speed (calib.ml): scaled by the mean pass over
   [Calib.reference_s]. *)
let end_to_end (w : Workload.t) f reference =
  let flags = serve_flags f w in
  let gc_path = Filename.concat (Filename.dirname f.input) "gc.txt" in
  let spawn input =
    Child.run ~loseq:!loseq ~suite:f.suite ~flags ~input ~gc_path ~timeout:child_timeout
  in
  let seconds = float_of_int !seconds in
  let setup_end = Child.now_s () +. (0.05 *. seconds) in
  let rec setup_only acc n =
    if n >= 40 || Child.now_s () >= setup_end then acc
    else
      let o = spawn f.empty in
      if not (Child.healthy o) then
        Printf.printf "setup-only run unhealthy: %s\n" (describe o);
      setup_only (o.Child.setup_s :: acc) (n + 1)
  in
  let setups = setup_only [] 0 in
  let t_start = Child.now_s () in
  let rec full acc n =
    let t = Child.now_s () in
    let per_run = (t -. t_start) /. float_of_int (max n 1) in
    if n >= 3 && t +. (per_run /. 2.) > t_start +. seconds then List.rev acc
    else
      (* calibrate for about half as long as the last stream phase *)
      let passes =
        match acc with
        | (_, (o : Child.outcome)) :: _ when Float.is_finite o.stream_s ->
            max 1 (Float.to_int (Float.round (0.5 *. o.stream_s /. Calib.reference_s)))
        | _ -> 1
      in
      let c = List.init passes (fun _ -> Calib.pass Sys.executable_name) in
      full ((c, spawn f.input) :: acc) (n + 1)
  in
  let cals, runs = List.split (full [] 0) in
  let cals = List.concat cals in
  let setups = setups @ List.map (fun o -> o.Child.setup_s) runs in
  let properties = List.length reference in
  let failed = List.fold_left (fun acc o -> acc + Child.missed reference o) 0 runs in
  let attempted = properties * List.length runs in
  List.iteri
    (fun i o ->
      let bad = Child.missed reference o in
      if bad > 0 then
        Printf.printf "run %d: %d properties differ from the reference; %s\n" i bad
          (describe o))
    runs;
  let events o = float_of_int (Option.value ~default:0 (Child.summary_int o "events")) in
  let per_event key o =
    match Child.gc_value o key with Some v -> v /. events o | None -> nan
  in
  let expected_events = float_of_int (Array.length w.arrival) in
  let events_ok = List.for_all (fun o -> events o = expected_events) runs in
  if not events_ok then
    Printf.printf "a run's summary event count differs from the %d generated\n"
      (Array.length w.arrival);
  let med f = Stats.median (List.map f runs) in
  let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
  let host = mean cals /. Calib.reference_s in
  let stream_s = mean (List.map (fun o -> o.Child.stream_s) runs) in
  let setup_s = Stats.median setups in
  let metrics =
    [
      ("events_per_s", "1/s", expected_events /. stream_s *. host);
      ("setup_s", "s", setup_s /. host);
      ("alloc_words_per_event", "words/event", med (per_event "minor_words"));
      ("promoted_words_per_event", "words/event", med (per_event "promoted_words"));
      ( "peak_heap_mb",
        "MB",
        med (fun o ->
            match Child.gc_value o "top_heap_words" with
            | Some v -> v *. float_of_int (Sys.word_size / 8) /. 1e6
            | None -> nan) );
    ]
  in
  Printf.printf "serve runs: %d, set-up samples: %d, failed_share: %d/%d\n" (List.length runs)
    (List.length setups) failed attempted;
  Printf.printf "host: calibration pass %.4g s (mean of %d) against the reference %.3g s; scale %.4g\n"
    (mean cals) (List.length cals) Calib.reference_s host;
  Printf.printf "as measured on this host: %.6g events/s, set-up %.6g s\n"
    (expected_events /. stream_s) setup_s;
  List.iter (fun (n, u, v) -> Printf.printf "  %-26s %.6g %s\n" n v u) metrics;
  let correct =
    failed = 0 && events_ok && List.for_all (fun (_, _, v) -> Float.is_finite v) metrics
  in
  (correct, attempted, failed, metrics)

(* ---- dump ------------------------------------------------------------------ *)

let dump_workload dir (w : Workload.t) =
  let f = write_inputs dir w in
  let reference = Workload.reference w in
  let cmd =
    String.concat " "
      ((("loseq serve --suite " ^ Filename.basename f.suite) :: serve_flags
          { f with checkpoint = Filename.basename f.checkpoint } w)
      @ [ "<"; Filename.basename f.input ])
  in
  write_file (Filename.concat dir (w.name ^ ".cmd")) (cmd ^ "\n");
  write_file
    (Filename.concat dir (w.name ^ ".expected.ndjson"))
    (String.concat ""
       (List.map
          (fun (p, b, v) ->
            Json.to_string
              (Json.Obj
                 [
                   ("type", Json.String "verdict");
                   ("property", Json.String p);
                   ("passed", Json.Bool b);
                   ("verdict", Json.String v);
                 ])
            ^ "\n")
          reference));
  Printf.printf "%s: %s (in %s)\n" w.name cmd dir

(* ---- main ------------------------------------------------------------------- *)

let () =
  Arg.parse spec (fun a -> die "unexpected argument %S" a) usage;
  if !calibrate then begin
    Calib.main ();
    exit 0
  end;
  if !dump <> "" then begin
    let names = if !workload = "" then Workload.names else [ !workload ] in
    List.iter
      (fun n ->
        if not (List.mem n Workload.names) then die "unknown workload %S" n;
        dump_workload !dump (Workload.generate ~seed:!seed n))
      names;
    exit 0
  end;
  if not (List.mem !workload Workload.names) then die "unknown workload %S (%s)" !workload usage;
  if !loseq = "" || not (Sys.file_exists !loseq) then die "no loseq binary at %S" !loseq;
  if !work = "" then die "--work DIR is required";
  if !seconds < 1 then die "--seconds must be positive";
  let dir = Filename.concat !work (Printf.sprintf "run-%d" (Unix.getpid ())) in
  let t0 = Child.now_s () in
  let w = Workload.generate ~seed:!seed !workload in
  let t_gen = Child.now_s () -. t0 in
  print_endline ("environment: " ^ Json.to_string (environment w));
  let f = write_inputs dir w in
  let measure () =
    let t0 = Child.now_s () in
    match Workload.reference w with
    | exception Workload.Reference_mismatch msg ->
        Printf.printf "reference check failed: %s\n" msg;
        None
    | reference ->
        Printf.printf "generated in %.2f s, reference verdicts in %.2f s\n" t_gen
          (Child.now_s () -. t0);
        (* The outcome shape is fixed by construction: every seed fails
           the same number of properties of each kind. *)
        let failing = List.filter (fun (_, p, _) -> not p) reference in
        Printf.printf "reference: %d pass, %d fail [%s]\n"
          (List.length reference - List.length failing)
          (List.length failing)
          (String.concat ", " (List.map (fun (l, _, _) -> l) failing));
        if !trace = 0 then Some (end_to_end w f reference)
        else
          Some
            (Ladder.run ~loseq:!loseq ~seconds:!seconds ~suite_path:f.suite ~input_path:f.input
               ~flags:(serve_flags f w) w reference)
  in
  match Fun.protect ~finally:(fun () -> remove_tree dir) measure with
  | exception Failure msg ->
      Printf.printf "benchmark failed: %s\n" msg;
      exit 1
  | None -> exit 1
  | Some (correct, attempted, failed, metrics) ->
      print_result ~correct ~attempted ~failed metrics;
      if not correct then exit 1
