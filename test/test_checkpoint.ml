(* Checkpoint/resume: killing a streaming session at ANY prefix and
   resuming from the checkpoint must be observationally identical to
   the uninterrupted run — same rendered verdicts, same violation
   de-duplication, same pending reorder buffer. *)

open Loseq_core
open Loseq_verif
open Loseq_ingest
open Loseq_testutil

let ev t nm = Trace.event ~time:t (name nm)

let entry label src : Suite.entry =
  { Suite.label; pattern = pat src; line = 1 }

let demo_suite =
  [
    entry "config" "{set_imgAddr, set_glAddr, set_glSize} <<! start";
    entry "bounded" "start => read_img[1,3] < set_irq within 50";
    entry "order" "take_lock < release_lock <<! bus_idle";
  ]

let offer_all session trace = List.iter (Session.offer_force session) trace

let summary_of session trace =
  offer_all session trace;
  Report.summary_strings (Session.finalize session)

(* Run to [cut], checkpoint through the JSON codec, resume a fresh
   session from it, feed the rest. *)
let resumed_summary ?lateness suite trace cut =
  let first = Session.create ?lateness suite in
  let before, after =
    List.filteri (fun i _ -> i < cut) trace,
    List.filteri (fun i _ -> i >= cut) trace
  in
  offer_all first before;
  let json = Checkpoint.capture first in
  (* through the wire format: render + reparse *)
  let json =
    match Json.of_string (Json.to_string json) with
    | Ok j -> j
    | Error msg -> Alcotest.failf "checkpoint JSON invalid: %s" msg
  in
  let second = Session.create ?lateness suite in
  (match Checkpoint.restore second json with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "restore at cut %d: %s" cut msg);
  offer_all second after;
  Report.summary_strings (Session.finalize second)

let check_every_prefix ?lateness suite trace =
  let baseline =
    summary_of (Session.create ?lateness suite) trace
  in
  for cut = 0 to List.length trace do
    let resumed = resumed_summary ?lateness suite trace cut in
    Alcotest.(check (list (pair string string)))
      (Printf.sprintf "cut at %d" cut)
      baseline resumed
  done

let passing_trace =
  [
    ev 0 "set_imgAddr"; ev 2 "set_glAddr"; ev 3 "set_glSize"; ev 10 "start";
    ev 15 "read_img"; ev 40 "set_irq"; ev 45 "take_lock"; ev 50 "release_lock";
    ev 60 "bus_idle";
  ]

let failing_trace =
  [
    ev 0 "set_imgAddr"; ev 2 "set_glAddr"; ev 3 "start" (* missing size *);
    ev 15 "read_img"; ev 100 "set_irq" (* past the deadline *);
    ev 110 "release_lock"; ev 120 "bus_idle" (* lock order broken *);
  ]

let test_every_prefix_passing () = check_every_prefix demo_suite passing_trace
let test_every_prefix_failing () = check_every_prefix demo_suite failing_trace

let disordered =
  [
    ev 2 "set_glAddr"; ev 0 "set_imgAddr"; ev 3 "set_glSize"; ev 10 "start";
    ev 15 "read_img"; ev 40 "set_irq"; ev 47 "take_lock"; ev 45 "other";
    ev 50 "release_lock"; ev 60 "bus_idle";
  ]

(* ---- version-1 import --------------------------------------------------

   Version 1 (one persisted JSON state per checker) is no longer
   written, only read.  The fixtures under [fixtures/] were captured by
   the per-checker compiled hosting that wrote it: [demo_suite] after
   every cut of a trace, one document per line, and a 64-checker suite
   after its whole stream. *)

(* From the test directory (dune runtest) or the repository root. *)
let fixture name =
  let here = Filename.concat "fixtures" name in
  if Sys.file_exists here then here else Filename.concat "test" here

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let parse_json what text =
  match Json.of_string text with
  | Ok j -> j
  | Error msg -> Alcotest.failf "%s: %s" what msg

let version_of json =
  match Json.member "version" json with Some (Json.Int v) -> v | _ -> -1

(* Cross-backend resume: each v1 checkpoint, written by per-checker
   compiled hosting, restores into a fresh flat-hosted session, which
   then runs the rest of the trace to the uninterrupted run's verdicts. *)
let check_v1_every_cut ?lateness name trace =
  let baseline = summary_of (Session.create ?lateness demo_suite) trace in
  let docs =
    List.filter (( <> ) "")
      (String.split_on_char '\n' (read_file (fixture name)))
  in
  Alcotest.(check int) "one checkpoint per cut" (List.length trace + 1)
    (List.length docs);
  List.iteri
    (fun cut doc ->
      let json = parse_json name doc in
      Alcotest.(check int) "a version-1 document" 1 (version_of json);
      let session = Session.create ?lateness demo_suite in
      (match Checkpoint.restore session json with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "v1 restore at cut %d: %s" cut msg);
      offer_all session (List.filteri (fun i _ -> i >= cut) trace);
      Alcotest.(check (list (pair string string)))
        (Printf.sprintf "cut at %d" cut)
        baseline
        (Report.summary_strings (Session.finalize session)))
    docs

let test_v1_import () =
  check_v1_every_cut "ckpt_v1_demo_passing.ndjson" passing_trace;
  check_v1_every_cut "ckpt_v1_demo_failing.ndjson" failing_trace

let test_v1_import_with_pending_reorder () =
  check_v1_every_cut ~lateness:5 "ckpt_v1_demo_disordered.ndjson" disordered

(* Every session is flat-hosted and writes version 2: blob + interning
   table. *)
let test_capture_is_v2 () =
  let session = Session.create demo_suite in
  offer_all session (List.filteri (fun i _ -> i < 5) passing_trace);
  let json = Checkpoint.capture session in
  let int_field k =
    match Json.member k json with Some (Json.Int n) -> n | _ -> -1
  in
  Alcotest.(check int) "version" 2 (int_field "version");
  Alcotest.(check int) "blob_version" Flat.blob_version
    (int_field "blob_version");
  (match Json.member "blob" json with
  | Some (Json.String _) -> ()
  | _ -> Alcotest.fail "no blob field");
  match Json.member "names" json with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "no interning table"

(* A tampered blob version must surface as a clear error, not a decode
   exception. *)
let test_blob_version_mismatch_refused () =
  let session = Session.create demo_suite in
  offer_all session (List.filteri (fun i _ -> i < 5) passing_trace);
  let json = Checkpoint.capture session in
  let bump = function
    | ("blob_version", Json.Int v) -> ("blob_version", Json.Int (v + 1))
    | kv -> kv
  in
  let tampered =
    match json with
    | Json.Obj fields -> Json.Obj (List.map bump fields)
    | _ -> Alcotest.fail "checkpoint is not an object"
  in
  let fresh = Session.create demo_suite in
  match Checkpoint.restore fresh tampered with
  | Ok () -> Alcotest.fail "restored a mismatched blob version"
  | Error msg ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "error names the version: %s" msg)
        true (contains msg "version")

(* At 64 checkers the single-blob checkpoint must be smaller than the
   committed v1 fixture of the same suite and stream (64 per-checker
   JSON states), and that fixture must still resume to the verdicts of
   the uninterrupted run. *)
let test_v2_smaller_at_64 () =
  let big_suite =
    List.init 64 (fun i ->
        entry
          (Printf.sprintf "p%d" i)
          (Printf.sprintf "{a%d, b%d} <<! go%d" i i i))
  in
  let stream =
    List.concat
      (List.init 64 (fun i ->
           List.mapi
             (fun k nm -> ev ((3 * i) + k) (Printf.sprintf "%s%d" nm i))
             [ "a"; "b"; "go" ]))
  in
  let session = Session.create big_suite in
  offer_all session stream;
  let v2 = String.length (Json.to_string (Checkpoint.capture session)) in
  let v1_json =
    parse_json "ckpt_v1_d64.json" (read_file (fixture "ckpt_v1_d64.json"))
  in
  Alcotest.(check int) "a version-1 fixture" 1 (version_of v1_json);
  let v1 = String.length (Json.to_string v1_json) in
  Alcotest.(check bool)
    (Printf.sprintf "flat blob (%d B) < per-checker JSON (%d B)" v2 v1)
    true (v2 < v1);
  let resumed = Session.create big_suite in
  (match Checkpoint.restore resumed v1_json with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check (list (pair string string)))
    "v1 fixture resumes to the same verdicts"
    (Report.summary_strings (Session.finalize session))
    (Report.summary_strings (Session.finalize resumed))

let test_every_prefix_with_pending_reorder () =
  (* lateness > 0 keeps events parked in the reorder buffer: a
     checkpoint in that state must carry them, not flush them. *)
  check_every_prefix ~lateness:5 demo_suite disordered

let test_violation_not_rereported () =
  let suite = [ entry "p" "a <<! go" ] in
  let trace = [ ev 0 "go"; ev 1 "go" ] in
  let first = Session.create suite in
  Session.offer_force first (List.hd trace);
  (* violated and reported before the checkpoint *)
  let json = Checkpoint.capture first in
  let second = Session.create suite in
  let hits = ref 0 in
  Session.on_violation second (fun ~name:_ _ -> incr hits);
  (match Checkpoint.restore second json with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  offer_all second (List.tl trace);
  ignore (Session.finalize second);
  Alcotest.(check int) "already-reported violation stays reported" 0 !hits

let test_file_roundtrip () =
  let session = Session.create demo_suite in
  offer_all session (List.filteri (fun i _ -> i < 5) passing_trace);
  let path = Filename.temp_file "loseq" ".ckpt" in
  (match Checkpoint.save ~path session with
  | Ok bytes -> Alcotest.(check bool) "byte count positive" true (bytes > 0)
  | Error msg -> Alcotest.fail msg);
  let resumed = Checkpoint.resume ~path demo_suite in
  Sys.remove path;
  match resumed with
  | Error msg -> Alcotest.fail msg
  | Ok second ->
      Alcotest.(check int) "position preserved" (Session.position session)
        (Session.position second);
      offer_all second (List.filteri (fun i _ -> i >= 5) passing_trace);
      let baseline = summary_of (Session.create demo_suite) passing_trace in
      Alcotest.(check (list (pair string string)))
        "verdicts equal" baseline
        (Report.summary_strings (Session.finalize second))

(* A restore moves [events_seen] to the checkpoint's historical total
   without executing any monitor step in this process; the hub's
   read-time delta into [loseq_backend_steps_total] must re-baseline
   (Hub.resync) so the counter reflects only post-resume steps. *)
let test_resume_rebases_step_counters () =
  let module Obs = Loseq_obs.Metrics in
  let steps m =
    match
      Obs.read_counter m ~name:"loseq_backend_steps_total"
        ~labels:[ ("backend", "flat") ] ()
    with
    | Some n -> n
    | None -> Alcotest.fail "loseq_backend_steps_total not registered"
  in
  let cut = 5 in
  let full = Obs.create () in
  offer_all (Session.create ~metrics:full demo_suite) passing_trace;
  let prefix = Obs.create () in
  let first = Session.create ~metrics:prefix demo_suite in
  offer_all first (List.filteri (fun i _ -> i < cut) passing_trace);
  let json = Checkpoint.capture first in
  let live = Obs.create () in
  let second = Session.create ~metrics:live demo_suite in
  (match Checkpoint.restore second json with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check int) "no steps counted for pre-resume history" 0
    (steps live);
  offer_all second (List.filteri (fun i _ -> i >= cut) passing_trace);
  ignore (Session.finalize second);
  Alcotest.(check int) "post-resume steps = full run minus prefix"
    (steps full - steps prefix) (steps live)

let test_restore_refuses_mismatches () =
  let session = Session.create demo_suite in
  offer_all session passing_trace;
  let json = Checkpoint.capture session in
  (* different suite *)
  let other = Session.create [ entry "p" "a << b" ] in
  (match Checkpoint.restore other json with
  | Ok () -> Alcotest.fail "restored into a different suite"
  | Error _ -> ());
  (* non-fresh session *)
  let used = Session.create demo_suite in
  Session.offer_force used (ev 0 "set_imgAddr");
  (match Checkpoint.restore used json with
  | Ok () -> Alcotest.fail "restored into a used session"
  | Error _ -> ());
  (* malformed document *)
  let fresh = Session.create demo_suite in
  match Checkpoint.restore fresh (Json.Obj [ ("format", Json.String "x") ]) with
  | Ok () -> Alcotest.fail "restored from garbage"
  | Error _ -> ()

(* Property: random pattern, random chronological trace, random kill
   point — rendered verdicts are identical to the uninterrupted run. *)
let gen_case =
  QCheck2.Gen.(
    let* p, trace = gen_pattern_and_trace in
    let* cut_frac = int_bound 100 in
    return (p, trace, cut_frac))

let prop_resume_equivalence =
  qtest ~count:300 "resume at any prefix = uninterrupted"
    gen_case
    (fun (p, trace, cut_frac) ->
      Printf.sprintf "%s (cut %d%%)"
        (print_pattern_and_trace (p, trace))
        cut_frac)
    (fun (p, trace, cut_frac) ->
      let trace =
        List.stable_sort
          (fun (a : Trace.event) (b : Trace.event) -> compare a.time b.time)
          trace
      in
      let suite = [ { Suite.label = "p"; pattern = p; line = 1 } ] in
      let cut = List.length trace * cut_frac / 100 in
      let baseline = summary_of (Session.create suite) trace in
      resumed_summary suite trace cut = baseline)

let () =
  Alcotest.run "checkpoint"
    [
      ( "equivalence",
        [
          Alcotest.test_case "every prefix, passing" `Quick
            test_every_prefix_passing;
          Alcotest.test_case "every prefix, failing" `Quick
            test_every_prefix_failing;
          Alcotest.test_case "every prefix, pending reorder" `Quick
            test_every_prefix_with_pending_reorder;
          Alcotest.test_case "violation de-dup" `Quick
            test_violation_not_rereported;
          Alcotest.test_case "cross-backend resume" `Quick test_v1_import;
          Alcotest.test_case "cross-backend resume, pending reorder" `Quick
            test_v1_import_with_pending_reorder;
        ] );
      ( "blob format",
        [
          Alcotest.test_case "flat hosting writes v2" `Quick test_capture_is_v2;
          Alcotest.test_case "blob version mismatch refused" `Quick
            test_blob_version_mismatch_refused;
          Alcotest.test_case "v2 smaller at 64 checkers" `Quick
            test_v2_smaller_at_64;
        ] );
      ( "files",
        [
          Alcotest.test_case "save/resume" `Quick test_file_roundtrip;
          Alcotest.test_case "step counters rebased" `Quick
            test_resume_rebases_step_counters;
          Alcotest.test_case "mismatches refused" `Quick
            test_restore_refuses_mismatches;
        ] );
      ("properties", [ prop_resume_equivalence ]);
    ]
