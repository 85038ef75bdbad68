(* Golden NDJSON output of [Server.serve], run in-process.  Stdin is
   redirected to a committed trace with [Unix.dup2] and the record
   stream is compared byte for byte with the files under [golden/]:
   any change in what `loseq serve` prints (record order, members,
   verdict renderings, provenance chains, counters) shows up here.

   On a mismatch the actual output is left in the working directory as
   [<golden>.actual], so a deliberate change is reviewed with a plain
   diff before the golden is replaced. *)

open Loseq_verif
open Loseq_ingest

(* Paths from the test directory (dune runtest) or the repository
   root. *)
let locate path =
  if Sys.file_exists path then path else Filename.concat "test" path

let example dir nm = locate (Filename.concat ("../examples/" ^ dir) nm)

let load_suite path =
  match Suite.load path with
  | Ok s -> s
  | Error e -> Alcotest.failf "%a" Suite.pp_error e

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

(* Serve [trace] from stdin; the exit code and every record printed. *)
let serve_stdin ~trace f =
  let out_path = Filename.temp_file "loseq_serve" ".ndjson" in
  let out = open_out_bin out_path in
  let input = Unix.openfile trace [ Unix.O_RDONLY ] 0 in
  let saved = Unix.dup Unix.stdin in
  Unix.dup2 input Unix.stdin;
  Unix.close input;
  let code =
    Fun.protect
      ~finally:(fun () ->
        Unix.dup2 saved Unix.stdin;
        Unix.close saved;
        close_out out)
      (fun () -> f ~out)
  in
  let output = read_file out_path in
  Sys.remove out_path;
  (code, output)

let check_golden ~golden ~expected_code (code, output) =
  Alcotest.(check int) "exit code" expected_code code;
  let path = locate (Filename.concat "golden" golden) in
  let expected = read_file path in
  if output <> expected then begin
    let actual = golden ^ ".actual" in
    let oc = open_out_bin actual in
    output_string oc output;
    close_out oc;
    let lines s = String.split_on_char '\n' s in
    let rec first_diff i = function
      | a :: ra, b :: rb ->
          if a = b then first_diff (i + 1) (ra, rb)
          else
            Alcotest.failf "%s line %d:@.expected %s@.actual   %s" golden i
              b a
      | [], b :: _ -> Alcotest.failf "%s line %d: missing %s" golden i b
      | a :: _, [] -> Alcotest.failf "%s line %d: extra %s" golden i a
      | [], [] -> Alcotest.failf "%s: outputs differ" golden
    in
    first_diff 1 (lines output, lines expected)
  end

let ipu_suite () = load_suite (example "specs" "ipu.suite")

(* In-order CSV with periodic stats and checkpoint records.  The
   checkpoint path is relative, so the [path] member is stable. *)
let test_buffered () =
  let ckpt = "serve_golden.ckpt" in
  let result =
    serve_stdin ~trace:(example "traces" "ipu.csv") (fun ~out ->
        Server.serve ~stats_interval:100 ~checkpoint:ckpt ~checkpoint_every:100
          ~out ~input:`Stdin (ipu_suite ()))
  in
  if Sys.file_exists ckpt then Sys.remove ckpt;
  check_golden ~golden:"serve_ipu_buffered.ndjson" ~expected_code:1 result

(* The K-scrambled twin, re-sorted by the reorder buffer. *)
let test_lateness () =
  serve_stdin ~trace:(example "traces" "ipu_ooo.csv") (fun ~out ->
      Server.serve ~lateness:75_000 ~out ~input:`Stdin (ipu_suite ()))
  |> check_golden ~golden:"serve_ipu_ooo_lateness.ndjson" ~expected_code:1

(* The same twin through the speculative engine. *)
let test_speculative () =
  serve_stdin ~trace:(example "traces" "ipu_ooo.csv") (fun ~out ->
      Server.serve ~ooo:true ~lateness:75_000 ~out ~input:`Stdin
        (ipu_suite ()))
  |> check_golden ~golden:"serve_ipu_ooo_speculative.ndjson" ~expected_code:1

let () =
  Alcotest.run "server"
    [
      ( "golden",
        [
          Alcotest.test_case "ipu.csv, stats + checkpoints" `Quick
            test_buffered;
          Alcotest.test_case "ipu_ooo.csv, lateness 75000" `Quick
            test_lateness;
          Alcotest.test_case "ipu_ooo.csv, --ooo" `Quick test_speculative;
        ] );
    ]
