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
module Json = Loseq_core.Json

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

(* The same trace on the wire format: ipu.csv encoded to LSQB in-test
   and served with the same cadence must print the same records. *)
let test_buffered_lsqb () =
  let trace =
    match Loseq_core.Trace_io.load_csv (example "traces" "ipu.csv") with
    | Ok tr -> tr
    | Error msg -> Alcotest.fail msg
  in
  let lsqb = Filename.temp_file "loseq_serve" ".lsqb" in
  (match Codec.save ~path:lsqb trace with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  (* the same relative checkpoint path as the CSV run: the cases run one
     after the other, and the [path] member is part of the golden *)
  let ckpt = "serve_golden.ckpt" in
  let result =
    Fun.protect ~finally:(fun () -> Sys.remove lsqb) @@ fun () ->
    serve_stdin ~trace:lsqb (fun ~out ->
        Server.serve ~stats_interval:100 ~checkpoint:ckpt ~checkpoint_every:100
          ~out ~input:`Stdin (ipu_suite ()))
  in
  if Sys.file_exists ckpt then Sys.remove ckpt;
  check_golden ~golden:"serve_ipu_buffered.ndjson" ~expected_code:1 result

(* Unsigned LEB128, as the wire carries it. *)
let varint b n =
  let rec go n =
    if n < 0x80 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

(* Serve [data] from stdin; the exit code and the parsed records. *)
let serve_bytes suite data =
  let path = Filename.temp_file "loseq_serve" ".input" in
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc;
  let code, output =
    Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
    serve_stdin ~trace:path (fun ~out -> Server.serve ~out ~input:`Stdin suite)
  in
  let records =
    List.filter_map
      (fun line ->
        if line = "" then None
        else
          match Json.of_string line with
          | Ok j -> Some j
          | Error msg -> Alcotest.fail msg)
      (String.split_on_char '\n' output)
  in
  (code, records)

let record_of_type ty records =
  match
    List.find_opt
      (fun r -> Json.member "type" r = Some (Json.String ty))
      records
  with
  | Some r -> r
  | None -> Alcotest.failf "no %s record" ty

(* A hostile LSQB stream: [Codec.max_names] define records, most for
   names outside the suite, the last one a second define of "a"; then
   events through every kind of id.  Serving it must count the outside
   events in [events]/[delivered] and admit both ids of "a" as "a"; one
   define more is an error record (the wire-id -> port array grows only
   with the defines the decoder accepts). *)
let test_hostile_defines () =
  let suite =
    let pattern = Loseq_testutil.pat "{a, b} <<! go" in
    [ { Suite.label = "p"; pattern; line = 1 } ]
  in
  let b = Buffer.create (16 * Codec.max_names) in
  let define nm =
    Buffer.add_char b '\x01';
    varint b (String.length nm);
    Buffer.add_string b nm
  in
  Buffer.add_string b Codec.magic;
  let junk = Codec.max_names - 4 in
  for i = 0 to junk - 1 do
    define (Printf.sprintf "junk%d" i)
  done;
  List.iter define [ "b"; "go"; "a"; "a" ];
  let defines = Buffer.contents b in
  let events = ref 0 in
  let event id =
    Buffer.add_char b '\x02';
    varint b id;
    varint b 1;
    incr events
  in
  for i = 0 to junk - 1 do
    if i mod 97 = 0 then event i
  done;
  (* "a" through its second id, "b", then "go": passes only if both ids
     of "a" admit as "a" *)
  event (junk + 3);
  event junk;
  event (junk + 1);
  event (junk + 2);
  Buffer.add_char b '\x03';
  varint b !events;
  let code, records = serve_bytes suite (Buffer.contents b) in
  Alcotest.(check int) "exit code" 0 code;
  let summary = record_of_type "summary" records in
  let int key =
    match Json.member key summary with
    | Some (Json.Int n) -> n
    | _ -> Alcotest.failf "summary has no %s" key
  in
  Alcotest.(check int) "events" !events (int "events");
  Alcotest.(check int) "delivered" !events (int "delivered");
  Alcotest.(check bool) "passed" true
    (Json.member "passed" summary = Some (Json.Bool true));
  Buffer.clear b;
  Buffer.add_string b defines;
  define "one_too_many";
  let code, records = serve_bytes suite (Buffer.contents b) in
  Alcotest.(check int) "past the cap: exit code" 2 code;
  match Json.member "message" (record_of_type "error" records) with
  | Some (Json.String msg) ->
      let sub = "name table full" in
      let n = String.length sub in
      let rec at i =
        i + n <= String.length msg && (String.sub msg i n = sub || at (i + 1))
      in
      Alcotest.(check bool) (Printf.sprintf "past the cap: %S" msg) true (at 0)
  | _ -> Alcotest.fail "error record without a message"

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
          Alcotest.test_case "ipu.csv as LSQB, stats + checkpoints" `Quick
            test_buffered_lsqb;
          Alcotest.test_case "ipu_ooo.csv, lateness 75000" `Quick
            test_lateness;
          Alcotest.test_case "ipu_ooo.csv, --ooo" `Quick test_speculative;
        ] );
      ( "hostile input",
        [
          Alcotest.test_case "max_names defines, a name defined twice"
            `Quick test_hostile_defines;
        ] );
    ]
