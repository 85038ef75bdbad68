(* The LSQB binary trace codec: exact round-trips with Trace.t/CSV,
   chunk-boundary-oblivious streaming decode, malformed-input
   rejection. *)

open Loseq_core
open Loseq_ingest
open Loseq_testutil

let ev t nm = Trace.event ~time:t (name nm)

let event_testable =
  Alcotest.testable Trace.pp_event (fun (x : Trace.event) y ->
      Name.equal x.name y.name && x.time = y.time)

let trace_testable = Alcotest.(list event_testable)

let sample =
  [ ev 0 "a"; ev 5 "b"; ev 5 "c"; ev 12 "a"; ev 12 "a"; ev 100000 "b" ]

let decode_exn s =
  match Codec.decode s with Ok tr -> tr | Error msg -> Alcotest.fail msg

(* ---- whole-trace round trips ------------------------------------------ *)

let test_roundtrip () =
  Alcotest.check trace_testable "roundtrip" sample
    (decode_exn (Codec.encode_exn sample))

let test_roundtrip_empty () =
  Alcotest.check trace_testable "empty" [] (decode_exn (Codec.encode_exn []))

let test_compactness () =
  (* Interning + deltas: repeated names cost a couple of bytes per
     event, not the name each time. *)
  let long_name = String.make 64 'x' in
  let trace = List.init 1000 (fun i -> ev (i * 3) long_name) in
  let encoded = Codec.encode_exn trace in
  Alcotest.(check bool)
    (Printf.sprintf "1000 events in %d bytes" (String.length encoded))
    true
    (String.length encoded < 4 * 1000)

(* Plain substring check without extra deps. *)
let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_rejects_nonchronological () =
  match Codec.encode [ ev 10 "a"; ev 5 "b" ] with
  | Ok _ -> Alcotest.fail "encoded a non-chronological trace"
  | Error msg ->
      Alcotest.(check bool) "error names the position" true
        (contains ~sub:"event 2" msg)

(* ---- sniffing --------------------------------------------------------- *)

let test_sniff () =
  let check_is label expected data =
    let got = Codec.sniff data in
    Alcotest.(check string) label
      (match expected with
      | `Binary -> "binary"
      | `Csv -> "csv"
      | `Tokens -> "tokens")
      (match got with
      | `Binary -> "binary"
      | `Csv -> "csv"
      | `Tokens -> "tokens")
  in
  check_is "binary" `Binary (Codec.encode_exn sample);
  check_is "csv" `Csv (Trace_io.to_csv sample);
  check_is "csv no header" `Csv "0,a\n7,b\n";
  check_is "csv after comment" `Csv "# log\n0,a\n";
  check_is "tokens" `Tokens "a b@7 c";
  check_is "empty" `Tokens ""

(* ---- error cases ------------------------------------------------------ *)

let expect_decode_error label data sub =
  match Codec.decode data with
  | Ok _ -> Alcotest.failf "%s: decoded" label
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S mentions %S" label msg sub)
        true (contains ~sub msg)

let test_decode_errors () =
  expect_decode_error "bad magic" "CSVX\x01rest" "bad magic";
  expect_decode_error "empty" "" "empty input";
  expect_decode_error "unknown tag"
    (Codec.magic ^ "\x7fjunk")
    "unknown record tag";
  expect_decode_error "undefined id" (Codec.magic ^ "\x02\x05\x00") "undefined";
  (* a 63-bit id varint wraps negative: still an undefined id, not an
     out-of-bounds lookup *)
  expect_decode_error "negative id"
    (Codec.magic ^ "\x01\x01a\x02" ^ String.make 8 '\x80' ^ "\x40\x00")
    "undefined name id";
  expect_decode_error "overlong varint"
    (Codec.magic ^ "\x02" ^ String.make 12 '\x80')
    "overlong";
  let good = Codec.encode_exn sample in
  expect_decode_error "data after end" (good ^ "\x02\x00\x00") "after the end";
  expect_decode_error "truncated"
    (String.sub good 0 (String.length good - 1))
    "truncated";
  (* corrupt the end record's count *)
  let bytes = Bytes.of_string good in
  Bytes.set bytes (Bytes.length bytes - 1) '\x09';
  expect_decode_error "count mismatch" (Bytes.to_string bytes) "claims"

let test_name_length_limit () =
  let huge = Buffer.create 16 in
  Buffer.add_string huge Codec.magic;
  Buffer.add_char huge '\x01';
  (* varint 1_000_000 *)
  Buffer.add_string huge "\xc0\x84\x3d";
  expect_decode_error "giant name" (Buffer.contents huge) "exceeds limit"

(* Unsigned LEB128, as the wire carries it. *)
let varint n =
  let b = Buffer.create 10 in
  let rec go n =
    if n < 0x80 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n;
  Buffer.contents b

let define nm = "\x01" ^ varint (String.length nm) ^ nm
let event ~id ~delta = "\x02" ^ varint id ^ delta

(* Two deltas of max_int: the second sum wraps.  It must be reported as
   an overflow, not as the negative timestamp the wrapped sum would
   be; likewise a single delta past max_int (a 63-bit varint). *)
let test_timestamp_overflow () =
  let twice =
    Codec.magic ^ define "a"
    ^ event ~id:0 ~delta:(varint max_int)
    ^ event ~id:0 ~delta:(varint max_int)
  in
  expect_decode_error "max_int twice" twice "timestamp overflow";
  (match Codec.decode twice with
  | Error msg ->
      Alcotest.(check bool) "no negative timestamp" false
        (contains ~sub:"negative" msg)
  | Ok _ -> ());
  let past_max_int = String.make 8 '\x80' ^ "\x40" (* 2^62 *) in
  expect_decode_error "delta of 2^62"
    (Codec.magic ^ define "a" ^ event ~id:0 ~delta:past_max_int)
    "timestamp overflow";
  (* the largest timestamp itself is fine *)
  match
    Codec.decode
      (Codec.magic ^ define "a" ^ event ~id:0 ~delta:(varint max_int))
  with
  | Ok [ e ] -> Alcotest.(check int) "max_int decodes" max_int e.time
  | Ok _ -> Alcotest.fail "expected one event"
  | Error msg -> Alcotest.fail msg

(* The name table is bounded: exactly [max_names] defines decode, the
   next one is an error record. *)
let test_name_table_cap () =
  let defines n =
    let b = Buffer.create (n * 8) in
    Buffer.add_string b Codec.magic;
    for i = 0 to n - 1 do
      Buffer.add_string b (define (Printf.sprintf "n%d" i))
    done;
    Buffer.contents b
  in
  (match Codec.decode (defines Codec.max_names) with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "no events expected"
  | Error msg -> Alcotest.failf "at the cap: %s" msg);
  expect_decode_error "one define past the cap"
    (defines (Codec.max_names + 1))
    "name table full"

(* ---- streaming decode ------------------------------------------------- *)

let decode_chunked chunk_sizes data =
  let dec = Codec.Decoder.create () in
  let acc = ref [] in
  let emit e = acc := e :: !acc in
  let len = String.length data in
  let rec go pos sizes =
    if pos >= len then Ok ()
    else
      let size =
        match sizes with [] -> len - pos | s :: _ -> min s (len - pos)
      in
      let rest = match sizes with [] -> [] | _ :: r -> r in
      match Codec.Decoder.feed dec ~off:pos ~len:size data ~emit with
      | Ok () -> go (pos + size) rest
      | Error _ as err -> err
  in
  match go 0 chunk_sizes with
  | Error _ as err -> err
  | Ok () -> (
      match Codec.Decoder.finish dec with
      | Error _ as err -> err
      | Ok () -> Ok (List.rev !acc))

let test_byte_at_a_time () =
  let data = Codec.encode_exn sample in
  match decode_chunked (List.init (String.length data) (fun _ -> 1)) data with
  | Ok tr -> Alcotest.check trace_testable "1-byte chunks" sample tr
  | Error msg -> Alcotest.fail msg

let test_decoder_sticky_errors () =
  let dec = Codec.Decoder.create () in
  let emit _ = () in
  (match Codec.Decoder.feed dec "XXXXX" ~emit with
  | Ok () -> Alcotest.fail "bad magic accepted"
  | Error _ -> ());
  match Codec.Decoder.feed dec Codec.magic ~emit with
  | Ok () -> Alcotest.fail "error was not sticky"
  | Error _ -> ()

(* ---- properties ------------------------------------------------------- *)

let gen_chrono_trace =
  QCheck2.Gen.(
    let* n = int_range 0 60 in
    let* gaps = list_size (return n) (int_range 0 40) in
    let* picks = list_size (return n) (int_bound (Array.length name_pool - 1)) in
    let time = ref 0 in
    return
      (List.map2
         (fun gap i ->
           time := !time + gap;
           ev !time name_pool.(i))
         gaps picks))

let print_trace tr = Trace.to_string tr

let trace_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Trace.event) (y : Trace.event) ->
         Name.equal x.name y.name && x.time = y.time)
       a b

let prop_roundtrip =
  qtest ~count:300 "decode (encode tr) = tr" gen_chrono_trace print_trace
    (fun tr ->
      match Codec.decode (Codec.encode_exn tr) with
      | Ok tr' -> trace_equal tr tr'
      | Error msg -> QCheck2.Test.fail_report msg)

let prop_csv_equivalence =
  qtest ~count:300 "CSV and binary decode to the same trace" gen_chrono_trace
    print_trace (fun tr ->
      match (Trace_io.of_csv (Trace_io.to_csv tr), Codec.decode (Codec.encode_exn tr)) with
      | Ok via_csv, Ok via_bin -> trace_equal via_csv via_bin
      | Error msg, _ | _, Error msg -> QCheck2.Test.fail_report msg)

let gen_trace_and_chunks =
  QCheck2.Gen.(
    let* tr = gen_chrono_trace in
    let* sizes = list_size (int_range 1 30) (int_range 1 17) in
    return (tr, sizes))

let prop_chunked_decode =
  qtest ~count:300 "chunked decode = whole decode" gen_trace_and_chunks
    (fun (tr, sizes) ->
      Printf.sprintf "%s / chunks %s" (Trace.to_string tr)
        (String.concat "," (List.map string_of_int sizes)))
    (fun (tr, sizes) ->
      let data = Codec.encode_exn tr in
      match decode_chunked sizes data with
      | Ok tr' -> trace_equal tr tr'
      | Error msg -> QCheck2.Test.fail_report msg)

(* A stream the way a server reads it: every chunk lands in the same
   [Bytes] buffer, which is overwritten as soon as [feed] returns.  The
   events and the result must be those of one whole-string feed. *)
let feed_reused_buffer sizes data =
  let width = 64 in
  let buf = Bytes.make width '\xff' in
  let dec = Codec.Decoder.create () in
  let acc = ref [] in
  let emit e = acc := e :: !acc in
  let len = String.length data in
  let rec go pos sizes =
    if pos >= len then Codec.Decoder.finish dec
    else
      let size, rest =
        match sizes with [] -> (width, []) | s :: r -> (s, r)
      in
      let size = min size (len - pos) in
      Bytes.blit_string data pos buf 0 size;
      let r =
        Codec.Decoder.feed dec ~off:0 ~len:size (Bytes.unsafe_to_string buf)
          ~emit
      in
      Bytes.fill buf 0 width '\xff';
      match r with Ok () -> go (pos + size) rest | Error _ as err -> err
  in
  let result = go 0 sizes in
  (List.rev !acc, result)

let feed_whole data =
  let dec = Codec.Decoder.create () in
  let acc = ref [] in
  let result =
    match Codec.Decoder.feed dec data ~emit:(fun e -> acc := e :: !acc) with
    | Ok () -> Codec.Decoder.finish dec
    | Error _ as err -> err
  in
  (List.rev !acc, result)

(* Long names put define records across many chunks; wide gaps make
   multi-byte time varints; a corruption (a truncation, a flipped byte,
   trailing junk) makes the error paths split too. *)
let gen_split_stream =
  QCheck2.Gen.(
    let* n = int_range 0 40 in
    let* pool =
      array_size (int_range 1 6)
        (map (fun k -> "n" ^ String.make k 'x') (int_range 0 300))
    in
    let* gaps =
      list_size (return n)
        (oneof [ int_range 0 40; int_range 0 (1 lsl 30) ])
    in
    let* picks = list_size (return n) (int_bound (Array.length pool - 1)) in
    let time = ref 0 in
    let trace =
      List.map2
        (fun gap i ->
          time := !time + gap;
          ev !time pool.(i))
        gaps picks
    in
    let data = Codec.encode_exn trace in
    let len = String.length data in
    let* corrupt = int_bound 3 in
    let* at = int_bound (max 0 (len - 1)) in
    let* byte = int_bound 255 in
    let data =
      match corrupt with
      | 1 -> String.sub data 0 at
      | 2 ->
          let b = Bytes.of_string data in
          Bytes.set b at (Char.chr byte);
          Bytes.to_string b
      | 3 -> data ^ String.make 1 (Char.chr byte)
      | _ -> data
    in
    let* sizes =
      oneof
        [
          return (List.init len (fun _ -> 1));
          list_size (int_range 1 40) (int_range 1 17);
          list_size (int_range 1 10) (int_range 1 64);
        ]
    in
    return (data, sizes))

let prop_reused_buffer =
  qtest ~count:500 "reused, overwritten chunk buffer = whole feed"
    gen_split_stream
    (fun (data, sizes) ->
      Printf.sprintf "%S / chunks %s" data
        (String.concat "," (List.map string_of_int sizes)))
    (fun (data, sizes) ->
      let events, result = feed_reused_buffer sizes data in
      let events', result' = feed_whole data in
      trace_equal events events'
      && (match (result, result') with
         | Ok (), Ok () -> true
         | Error a, Error b -> a = b
         | Ok (), Error b | Error b, Ok () ->
             QCheck2.Test.fail_reportf "one side failed: %s" b)
      && result'
         = Result.map (fun _ -> ()) (Codec.decode data))

let () =
  Alcotest.run "codec"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "sample" `Quick test_roundtrip;
          Alcotest.test_case "empty" `Quick test_roundtrip_empty;
          Alcotest.test_case "compactness" `Quick test_compactness;
          Alcotest.test_case "non-chronological" `Quick
            test_rejects_nonchronological;
        ] );
      ("sniff", [ Alcotest.test_case "formats" `Quick test_sniff ]);
      ( "errors",
        [
          Alcotest.test_case "decode errors" `Quick test_decode_errors;
          Alcotest.test_case "name length" `Quick test_name_length_limit;
          Alcotest.test_case "timestamp overflow" `Quick
            test_timestamp_overflow;
          Alcotest.test_case "name table cap" `Quick test_name_table_cap;
          Alcotest.test_case "sticky" `Quick test_decoder_sticky_errors;
        ] );
      ( "streaming",
        [ Alcotest.test_case "byte at a time" `Quick test_byte_at_a_time ] );
      ( "properties",
        [
          prop_roundtrip;
          prop_csv_equivalence;
          prop_chunked_decode;
          prop_reused_buffer;
        ] );
    ]
