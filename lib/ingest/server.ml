open Loseq_core
open Loseq_verif
module Obs = Loseq_obs.Metrics
module Tr = Loseq_obs.Trace

let emit_record out record =
  output_string out (Json.to_string record);
  output_char out '\n';
  flush out

let violation_fields ~name (v : Diag.violation) =
  [
    ("type", Json.String "violation");
    ("property", Json.String name);
    ("time", Json.Int v.time);
    ("index", Json.Int v.index);
    ("fragment", Json.Int v.fragment);
    ("message", Json.String (Diag.violation_to_string v));
  ]

let violation_record ~name v = Json.Obj (violation_fields ~name v)

(* The flag a signal flips; the read loop checks it between chunks
   (reads are EINTR-transparent so a signal interrupts a blocking
   read). *)
let stop_requested = ref false

let with_signals f =
  let install s = Sys.signal s (Sys.Signal_handle (fun _ -> stop_requested := true)) in
  stop_requested := false;
  let prev_term = install Sys.sigterm and prev_int = install Sys.sigint in
  (* A metrics scraper that disconnects mid-response would otherwise
     deliver SIGPIPE, whose default disposition kills the process;
     ignored, the write fails with EPIPE as a catchable Unix_error. *)
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm prev_term;
      Sys.set_signal Sys.sigint prev_int;
      Sys.set_signal Sys.sigpipe prev_pipe)
    f

(* EINTR-safe read; [None] when a stop was requested while blocked. *)
let rec read_chunk fd buf =
  match Unix.read fd buf 0 (Bytes.length buf) with
  | n -> if !stop_requested then None else Some n
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      if !stop_requested then None else read_chunk fd buf

exception Input_error of string

(* ---- input formats -----------------------------------------------------

   Both formats hand each event to [push] as a port (the front end's
   admission, bound once per name) and a timestamp.  LSQB is parsed in
   the read buffer and maps wire ids to ports in an array filled on
   each define record, so an event costs no name lookup at all; CSV
   looks the port up once per line. *)

type binary = {
  dec : Codec.Decoder.t;
  define : int -> Name.t -> unit;
  event : int -> int -> unit;
}

(* The wire-id -> port array grows with the define records, so the
   decoder's name-table cap bounds it too. *)
let binary ~port ~push =
  let ports = ref [||] in
  let define id name =
    if id >= Array.length !ports then begin
      let grown = Array.make (max 16 (2 * id)) ignore in
      Array.blit !ports 0 grown 0 id;
      ports := grown
    end;
    !ports.(id) <- port name
  in
  let event id time = push !ports.(id) time in
  { dec = Codec.Decoder.create (); define; event }

type csv_state = {
  mutable partial : string;
  mutable lineno : int;
  ports : (Name.t, int -> unit) Hashtbl.t;
}

let csv_state partial = { partial; lineno = 0; ports = Hashtbl.create 16 }

(* A CSV stream may name without bound: past the LSQB name-table cap,
   ports are bound afresh instead of kept. *)
let csv_port st ~port name =
  match Hashtbl.find st.ports name with
  | p -> p
  | exception Not_found ->
      let p = port name in
      if Hashtbl.length st.ports < Codec.max_names then
        Hashtbl.add st.ports name p;
      p

type parser_state =
  | Sniffing of Buffer.t
  | Binary of binary
  | Csv of csv_state

let rec newline s i limit =
  if i >= limit then -1
  else if String.unsafe_get s i = '\n' then i
  else newline s (i + 1) limit

let feed_csv st s off len ~port ~push =
  let limit = off + len in
  let line text =
    st.lineno <- st.lineno + 1;
    match Trace_io.parse_csv_line ~lineno:st.lineno text with
    | Ok (Some (e : Trace.event)) -> push (csv_port st ~port e.name) e.time
    | Ok None -> ()
    | Error msg -> raise (Input_error msg)
  in
  let rec split from =
    let nl = newline s from limit in
    if nl < 0 then st.partial <- String.sub s from (limit - from)
    else begin
      line (String.sub s from (nl - from));
      split (nl + 1)
    end
  in
  if st.partial = "" then split off
  else
    let nl = newline s off limit in
    if nl < 0 then st.partial <- st.partial ^ String.sub s off len
    else begin
      let head = st.partial ^ String.sub s off (nl - off) in
      st.partial <- "";
      line head;
      split (nl + 1)
    end

let feed_binary b s off len =
  match
    Codec.Decoder.feed_ids b.dec ~off ~len s ~define:b.define ~event:b.event
  with
  | Ok () -> ()
  | Error msg -> raise (Input_error msg)

(* Route one chunk; the first chunk(s) resolve the format (binary iff
   the stream starts with the LSQB magic). *)
let rec feed_chunk state s off len ~port ~push =
  match !state with
  | Binary b -> feed_binary b s off len
  | Csv st -> feed_csv st s off len ~port ~push
  | Sniffing buf ->
      Buffer.add_substring buf s off len;
      let data = Buffer.contents buf in
      let whole () =
        feed_chunk state data 0 (String.length data) ~port ~push
      in
      if String.length data < String.length Codec.magic then begin
        if not (Codec.looks_binary data) then begin
          state := Csv (csv_state "");
          whole ()
        end
        (* else: still ambiguous, keep sniffing *)
      end
      else if Codec.looks_binary data then begin
        state := Binary (binary ~port ~push);
        whole ()
      end
      else begin
        state := Csv (csv_state "");
        whole ()
      end

let finish_input state ~port ~push =
  match !state with
  | Binary b -> (
      match Codec.Decoder.finish b.dec with
      | Ok () -> ()
      | Error msg -> raise (Input_error msg))
  | Csv st -> if st.partial <> "" then feed_csv st "\n" 0 1 ~port ~push
  | Sniffing buf ->
      let data = Buffer.contents buf in
      if data <> "" then
        if Codec.looks_binary data then
          raise (Input_error "truncated stream: incomplete header")
        else begin
          let st = csv_state data in
          state := Csv st;
          feed_csv st "\n" 0 1 ~port ~push
        end

(* Consult the suite's lateness-robustness certificate before any event
   flows.  Skipped entirely on the default in-order path (lateness 0,
   no --strict-reorder) so plain serving pays nothing; otherwise a
   [reorder-certificate] record states what the configured window is
   certified for, and under strict mode an uncertified window refuses
   to start.  [cert_thunk] defers the (possibly budgeted) analysis to
   when it is actually consulted. *)
let reorder_gate ~lateness ~strict_reorder ~out cert_thunk =
  if lateness = 0 && not strict_reorder then Ok ()
  else begin
    let cert : Loseq_analysis.Robust.certificate = cert_thunk () in
    let robust =
      Loseq_analysis.Robust.(compare_bound cert.bound (Finite lateness) >= 0)
    in
    emit_record out
      (Json.Obj
         [
           ("type", Json.String "reorder-certificate");
           ("lateness", Json.Int lateness);
           ( "certified",
             Json.String
               (Loseq_analysis.Robust.bound_to_string
                  cert.Loseq_analysis.Robust.bound) );
           ("decided", Json.Bool cert.Loseq_analysis.Robust.decided);
           ("robust", Json.Bool robust);
         ]);
    if robust || not strict_reorder then Ok ()
    else
      Error
        (Printf.sprintf
           "suite certified for lateness <= %s but hosted with lateness \
            %d; refusing under --strict-reorder"
           (Loseq_analysis.Robust.bound_to_string
              cert.Loseq_analysis.Robust.bound)
           lateness)
  end

(* ---- the metrics endpoint ---------------------------------------------- *)

(* A deliberately minimal HTTP/1.1 responder: GET only, one request per
   connection, [Connection: close].  Enough for a Prometheus scraper or
   a curl.  The connection runs inline in the serve loop, so both
   directions carry short socket timeouts: a client that trickles its
   request or refuses to drain the response stalls ingestion for at
   most a few hundred milliseconds before the connection is cut. *)

let http_io_timeout = 0.25

let http_listen ~host ~port =
  let addr =
    if host = "" || host = "*" then Unix.inet_addr_any
    else
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        match Unix.gethostbyname host with
        | exception Not_found ->
            raise (Input_error (Printf.sprintf "unknown host %S" host))
        | { Unix.h_addr_list = [||]; _ } ->
            raise (Input_error (Printf.sprintf "unknown host %S" host))
        | h -> h.Unix.h_addr_list.(0))
  in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (addr, port));
  Unix.listen sock 16;
  sock

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

let http_respond conn ~status ~content_type body =
  let response =
    Printf.sprintf
      "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
       Connection: close\r\n\r\n%s"
      status content_type (String.length body) body
  in
  let rec write off remaining =
    if remaining > 0 then begin
      let w = Unix.write_substring conn response off remaining in
      write (off + w) (remaining - w)
    end
  in
  write 0 (String.length response)

let http_serve_one listener metrics =
  let conn, _ = Unix.accept listener in
  Fun.protect
    ~finally:(fun () -> try Unix.close conn with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.setsockopt_float conn Unix.SO_RCVTIMEO http_io_timeout;
  Unix.setsockopt_float conn Unix.SO_SNDTIMEO http_io_timeout;
  let buf = Bytes.create 4096 in
  let data = Buffer.create 256 in
  let rec read_request () =
    if Buffer.length data > 65536 then ()
    else
      match Unix.read conn buf 0 (Bytes.length buf) with
      | 0 -> ()
      | n ->
          Buffer.add_subbytes data buf 0 n;
          if not (contains (Buffer.contents data) "\r\n\r\n") then
            read_request ()
      | exception
          Unix.Unix_error
            ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNRESET), _, _)
        ->
          ()
  in
  read_request ();
  let request = Buffer.contents data in
  let first_line =
    match String.index_opt request '\r' with
    | Some i -> String.sub request 0 i
    | None -> request
  in
  let path =
    match String.split_on_char ' ' first_line with
    | [ "GET"; target; _ ] -> (
        match String.index_opt target '?' with
        | Some q -> Some (String.sub target 0 q)
        | None -> Some target)
    | _ -> None
  in
  try
    match path with
    | Some "/metrics" ->
        http_respond conn ~status:"200 OK"
          ~content_type:"text/plain; version=0.0.4; charset=utf-8"
          (Loseq_obs.Expo.prometheus metrics)
    | Some "/stats.json" ->
        http_respond conn ~status:"200 OK" ~content_type:"application/json"
          (Loseq_obs.Expo.json metrics)
    | Some _ ->
        http_respond conn ~status:"404 Not Found" ~content_type:"text/plain"
          "not found: try /metrics or /stats.json\n"
    | None ->
        http_respond conn ~status:"400 Bad Request" ~content_type:"text/plain"
          "bad request\n"
  with Unix.Unix_error _ -> ()

(* ---- server-level instruments ------------------------------------------ *)

type server_obs = {
  bytes_in : Obs.counter;
  records : Obs.counter;
  sessions : Obs.gauge;
  pass : Obs.counter;
  fail : Obs.counter;
  ckpt : Obs.counter;
}

let make_server_obs metrics =
  if not (Obs.is_live metrics) then None
  else
    let verdicts v =
      Obs.counter metrics ~name:"loseq_verdicts_total"
        ~help:"Final property verdicts, by outcome"
        ~labels:[ ("verdict", v) ] ()
    in
    Some
      {
        bytes_in =
          Obs.counter metrics ~name:"loseq_bytes_in_total"
            ~help:"Raw trace bytes read from the input" ();
        records =
          Obs.counter metrics ~name:"loseq_records_decoded_total"
            ~help:"Trace records decoded from the input stream" ();
        sessions =
          Obs.gauge metrics ~name:"loseq_sessions_live"
            ~help:"Monitor sessions currently hosted (0 or 1)" ();
        pass = verdicts "pass";
        fail = verdicts "fail";
        ckpt =
          Obs.counter metrics ~name:"loseq_checkpoint_writes_total"
            ~help:"Checkpoint files written" ();
      }

(* ---- input and endpoint plumbing --------------------------------------- *)

let open_input = function
  | `Stdin -> (Unix.stdin, None)
  | `Socket path ->
      if Sys.file_exists path then Sys.remove path;
      let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind listener (Unix.ADDR_UNIX path);
      Unix.listen listener 1;
      let conn, _ = Unix.accept listener in
      Unix.close listener;
      (conn, Some (fun () -> Unix.close conn; if Sys.file_exists path then Sys.remove path))

(* The serve loop's plumbing: an optional HTTP metrics endpoint
   multiplexed into the read loop, a chunked input pump, and a
   post-summary linger that keeps the endpoint answering until
   SIGTERM. *)

let with_http ~out ~metrics_addr f =
  let http =
    match metrics_addr with
    | None -> None
    | Some (host, port) ->
        let listener = http_listen ~host ~port in
        (* Report the bound address: with port 0 the kernel picks
           an ephemeral port, and a scraper (or CI) learns it from
           this record rather than guessing. *)
        let bound_host, bound_port =
          match Unix.getsockname listener with
          | Unix.ADDR_INET (a, p) -> (Unix.string_of_inet_addr a, p)
          | _ -> (host, port)
        in
        emit_record out
          (Json.Obj
             [
               ("type", Json.String "metrics-listening");
               ( "addr",
                 Json.String (Printf.sprintf "%s:%d" bound_host bound_port) );
               ("port", Json.Int bound_port);
             ]);
        Some listener
  in
  Fun.protect
    ~finally:(fun () ->
      match http with
      | Some l -> ( try Unix.close l with Unix.Unix_error _ -> ())
      | None -> ())
  @@ fun () -> f http

let handle_http listener metrics =
  try http_serve_one listener metrics with Unix.Unix_error _ -> ()

(* Pump chunks from [fd] into [consume] until end of stream or a
   requested stop.  [consume buf n] sees the read buffer itself, valid
   up to [n] and overwritten by the next read.  With an endpoint, multiplex: the input stream and
   the HTTP listener share one select, so a scrape is answered between
   chunks without threads. *)
let stream_loop ~fd ~metrics ~consume http =
  let buf = Bytes.create 65536 in
  let rec plain_loop () =
    match read_chunk fd buf with
    | None -> `Interrupted
    | Some 0 -> `Eof
    | Some n ->
        consume buf n;
        if !stop_requested then `Interrupted else plain_loop ()
  in
  let rec select_loop listener =
    if !stop_requested then `Interrupted
    else
      match Unix.select [ fd; listener ] [] [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) ->
          if !stop_requested then `Interrupted else select_loop listener
      | readable, _, _ -> (
          if List.memq listener readable then handle_http listener metrics;
          if not (List.memq fd readable) then
            if !stop_requested then `Interrupted else select_loop listener
          else
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> `Eof
            | n ->
                consume buf n;
                if !stop_requested then `Interrupted else select_loop listener
            | exception Unix.Unix_error (Unix.EINTR, _, _) ->
                if !stop_requested then `Interrupted else select_loop listener)
  in
  match http with
  | None -> plain_loop ()
  | Some listener -> select_loop listener

(* Keep the endpoint up after end of stream so a scraper can still
   collect the final counters; SIGTERM/SIGINT ends the linger (and the
   verdict-borne exit code survives it). *)
let linger ~metrics http =
  match http with
  | Some listener when not !stop_requested ->
      let rec go () =
        if not !stop_requested then
          match Unix.select [ listener ] [] [] (-1.0) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | [], _, _ -> go ()
          | _ :: _, _, _ ->
              handle_http listener metrics;
              go ()
      in
      go ()
  | _ -> ()

let default_metrics ~metrics ~metrics_addr ~stats_interval ~profile_out =
  match metrics with
  | Some m -> m
  | None ->
      (* an exposition surface with nothing behind it is useless, so
         asking for one implies a live registry; likewise a profile
         artifact, whose dispatch histogram lives in the registry *)
      if metrics_addr <> None || stats_interval > 0 || profile_out <> None
      then Obs.create ()
      else Obs.noop

let error_record out msg =
  emit_record out
    (Json.Obj [ ("type", Json.String "error"); ("message", Json.String msg) ]);
  2

(* ---- flight-recorder artifacts ------------------------------------------ *)

let write_file path data =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  output_string oc data

(* Export format by extension: [.ndjson] gets the line-oriented record
   dump, anything else the Chrome trace-event JSON Perfetto loads. *)
let write_trace_artifact ~out trace path =
  let ndjson = Filename.check_suffix path ".ndjson" in
  write_file path (if ndjson then Tr.to_ndjson trace else Tr.to_chrome trace);
  emit_record out
    (Json.Obj
       [
         ("type", Json.String "trace");
         ("path", Json.String path);
         ("format", Json.String (if ndjson then "ndjson" else "chrome"));
         ("records", Json.Int (Tr.length trace));
         ("dropped", Json.Int (Tr.dropped trace));
       ])

let write_profile_artifact ~out ~metrics ~checkers path =
  write_file path (Loseq_obs.Profile.render ~metrics ~checkers ());
  emit_record out
    (Json.Obj
       [
         ("type", Json.String "profile");
         ("path", Json.String path);
         ("checkers", Json.Int (List.length checkers));
       ])

(* Written on BOTH exits — end of stream and interruption — so a
   monitor cut down by SIGTERM still leaves its artifacts behind. *)
let write_artifacts ~out ~metrics ~trace ~trace_out ~profile_out ~checkers =
  (match trace_out with
  | Some path when Tr.is_live trace -> write_trace_artifact ~out trace path
  | Some _ | None -> ());
  match profile_out with
  | Some path -> write_profile_artifact ~out ~metrics ~checkers path
  | None -> ()

(* The minimal causal chain behind a failed verdict, attached to its
   NDJSON record: the frozen provenance ring, delta-debugged down to
   1-minimality against the entry's own pattern. *)
let provenance_field ~prov ~final_time ~pattern_of name passed =
  if passed then []
  else
    match pattern_of name with
    | None -> []
    | Some pattern ->
        let chain =
          Provenance.minimize ~final_time ~label:name pattern
            (Provenance.captured prov name)
        in
        [
          ( "provenance",
            Provenance.chain_json
              ?violation:(Provenance.violation_of prov name)
              chain );
        ]

let ill_formed p errs =
  Format.asprintf "ill-formed pattern %a:@ %a" Pattern.pp p
    (Format.pp_print_list Wellformed.pp_error)
    errs

(* ---- admission front ends ----------------------------------------------

   One serve loop reads, decodes and reports; the front end decides
   what an admitted event does.  The buffered front end offers it to a
   {!Session} — reorder buffer, checkpoints, resume.  The speculative
   one ([--ooo]) applies it on arrival through {!Loseq_ooo.Engine} and
   repairs by rollback when a late one lands.  The wire protocol is the
   same — start, violations, verdicts, summary, the same exit codes;
   speculative runs add the violation records' ["speculative"] flag and
   the [retracted]/[settled] records, and their final verdict records
   are byte-identical to the buffered mode's. *)

type front = {
  lateness : int;
  certificate : unit -> Loseq_analysis.Robust.certificate;
  prov : Provenance.t;
  skip : int;  (* leading stream events a resumed session already holds *)
  start : (string * Json.t) list;  (* mode members of the start record *)
  port : Name.t -> int -> unit;
      (* [port name] binds admission for [name] once per stream; the
         bound function admits one event at the given time *)
  position : unit -> int;  (* the stats and checkpoint clock *)
  counters : unit -> (string * Json.t) list;  (* stats record members *)
  checkpoint : string -> (int, string) result;
  finish : unit -> (string * Backend.verdict) list * string list * int;
      (* end of stream: verdicts, their renderings, the final time *)
  summary : unit -> (string * Json.t) list;
      (* summary record members after ["passed"] *)
}

let buffered ~metrics ~trace ~lateness ~window ~resume_from
    ?latency_sample_rate ?final_time ~out suite =
  let session_result =
    match resume_from with
    | Some path ->
        Checkpoint.resume ~metrics ~trace ?latency_sample_rate ~path suite
    | None -> (
        match
          Session.create ~metrics ~trace ?latency_sample_rate ~lateness
            ~window suite
        with
        | s -> Ok s
        | exception Wellformed.Ill_formed (p, errs) ->
            Error (ill_formed p errs))
  in
  Result.map
    (fun session ->
      (* Always-on verdict provenance: tap-level capture is one bounded
         ring push per alphabet event, and pays for itself the first
         time a Fail needs explaining. *)
      let prov = Provenance.create (Hub.tap (Session.hub session)) suite in
      Session.on_violation session (fun ~name v ->
          Provenance.note_violation prov ~label:name v;
          emit_record out (violation_record ~name v));
      let skip = Session.position session in
      let counters () =
        let s = Session.stats session in
        let r = Reorder.stats (Session.reorder session) in
        [
          ("events", Json.Int s.accepted);
          ("delivered", Json.Int s.delivered);
          ("reordered", Json.Int s.reordered);
          ("dropped_late", Json.Int s.dropped_late);
          ("forced", Json.Int s.forced);
          ("occupancy", Json.Int r.Reorder.occupancy);
          ("watermark", Json.Int r.Reorder.watermark);
        ]
      in
      {
        lateness = Session.lateness session;
        certificate = (fun () -> Session.reorder_certificate session);
        prov;
        skip;
        start =
          [
            ("resumed", Json.Bool (resume_from <> None));
            ("skip", Json.Int skip);
          ];
        port = Session.port session;
        position = (fun () -> Session.position session);
        counters;
        checkpoint = (fun path -> Checkpoint.save ~path session);
        finish =
          (fun () ->
            let report = Session.finalize ?final_time session in
            ( Report.summary report,
              List.map snd (Report.summary_strings report),
              Session.now session ));
        summary =
          (fun () ->
            counters ()
            @ [
                ( "max_seen",
                  Json.Int (Reorder.max_seen (Session.reorder session)) );
              ]);
      })
    session_result

module Engine = Loseq_ooo.Engine

let not_checkpointable =
  "speculative state (journal, snapshots, unsettled verdicts) is not \
   checkpointable"

let speculative ~metrics ~trace ~lateness ?final_time ~out suite =
  let rendered v = Format.asprintf "%a" Backend.pp_verdict v in
  (* The speculative engine routes no tap, so the provenance recorder
     is detached and fed from the arrival stream; retractions unfreeze
     the ring again. *)
  let prov = Provenance.create_detached suite in
  let notice = function
    | Engine.Violation { label; violation; settled; _ } ->
        Provenance.note_violation prov ~label violation;
        emit_record out
          (Json.Obj
             (violation_fields ~name:label violation
             @ [ ("speculative", Json.Bool (not settled)) ]))
    | Engine.Retracted { label; _ } ->
        Provenance.clear_violation prov ~label;
        emit_record out
          (Json.Obj
             [
               ("type", Json.String "retracted");
               ("property", Json.String label);
             ])
    | Engine.Settled { label; verdict; _ } ->
        emit_record out
          (Json.Obj
             [
               ("type", Json.String "settled");
               ("property", Json.String label);
               ("passed", Json.Bool (Backend.passed verdict));
               ("verdict", Json.String (rendered verdict));
             ])
  in
  match
    Engine.create
      ?metrics:(if Obs.is_live metrics then Some metrics else None)
      ~trace ~notice ~lateness (Suite.entries_of suite)
  with
  | exception Wellformed.Ill_formed (p, errs) -> Error (ill_formed p errs)
  | exception Invalid_argument msg -> Error msg
  | engine ->
      let admitted = ref 0 in
      let counters () =
        let s = Engine.stats engine in
        [
          ("events", Json.Int !admitted);
          ("applied", Json.Int s.Engine.applied);
          ("late", Json.Int s.Engine.late);
          ("commute_hits", Json.Int s.Engine.commute_hits);
          ("rollbacks", Json.Int s.Engine.rollbacks);
          ("replayed", Json.Int s.Engine.replayed);
          ("dropped_late", Json.Int s.Engine.dropped_late);
        ]
      in
      Ok
        {
          lateness;
          certificate = (fun () -> Engine.certificate engine);
          prov;
          skip = 0;
          start =
            [
              ("mode", Json.String "speculative");
              ("lateness", Json.Int lateness);
            ];
          port =
            (fun name time ->
              incr admitted;
              (* Ring first, offer second: a violation the offer raises
                 synchronously must find its deciding event captured. *)
              Provenance.record prov ~time name;
              ignore (Engine.offer engine { Trace.name; time }));
          position = (fun () -> !admitted);
          counters =
            (fun () ->
              counters ()
              @ [
                  ("journal_depth", Json.Int (Engine.journal_depth engine));
                  ("watermark", Json.Int (Engine.watermark engine));
                  ( "settled",
                    Json.Int (Engine.stats engine).Engine.settled_events );
                ]);
          checkpoint = (fun _ -> Error not_checkpointable);
          finish =
            (fun () ->
              Engine.finalize ?final_time engine;
              ( Engine.report engine,
                Engine.report_strings engine,
                max 0
                  (max (Engine.max_seen engine)
                     (Option.value final_time ~default:0)) ));
          summary =
            (fun () ->
              let s = Engine.stats engine in
              counters ()
              @ [
                  ("snapshots", Json.Int s.Engine.snapshots);
                  ("max_journal", Json.Int s.Engine.max_journal);
                  ("watermark", Json.Int (Engine.watermark engine));
                ]);
        }

(* ---- the serve loop ----------------------------------------------------- *)

let run ~metrics ~metrics_addr ~stats_interval ?checkpoint ~checkpoint_every
    ~strict_reorder ~trace ~trace_out ~profile_out ~out ~input suite front =
  let error msg = error_record out msg in
  match
    reorder_gate ~lateness:front.lateness ~strict_reorder ~out
      front.certificate
  with
  | Error msg -> error msg
  | Ok () -> (
      let srv_obs = make_server_obs metrics in
      let pattern_of name =
        List.find_map
          (fun (e : Suite.entry) ->
            if String.equal e.label name then Some e.pattern else None)
          suite
      in
      (* Server-track flight-recorder categories: the admission span
         around each input chunk and the checkpoint-write span. *)
      let trc =
        if Tr.is_live trace then
          Some
            ( Tr.intern trace ~track:"ingest" "admit",
              Tr.intern trace ~track:"ingest" "checkpoint" )
        else None
      in
      let save_checkpoint () =
        match checkpoint with
        | None -> Ok ()
        | Some path -> (
            (match trc with
            | Some (_, ckpt) -> Tr.emit trace ckpt Tr.Span_begin 0
            | None -> ());
            match front.checkpoint path with
            | Ok bytes ->
                (match trc with
                | Some (_, ckpt) -> Tr.emit trace ckpt Tr.Span_end bytes
                | None -> ());
                (match srv_obs with Some o -> Obs.incr o.ckpt | None -> ());
                emit_record out
                  (Json.Obj
                     [
                       ("type", Json.String "checkpoint");
                       ("path", Json.String path);
                       ("events", Json.Int (front.position ()));
                       ("bytes", Json.Int bytes);
                     ]);
                Ok ()
            | Error _ as err ->
                (match trc with
                | Some (_, ckpt) -> Tr.emit trace ckpt Tr.Span_end 0
                | None -> ());
                err)
      in
      let offered = ref 0 in
      let push port time =
        incr offered;
        (match srv_obs with Some o -> Obs.incr o.records | None -> ());
        if !offered > front.skip then begin
          port time;
          let pos = front.position () in
          if checkpoint_every > 0 && pos mod checkpoint_every = 0 then
            (match save_checkpoint () with
            | Ok () -> ()
            | Error msg -> raise (Input_error msg));
          if stats_interval > 0 && pos mod stats_interval = 0 then
            emit_record out
              (Json.Obj (("type", Json.String "stats") :: front.counters ()))
        end
      in
      let artifacts () =
        write_artifacts ~out ~metrics ~trace ~trace_out ~profile_out
          ~checkers:(Provenance.seen front.prov)
      in
      match
        with_signals @@ fun () ->
        with_http ~out ~metrics_addr @@ fun http ->
        let fd, cleanup = open_input input in
        Fun.protect ~finally:(fun () -> Option.iter (fun f -> f ()) cleanup)
        @@ fun () ->
        (match srv_obs with Some o -> Obs.set o.sessions 1 | None -> ());
        emit_record out
          (Json.Obj
             (("type", Json.String "start")
             :: ("properties", Json.Int (List.length suite))
             :: front.start));
        let state = ref (Sniffing (Buffer.create 8)) in
        (* The decoder keeps no reference to the buffer it parses, so
           the read buffer is handed over as is; CSV and sniffing copy
           what they keep. *)
        let consume buf n =
          (match srv_obs with Some o -> Obs.add o.bytes_in n | None -> ());
          let chunk = Bytes.unsafe_to_string buf in
          match trc with
          | None -> feed_chunk state chunk 0 n ~port:front.port ~push
          | Some (admit, _) ->
              Tr.emit trace admit Tr.Span_begin 0;
              feed_chunk state chunk 0 n ~port:front.port ~push;
              Tr.emit trace admit Tr.Span_end n
        in
        match stream_loop ~fd ~metrics ~consume http with
        | `Interrupted -> `Interrupted
        | `Eof ->
            finish_input state ~port:front.port ~push;
            let verdicts, rendered, ft = front.finish () in
            List.iter2
              (fun (name, verdict) rendered_v ->
                let passed = Backend.passed verdict in
                (match srv_obs with
                | Some o -> Obs.incr (if passed then o.pass else o.fail)
                | None -> ());
                emit_record out
                  (Json.Obj
                     ([
                        ("type", Json.String "verdict");
                        ("property", Json.String name);
                        ("passed", Json.Bool passed);
                        ("verdict", Json.String rendered_v);
                      ]
                     @ provenance_field ~prov:front.prov ~final_time:ft
                         ~pattern_of name passed)))
              verdicts rendered;
            let passed =
              List.for_all (fun (_, v) -> Backend.passed v) verdicts
            in
            (match srv_obs with Some o -> Obs.set o.sessions 0 | None -> ());
            emit_record out
              (Json.Obj
                 (("type", Json.String "summary")
                 :: ("passed", Json.Bool passed)
                 :: front.summary ()));
            artifacts ();
            linger ~metrics http;
            `Done (if passed then 0 else 1)
      with
      | exception Input_error msg -> error msg
      | exception Unix.Unix_error (e, fn, arg) ->
          error
            (Printf.sprintf "%s%s: %s" fn
               (if arg = "" then "" else " " ^ arg)
               (Unix.error_message e))
      | `Interrupted -> (
          match save_checkpoint () with
          | Error msg -> error msg
          | Ok () ->
              emit_record out
                (Json.Obj
                   [
                     ("type", Json.String "interrupted");
                     ("events", Json.Int (front.position ()));
                   ]);
              artifacts ();
              0)
      | `Done code -> code)

let serve ?metrics ?metrics_addr ?(stats_interval = 0) ?(lateness = 0)
    ?(window = 1024) ?checkpoint ?(checkpoint_every = 0) ?(resume = false)
    ?(strict_reorder = false) ?(ooo = false) ?final_time ?trace_out
    ?profile_out ?latency_sample_rate ?(out = stdout) ~input suite =
  let metrics =
    default_metrics ~metrics ~metrics_addr ~stats_interval ~profile_out
  in
  (* The flight recorder exists exactly when someone will read it: the
     noop ring keeps every instrumented hot path on its one-branch
     fast path. *)
  let trace = if trace_out <> None then Tr.create () else Tr.noop in
  let front =
    if ooo then
      if checkpoint <> None || resume then
        Error
          ("--ooo does not support --checkpoint/--resume: "
         ^ not_checkpointable)
      else speculative ~metrics ~trace ~lateness ?final_time ~out suite
    else
      let resume_from =
        match checkpoint with
        | Some path when resume && Sys.file_exists path -> Some path
        | Some _ | None -> None
      in
      buffered ~metrics ~trace ~lateness ~window ~resume_from
        ?latency_sample_rate ?final_time ~out suite
  in
  match front with
  | Error msg -> error_record out msg
  | Ok front ->
      run ~metrics ~metrics_addr ~stats_interval ?checkpoint ~checkpoint_every
        ~strict_reorder ~trace ~trace_out ~profile_out ~out ~input suite front

(* ---- the producer side ------------------------------------------------- *)

let feed ?(timeout = 5.0) ~path ic =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec connect () =
    match Unix.connect sock (Unix.ADDR_UNIX path) with
    | () -> Ok ()
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
        ignore (Unix.select [] [] [] 0.05);
        connect ()
    | exception Unix.Unix_error (e, _, _) ->
        Error (Printf.sprintf "connect %s: %s" path (Unix.error_message e))
  in
  match connect () with
  | Error _ as err ->
      Unix.close sock;
      err
  | Ok () -> (
      let buf = Bytes.create 65536 in
      let rec copy total =
        match input ic buf 0 (Bytes.length buf) with
        | 0 -> Ok total
        | n ->
            let rec write off remaining =
              if remaining > 0 then begin
                let w = Unix.write sock buf off remaining in
                write (off + w) (remaining - w)
              end
            in
            write 0 n;
            copy (total + n)
      in
      match copy 0 with
      | result ->
          Unix.close sock;
          result
      | exception Unix.Unix_error (e, _, _) ->
          Unix.close sock;
          Error (Printf.sprintf "write %s: %s" path (Unix.error_message e)))
