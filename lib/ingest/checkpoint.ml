open Loseq_core
open Loseq_verif

let format_name = "loseq-checkpoint"

(* Version 2, the one written: the suite engine's state as one base64
   blob plus the interning table that pins its layout — capture cost
   does not scale with checker count.  Version 1 (one persisted JSON
   state per checker, written by per-checker hosting in earlier
   releases) is still read: each state is imported into its slot of
   the engine. *)
let format_version = 2
let v1_format_version = 1

(* ---- capture ----------------------------------------------------------- *)

let json_of_event (e : Trace.event) =
  Json.Obj
    [ ("name", Json.String (Name.to_string e.name)); ("time", Json.Int e.time) ]

let capture session =
  let stats = Session.stats session in
  let reorder = Session.reorder session in
  let eng = Session.engine session in
  Json.Obj
    [
      ("format", Json.String format_name);
      ("version", Json.Int format_version);
      ("suite", Json.String (Suite.to_string (Session.suite session)));
      ("lateness", Json.Int (Session.lateness session));
      ("window", Json.Int (Session.window session));
      ( "position",
        Json.Obj
          [
            ("accepted", Json.Int stats.accepted);
            ("delivered", Json.Int stats.delivered);
            ("forced", Json.Int stats.forced);
            ("now", Json.Int (Session.now session));
          ] );
      ( "reorder",
        Json.Obj
          [
            ("max_seen", Json.Int (Reorder.max_seen reorder));
            ("released", Json.Int (Reorder.released reorder));
            ("dropped_late", Json.Int (Reorder.dropped_late reorder));
            ("reordered", Json.Int (Reorder.reordered reorder));
            ( "pending",
              Json.List (List.map json_of_event (Reorder.pending reorder)) );
          ] );
      ("engine", Json.String "flat");
      ("blob_version", Json.Int Flat.blob_version);
      ( "names",
        Json.List
          (Array.to_list
             (Array.map
                (fun n -> Json.String (Name.to_string n))
                (Flat.names eng))) );
      ("blob", Json.String (B64.encode (Flat.save_blob eng)));
      (* [events_seen] is checker bookkeeping, not engine state, so it
         rides alongside the blob *)
      ( "checkers",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("name", Json.String (Checker.name c));
                   ("events_seen", Json.Int (Checker.events_seen c));
                 ])
             (Hub.checkers (Session.hub session))) );
    ]

(* ---- restore ----------------------------------------------------------- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt

let member_exn key json =
  match Json.member key json with
  | Some v -> v
  | None -> bad "checkpoint: missing field %S" key

let int_exn key json =
  match member_exn key json with
  | Json.Int n -> n
  | _ -> bad "checkpoint: field %S is not an integer" key

let bool_exn key json =
  match member_exn key json with
  | Json.Bool b -> b
  | _ -> bad "checkpoint: field %S is not a boolean" key

let string_exn key json =
  match member_exn key json with
  | Json.String s -> s
  | _ -> bad "checkpoint: field %S is not a string" key

let list_exn key json =
  match member_exn key json with
  | Json.List l -> l
  | _ -> bad "checkpoint: field %S is not a list" key

let range_of_json json =
  let name = Name.v (string_exn "name" json) in
  let lo = int_exn "lo" json and hi = int_exn "hi" json in
  match Pattern.range ~lo ~hi name with
  | r -> r
  | exception Invalid_argument msg -> bad "checkpoint: bad range: %s" msg

let reason_of_json json : Diag.reason =
  match string_exn "tag" json with
  | "before_name" -> Diag.Before_name
  | "after_name" -> After_name
  | "overflow" -> Overflow (range_of_json (member_exn "range" json))
  | "underflow" -> Underflow (range_of_json (member_exn "range" json))
  | "reentered" -> Reentered (range_of_json (member_exn "range" json))
  | "missing" -> Missing (range_of_json (member_exn "range" json))
  | "empty_fragment" -> Empty_fragment
  | "trigger_early" -> Trigger_early
  | "deadline_miss" ->
      Deadline_miss
        {
          started = int_exn "started" json;
          deadline = int_exn "deadline" json;
          now = int_exn "now" json;
        }
  | "late_conclusion" ->
      Late_conclusion
        { deadline = int_exn "deadline" json; at = int_exn "at" json }
  | "foreign" -> Foreign (Name.v (string_exn "name" json))
  | "formula_falsified" -> Formula_falsified
  | tag -> bad "checkpoint: unknown violation reason tag %S" tag

let verdict_of_json json : Compiled.verdict =
  match string_exn "status" json with
  | "running" -> Compiled.Running
  | "satisfied" -> Satisfied
  | "violated" ->
      Violated
        {
          reason = reason_of_json (member_exn "reason" json);
          time = int_exn "time" json;
          index = int_exn "index" json;
        }
  | status -> bad "checkpoint: unknown verdict status %S" status

let rec_state_of_json json : Compiled.rec_state =
  match json with
  | Json.String "idle" -> Compiled.Idle
  | Json.String "waiting" -> Waiting
  | Json.String "started" -> Started
  | Json.String "done" -> Done
  | Json.Obj _ -> Counting (int_exn "counting" json)
  | _ -> bad "checkpoint: malformed recognizer state"

let persisted_of_json json : Compiled.persisted =
  {
    p_recs =
      Array.of_list (List.map rec_state_of_json (list_exn "recs" json));
    p_active = int_exn "active" json;
    p_index = int_exn "index" json;
    p_started = int_exn "started" json;
    p_q_done = bool_exn "q_done" json;
    p_rounds = int_exn "rounds" json;
    p_verdict = verdict_of_json (member_exn "verdict" json);
  }

let event_of_json json : Trace.event =
  { name = Name.v (string_exn "name" json); time = int_exn "time" json }

(* The engine slot of a checkpoint's checker record, by suite label. *)
let checker_index eng name =
  let rec find ck =
    if ck = Flat.size eng then
      bad "checkpoint names checker %S, not in this suite" name
    else if Flat.label eng ck = name then ck
    else find (ck + 1)
  in
  find 0

(* v1 import: one persisted JSON state per checker, each written into
   its slot of the suite engine. *)
let restore_checkers_v1 session json =
  let eng = Session.engine session in
  let checkers = Array.of_list (Hub.checkers (Session.hub session)) in
  List.iter
    (fun cj ->
      let name = string_exn "name" cj in
      let ck = checker_index eng name in
      (match
         Flat.restore_checker eng ck (persisted_of_json (member_exn "state" cj))
       with
      | () -> ()
      | exception Invalid_argument msg ->
          bad "checker %S: state does not fit its monitor: %s" name msg);
      Checker.restore_meta checkers.(ck)
        ~events_seen:(int_exn "events_seen" cj))
    (list_exn "checkers" json)

(* v2 body: the blob loads straight into the session's engine once its
   interning table matches. *)
let restore_checkers_v2 session json =
  (match string_exn "engine" json with
  | "flat" -> ()
  | e -> bad "checkpoint engine %S is not supported (expected \"flat\")" e);
  (match int_exn "blob_version" json with
  | v when v = Flat.blob_version -> ()
  | v ->
      bad "unsupported flat blob version %d (expected %d)" v Flat.blob_version);
  let blob =
    match B64.decode (string_exn "blob" json) with
    | Ok b -> b
    | Error msg -> bad "checkpoint blob: %s" msg
  in
  let stored_names =
    List.map
      (function
        | Json.String s -> s
        | _ -> bad "checkpoint: field \"names\" must hold strings")
      (list_exn "names" json)
  in
  let events_seen =
    List.map
      (fun cj -> (string_exn "name" cj, int_exn "events_seen" cj))
      (list_exn "checkers" json)
  in
  let eng = Session.engine session in
  if stored_names <> Array.to_list (Array.map Name.to_string (Flat.names eng))
  then bad "checkpoint interning table does not match this suite's alphabet";
  (match Flat.load_blob eng blob with
  | Ok () -> ()
  | Error msg -> bad "%s" msg);
  List.iteri
    (fun ck checker ->
      let name = Flat.label eng ck in
      match List.assoc_opt name events_seen with
      | Some n -> Checker.restore_meta checker ~events_seen:n
      | None -> bad "checkpoint has no checker record for %S" name)
    (Hub.checkers (Session.hub session))

let restore_exn session json =
  (match string_exn "format" json with
  | s when s = format_name -> ()
  | s -> bad "not a loseq checkpoint (format %S)" s);
  let version = int_exn "version" json in
  if version <> format_version && version <> v1_format_version then
    bad "unsupported checkpoint version %d (expected %d or %d)" version
      format_version v1_format_version;
  let stored_suite = string_exn "suite" json in
  let this_suite = Suite.to_string (Session.suite session) in
  if stored_suite <> this_suite then
    bad "checkpoint was taken against a different suite";
  let stats = Session.stats session in
  if stats.accepted <> 0 || stats.delivered <> 0 || Session.now session <> 0
  then bad "checkpoint restore requires a fresh session";
  let position = member_exn "position" json in
  let reorder_json = member_exn "reorder" json in
  (* Monitor states first, then time: the hub's wheel is re-armed from
     the restored states, and advancing a fresh session's kernel fires
     nothing (no deadline is armed in an initial state). *)
  if version = format_version then restore_checkers_v2 session json
  else restore_checkers_v1 session json;
  (match
     Reorder.restore (Session.reorder session)
       ~max_seen:(int_exn "max_seen" reorder_json)
       ~released:(int_exn "released" reorder_json)
       ~dropped_late:(int_exn "dropped_late" reorder_json)
       ~reordered:(int_exn "reordered" reorder_json)
       (List.map event_of_json (list_exn "pending" reorder_json))
   with
  | Ok () -> ()
  | Error msg -> bad "%s" msg);
  Session.restore_counters session
    ~accepted:(int_exn "accepted" position)
    ~delivered:(int_exn "delivered" position)
    ~forced:(int_exn "forced" position);
  let now = int_exn "now" position in
  let kernel = Session.kernel session in
  let module Time = Loseq_sim.Time in
  let module Kernel = Loseq_sim.Kernel in
  if Time.( < ) (Kernel.now kernel) (Time.ps now) then
    Kernel.run ~until:(Time.ps now) kernel;
  Hub.resync (Session.hub session)

let restore session json =
  match restore_exn session json with
  | () -> Ok ()
  | exception Bad msg -> Error msg

(* ---- files ------------------------------------------------------------- *)

let save ~path session =
  let data = Json.to_string (capture session) in
  let tmp = path ^ ".tmp" in
  match open_out_bin tmp with
  | exception Sys_error msg -> Error msg
  | oc -> (
      output_string oc data;
      output_char oc '\n';
      close_out oc;
      match Sys.rename tmp path with
      | () -> Ok (String.length data + 1)
      | exception Sys_error msg -> Error msg)

let load ~path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic -> (
      let n = in_channel_length ic in
      let data = really_input_string ic n in
      close_in ic;
      match Json.of_string data with
      | Ok _ as ok -> ok
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

let position json =
  match int_exn "accepted" (member_exn "position" json) with
  | n -> Ok n
  | exception Bad msg -> Error msg

let resume ?metrics ?trace ?latency_sample_rate ~path suite =
  match load ~path with
  | Error _ as err -> err
  | Ok json -> (
      match
        let lateness = int_exn "lateness" json
        and window = int_exn "window" json in
        Session.create ?metrics ?trace ?latency_sample_rate ~lateness ~window
          suite
      with
      | exception Bad msg -> Error msg
      | session -> (
          match restore session json with
          | Ok () -> Ok session
          | Error _ as err -> err))
