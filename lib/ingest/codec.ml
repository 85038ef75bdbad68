open Loseq_core

let magic = "LSQB\x01"
let tag_define = 0x01
let tag_event = 0x02
let tag_end = 0x03

(* Fail fast on garbage rather than attempting a multi-megabyte
   "name". *)
let max_name_len = 4096

(* Every define record grows the decoder's name table for the rest of
   the stream, so a stream of defines alone would grow it without
   bound: cap it (a 16-bit id space, far beyond any suite alphabet). *)
let max_names = 1 lsl 16

let looks_binary s =
  let n = min (String.length s) (String.length magic) in
  String.sub s 0 n = String.sub magic 0 n

let sniff s =
  if String.length s > 0 && looks_binary s then `Binary
  else
    let lines = String.split_on_char '\n' s in
    let rec first_payload = function
      | [] -> `Tokens
      | line :: rest ->
          let t = String.trim line in
          if t = "" || t.[0] = '#' then first_payload rest
          else if String.contains t ',' then `Csv
          else `Tokens
    in
    first_payload lines

(* ---- varints (LEB128, unsigned) --------------------------------------- *)

let add_varint buf n =
  let n = ref n in
  let continue_ = ref true in
  while !continue_ do
    let low = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr low);
      continue_ := false
    end
    else Buffer.add_char buf (Char.chr (low lor 0x80))
  done

(* ---- streaming encoder ------------------------------------------------- *)

module Encoder = struct
  type t = {
    write : string -> unit;
    ids : (Name.t, int) Hashtbl.t;
    validator : Trace_io.Validator.t;
    buf : Buffer.t;
    mutable prev_time : int;
    mutable events : int;
    mutable finished : bool;
  }

  let create write =
    write magic;
    {
      write;
      ids = Hashtbl.create 16;
      validator = Trace_io.Validator.create ();
      buf = Buffer.create 32;
      prev_time = 0;
      events = 0;
      finished = false;
    }

  let events t = t.events

  let flush_record t =
    t.write (Buffer.contents t.buf);
    Buffer.clear t.buf

  let intern t name =
    match Hashtbl.find_opt t.ids name with
    | Some id -> id
    | None ->
        let id = Hashtbl.length t.ids in
        Hashtbl.replace t.ids name id;
        let s = Name.to_string name in
        Buffer.add_char t.buf (Char.chr tag_define);
        add_varint t.buf (String.length s);
        Buffer.add_string t.buf s;
        flush_record t;
        id

  let event t (e : Trace.event) =
    if t.finished then Error "Codec.Encoder: stream already finished"
    else if Trace_io.Validator.accept t.validator ~time:e.time then begin
      let id = intern t e.name in
      Buffer.add_char t.buf (Char.chr tag_event);
      add_varint t.buf id;
      add_varint t.buf (e.time - t.prev_time);
      flush_record t;
      t.prev_time <- e.time;
      t.events <- t.events + 1;
      Ok ()
    end
    else
      let pos = Printf.sprintf "event %d" (t.events + 1) in
      Trace_io.Validator.check t.validator ~pos ~time:e.time

  let finish t =
    if not t.finished then begin
      t.finished <- true;
      Buffer.add_char t.buf (Char.chr tag_end);
      add_varint t.buf t.events;
      flush_record t
    end
end

let encode trace =
  let buf = Buffer.create 1024 in
  let enc = Encoder.create (Buffer.add_string buf) in
  let rec feed = function
    | [] ->
        Encoder.finish enc;
        Ok (Buffer.contents buf)
    | e :: rest -> (
        match Encoder.event enc e with
        | Ok () -> feed rest
        | Error _ as err -> err)
  in
  feed trace

let encode_exn trace =
  match encode trace with Ok s -> s | Error msg -> invalid_arg msg

(* ---- streaming decoder ------------------------------------------------- *)

module Decoder = struct
  type state = Header | Records | Ended | Failed of string

  (* The longest record the decoder accepts: a define's tag, a length
     varint of at most 10 bytes (the 11th is overlong) and the name.
     A partial record is always shorter, so this bounds the carry. *)
  let max_record = 1 + 10 + max_name_len

  type t = {
    mutable state : state;
    carry : Bytes.t;  (* the partial record a chunk ended in *)
    mutable carried : int;
    mutable names : Name.t array;  (* by wire id, kept by [feed] only *)
    mutable defined : int;
    mutable prev_time : int;
    mutable events : int;
    mutable records : int;
    mutable consumed : int;  (* absolute offset of the next record *)
    (* the varint cursor: the value just read, the position after it *)
    mutable value : int;
    mutable next : int;
  }

  let create () =
    {
      state = Header;
      carry = Bytes.create max_record;
      carried = 0;
      names = [||];
      defined = 0;
      prev_time = 0;
      events = 0;
      records = 0;
      consumed = 0;
      value = 0;
      next = 0;
    }

  let events t = t.events
  let bytes_consumed t = t.consumed

  (* A malformed record (reported with its ordinal and byte offset) and
     a malformed stream (reported as is). *)
  exception Malformed of string
  exception Bad_stream of string

  let malformed fmt = Printf.ksprintf (fun msg -> raise (Malformed msg)) fmt

  let fail t msg =
    t.state <- Failed msg;
    Error msg

  let fail_at t msg =
    fail t
      (Printf.sprintf "record %d (byte %d): %s" (t.records + 1) t.consumed msg)

  (* Only {!feed} resolves ids to names, so only it keeps them. *)
  let add_name t id name =
    if id = Array.length t.names then begin
      let grown = Array.make (max 8 (2 * id)) name in
      Array.blit t.names 0 grown 0 id;
      t.names <- grown
    end;
    t.names.(id) <- name

  (* The varint at [pos] into [t.value], the position after it into
     [t.next]; [false] when [s] ends mid-varint.  Past 63 bits it is
     malformed: a hostile stream must not spin the reader or wrap the
     accumulator. *)
  let rec varint t s pos limit shift acc =
    if pos >= limit then false
    else if shift > 63 then
      raise (Malformed "overlong varint (more than 63 bits)")
    else
      let b = Char.code (String.unsafe_get s pos) in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then begin
        t.value <- acc;
        t.next <- pos + 1;
        true
      end
      else varint t s (pos + 1) limit (shift + 7) acc

  let incomplete = -1

  (* The header, or a prefix of it. *)
  let header t s pos limit =
    let m = String.length magic in
    for i = 0 to min m (limit - pos) - 1 do
      if String.unsafe_get s (pos + i) <> String.unsafe_get magic i then
        raise (Bad_stream "bad magic: not a loseq binary trace")
    done;
    if limit - pos < m then incomplete
    else begin
      t.state <- Records;
      t.consumed <- t.consumed + m;
      pos + m
    end

  (* One record at [pos]: the position after it, or [incomplete]. *)
  let record t s pos limit ~define ~event =
    let tag = Char.code (String.unsafe_get s pos) in
    if tag = tag_event then
      if not (varint t s (pos + 1) limit 0 0) then incomplete
      else
        let id = t.value in
        if not (varint t s t.next limit 0 0) then incomplete
        else begin
          let delta = t.value and p = t.next in
          if id < 0 || id >= t.defined then
            malformed "event references undefined name id %d" id;
          if delta < 0 || delta > max_int - t.prev_time then
            (* the varint is unsigned: a negative [delta] is one past
               [max_int] already *)
            malformed "timestamp overflow: time %d plus the delta exceeds %d"
              t.prev_time max_int;
          (* an unsigned delta that does not overflow keeps the stream
             chronological and non-negative by construction: no
             validator needed *)
          let time = t.prev_time + delta in
          t.prev_time <- time;
          t.events <- t.events + 1;
          event id time;
          p
        end
    else if tag = tag_define then
      if not (varint t s (pos + 1) limit 0 0) then incomplete
      else
        let len = t.value and p = t.next in
        if len < 0 || len > max_name_len then
          malformed "name of %d bytes exceeds limit" len
        else if t.defined = max_names then
          malformed "name table full: more than %d defined names" max_names
        else if p + len > limit then incomplete
        else begin
          let name =
            try Name.v (String.sub s p len)
            with Invalid_argument msg -> raise (Malformed msg)
          in
          let id = t.defined in
          t.defined <- id + 1;
          define id name;
          p + len
        end
    else if tag = tag_end then
      if not (varint t s (pos + 1) limit 0 0) then incomplete
      else if t.value <> t.events then
        malformed "end record claims %d events, decoded %d" t.value t.events
      else begin
        t.state <- Ended;
        t.next
      end
    else malformed "unknown record tag 0x%02x" tag

  (* The header or one record at [pos], counted: the position after it,
     or [incomplete]. *)
  let step t s pos limit ~define ~event =
    match t.state with
    | Header -> header t s pos limit
    | Records ->
        let p = record t s pos limit ~define ~event in
        if p >= 0 then begin
          t.records <- t.records + 1;
          t.consumed <- t.consumed + (p - pos)
        end;
        p
    | Ended -> raise (Bad_stream "data after the end record")
    | Failed msg -> raise (Bad_stream msg)

  (* Every whole record of [s] from [pos]: the start of the partial one
     left over ([limit] when none is). *)
  let rec steps t s pos limit ~define ~event =
    if pos >= limit then limit
    else
      let p = step t s pos limit ~define ~event in
      if p < 0 then pos else steps t s p limit ~define ~event

  (* A record split across chunks: top the carry up from [s] and parse
     it there.  The position in [s] after the completed record, or
     [incomplete] when [s] is used up first ([max_record] bounds every
     partial record, so then all of [s] went into the carry). *)
  let complete_carry t s off len ~define ~event =
    let before = t.carried in
    let take = min len (max_record - before) in
    Bytes.blit_string s off t.carry before take;
    let p =
      step t (Bytes.unsafe_to_string t.carry) 0 (before + take) ~define
        ~event
    in
    if p < 0 then begin
      t.carried <- before + take;
      incomplete
    end
    else begin
      t.carried <- 0;
      off + (p - before)
    end

  let feed_ids t ?(off = 0) ?len s ~define ~event =
    let len = match len with Some l -> l | None -> String.length s - off in
    if off < 0 || len < 0 || off > String.length s - len then
      invalid_arg "Codec.Decoder.feed";
    match t.state with
    | Failed msg -> Error msg
    | _ when len = 0 -> Ok ()
    | Ended -> fail t "data after the end record"
    | Header | Records -> (
        let limit = off + len in
        match
          let pos =
            if t.carried = 0 then off
            else complete_carry t s off len ~define ~event
          in
          if pos >= 0 then begin
            let rest = steps t s pos limit ~define ~event in
            Bytes.blit_string s rest t.carry 0 (limit - rest);
            t.carried <- limit - rest
          end
        with
        | () -> Ok ()
        | exception Malformed msg -> fail_at t msg
        | exception Bad_stream msg -> fail t msg)

  let feed t ?off ?len s ~emit =
    feed_ids t ?off ?len s
      ~define:(fun id name -> add_name t id name)
      ~event:(fun id time -> emit { Trace.name = t.names.(id); time })

  let finish t =
    match t.state with
    | Failed msg -> Error msg
    | Header ->
        if t.carried = 0 then fail t "empty input: not a loseq binary trace"
        else fail t "truncated stream: incomplete header"
    | Records when t.carried > 0 ->
        fail t
          (Printf.sprintf "truncated stream: %d byte(s) of an incomplete record"
             t.carried)
    | Records | Ended -> Ok ()
end

let decode s =
  let acc = ref [] in
  let dec = Decoder.create () in
  match Decoder.feed dec s ~emit:(fun e -> acc := e :: !acc) with
  | Error _ as err -> err
  | Ok () -> (
      match Decoder.finish dec with
      | Error _ as err -> err
      | Ok () -> Ok (List.rev !acc))

let save ~path trace =
  match encode trace with
  | Error _ as err -> err
  | Ok data -> (
      match open_out_bin path with
      | oc ->
          output_string oc data;
          close_out oc;
          Ok ()
      | exception Sys_error msg -> Error msg)

let load path =
  match open_in_bin path with
  | ic ->
      let n = in_channel_length ic in
      let data = really_input_string ic n in
      close_in ic;
      decode data
  | exception Sys_error msg -> Error msg
