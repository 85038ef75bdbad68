(** The loseq binary trace wire format (LSQB).

    CSV is the exchange format; this is the {e wire} format: what a
    simulator streams into a live monitor session and what traces are
    archived as.  Design goals, in order: cheap to decode (the decoder
    is on the ingestion hot path), compact (varint-delta timestamps, an
    interned name table so each event is typically 2–4 bytes), and
    streamable (framed records, a decoder that accepts arbitrary chunk
    boundaries — a read(2) never aligns with records).

    {2 Layout}

    A stream is the 5-byte header {!magic} followed by framed records,
    each a 1-byte tag:

    - [0x01] {e define}: varint byte-length + bytes of a name.  Names
      are interned in order of first appearance; the n-th define record
      binds id [n-1].
    - [0x02] {e event}: varint name id + varint time delta (time minus
      the previous event's time; the first event's delta is absolute).
      Deltas are unsigned, so a decoded stream is chronological by
      construction — the encoder funnels input through the same
      {!Loseq_core.Trace_io.Validator} as the CSV reader and refuses
      non-chronological traces.
    - [0x03] {e end}: varint total event count, an integrity check.
      Optional (a live stream just ends), but {!encode} always writes
      it and the decoder verifies it when present.

    Round-trip with {!Loseq_core.Trace.t} (and hence CSV) is exact and
    property-tested: [decode (encode tr) = tr]. *)

open Loseq_core

val magic : string
(** ["LSQB\x01"] — 4 format bytes plus a version byte. *)

val max_names : int
(** The most define records one stream may carry ([65536]): the
    decoder's name table lives as long as the stream, so it is bounded.
    The define past the cap is a decode error. *)

val looks_binary : string -> bool
(** Does [s] start with (a prefix of) {!magic}?  True on the empty
    string only when it could still become a binary stream. *)

val sniff : string -> [ `Binary | `Csv | `Tokens ]
(** Guess the format of a complete trace blob: {!magic} prefix ⇒
    [`Binary]; otherwise a comma in the first non-blank, non-comment
    line ⇒ [`Csv]; otherwise [`Tokens] (the whitespace
    [name@time] format of {!Loseq_core.Trace.parse}). *)

(** {1 Whole-trace conveniences} *)

val encode : Trace.t -> (string, string) result
(** Header, defines interleaved at first use, events, end record.
    Fails on a non-chronological trace (shared validator, positions as
    ["event N"]). *)

val encode_exn : Trace.t -> string
(** Raises [Invalid_argument]. *)

val decode : string -> (Trace.t, string) result
(** Errors carry the record ordinal and byte offset. *)

val save : path:string -> Trace.t -> (unit, string) result
val load : string -> (Trace.t, string) result

(** {1 Streaming} *)

module Encoder : sig
  type t

  val create : (string -> unit) -> t
  (** [create write] emits the header through [write] immediately;
      every record is written as one [write] call (so a socket sink
      frames naturally). *)

  val event : t -> Trace.event -> (unit, string) result
  (** Interning the name (emitting a define record if new) and framing
      the event.  Fails if [event] would break chronology. *)

  val finish : t -> unit
  (** Write the end record.  The encoder must not be used after. *)

  val events : t -> int
end

module Decoder : sig
  type t
  (** A cursor over one stream.  Records are parsed in place in the
      caller's chunk: varints decode into the decoder's own fields and
      events reach the caller as (id, time) pairs, so a decoded event
      allocates nothing.  Only the bytes of a record split across a
      chunk boundary are copied, into a fixed carry buffer (a record
      is at most a define's ~4.1 KB: its tag, a length varint and a
      name of at most 4096 bytes).

      {b No retention.}  The decoder keeps no reference to a chunk
      after [feed] returns: the caller may reuse or overwrite the
      buffer it passed (a read(2) buffer, via
      [Bytes.unsafe_to_string]). *)

  val create : unit -> t

  val feed_ids :
    t -> ?off:int -> ?len:int -> string ->
    define:(int -> Name.t -> unit) ->
    event:(int -> int -> unit) ->
    (unit, string) result
  (** Consume [len] bytes of the chunk from [off] (default: all of
      it).  [define id name] runs for every define record, [id] being
      the wire id it binds (ids count up from 0; a name defined twice
      gets two ids); [event id time] runs for every event completed by
      this chunk, [time] absolute.  Chunk boundaries are arbitrary.
      Errors (bad magic, unknown tag, invalid name, more than
      {!max_names} defines, id out of range, a timestamp past
      [max_int], count mismatch, data after the end record) are
      sticky: every later call fails with the same message.  An
      exception raised by a callback propagates and leaves the decoder
      unusable.  Raises [Invalid_argument] when [off]/[len] do not
      designate a substring. *)

  val feed :
    t -> ?off:int -> ?len:int -> string ->
    emit:(Trace.event -> unit) ->
    (unit, string) result
  (** {!feed_ids} with each event resolved to its name, as a
      {!Loseq_core.Trace.event}.  The name table this needs is kept by
      [feed] itself, so a decoder is fed with [feed] only or with
      {!feed_ids} only. *)

  val finish : t -> (unit, string) result
  (** Signal end of input; fails if the stream stops mid-record. *)

  val events : t -> int
  (** Events emitted so far. *)

  val bytes_consumed : t -> int
  (** Whole-record bytes consumed so far (excludes the carried partial
      record). *)
end
