let backend_names = [ "direct"; "compiled"; "flat"; "psl" ]

let backend_doc =
  "Monitor backend: $(b,direct) (the paper's structural Drct \
   construction, richest diagnostics), $(b,compiled) (flat-table \
   fast path, the default), $(b,flat) (whole-suite table engine: \
   every checker's state packed into one array, one shared \
   dispatch — what $(b,serve) and $(b,trace) always host on), or \
   $(b,psl) (formula \
   progression over the Section-5 PSL translation; rejects wide \
   ranges and checks timed patterns without their quantitative \
   deadline)."

let serve_modes_doc =
  "The suite is always hosted on one flat suite engine (every \
   checker's state in one array, one dispatch row per event name), so \
   serve takes no $(b,--backend); checkpoints are written in format \
   version 2 (one engine blob) and version-1 files of earlier releases \
   still resume. Two hosting modes share one stream loop and differ \
   only in admission. The default buffered mode parks events in a \
   watermark reorder buffer for up to $(b,--lateness) ticks and \
   delivers them in timestamp order — verdicts are exact but lag the \
   stream by K. With $(b,--ooo) the speculative engine applies every \
   event the moment it arrives, reports three-valued in-flight \
   verdicts, and repairs by rollback-and-replay when a late event \
   lands; violation records carry $(b,speculative) markers, \
   $(b,retracted) records withdraw disproved ones, and $(b,settled) \
   records mark verdicts the watermark has made definitive."

let ooo_doc =
  "Speculative out-of-order mode: evaluate events immediately on \
   arrival instead of buffering, roll back and replay when a late \
   event (within $(b,--lateness) ticks) lands, and settle verdicts as \
   the watermark passes them. Commute/lateness certificates from the \
   analysis layer let provably harmless late events commit in place \
   with no rollback. Incompatible with --checkpoint/--resume."
