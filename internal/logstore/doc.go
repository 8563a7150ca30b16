// Package logstore is the persistence layer for the survey's measurement
// log. internal/measure owns the in-memory model; everything that touches
// disk — formats, streaming, caching — lives here, behind a pluggable
// Codec API.
//
// # Codecs
//
// A Codec serializes a complete measure.Log: Encode(io.Writer, *Log) and
// Decode(io.Reader) (*Log, error). Two codecs are registered:
//
//   - "csv" is the repository's original line format, kept byte-for-byte
//     compatible so logs written before this package existed still load.
//   - "binary" is the compact format: a magic header plus varint metadata
//     and run-length-encoded feature bitsets, several times smaller and
//     faster than CSV (internal/logstore benchmarks measure both claims).
//
// Every format is self-identifying. Detect picks the decoder from a file's
// first bytes, and Read/ReadFile auto-detect, so readers (cmd/report, any
// analysis tool) never need to be told which format they were handed.
//
// # Streaming spill
//
// The codecs need the whole log in memory; the streaming layer does not.
// A Writer appends per-visit Observations to a spill file as they complete,
// so a pipeline shard can spill partial results instead of holding the full
// log — and a spilled stream is exactly what a distributed worker ships to
// its coordinator (internal/dist). ReadSpills/ReadSpillFiles reassemble any
// number of spill streams into the single measure.Log the visits describe;
// stats.FromSpills folds them into a mergeable aggregate without ever
// materializing the log.
//
// A SpillStream hands out records two ways. Next returns one record at a
// time, and an observation's feature bitset belongs to the caller: what a
// consumer that keeps records needs (ReadSpills, the crash-resume scan).
// Scan calls a function with every record, and an observation's bitset is
// borrowed: one scratch bitset the stream decodes every observation into,
// valid only until the function returns. A consumer that only reads the
// features, as stats' replay into an aggregate does, then allocates nothing
// per record; case names are interned, so they cost nothing after a case's
// first record either.
//
// # Decoding
//
// The binary codec, the spill stream and the visit cache decode through one
// reader. It keeps its own window of bytes and refills it from the source
// only when a field needs bytes the window does not hold; once the source
// reports its end, the reader never asks it again, so the last records of a
// stream cost no extra reads. Varints decode straight from the window (a
// one-byte varint, nearly every varint of a sparse feature bitset, is one
// compare), and each run of a bitset sets its bits a word at a time. The
// encoders mirror this: a bitset's runs are found in one pass over its words
// and appended to a reused buffer, then written as two writes. The CSV codec
// parses observation rows in place from the scanner's buffer. None of this
// changes a byte on disk: reference_test.go keeps the byte-at-a-time
// decoders and the two-walk encoder these replaced, and the fuzzers hold
// the codecs to them.
//
// # Spill frame format (bytes on the wire)
//
// A spill stream — whether a shard-NNN.spill file on disk or the payload
// bytes a dist worker streams home — is a header followed by
// self-delimiting records. All integers are unsigned LEB128 varints
// (encoding/binary uvarint); strings are a varint length followed by that
// many bytes; there is no padding or alignment anywhere.
//
//	header:
//	  magic     5 bytes   F1 53 50 4C 31           ("\xF1SPL1")
//	  features  uvarint   corpus size (bitset width of every record)
//	  domains   uvarint   site-list size, then that many strings,
//	                      index-aligned with site indices
//
//	record: 1 type byte, then per type —
//	  01 observation:
//	     case        string    browser configuration name
//	     round       uvarint
//	     site        uvarint   index into the header's domain list
//	     invocations uvarint
//	     pages       uvarint
//	     features    bitset    see below
//	  02 failure:
//	     site        uvarint   a visit of this site failed
//	  03 site-end:
//	     site        uvarint   every visit of this site precedes this
//	                           record (streaming consumers retire it)
//
//	bitset (run-length encoded set bits):
//	  runs      uvarint   number of maximal runs of consecutive set bits
//	  per run:  uvarint   (gap from end of previous run) << 1, low bit set
//	                      when a second uvarint follows carrying
//	                      (run length − 2); no second varint means a
//	                      1-bit run
//
// The stream is truncation-evident at record granularity: a stream cut on
// a record boundary reads as a shorter valid stream (a crashed shard's
// spill stays usable to its last durable record), while a cut inside a
// record surfaces a decode error (TestSpillStreamTruncation sweeps every
// offset). Every varint decodes against a caller-side cap, so corrupt or
// hostile input can never force an unbounded allocation.
//
// # Frames
//
// WriteFrame/ReadFrame add a minimal message envelope — type byte, uvarint
// payload length, payload — used by the internal/dist coordinator/worker
// protocol to interleave spill chunks with control messages on one TCP
// connection. A frame stream distinguishes a clean end (io.EOF exactly on
// a frame boundary) from a death mid-frame (io.ErrUnexpectedEOF).
//
// # Visit cache
//
// Cache memoizes VisitOutcomes on disk keyed by (VisitSeed, case). Because
// crawler.VisitSeed makes a visit's randomness a pure function of
// (base seed, site, case, round), a re-run with an overlapping
// configuration skips every cached visit — hits counted, log byte-identical
// to the uncached run. Failed visits are cached too; they are just as
// deterministic.
package logstore
