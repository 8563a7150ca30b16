package logstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"

	"repro/internal/measure"
)

// binWriter wraps a buffered writer with the primitives every binary
// logstore format is built from: unsigned varints, length-prefixed strings,
// and run-length-encoded bitsets. The first write error sticks.
type binWriter struct {
	bw *bufio.Writer
	// runs is the reused buffer a bitset's run varints are appended to
	// before they are written in one call.
	runs []byte
	err  error
}

func newBinWriter(w io.Writer) *binWriter {
	if bw, ok := w.(*bufio.Writer); ok {
		return &binWriter{bw: bw}
	}
	return &binWriter{bw: bufio.NewWriterSize(w, 1<<16)}
}

func (w *binWriter) bytes(p []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.bw.Write(p)
}

func (w *binWriter) byte(b byte) {
	if w.err != nil {
		return
	}
	w.err = w.bw.WriteByte(b)
}

func (w *binWriter) uvarint(v uint64) {
	if w.err != nil {
		return
	}
	_, w.err = w.bw.Write(binary.AppendUvarint(w.bw.AvailableBuffer(), v))
}

func (w *binWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	if w.err != nil {
		return
	}
	_, w.err = w.bw.WriteString(s)
}

// bitset writes b's first n bits as varint-encoded runs: the run count,
// then per run of consecutive set bits one varint holding the gap from the
// end of the previous run shifted left once, with the low bit flagging a
// second varint carrying the run's extra length. An isolated bit after a
// small gap — the dominant shape of a visit's feature set, ~60 scattered
// bits out of 1,392 — costs a single byte instead of a decimal feature ID.
//
// One pass over the words appends every run's varints to a reused buffer;
// the run count and that buffer are then two writes.
func (w *binWriter) bitset(b measure.Bitset, n int) {
	if w.err != nil {
		return
	}
	var runs int
	w.runs, runs = appendRuns(w.runs[:0], b, n)
	w.uvarint(uint64(runs))
	w.bytes(w.runs)
}

// appendRuns appends the run varints of b's first n bits to dst and
// returns the extended buffer and the number of runs. It walks the words
// once, finding each run's ends with trailing-zero counts, so a sparse
// survey bitset costs a few instructions per set bit; a run that reaches
// the top of a word stays open into the next. Bits at or past n, or past
// b's length, count as clear.
func appendRuns(dst []byte, b measure.Bitset, n int) ([]byte, int) {
	runs, prev := 0, 0
	emit := func(start, end int) {
		gap := uint64(start-prev) << 1
		if end-start == 1 {
			dst = binary.AppendUvarint(dst, gap)
		} else {
			dst = binary.AppendUvarint(dst, gap|1)
			dst = binary.AppendUvarint(dst, uint64(end-start-2))
		}
		prev = end
		runs++
	}
	open := -1 // start of a run that reached the top of the previous word
	words := min(len(b), (n+63)/64)
	for wi := 0; wi < words; wi++ {
		word, base := b[wi], wi<<6
		if rem := n - base; rem < 64 {
			word &= 1<<uint(rem) - 1
		}
		if open >= 0 {
			ones := bits.TrailingZeros64(^word)
			if ones == 64 {
				continue
			}
			emit(open, base+ones)
			open = -1
			word &= ^uint64(0) << uint(ones)
		}
		for word != 0 {
			tz := bits.TrailingZeros64(word)
			top := tz + bits.TrailingZeros64(^(word >> uint(tz)))
			if top == 64 {
				open = base + tz
				break
			}
			emit(base+tz, base+top)
			word &= ^uint64(0) << uint(top)
		}
	}
	if open >= 0 {
		emit(open, min(words<<6, n))
	}
	return dst, runs
}

func (w *binWriter) flush() error {
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}

// windowSize is the size of a binReader's window over a stream.
const windowSize = 1 << 16

// errVarintOverflow reports a varint longer than 64 bits.
var errVarintOverflow = errors.New("varint overflows a 64-bit integer")

// binReader is the decoding counterpart of binWriter. It decodes from its
// own window of bytes, buf[pos:end], and refills the window from src only
// when a field needs more bytes than the window holds. Once src reports
// the end (or any error) the reader never calls it again, so the last
// fields of a stream cost no further reads.
//
// Every capped primitive validates against a caller-supplied maximum, so
// corrupt or hostile input can never make a decoder allocate unboundedly
// or panic.
type binReader struct {
	src      io.Reader
	buf      []byte
	pos, end int
	// done is set once src has reported the end or an error; srcErr
	// holds that error unless it was io.EOF.
	done   bool
	srcErr error
}

func newBinReader(r io.Reader) *binReader {
	return &binReader{src: r, buf: make([]byte, windowSize)}
}

// newBytesReader decodes data in place: the window is data itself, and
// there is nothing to refill it from.
func newBytesReader(data []byte) *binReader {
	return &binReader{buf: data, end: len(data), done: true}
}

// reset points the reader at a new source, keeping its window storage.
func (r *binReader) reset(src io.Reader) {
	r.src, r.pos, r.end, r.done, r.srcErr = src, 0, 0, false, nil
}

// fill makes at least need bytes readable in the window, reading from src
// only if they are not already buffered. It reports whether it succeeded;
// when it did not, the source is exhausted and the window holds all that
// is left. need never exceeds the window: the longest field is a string
// capped at 4 KB.
func (r *binReader) fill(need int) bool {
	if r.end-r.pos >= need {
		return true
	}
	if r.done {
		return false
	}
	if r.pos > 0 {
		r.end = copy(r.buf, r.buf[r.pos:r.end])
		r.pos = 0
	}
	for empty := 0; r.end < need; {
		n, err := r.src.Read(r.buf[r.end:])
		r.end += n
		if err != nil {
			r.done = true
			if err != io.EOF {
				r.srcErr = err
			}
			break
		}
		if n > 0 {
			empty = 0
		} else if empty++; empty >= 100 {
			r.done, r.srcErr = true, io.ErrNoProgress
			break
		}
	}
	return r.end >= need
}

// short is the error for a field the stream ends inside: the source's own
// error if it failed, io.EOF if not a byte of the field was there, and
// io.ErrUnexpectedEOF otherwise.
func (r *binReader) short() error {
	switch {
	case r.srcErr != nil:
		return r.srcErr
	case r.pos == r.end:
		return io.EOF
	default:
		return io.ErrUnexpectedEOF
	}
}

// readByte reads one byte; io.EOF means the stream ended before it.
func (r *binReader) readByte() (byte, error) {
	if r.pos == r.end && !r.fill(1) {
		return 0, r.short()
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
}

// rawUvarint decodes one varint from the window. It is the one place the
// binary formats turn wire bytes into a number, and it applies no cap:
// its callers (uvarint, strBytes) check the value against a maximum
// before anything can use it as a size.
func (r *binReader) rawUvarint() (uint64, error) {
	if r.pos < r.end {
		if b := r.buf[r.pos]; b < 0x80 {
			r.pos++
			return uint64(b), nil
		}
	}
	if r.end-r.pos < binary.MaxVarintLen64 {
		r.fill(binary.MaxVarintLen64)
	}
	v, n := binary.Uvarint(r.buf[r.pos:r.end])
	switch {
	case n > 0:
		r.pos += n
		return v, nil
	case n < 0:
		return 0, errVarintOverflow
	default:
		return 0, r.short()
	}
}

// uvarint reads one varint and rejects values above max.
func (r *binReader) uvarint(max uint64, what string) (uint64, error) {
	v, err := r.rawUvarint()
	if err != nil {
		return 0, fmt.Errorf("logstore: reading %s: %w", what, err)
	}
	if v > max {
		return 0, fmt.Errorf("logstore: %s %d exceeds limit %d", what, v, max)
	}
	return v, nil
}

// count reads a small non-negative int (lengths, indices, counts).
func (r *binReader) count(max int, what string) (int, error) {
	v, err := r.uvarint(uint64(max), what)
	return int(v), err
}

// int64Val reads a non-negative int64 (invocation and page totals).
func (r *binReader) int64Val(what string) (int64, error) {
	v, err := r.uvarint(math.MaxInt64, what)
	return int64(v), err
}

// strBytes reads a length-prefixed string of at most max bytes and returns
// it in place: the slice is only valid until the next read.
func (r *binReader) strBytes(max int, what string) ([]byte, error) {
	n, err := r.rawUvarint()
	if err != nil {
		return nil, fmt.Errorf("logstore: reading %s length: %w", what, err)
	}
	if n > uint64(max) {
		return nil, fmt.Errorf("logstore: %s length %d exceeds limit %d", what, n, max)
	}
	if !r.fill(int(n)) {
		return nil, fmt.Errorf("logstore: reading %s: %w", what, r.short())
	}
	s := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return s, nil
}

// str reads a length-prefixed string of at most max bytes.
func (r *binReader) str(max int, what string) (string, error) {
	b, err := r.strBytes(max, what)
	return string(b), err
}

// domains reads a header's list of n domain names. The list grows as names
// arrive instead of being sized from n up front, so a header that claims
// more domains than its bytes hold fails having allocated only for the
// names it carries.
func (r *binReader) domains(n int) ([]string, error) {
	var out []string
	for len(out) < n {
		d, err := r.str(4096, "domain name")
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out[:len(out):len(out)], nil
}

// bitset reads an n-bit run-encoded bitset written by binWriter.bitset.
func (r *binReader) bitset(n int) (measure.Bitset, error) {
	b := measure.NewBitset(n)
	if err := r.bitsetInto(b, n); err != nil {
		return nil, err
	}
	return b, nil
}

// bitsetInto decodes an n-bit run-encoded bitset into b, which must be
// all zeros and hold at least n bits. A one-byte varint, nearly every
// varint of a survey's sparse bitsets, is read straight from the window,
// and each run's bits are set a word at a time.
func (r *binReader) bitsetInto(b measure.Bitset, n int) error {
	runs, err := r.count(n, "bitset run count")
	if err != nil {
		return err
	}
	maxHead := uint64(n)<<1 | 1
	pos := 0
	for p := 0; p < runs; p++ {
		var head uint64
		if r.pos < r.end && r.buf[r.pos] < 0x80 && uint64(r.buf[r.pos]) <= maxHead {
			head = uint64(r.buf[r.pos])
			r.pos++
		} else if head, err = r.uvarint(maxHead, "bitset gap"); err != nil {
			return err
		}
		gap, run := int(head>>1), 1
		if head&1 != 0 {
			extra, err := r.count(n, "bitset run length")
			if err != nil {
				return err
			}
			run = extra + 2
		}
		pos += gap
		if pos+run > n {
			return fmt.Errorf("logstore: bitset run [%d,%d) outside %d bits", pos, pos+run, n)
		}
		if run == 1 {
			b[pos>>6] |= 1 << (uint(pos) & 63)
		} else {
			setRun(b, pos, run)
		}
		pos += run
	}
	return nil
}

// setRun sets bits [start, start+run) of b, one word at a time.
func setRun(b measure.Bitset, start, run int) {
	for end := start + run; start < end; {
		off := uint(start) & 63
		k := min(64-int(off), end-start)
		b[start>>6] |= (^uint64(0) >> (64 - uint(k))) << off
		start += k
	}
}

// expectMagic consumes and verifies a format's magic bytes.
func (r *binReader) expectMagic(magic, format string) error {
	if !r.fill(len(magic)) {
		return fmt.Errorf("logstore: reading %s magic: %w", format, r.short())
	}
	got := r.buf[r.pos : r.pos+len(magic)]
	if string(got) != magic {
		return fmt.Errorf("logstore: not a %s log (magic bytes %q)", format, got)
	}
	r.pos += len(magic)
	return nil
}
