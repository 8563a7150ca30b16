// Fixture for the framecap analyzer: a make sized by an unchecked
// wire-read length must be flagged; the guard idioms the wire packages
// use (explicit cap compare, remaining-bytes compare) must not.
package framecap

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

const maxPayload = 1 << 20

// Bad: the classic unbounded allocation — two varint bytes can claim
// 2^64 elements.
func uncheckedByteSlice(br *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, n) // want `make sized by wire-read length "n" with no bound check`
	_, err = io.ReadFull(br, buf)
	return buf, err
}

// Bad: taint survives a conversion.
func uncheckedThroughConversion(br *bufio.Reader) ([]int, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	count := int(n)
	sites := make([]int, count) // want `make sized by wire-read length "count" with no bound check`
	return sites, nil
}

// Bad: a local wrapper named readUvarint is still a wire read.
func readUvarint(r io.ByteReader, what string) (uint64, error) {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("decoding %s: %w", what, err)
	}
	return v, nil
}

func uncheckedViaWrapper(r *bytes.Reader) ([]uint64, error) {
	n, err := readUvarint(r, "count")
	if err != nil {
		return nil, err
	}
	vals := make([]uint64, n) // want `make sized by wire-read length "n" with no bound check`
	return vals, nil
}

// Good: checked against the package's hardening cap.
func checkedAgainstCap(br *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > uint64(maxPayload) {
		return nil, fmt.Errorf("payload %d exceeds limit %d", n, maxPayload)
	}
	buf := make([]byte, n)
	_, err = io.ReadFull(br, buf)
	return buf, err
}

// Good: checked against the bytes actually remaining — the dist decoder
// idiom (each element is at least one byte).
func checkedAgainstRemaining(r *bytes.Reader) ([]int, error) {
	n, err := readUvarint(r, "site count")
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Len()) {
		return nil, fmt.Errorf("claims %d sites in a %d-byte payload", n, r.Len())
	}
	sites := make([]int, n)
	return sites, nil
}

// window mirrors logstore's window reader: it decodes varints from its own
// buffer instead of through encoding/binary's readers, so its raw
// primitive must taint like ReadUvarint does.
type window struct {
	buf []byte
	pos int
}

func (w *window) rawUvarint() (uint64, error) {
	var v uint64
	for shift := uint(0); w.pos < len(w.buf); shift += 7 {
		b := w.buf[w.pos]
		w.pos++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
	}
	return 0, io.ErrUnexpectedEOF
}

// Bad: the window reader's raw varint sizes an allocation unchecked.
func uncheckedWindow(w *window) ([]string, error) {
	n, err := w.rawUvarint()
	if err != nil {
		return nil, err
	}
	names := make([]string, n) // want `make sized by wire-read length "n" with no bound check`
	return names, nil
}

// Good: the window reader's varint checked against the cap first.
func checkedWindow(w *window) ([]string, error) {
	n, err := w.rawUvarint()
	if err != nil {
		return nil, err
	}
	if n > maxPayload {
		return nil, fmt.Errorf("claims %d names, limit %d", n, maxPayload)
	}
	names := make([]string, n)
	return names, nil
}

// Good: a length derived from in-memory data, not the wire.
func lenSized(domains []string) []bool {
	return make([]bool, len(domains))
}
