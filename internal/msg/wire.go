package msg

import (
	"encoding/binary"
	"fmt"
	"math/big"
)

// Writer builds canonical binary encodings. All protocol messages use
// the same primitives: big-endian fixed-width integers, length-
// prefixed big.Ints and byte strings. A Writer never fails; bounds
// are enforced on the Reader side.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with the given capacity hint.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Bytes returns the accumulated encoding.
func (w *Writer) Bytes() []byte { return w.buf }

// U8 appends a byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U32 appends a big-endian uint32.
func (w *Writer) U32(v uint32) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
}

// U64 appends a big-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}

// Node appends a NodeID.
func (w *Writer) Node(id NodeID) { w.U64(uint64(id)) }

// Nodes appends a length-prefixed NodeID list.
func (w *Writer) Nodes(ids []NodeID) {
	w.U32(uint32(len(ids)))
	for _, id := range ids {
		w.Node(id)
	}
}

// Big appends a length-prefixed big.Int (nil encodes as length 0…
// which decodes to zero; protocols must validate ranges themselves).
func (w *Writer) Big(v *big.Int) {
	if v == nil {
		w.U32(0)
		return
	}
	b := v.Bytes()
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// Blob appends a length-prefixed byte string.
func (w *Writer) Blob(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// Bool appends a boolean.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Reader decodes encodings produced by Writer. The first decoding
// error sticks: all subsequent reads return zero values, and Err
// reports the failure, so message decoders can read a full structure
// and check once.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps data for decoding.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Done returns an error unless the buffer was fully and cleanly
// consumed.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadEnvelope, len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.err = fmt.Errorf("%w: truncated (need %d bytes at offset %d)", ErrBadEnvelope, n, r.off)
		return nil
	}
	out := r.buf[r.off : r.off+n]
	r.off += n
	return out
}

// U8 reads a byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Node reads a NodeID.
func (r *Reader) Node() NodeID { return NodeID(r.U64()) }

// Nodes reads a length-prefixed NodeID list.
func (r *Reader) Nodes() []NodeID {
	n := r.U32()
	if r.err != nil {
		return nil
	}
	if int(n) > (len(r.buf)-r.off)/8 {
		r.err = fmt.Errorf("%w: node list length %d too large", ErrBadEnvelope, n)
		return nil
	}
	out := make([]NodeID, n)
	for i := range out {
		out[i] = r.Node()
	}
	return out
}

// Big reads a length-prefixed big.Int. Non-minimal encodings (a
// leading zero byte) are rejected: Writer.Big always emits the
// minimal form, so accepting padded variants would give one integer
// many byte forms and break transcript canonicity.
func (r *Reader) Big() *big.Int {
	n := r.U32()
	if r.err != nil {
		return nil
	}
	b := r.take(int(n))
	if r.err != nil {
		return nil
	}
	if len(b) > 0 && b[0] == 0 {
		r.err = fmt.Errorf("%w: non-minimal big.Int encoding (leading zero)", ErrBadEnvelope)
		return nil
	}
	return new(big.Int).SetBytes(b)
}

// Blob reads a length-prefixed byte string (copied).
func (r *Reader) Blob() []byte {
	n := r.U32()
	if r.err != nil {
		return nil
	}
	b := r.take(int(n))
	if r.err != nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// More reports whether unread bytes remain (and no error has stuck):
// decoders of messages with an optional trailing section use it to
// tell the short form from the long one.
func (r *Reader) More() bool { return r.err == nil && r.off < len(r.buf) }
