// Package xproto defines the wire protocol spoken between the simulated
// X display server (internal/xserver) and its clients
// (internal/xclient). The protocol is modeled on the X11 core protocol:
// clients send numbered requests, some of which produce replies; the
// server sends replies, errors and events. Requests, replies and events
// are length-prefixed binary messages so the protocol can run over any
// net.Conn — an in-process pipe or a real TCP socket between separate
// operating-system processes (which is what makes Tk's "send" a true
// inter-application mechanism here, as in the paper).
package xproto

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Message kinds on the server-to-client stream.
const (
	KindReply byte = iota
	KindEvent
	KindError
)

// MaxFrameBytes caps the payload of one frame in either direction, and
// the pixels a decoded screenshot may expand to. Readers reject a
// larger frame before allocating for it; the server refuses a
// screenshot whose reply could exceed it (CheckScreenshotSize).
const MaxFrameBytes = 64 << 20

// Writer accumulates a message payload.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with some preallocated capacity.
func NewWriter() *Writer { return &Writer{buf: make([]byte, 0, 64)} }

// writerPool recycles Writers for hot encode paths: the server's
// reply/error/event senders acquire one, encode, copy the bytes into an
// outbound frame, and release it, so steady-state encoding allocates
// nothing.
var writerPool = sync.Pool{
	New: func() any { return &Writer{buf: make([]byte, 0, 256)} },
}

// AcquireWriter returns an empty Writer from the pool. Pair with
// ReleaseWriter once the accumulated bytes have been copied out.
func AcquireWriter() *Writer {
	w := writerPool.Get().(*Writer)
	w.Reset()
	return w
}

// ReleaseWriter returns w to the pool. The caller must not use w — or
// any slice obtained from w.Bytes() — afterwards.
func ReleaseWriter(w *Writer) { writerPool.Put(w) }

// Reset clears the writer for reuse.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Bytes returns the accumulated payload.
func (w *Writer) Bytes() []byte { return w.buf }

// PutU8 appends a byte.
func (w *Writer) PutU8(v uint8) { w.buf = append(w.buf, v) }

// PutU16 appends a big-endian uint16.
func (w *Writer) PutU16(v uint16) {
	w.buf = binary.BigEndian.AppendUint16(w.buf, v)
}

// PutU32 appends a big-endian uint32.
func (w *Writer) PutU32(v uint32) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
}

// PutU64 appends a big-endian uint64.
func (w *Writer) PutU64(v uint64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}

// PutI16 appends a big-endian int16.
func (w *Writer) PutI16(v int16) { w.PutU16(uint16(v)) }

// PutI32 appends a big-endian int32.
func (w *Writer) PutI32(v int32) { w.PutU32(uint32(v)) }

// PutBool appends a boolean as one byte.
func (w *Writer) PutBool(v bool) {
	if v {
		w.PutU8(1)
	} else {
		w.PutU8(0)
	}
}

// PutString appends a length-prefixed string (u32 length).
func (w *Writer) PutString(s string) {
	w.PutU32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// PutBytes appends a length-prefixed byte slice.
func (w *Writer) PutBytes(b []byte) {
	w.PutU32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// Reader walks a message payload.
type Reader struct {
	buf []byte
	pos int
	err error
}

// NewReader wraps payload bytes.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decode error encountered, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("xproto: short message (%d bytes, offset %d)", len(r.buf), r.pos)
	}
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if r.err != nil || r.pos+1 > len(r.buf) {
		r.fail()
		return 0
	}
	v := r.buf[r.pos]
	r.pos++
	return v
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	if r.err != nil || r.pos+2 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(r.buf[r.pos:])
	r.pos += 2
	return v
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if r.err != nil || r.pos+4 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if r.err != nil || r.pos+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v
}

// I16 reads a big-endian int16.
func (r *Reader) I16() int16 { return int16(r.U16()) }

// I32 reads a big-endian int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// Bool reads a boolean byte.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.ByteSlice()) }

// ByteSlice reads a length-prefixed byte slice (shared with the buffer).
func (r *Reader) ByteSlice() []byte {
	n := int(r.U32())
	if r.err != nil || r.pos+n > len(r.buf) {
		r.fail()
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

// WriteFrame writes header, then a u32 payload length, then the payload.
// Client-to-server frames use a [u16 opcode] header; server-to-client
// frames a [u8 kind] header. The two directions never mix on a stream, so
// the framings may differ.
func WriteFrame(w io.Writer, header []byte, payload []byte) error {
	if _, err := w.Write(header); err != nil {
		return err
	}
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(payload)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadRequestFrame reads one client-to-server frame, returning the opcode
// and payload.
func ReadRequestFrame(r io.Reader) (op uint16, payload []byte, err error) {
	var hdr [6]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	op = binary.BigEndian.Uint16(hdr[:2])
	n := binary.BigEndian.Uint32(hdr[2:])
	if n > MaxFrameBytes {
		return 0, nil, fmt.Errorf("xproto: oversized request (%d bytes)", n)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return op, payload, nil
}

// ReadRequestFrameInto is ReadRequestFrame with a caller-owned scratch
// buffer: the returned payload aliases buf when it fits (buf is grown
// otherwise), so a read loop that passes the previous payload back in
// runs allocation-free once the buffer has grown to the workload's
// largest request. The caller must fully consume each payload before
// the next call; that is safe here because every request Decode copies
// the variable-length fields it retains (see requests.go).
func ReadRequestFrameInto(r io.Reader, buf []byte) (op uint16, payload []byte, err error) {
	var hdr [6]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	op = binary.BigEndian.Uint16(hdr[:2])
	n := binary.BigEndian.Uint32(hdr[2:])
	if n > MaxFrameBytes {
		return 0, nil, fmt.Errorf("xproto: oversized request (%d bytes)", n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload = buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return op, payload, nil
}

// WriteRequestFrame writes one client-to-server frame.
func WriteRequestFrame(w io.Writer, op uint16, payload []byte) error {
	var hdr [2]byte
	binary.BigEndian.PutUint16(hdr[:], op)
	return WriteFrame(w, hdr[:], payload)
}

// AppendRequestFrame appends one client-to-server frame for req to buf,
// encoding the payload in place and backfilling the length field, so a
// client can batch many requests into one write buffer without an
// intermediate Writer or header allocation per request.
func AppendRequestFrame(buf []byte, req Request) []byte {
	w := Writer{buf: buf}
	w.PutU16(req.Op())
	lenAt := len(w.buf)
	w.PutU32(0) // payload length, backfilled once the payload is encoded
	req.Encode(&w)
	binary.BigEndian.PutUint32(w.buf[lenAt:], uint32(len(w.buf)-lenAt-4))
	return w.buf
}

// ReadServerFrame reads one server-to-client frame, returning the message
// kind and payload.
func ReadServerFrame(r io.Reader) (kind byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	kind = hdr[0]
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxFrameBytes {
		return 0, nil, fmt.Errorf("xproto: oversized server message (%d bytes)", n)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return kind, payload, nil
}

// ReadServerFrameInto is ReadServerFrame with a caller-owned scratch
// buffer (the server-to-client mirror of ReadRequestFrameInto): the
// returned payload aliases buf when it fits. Callers that hand a
// payload to something outliving the next read — the client's reply
// cookies decode lazily — must copy it first.
func ReadServerFrameInto(r io.Reader, buf []byte) (kind byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	kind = hdr[0]
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxFrameBytes {
		return 0, nil, fmt.Errorf("xproto: oversized server message (%d bytes)", n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload = buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return kind, payload, nil
}

// WriteServerFrame writes one server-to-client frame.
func WriteServerFrame(w io.Writer, kind byte, payload []byte) error {
	return WriteFrame(w, []byte{kind}, payload)
}
