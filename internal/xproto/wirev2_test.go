package xproto

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// encodePayload renders a request's payload bytes (no outer framing).
func encodePayload(t *testing.T, req Request) []byte {
	t.Helper()
	w := AcquireWriter()
	defer ReleaseWriter(w)
	req.Encode(w)
	return append([]byte(nil), w.Bytes()...)
}

// requestFrame renders one v1 request frame for (op, payload).
func requestFrame(t *testing.T, op uint16, payload []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := WriteRequestFrame(&b, op, payload); err != nil {
		t.Fatalf("WriteRequestFrame: %v", err)
	}
	return b.Bytes()
}

// collectSegment decodes a client→server segment envelope and the
// request frames inside it, returning the (op, payload) pairs seen.
func collectSegment(t *testing.T, seg []byte) []struct {
	op      uint16
	payload []byte
} {
	t.Helper()
	raw, _, err := DecodeSegmentPayload(seg, nil)
	if err != nil {
		t.Fatalf("DecodeSegmentPayload: %v", err)
	}
	var got []struct {
		op      uint16
		payload []byte
	}
	err = WalkRequestFrames(raw, func(op uint16, payload []byte) error {
		got = append(got, struct {
			op      uint16
			payload []byte
		}{op, append([]byte(nil), payload...)})
		return nil
	})
	if err != nil {
		t.Fatalf("WalkRequestFrames: %v", err)
	}
	return got
}

// segPayload strips the outer OpWireSeg frame header, returning the
// segment envelope bytes.
func segPayload(t *testing.T, frame []byte) []byte {
	t.Helper()
	op, payload, err := ReadRequestFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("ReadRequestFrame: %v", err)
	}
	if op != OpWireSeg {
		t.Fatalf("op = %d, want OpWireSeg", op)
	}
	return payload
}

func TestWireSegRoundTripCompressed(t *testing.T) {
	// Highly repetitive frames: compression must kick in, and the
	// decode must reproduce every (op, payload) pair in order.
	var inner []byte
	var want [][]byte
	for i := 0; i < 50; i++ {
		req := &PolyFillRectangleReq{Drawable: 3, Gc: 4, Rects: []Rect{{X: int16(i), Y: 10, W: 20, H: 20}}}
		want = append(want, encodePayload(t, req))
		inner = AppendRequestFrame(inner, req)
	}
	frame, compressed := AppendWireSegRequestFrame(nil, inner)
	if !compressed {
		t.Fatalf("repetitive segment did not compress")
	}
	if len(frame) >= len(inner) {
		t.Fatalf("compressed frame (%d bytes) not smaller than the raw frames (%d bytes)", len(frame), len(inner))
	}

	got := collectSegment(t, segPayload(t, frame))
	if len(got) != len(want) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].op != OpPolyFillRectangle {
			t.Fatalf("frame %d: op = %d, want OpPolyFillRectangle", i, got[i].op)
		}
		if !bytes.Equal(got[i].payload, want[i]) {
			t.Fatalf("frame %d: payload mismatch\n got %x\nwant %x", i, got[i].payload, want[i])
		}
	}
}

func TestWireSegIncompressiblePassthrough(t *testing.T) {
	// Random bytes do not compress: the envelope must fall back to the
	// verbatim body and still round-trip.
	rng := rand.New(rand.NewSource(7))
	payload := make([]byte, 2048)
	rng.Read(payload)
	frame, compressed := AppendWireSegRequestFrame(nil, requestFrame(t, OpPing, payload))
	if compressed {
		t.Fatalf("random segment claims to have compressed")
	}
	got := collectSegment(t, segPayload(t, frame))
	if len(got) != 1 || got[0].op != OpPing || !bytes.Equal(got[0].payload, payload) {
		t.Fatalf("passthrough round trip mismatch")
	}
}

func TestWireSegSmallSegmentNotCompressed(t *testing.T) {
	inner := requestFrame(t, OpPing, nil)
	if len(inner) >= minCompressSize {
		t.Fatalf("test premise broken: tiny frame is %d bytes", len(inner))
	}
	_, compressed := AppendWireSegRequestFrame(nil, inner)
	if compressed {
		t.Fatalf("segment below minCompressSize was compressed")
	}
}

func TestSegmentChecksumMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	payload := make([]byte, 200)
	rng.Read(payload)
	frame, compressed := AppendWireSegRequestFrame(nil, requestFrame(t, OpPing, payload))
	if compressed {
		t.Fatalf("random segment claims to have compressed")
	}
	seg := segPayload(t, frame)
	// Flip one bit in the body (past the 9-byte envelope header).
	seg[9+len(seg[9:])/2] ^= 0x40
	if _, _, err := DecodeSegmentPayload(seg, nil); err == nil {
		t.Fatalf("corrupted segment decoded without error")
	}
}

func TestSegmentCorruptCompressedBody(t *testing.T) {
	frame, compressed := AppendWireSegRequestFrame(nil, requestFrame(t, OpPing, bytes.Repeat([]byte{5}, 500)))
	if !compressed {
		t.Fatalf("repetitive segment did not compress")
	}
	seg := segPayload(t, frame)
	for i := 9; i < len(seg); i++ {
		mut := append([]byte(nil), seg...)
		mut[i] ^= 0xFF
		if raw, _, err := DecodeSegmentPayload(mut, nil); err == nil {
			// A decode that survives the flip must still have been
			// checksum-verified to the original bytes (CRC collision at
			// one flipped byte is impossible for CRC-32C).
			t.Fatalf("byte %d: corrupted compressed segment decoded to %d bytes without error", i, len(raw))
		}
	}
}

func TestSegmentTruncationAndFlags(t *testing.T) {
	inner := requestFrame(t, OpPing, []byte{1, 2, 3})
	frame, _ := AppendWireSegRequestFrame(nil, inner)
	seg := segPayload(t, frame)
	flagged := append([]byte(nil), seg...)
	flagged[0] = 0x80 // unknown flag bit
	decode := func(env []byte) error {
		_, _, err := DecodeSegmentPayload(env, nil)
		return err
	}
	walk := func(raw []byte) error {
		return WalkRequestFrames(raw, func(uint16, []byte) error { return nil })
	}
	// inner is [u16 op][u32 len=3][3 bytes]: cut inside the header, and
	// a length field claiming one byte more than is present.
	overrun := append([]byte(nil), inner...)
	overrun[5]++
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"truncated envelope", decode(seg[:5])},
		{"truncated body", decode(seg[:len(seg)-1])},
		{"unknown flags", decode(flagged)},
		{"truncated request header", walk(inner[:4])},
		{"request length overrun", walk(overrun)},
		{"torn second request", walk(append(append([]byte(nil), inner...), inner[:len(inner)-1]...))},
	} {
		if tc.err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
	if err := walk(append(append([]byte(nil), inner...), inner...)); err != nil {
		t.Fatalf("two whole requests: %v", err)
	}
}

func TestSegmentDeclaredLengthBounded(t *testing.T) {
	// A compressed envelope may not declare more raw bytes than its body
	// can inflate to: a 10-byte envelope claiming 64 MiB must fail
	// before the decoder allocates for it.
	env := []byte{segFlagCompressed, 0, 0, 0, 0, 0x04, 0, 0, 0, 0x03}
	_, scratch, err := DecodeSegmentPayload(env, nil)
	if err == nil {
		t.Fatalf("64 MiB claim from a 1-byte body decoded")
	}
	if cap(scratch) > 0 {
		t.Fatalf("rejected envelope grew scratch to %d bytes", cap(scratch))
	}
	// One byte past the ratio bound is refused too; a real segment at a
	// high ratio still decodes.
	raw := requestFrame(t, OpPing, make([]byte, 1<<16))
	frame, compressed := AppendWireSegRequestFrame(nil, raw)
	if !compressed {
		t.Fatalf("zero-filled segment did not compress")
	}
	good := segPayload(t, frame)
	if _, _, err := DecodeSegmentPayload(good, nil); err != nil {
		t.Fatalf("genuine %d:1 segment: %v", len(raw)/(len(good)-9), err)
	}
	over := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(over[5:9], uint32(len(good)-9)*maxInflateRatio+1)
	if _, scratch, err := DecodeSegmentPayload(over, nil); err == nil || cap(scratch) > 0 {
		t.Fatalf("over-ratio claim: err %v, scratch %d bytes", err, cap(scratch))
	}
}

func TestWalkServerFrames(t *testing.T) {
	var raw []byte
	frames := []struct {
		kind    byte
		payload []byte
	}{
		{KindReply, []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{KindEvent, []byte{9}},
		{KindError, nil},
	}
	for _, f := range frames {
		raw = append(raw, f.kind)
		raw = append(raw, byte(len(f.payload)>>24), byte(len(f.payload)>>16), byte(len(f.payload)>>8), byte(len(f.payload)))
		raw = append(raw, f.payload...)
	}
	sframe, _ := AppendWireSegServerFrame(nil, raw)
	kind, seg, err := ReadServerFrame(bytes.NewReader(sframe))
	if err != nil || kind != KindWireSeg {
		t.Fatalf("ReadServerFrame: kind %d, err %v", kind, err)
	}
	dec, _, err := DecodeSegmentPayload(seg, nil)
	if err != nil {
		t.Fatalf("DecodeSegmentPayload: %v", err)
	}
	i := 0
	err = WalkServerFrames(dec, func(kind byte, payload []byte) error {
		if kind != frames[i].kind || !bytes.Equal(payload, frames[i].payload) {
			t.Fatalf("frame %d mismatch: kind %d payload %x", i, kind, payload)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatalf("WalkServerFrames: %v", err)
	}
	if i != len(frames) {
		t.Fatalf("walked %d frames, want %d", i, len(frames))
	}

	// Truncated inner server frame must error, not loop or panic.
	if err := WalkServerFrames(dec[:len(dec)-3], func(byte, []byte) error { return nil }); err == nil {
		t.Fatalf("truncated server segment walked without error")
	}
}
