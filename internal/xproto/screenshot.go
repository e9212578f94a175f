package xproto

import (
	"encoding/binary"
	"fmt"
	"math"
)

// ScreenshotReply carries a composited image, row-major. On the wire
// the pixel body is per-row runs: [uvarint count][R G B], each run at
// least one pixel long, never crossing a row end, the counts of a row
// adding up to exactly Width. A slide of flat fills is mostly long
// runs, so its reply is a few percent of the packed-RGB size. Decode
// expands the runs into Pixels.
type ScreenshotReply struct {
	Width, Height uint16
	Pixels        []byte // 3 bytes per pixel, RGB
}

// Encode serializes the reply; Pixels must hold Width×Height×3 bytes.
func (p *ScreenshotReply) Encode(w *Writer) {
	width := int(p.Width)
	enc := BeginScreenshot(w, p.Width, p.Height)
	row := make([]uint32, width)
	for y := 0; y < int(p.Height); y++ {
		src := p.Pixels[y*width*3:]
		for x := range row {
			row[x] = uint32(src[3*x])<<16 | uint32(src[3*x+1])<<8 | uint32(src[3*x+2])
		}
		enc.Span(row)
		enc.EndRow()
	}
	enc.End()
}

// Decode deserializes the reply, which must end the payload. The
// payload is untrusted: a reply whose pixels would exceed
// MaxFrameBytes, or whose runs are not exactly Width×Height pixels,
// fails the Reader before Pixels is allocated.
func (p *ScreenshotReply) Decode(r *Reader) {
	p.Width = r.U16()
	p.Height = r.U16()
	body := r.ByteSlice()
	if r.err != nil {
		return
	}
	if r.pos != len(r.buf) {
		r.err = fmt.Errorf("xproto: screenshot reply has %d bytes past its body", len(r.buf)-r.pos)
		return
	}
	w, h := int(p.Width), int(p.Height)
	if w*h*3 > MaxFrameBytes {
		r.err = fmt.Errorf("xproto: screenshot %dx%d expands past %d bytes", w, h, MaxFrameBytes)
		return
	}
	if err := expandRuns(body, w, h, nil); err != nil {
		r.err = err
		return
	}
	p.Pixels = make([]byte, w*h*3)
	expandRuns(body, w, h, p.Pixels) //nolint:errcheck — validated above
}

// expandRuns walks a run body of h rows of w pixels, writing the pixels
// into dst as RGB triples; a nil dst only validates.
func expandRuns(body []byte, w, h int, dst []byte) error {
	pos, di := 0, 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; {
			n, k := binary.Uvarint(body[pos:])
			if k <= 0 {
				return fmt.Errorf("xproto: screenshot row %d: bad run count at body offset %d", y, pos)
			}
			pos += k
			if n == 0 || n > uint64(w-x) {
				return fmt.Errorf("xproto: screenshot row %d: run of %d at column %d does not fit a %d-pixel row", y, n, x, w)
			}
			if len(body)-pos < 3 {
				return fmt.Errorf("xproto: screenshot row %d: short run at body offset %d", y, pos)
			}
			if dst != nil {
				run := dst[di : di+3*int(n)]
				copy(run, body[pos:pos+3])
				for done := 3; done < len(run); done *= 2 {
					copy(run[done:], run[:done])
				}
				di += len(run)
			}
			pos += 3
			x += int(n)
		}
	}
	if pos != len(body) {
		return fmt.Errorf("xproto: screenshot body has %d trailing bytes", len(body)-pos)
	}
	return nil
}

// CheckScreenshotSize reports why a width×height screenshot cannot be
// sent, or nil. Both sides must fit the reply's 16-bit fields, and the
// reply frame (its 8-byte sequence number, 8 bytes of fields, and a
// body that at worst spends 4 bytes on every pixel) must fit
// MaxFrameBytes whatever the pixels are.
func CheckScreenshotSize(width, height int) error {
	if width > math.MaxUint16 || height > math.MaxUint16 {
		return fmt.Errorf("screenshot %dx%d exceeds %d pixels a side", width, height, math.MaxUint16)
	}
	if 16+4*width*height > MaxFrameBytes {
		return fmt.Errorf("screenshot %dx%d could exceed the %d-byte frame cap", width, height, MaxFrameBytes)
	}
	return nil
}

// ScreenshotRuns encodes a ScreenshotReply's run body as pixels are fed
// to it, so a sender can stream rows of 0x00RRGGBB pixels from its own
// storage without staging them. Feed each row as one or more Spans,
// then EndRow; after the last row, End.
type ScreenshotRuns struct {
	w     *Writer
	lenAt int    // offset of the body-length field
	px    uint32 // colour of the open run
	n     int    // length of the open run; 0 when none is open
}

// BeginScreenshot writes a ScreenshotReply's fixed fields to w and
// returns the encoder for its body.
func BeginScreenshot(w *Writer, width, height uint16) ScreenshotRuns {
	w.PutU16(width)
	w.PutU16(height)
	e := ScreenshotRuns{w: w, lenAt: len(w.buf)}
	w.PutU32(0) // body length, backfilled by End
	return e
}

// Span appends pixels to the current row.
func (e *ScreenshotRuns) Span(px []uint32) {
	for i := 0; i < len(px); {
		c := px[i]
		j := i + 1
		for j < len(px) && px[j] == c {
			j++
		}
		if e.n > 0 && e.px == c {
			e.n += j - i
		} else {
			e.flush()
			e.px, e.n = c, j-i
		}
		i = j
	}
}

// EndRow closes the current row: the open run ends with it.
func (e *ScreenshotRuns) EndRow() { e.flush() }

// End backfills the body length once every row has been fed.
func (e *ScreenshotRuns) End() {
	binary.BigEndian.PutUint32(e.w.buf[e.lenAt:], uint32(len(e.w.buf)-e.lenAt-4))
}

func (e *ScreenshotRuns) flush() {
	if e.n == 0 {
		return
	}
	e.w.buf = binary.AppendUvarint(e.w.buf, uint64(e.n))
	e.w.buf = append(e.w.buf, byte(e.px>>16), byte(e.px>>8), byte(e.px))
	e.n = 0
}
