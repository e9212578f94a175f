package xproto_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/xclient"
	"repro/internal/xproto"
)

// encodeShot returns the wire payload of a screenshot reply.
func encodeShot(p *xproto.ScreenshotReply) []byte {
	w := xproto.NewWriter()
	p.Encode(w)
	return w.Bytes()
}

// uniformShot is a W×H reply of one colour.
func uniformShot(width, height int) *xproto.ScreenshotReply {
	px := bytes.Repeat([]byte{0x33, 0x66, 0x99}, width*height)
	return &xproto.ScreenshotReply{Width: uint16(width), Height: uint16(height), Pixels: px}
}

// body builds a reply payload with the given fields and run body.
func body(width, height uint16, runs []byte) []byte {
	w := xproto.NewWriter()
	w.PutU16(width)
	w.PutU16(height)
	w.PutBytes(runs)
	return w.Bytes()
}

func TestScreenshotReplyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sz := range [][2]int{{0, 0}, {0, 5}, {5, 0}, {1, 1}, {64, 3}, {129, 65}} {
		p := xproto.ScreenshotReply{Width: uint16(sz[0]), Height: uint16(sz[1]), Pixels: make([]byte, sz[0]*sz[1]*3)}
		for i := range p.Pixels {
			p.Pixels[i] = byte(rng.Intn(3)) // few colours: runs of every length
		}
		var q xproto.ScreenshotReply
		r := xproto.NewReader(encodeShot(&p))
		q.Decode(r)
		if r.Err() != nil {
			t.Fatalf("%dx%d: %v", sz[0], sz[1], r.Err())
		}
		if q.Width != p.Width || q.Height != p.Height || !bytes.Equal(q.Pixels, p.Pixels) {
			t.Fatalf("%dx%d: round trip changed the reply", sz[0], sz[1])
		}
	}
}

// TestScreenshotReplyRejects feeds the decoder replies that break the
// run format; each must fail the Reader and leave Pixels unallocated.
func TestScreenshotReplyRejects(t *testing.T) {
	run := func(n uint64, rgb ...byte) []byte { return append(binary.AppendUvarint(nil, n), rgb...) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	cases := []struct {
		name    string
		payload []byte
	}{
		{"zero-length run", body(2, 1, cat(run(0, 1, 2, 3), run(2, 1, 2, 3)))},
		{"run overruns its row", body(2, 2, cat(run(3, 1, 2, 3), run(1, 1, 2, 3)))},
		{"short body", body(2, 2, run(2, 1, 2, 3))},
		{"truncated run", body(2, 1, run(2, 1, 2))},
		{"bad run count", body(2, 1, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})},
		{"trailing body bytes", body(2, 1, cat(run(2, 1, 2, 3), []byte{9}))},
		{"bytes past the body", append(body(2, 1, run(2, 1, 2, 3)), 9)},
		{"pixels past the frame cap", body(65535, 342, bytes.Repeat(run(65535, 1, 2, 3), 342))},
		{"short fields", []byte{0, 2, 0}},
	}
	for _, c := range cases {
		var p xproto.ScreenshotReply
		r := xproto.NewReader(c.payload)
		p.Decode(r)
		if r.Err() == nil || p.Pixels != nil {
			t.Errorf("%s: err %v, %d pixel bytes; want an error and none", c.name, r.Err(), len(p.Pixels))
		}
	}
	// Just under the cap decodes.
	var p xproto.ScreenshotReply
	r := xproto.NewReader(body(65535, 341, bytes.Repeat(run(65535, 1, 2, 3), 341)))
	p.Decode(r)
	if r.Err() != nil || len(p.Pixels) != 65535*341*3 {
		t.Fatalf("65535x341: err %v, %d pixel bytes", r.Err(), len(p.Pixels))
	}
}

var shotLen = regexp.MustCompile(`<- rep #\d+ Screenshot len=(\d+)$`)

// tracedApp is an application whose wire tracer records every reply's
// payload length.
func tracedApp(t testing.TB) *core.App {
	t.Helper()
	app, err := core.NewApp(core.Options{Name: "shot", Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Close)
	return app
}

// screenshot takes a screenshot of win and returns the decoded reply
// and its payload size as the wire tracer saw it cross.
func screenshot(t testing.TB, app *core.App, win xproto.ID) (xproto.ScreenshotReply, int) {
	t.Helper()
	shot, err := app.Disp.Screenshot(win)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range app.Tracer.Last(4) {
		if m := shotLen.FindStringSubmatch(e.Text); m != nil {
			n, _ := strconv.Atoi(m[1])
			return shot, n
		}
	}
	t.Fatal("the wire tracer saw no Screenshot reply")
	return shot, 0
}

// slide builds a defslide-style canvas of width×height holding items
// seeded rectangles, ovals, lines and text in ten colours, and returns
// its window.
func slide(t testing.TB, app *core.App, width, height, items int) xproto.ID {
	t.Helper()
	colors := []string{"red", "blue", "green", "orange", "purple", "gray", "brown", "navy", "gold", "black"}
	rng := rand.New(rand.NewSource(1))
	var sb strings.Builder
	fmt.Fprintf(&sb, "canvas .c -width %d -height %d\npack append . .c {top}\n", width, height)
	for k := 0; k < items; k++ {
		x, y := 10+rng.Intn(width-60), 10+rng.Intn(height-60)
		w, h := 20+rng.Intn(21), 14+rng.Intn(15)
		fill := colors[rng.Intn(len(colors))]
		switch k % 4 {
		case 0:
			fmt.Fprintf(&sb, ".c create rectangle %d %d %d %d -fill %s\n", x, y, x+w, y+h, fill)
		case 1:
			fmt.Fprintf(&sb, ".c create oval %d %d %d %d -fill %s\n", x, y, x+w, y+h, fill)
		case 2:
			fmt.Fprintf(&sb, ".c create line %d %d %d %d -fill %s -width %d\n", x, y, x+w, y+h, fill, 1+rng.Intn(3))
		case 3:
			word := make([]byte, 3+rng.Intn(7))
			for i := range word {
				word[i] = byte('a' + rng.Intn(26))
			}
			fmt.Fprintf(&sb, ".c create text %d %d -text %s -fill %s\n", x, y, word, fill)
		}
	}
	app.MustEval(sb.String())
	app.Update()
	w, err := app.NameToWindow(".c")
	if err != nil {
		t.Fatal(err)
	}
	return w.XID
}

// slideBound caps the reply of the 800×600, 240-item slide. Measured:
// 52,804 bytes; the packed-RGB reply it replaced was 1,440,008.
const slideBound = 56_000

// TestScreenshotReplyBytes gates the run encoding's size as counts of
// the bytes a reply puts on the wire. A uniform W×H window costs one
// run per row, exactly 8 + H×(len(uvarint(W))+3) bytes; the slide must
// stay under slideBound.
func TestScreenshotReplyBytes(t *testing.T) {
	app := tracedApp(t)
	for _, sz := range [][2]int{{100, 50}, {300, 200}, {20000, 3}} {
		width, height := sz[0], sz[1]
		win := app.Disp.CreateWindow(app.Main.XID, 0, 0, width, height, 0, xclient.WindowAttributes{Background: 0x336699})
		_, got := screenshot(t, app, win)
		want := 8 + height*(len(binary.AppendUvarint(nil, uint64(width)))+3)
		if got != want {
			t.Errorf("uniform %dx%d: reply is %d bytes, want %d", width, height, got, want)
		}
		app.Disp.DestroyWindow(win)
	}
	shot, got := screenshot(t, app, slide(t, app, 800, 600, 240))
	if shot.Width != 800 || shot.Height != 600 {
		t.Fatalf("slide screenshot is %dx%d", shot.Width, shot.Height)
	}
	t.Logf("800x600 slide: %d-byte reply for %d pixel bytes", got, len(shot.Pixels))
	if got > slideBound {
		t.Fatalf("800x600 slide: reply is %d bytes, bound %d", got, slideBound)
	}
}

// FuzzScreenshotReply decodes arbitrary reply payloads. Decode must
// never panic and never allocate past MaxFrameBytes; when it succeeds
// the pixels are exactly W×H×3 bytes and survive an encode/decode round
// trip unchanged. Seeds are the replies of a uniform window and of a
// canvas slide, both small: a 320×240 slide's seed cut the smoke run
// to a few dozen executions, the mutator spending its time on the
// long input.
func FuzzScreenshotReply(f *testing.F) {
	f.Add(encodeShot(uniformShot(64, 48)))
	app := tracedApp(f)
	shot, _ := screenshot(f, app, slide(f, app, 160, 120, 12))
	f.Add(encodeShot(&shot))
	f.Fuzz(func(t *testing.T, data []byte) {
		var p xproto.ScreenshotReply
		r := xproto.NewReader(data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p.Decode(r)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > xproto.MaxFrameBytes+1<<20 {
			t.Fatalf("Decode allocated %d bytes", grew)
		}
		if r.Err() != nil {
			return
		}
		if len(p.Pixels) != int(p.Width)*int(p.Height)*3 {
			t.Fatalf("%dx%d reply decoded to %d pixel bytes", p.Width, p.Height, len(p.Pixels))
		}
		var q xproto.ScreenshotReply
		r = xproto.NewReader(encodeShot(&p))
		q.Decode(r)
		if r.Err() != nil || q.Width != p.Width || q.Height != p.Height || !bytes.Equal(q.Pixels, p.Pixels) {
			t.Fatalf("re-encoded reply does not decode to the same pixels (err %v)", r.Err())
		}
	})
}
