package xclient_test

import (
	"strings"
	"testing"

	"repro/internal/xclient"
	"repro/internal/xproto"
)

// pixelAt reads an RGB triple from a screenshot.
func pixelAt(shot xproto.ScreenshotReply, x, y int) [3]byte {
	i := (y*int(shot.Width) + x) * 3
	return [3]byte{shot.Pixels[i], shot.Pixels[i+1], shot.Pixels[i+2]}
}

// TestCompositingStackingOrder: overlapping siblings composite in
// stacking order, and restacking changes the visible pixel.
func TestCompositingStackingOrder(t *testing.T) {
	_, d := newPair(t)
	red := d.CreateWindow(d.Root, 50, 50, 100, 100, 0,
		xclient.WindowAttributes{Background: 0xff0000, OverrideRedirect: true})
	blue := d.CreateWindow(d.Root, 100, 100, 100, 100, 0,
		xclient.WindowAttributes{Background: 0x0000ff, OverrideRedirect: true})
	d.MapWindow(red)
	d.MapWindow(blue)
	d.ClearWindow(red)
	d.ClearWindow(blue)
	shot, err := d.Screenshot(xproto.None)
	if err != nil {
		t.Fatal(err)
	}
	// The overlap region (120,120) shows blue (created later = on top).
	if pixelAt(shot, 120, 120) != [3]byte{0, 0, 0xff} {
		t.Fatalf("overlap = %v, want blue", pixelAt(shot, 120, 120))
	}
	// Non-overlapping parts show through.
	if pixelAt(shot, 60, 60) != [3]byte{0xff, 0, 0} {
		t.Fatalf("red region = %v", pixelAt(shot, 60, 60))
	}
	// Raise red: the overlap flips.
	d.RaiseWindow(red)
	shot, _ = d.Screenshot(xproto.None)
	if pixelAt(shot, 120, 120) != [3]byte{0xff, 0, 0} {
		t.Fatalf("after raise, overlap = %v, want red", pixelAt(shot, 120, 120))
	}
	// Unmapping removes a window from the composite.
	d.UnmapWindow(red)
	shot, _ = d.Screenshot(xproto.None)
	if got := pixelAt(shot, 60, 60); got == [3]byte{0xff, 0, 0} {
		t.Fatal("unmapped window still composited")
	}
}

// TestCompositingBordersAndTitle: borders render around content, and
// non-override top-level windows get the built-in WM title bar with
// WM_NAME.
func TestCompositingBordersAndTitle(t *testing.T) {
	_, d := newPair(t)
	w := d.CreateWindow(d.Root, 100, 100, 60, 40, 3,
		xclient.WindowAttributes{Background: 0xffffff, Border: 0x00ff00})
	d.ChangeProperty(w, xproto.AtomWMName, xproto.AtomString, []byte("title"))
	d.MapWindow(w)
	d.ClearWindow(w)
	shot, err := d.Screenshot(xproto.None)
	if err != nil {
		t.Fatal(err)
	}
	// Content origin is at 103,103 (x + border). Border pixels surround.
	if pixelAt(shot, 101, 110) != [3]byte{0, 0xff, 0} {
		t.Fatalf("left border = %v", pixelAt(shot, 101, 110))
	}
	if pixelAt(shot, 110, 110) != [3]byte{0xff, 0xff, 0xff} {
		t.Fatalf("content = %v", pixelAt(shot, 110, 110))
	}
	// Title bar pixels above the window.
	if got := pixelAt(shot, 110, 92); got != [3]byte{0x6a, 0x5a, 0xcd} {
		t.Fatalf("title bar = %v", got)
	}
}

// TestChildWindowClipping: children draw relative to the parent and
// composite inside it.
func TestChildCompositing(t *testing.T) {
	_, d := newPair(t)
	parent := d.CreateWindow(d.Root, 10, 10, 100, 100, 0,
		xclient.WindowAttributes{Background: 0xcccccc, OverrideRedirect: true})
	child := d.CreateWindow(parent, 20, 20, 30, 30, 0,
		xclient.WindowAttributes{Background: 0xff00ff})
	d.MapWindow(parent)
	d.MapWindow(child)
	d.ClearWindow(parent)
	d.ClearWindow(child)
	shot, _ := d.Screenshot(xproto.None)
	// Child content at root coords (10+20, 10+20).
	if pixelAt(shot, 35, 35) != [3]byte{0xff, 0, 0xff} {
		t.Fatalf("child pixel = %v", pixelAt(shot, 35, 35))
	}
	if pixelAt(shot, 15, 15) != [3]byte{0xcc, 0xcc, 0xcc} {
		t.Fatalf("parent pixel = %v", pixelAt(shot, 15, 15))
	}
}

// TestScreenshotOversizeRefused: a screenshot whose reply might not fit
// one frame, or whose sides overflow the reply's 16-bit fields, is
// answered with a protocol error before the server composes anything,
// and the connection survives it.
func TestScreenshotOversizeRefused(t *testing.T) {
	cases := []struct {
		name      string
		w, h, bw  int
		wantShape string // the screenshot's size, title bar included
	}{
		{"past the frame cap", 4800, 4800, 0, "4800x4818"},
		{"wider than 65535", 65535, 1, 2, "65539x23"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, d := newPair(t)
			w := d.CreateWindow(d.Root, 0, 0, c.w, c.h, c.bw, xclient.WindowAttributes{Background: 0x808080})
			shot, err := d.Screenshot(w)
			if err == nil {
				t.Fatalf("Screenshot of a %s window = %dx%d with %d pixel bytes, want an error",
					c.wantShape, shot.Width, shot.Height, len(shot.Pixels))
			}
			if !strings.Contains(err.Error(), c.wantShape) {
				t.Fatalf("Screenshot error %q does not name the %s size", err, c.wantShape)
			}
			if err := d.Sync(); err != nil {
				t.Fatalf("Sync after the refused screenshot: %v", err)
			}
		})
	}
}
