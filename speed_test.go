//go:build !race

// Paired timing gates for the three speed claims a count cannot carry:
// the tiled renderer against the seed's flat one, painter throughput
// under concurrent screenshots, and multi-client dispatch scaling. Each
// gate is the median of interleaved A/B pairs, so load that comes and
// goes during a run lands on both sides of a pair instead of on
// whichever side happened to run under it. The race detector slows the
// two sides unevenly, so this file builds only without it; make test
// runs it as a second, non-race leg.
package repro_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/flatimg"
	"repro/internal/xclient"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// timingPairs is how many A/B pairs each gate's median is taken over.
const timingPairs = 9

// medianRatio times a and b in timingPairs interleaved pairs,
// alternating which side runs first, and returns the median over pairs
// of a's duration divided by b's.
func medianRatio(t *testing.T, a, b func() time.Duration) float64 {
	t.Helper()
	ratios := make([]float64, timingPairs)
	for i := range ratios {
		var da, db time.Duration
		if i%2 == 0 {
			da, db = a(), b()
		} else {
			db, da = b(), a()
		}
		ratios[i] = float64(da) / float64(db)
	}
	slices.Sort(ratios)
	t.Logf("pair ratios, sorted: %.2f", ratios)
	return ratios[timingPairs/2]
}

const stormW, stormH = 1024, 768

// stormRects is a deterministic 64-rect storm modeled on a Tk repaint:
// eight full-width bands (frame backgrounds and reliefs) plus a grid
// of widget-scale fills, offset so several rects clip against every
// edge of the drawable.
func stormRects() []xproto.Rect {
	rects := make([]xproto.Rect, 0, 64)
	for i := 0; i < 8; i++ {
		rects = append(rects, xproto.Rect{X: -16, Y: int16(i*96 - 8), W: stormW + 32, H: 88})
	}
	for i := 0; i < 56; i++ {
		x := (i%8)*144 - 40
		y := (i/8)*104 - 24
		rects = append(rects, xproto.Rect{X: int16(x), Y: int16(y), W: 256, H: 128})
	}
	return rects
}

// stormScroll is the per-round scroll step: the region and upward
// shift of the overlapping self-CopyArea, a text-widget scroll.
const (
	scrollH     = 640
	scrollShift = 48
)

// stormPixels is the pixel area actually painted by one pass over the
// storm — clipped fill area plus the scrolled region — the denominator
// for pixels/second.
func stormPixels() int {
	total := stormW * scrollH // scroll step
	for _, r := range stormRects() {
		x0, y0 := max(int(r.X), 0), max(int(r.Y), 0)
		x1, y1 := min(int(r.X)+int(r.W), stormW), min(int(r.Y)+int(r.H), stormH)
		if x1 > x0 && y1 > y0 {
			total += (x1 - x0) * (y1 - y0)
		}
	}
	return total
}

var stormText = strings.Repeat("wish% pack .b -side top ", 2)

// flatStormRound paints one storm round with the seed renderer: the
// seed's per-pixel fill, copy and glyph loops, called directly with no
// protocol in the way (which biases the comparison in its favor).
func flatStormRound(im *flatimg.Image, rects []xproto.Rect) {
	for _, r := range rects {
		im.FillRect(int(r.X), int(r.Y), int(r.W), int(r.H), 0x336699)
	}
	im.CopyFrom(im, 0, scrollShift, 0, 0, stormW, scrollH)
	for i := 0; i < 8; i++ {
		im.DrawString(8, 40+i*80, stormText, 0xffffff, 1)
	}
}

// tiledStormRound pushes the same storm through the server: one
// batched PolyFillRectangle, one scrolling self-CopyArea, eight
// PolyText8 requests, one sync.
func tiledStormRound(d *xclient.Display, win, gc xproto.ID, rects []xproto.Rect) error {
	d.FillRectangles(win, gc, rects)
	d.CopyArea(win, win, gc, 0, scrollShift, 0, 0, stormW, scrollH)
	for i := 0; i < 8; i++ {
		d.DrawString(win, gc, 8, 40+i*80, stormText)
	}
	return d.Sync()
}

// stormClient opens a display with a storm-sized mapped window and a GC.
func stormClient(tb testing.TB, s *xserver.Server, x int) (*xclient.Display, xproto.ID, xproto.ID) {
	d, err := xclient.Open(s.ConnectPipe())
	if err != nil {
		tb.Fatal(err)
	}
	win := d.CreateWindow(d.Root, x, 0, stormW, stormH, 1, xclient.WindowAttributes{Background: 0x202020})
	d.MapWindow(win)
	gc := d.CreateGC(xclient.GCValues{Mask: xproto.GCForeground, Foreground: 0x336699})
	if err := d.Sync(); err != nil {
		tb.Fatal(err)
	}
	return d, win, gc
}

// BenchmarkRenderStorm measures the full client-to-framebuffer cost of
// one storm round against the tiled renderer. Run with -benchmem: the
// interesting numbers are MPx/s and that allocs/op stays flat — the
// fill path allocates nothing per rect.
func BenchmarkRenderStorm(b *testing.B) {
	s := xserver.New(stormW, stormH)
	defer s.Close()
	d, win, gc := stormClient(b, s, 0)
	defer d.Close()
	rects := stormRects()
	px := stormPixels()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tiledStormRound(d, win, gc, rects); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(px)*float64(b.N)/1e6/b.Elapsed().Seconds(), "MPx/s")
}

// TestPairedRenderStorm: the tiled pipeline must run the storm at
// least 3x faster than the seed's flat renderer, even though the tiled
// side pays for a full client/server protocol round per storm and the
// flat renderer is called directly.
func TestPairedRenderStorm(t *testing.T) {
	const rounds = 10
	rects := stormRects()
	flat := flatimg.New(stormW, stormH)
	s := xserver.New(stormW, stormH)
	defer s.Close()
	d, win, gc := stormClient(t, s, 0)
	defer d.Close()
	flatSide := func() time.Duration {
		start := time.Now()
		for i := 0; i < rounds; i++ {
			flatStormRound(flat, rects)
		}
		return time.Since(start)
	}
	tiledSide := func() time.Duration {
		start := time.Now()
		for i := 0; i < rounds; i++ {
			if err := tiledStormRound(d, win, gc, rects); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	flatSide() // warm
	tiledSide()
	if speedup := medianRatio(t, flatSide, tiledSide); speedup < 3 {
		t.Fatalf("tiled storm is %.2fx the flat renderer (median of %d pairs), want ≥ 3x", speedup, timingPairs)
	}
}

// TestPairedPaintersUnderScreenshots: two painters must keep at least
// half their throughput while two other connections export root
// screenshots at a live-capture pace (~15 fps each). A reader holds
// treeMu only for the snapshot walk; the seed held it across the whole
// compose-and-pack and stalled painters for milliseconds per frame. The
// readers are paced, not free-running, so the gate measures lock
// stalls rather than raw CPU sharing on small hosts.
func TestPairedPaintersUnderScreenshots(t *testing.T) {
	rects := stormRects()
	s := xserver.New(stormW, stormH)
	defer s.Close()
	paint := func(withReaders bool) time.Duration {
		const painters, roundsEach = 2, 75
		ds := make([]*xclient.Display, painters)
		wins := make([]xproto.ID, painters)
		gcs := make([]xproto.ID, painters)
		for i := range ds {
			ds[i], wins[i], gcs[i] = stormClient(t, s, i*64)
			defer ds[i].Close()
		}
		stop := make(chan struct{})
		var readers sync.WaitGroup
		if withReaders {
			for r := 0; r < 2; r++ {
				rd, err := xclient.Open(s.ConnectPipe())
				if err != nil {
					t.Fatal(err)
				}
				readers.Add(1)
				go func() {
					defer readers.Done()
					defer rd.Close()
					tick := time.NewTicker(66 * time.Millisecond)
					defer tick.Stop()
					for {
						select {
						case <-stop:
							return
						case <-tick.C:
						}
						if _, err := rd.Screenshot(xproto.None); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
		}
		var wg sync.WaitGroup
		start := time.Now()
		for i := range ds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < roundsEach; n++ {
					if err := tiledStormRound(ds[i], wins[i], gcs[i], rects); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		wall := time.Since(start)
		close(stop)
		readers.Wait()
		return wall
	}
	alone := func() time.Duration { return paint(false) }
	contended := func() time.Duration { return paint(true) }
	if kept := medianRatio(t, alone, contended); kept < 0.5 {
		t.Fatalf("painters keep %.2f of their throughput under concurrent screenshots (median of %d pairs), want ≥ 0.5",
			kept, timingPairs)
	}
}

// TestPairedMultiClientScaling: at 1 ms of simulated latency per wire
// segment, 8 concurrent clients must reach at least 3x the aggregate
// request throughput of one. A giant lock that serializes the
// per-segment latency, as the seed server had, cannot pass.
func TestPairedMultiClientScaling(t *testing.T) {
	const rounds = 40
	s := xserver.New(800, 600)
	defer s.Close()
	s.SetLatency(time.Millisecond)
	s.SetLatencyModel(xserver.LatencyPerSegment)
	// perRequest returns a side timing the clients' mixed rounds, as
	// wall time per request issued.
	perRequest := func(n int) func() time.Duration {
		displays := openClients(t, s, n)
		t.Cleanup(func() {
			for _, d := range displays {
				d.Close()
			}
		})
		// Warm the atom and color caches, so every timed round takes the
		// read-lock fast paths.
		if _, _, err := runClients(displays, 2); err != nil {
			t.Fatal(err)
		}
		return func() time.Duration {
			total, wall, err := runClients(displays, rounds)
			if err != nil {
				t.Fatal(err)
			}
			return wall / time.Duration(total)
		}
	}
	if speedup := medianRatio(t, perRequest(1), perRequest(8)); speedup < 3 {
		t.Fatalf("8 clients reach %.2fx the throughput of 1 (median of %d pairs), want ≥ 3x — dispatch is serializing",
			speedup, timingPairs)
	}
}

// stressAtoms is the overlapping atom set every benchmark client
// interns from — after the first pass it is all read-lock hits.
var stressAtoms = []string{
	"WM_NAME", "BENCH_A", "BENCH_B", "BENCH_C", "BENCH_D", "BENCH_E", "BENCH_F", "BENCH_G",
}

var benchPalette = []string{"red", "mediumseagreen", "bisque", "steelblue"}

// mixedRound issues one pipelined round of requests spanning the atom,
// color, GC, pixmap and dispatch-only subsystems — 4 reply-bearing and
// 6 one-way requests flushed as a single wire segment — and waits for
// the replies. Returns the number of requests issued.
func mixedRound(d *xclient.Display, i, r int) (int, error) {
	a1 := d.InternAtomAsync(stressAtoms[(i+r)%len(stressAtoms)])
	a2 := d.InternAtomAsync(stressAtoms[(i+r+3)%len(stressAtoms)])
	cc := d.AllocNamedColorAsync(benchPalette[(i+r)%len(benchPalette)])
	gc := d.CreateGC(xclient.GCValues{Mask: xproto.GCForeground, Foreground: uint32(i)})
	d.ChangeGC(gc, xclient.GCValues{Mask: xproto.GCLineWidth, LineWidth: 2})
	pix := d.CreatePixmap(16, 16)
	d.FillRectangle(pix, gc, 0, 0, 16, 16)
	d.FreePixmap(pix)
	d.FreeGC(gc)
	ping := d.SendWithReply(&xproto.PingReq{})
	if _, err := a1.Wait(); err != nil {
		return 0, err
	}
	if _, err := a2.Wait(); err != nil {
		return 0, err
	}
	if _, _, err := cc.Wait(); err != nil {
		return 0, err
	}
	if err := ping.Wait(nil); err != nil {
		return 0, err
	}
	return 10, nil
}

// runClients drives each display through rounds mixed rounds
// concurrently and returns total requests issued and the wall time.
func runClients(displays []*xclient.Display, rounds int) (int, time.Duration, error) {
	var wg sync.WaitGroup
	errs := make([]error, len(displays))
	reqs := make([]int, len(displays))
	start := time.Now()
	for i, d := range displays {
		wg.Add(1)
		go func(i int, d *xclient.Display) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				n, err := mixedRound(d, i, r)
				if err != nil {
					errs[i] = err
					return
				}
				reqs[i] += n
			}
		}(i, d)
	}
	wg.Wait()
	wall := time.Since(start)
	total := 0
	for i := range displays {
		if errs[i] != nil {
			return 0, 0, errs[i]
		}
		total += reqs[i]
	}
	return total, wall, nil
}

// openClients dials n in-process clients against s.
func openClients(tb testing.TB, s *xserver.Server, n int) []*xclient.Display {
	displays := make([]*xclient.Display, n)
	for i := range displays {
		d, err := xclient.Open(s.ConnectPipe())
		if err != nil {
			tb.Fatal(err)
		}
		displays[i] = d
	}
	return displays
}

// BenchmarkMultiClientDispatch measures aggregate multi-client request
// throughput at 1 ms of simulated latency per wire segment. The
// interesting number is how little ns/req grows from clients=1 to
// clients=8: with subsystem locking the per-segment sleeps overlap.
func BenchmarkMultiClientDispatch(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("clients=%d", n), func(b *testing.B) {
			s := xserver.New(800, 600)
			defer s.Close()
			s.SetLatency(time.Millisecond)
			s.SetLatencyModel(xserver.LatencyPerSegment)
			displays := openClients(b, s, n)
			defer func() {
				for _, d := range displays {
					d.Close()
				}
			}()
			b.ReportAllocs()
			b.ResetTimer()
			totalReqs := 0
			for i := 0; i < b.N; i++ {
				reqs, _, err := runClients(displays, 1)
				if err != nil {
					b.Fatal(err)
				}
				totalReqs += reqs
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(totalReqs), "ns/req")
		})
	}
}
