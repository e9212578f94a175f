package widget_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/widget"
	"repro/internal/xserver"
)

// Damage-region redisplay must be invisible: after every update the
// canvas window holds exactly the pixels a full redraw would leave.
// These tests check that pixel for pixel, pin what it buys in requests
// and allocations, and check the scratch pixmap's lifecycle.

// canvasShot returns the canvas window's pixels after an update.
func canvasShot(t testing.TB, app *core.App) []byte {
	t.Helper()
	app.Update()
	w, err := app.NameToWindow(".c")
	if err != nil {
		t.Fatal(err)
	}
	shot, err := app.Disp.Screenshot(w.XID)
	if err != nil {
		t.Fatal(err)
	}
	return shot.Pixels
}

// checkFullParity compares the window after the pending damage-region
// redraw with the window after a forced full redraw.
func checkFullParity(t testing.TB, app *core.App, step string) {
	t.Helper()
	partial := canvasShot(t, app)
	widget.DamageAll(app.App, ".c")
	if full := canvasShot(t, app); !bytes.Equal(partial, full) {
		t.Fatalf("%s: damage-region redraw differs from a full redraw", step)
	}
}

var damageColors = []string{"red", "blue", "green", "orange", "purple", "gray", "navy", "gold", "black", "white"}

// seededDeck fills .c with n seeded items in 8 tag groups (row0..row7),
// the kinds cycling rectangle, oval, line (width 1-3), text, in the
// region [10,790)×[10,578).
func seededDeck(app *core.App, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	for k := 0; k < n; k++ {
		x, y := 10+rng.Intn(740), 10+rng.Intn(540)
		w, h := 20+rng.Intn(21), 14+rng.Intn(15)
		fill := damageColors[rng.Intn(len(damageColors))]
		tags := fmt.Sprintf("{row%d item}", k%8)
		switch k % 4 {
		case 0:
			fmt.Fprintf(&sb, ".c create rectangle %d %d %d %d -fill %s -tags %s\n", x, y, x+w, y+h, fill, tags)
		case 1:
			fmt.Fprintf(&sb, ".c create oval %d %d %d %d -fill %s -tags %s\n", x, y, x+w, y+h, fill, tags)
		case 2:
			fmt.Fprintf(&sb, ".c create line %d %d %d %d -fill %s -width %d -tags %s\n", x, y, x+w, y+h, fill, 1+rng.Intn(3), tags)
		case 3:
			fmt.Fprintf(&sb, ".c create text %d %d -text word%d -fill %s -tags %s\n", x, y, rng.Intn(1000), fill, tags)
		}
	}
	app.MustEval(sb.String())
}

// deckApp builds an 800×700 canvas holding a seeded n-item deck; the
// strip below y=600 stays empty for isolated items.
func deckApp(t testing.TB, n int) *core.App {
	t.Helper()
	app, err := core.NewApp(core.Options{Name: "damage"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Close)
	app.MustEval(`canvas .c -width 800 -height 700`)
	app.MustEval(`pack append . .c {top}`)
	seededDeck(app, n, 1)
	app.Update()
	return app
}

// damageOp returns one seeded item command: creates of every kind
// (thick lines, text, items crossing the border and the canvas edges),
// moves, coords, itemconfigures, deletes and raises, by tag or id.
func damageOp(rng *rand.Rand, nextID int) string {
	coord := func() int { return rng.Intn(260) - 30 } // beyond both edges of a 200-pixel canvas
	target := func() string {
		if rng.Intn(3) == 0 {
			return fmt.Sprint(1 + rng.Intn(nextID))
		}
		return fmt.Sprintf("g%d", rng.Intn(4))
	}
	color := damageColors[rng.Intn(len(damageColors))]
	switch rng.Intn(8) {
	case 0, 1:
		tag := fmt.Sprintf("g%d", rng.Intn(4))
		switch rng.Intn(5) {
		case 0:
			return fmt.Sprintf(".c create rectangle %d %d %d %d -fill %s -tags %s", coord(), coord(), coord(), coord(), color, tag)
		case 1:
			return fmt.Sprintf(".c create oval %d %d %d %d -fill %s -tags %s", coord(), coord(), coord(), coord(), color, tag)
		case 2:
			return fmt.Sprintf(".c create line %d %d %d %d %d %d -fill %s -width %d -tags %s",
				coord(), coord(), coord(), coord(), coord(), coord(), color, 1+rng.Intn(12), tag)
		case 3:
			return fmt.Sprintf(".c create polygon %d %d %d %d %d %d -fill %s -tags %s",
				coord(), coord(), coord(), coord(), coord(), coord(), color, tag)
		default:
			// The font measures a newline as nothing; the server draws
			// it as one cell.
			return fmt.Sprintf(".c create text %d %d -text \"t%d\ny\" -fill %s -tags %s", coord(), coord(), rng.Intn(1e4), color, tag)
		}
	case 2, 3:
		return fmt.Sprintf(".c move %s %d %d", target(), rng.Intn(61)-30, rng.Intn(61)-30)
	case 4:
		return fmt.Sprintf(".c coords %s %d %d %d %d", target(), coord(), coord(), coord(), coord())
	case 5:
		switch rng.Intn(4) {
		case 0:
			return fmt.Sprintf(".c itemconfigure %s -fill %s", target(), color)
		case 3:
			// Fails on the second option, after the first has applied.
			return fmt.Sprintf(".c itemconfigure %s -width %d -fill NotAColor", target(), 1+rng.Intn(12))
		case 1:
			return fmt.Sprintf(".c itemconfigure %s -width %d", target(), 1+rng.Intn(12))
		default:
			return fmt.Sprintf(".c itemconfigure %s -text {longer text %d}", target(), rng.Intn(100))
		}
	case 6:
		return fmt.Sprintf(".c delete %s", target())
	default:
		return fmt.Sprintf(".c raise %s", target())
	}
}

// TestCanvasDamageParity runs seeded item-command sequences under three
// border styles and checks the window against a full redraw after
// every update.
func TestCanvasDamageParity(t *testing.T) {
	for _, opts := range []string{"-relief sunken -bd 3", "-relief flat -bd 2", "-relief ridge -bd 6"} {
		t.Run(opts, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				app, _ := newApp(t)
				app.MustEval(`canvas .c -width 200 -height 150 ` + opts)
				app.MustEval(`pack append . .c {top}`)
				rng := rand.New(rand.NewSource(seed))
				nextID := 1
				for step := 0; step < 150; step++ {
					script := damageOp(rng, nextID)
					if _, err := app.Eval(script); err == nil && strings.Contains(script, "create") {
						nextID++
					}
					if rng.Intn(3) == 0 {
						checkFullParity(t, app, fmt.Sprintf("seed %d step %d (%s)", seed, step, script))
					}
				}
				checkFullParity(t, app, fmt.Sprintf("seed %d end", seed))
			}
		})
	}
}

// TestCanvasDamageFailedConfigure checks that an itemconfigure failing
// part-way still repaints what its earlier options changed.
func TestCanvasDamageFailedConfigure(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`canvas .c -width 200 -height 150`)
	app.MustEval(`pack append . .c {top}`)
	app.MustEval(`.c create line 40 40 120 40 -width 1`)
	app.Update()
	if _, err := app.Eval(`.c itemconfigure 1 -width 15 -fill NotAColor`); err == nil {
		t.Fatal("bad fill color should fail")
	}
	checkFullParity(t, app, "failed itemconfigure")
}

// FuzzCanvasDamage decodes arbitrary bytes into item commands, three
// bytes per command, and checks the window against a full redraw after
// every update.
func FuzzCanvasDamage(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{2, 200, 17, 40, 3, 3, 250, 9, 1, 7, 0, 0, 12, 90, 90})
	f.Add([]byte("move everything around the canvas, then delete it"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 300 {
			data = data[:300]
		}
		app, err := core.NewApp(core.Options{Name: "fuzz"})
		if err != nil {
			t.Fatal(err)
		}
		defer app.Close()
		app.MustEval(`canvas .c -width 120 -height 90 -relief sunken -bd 3`)
		app.MustEval(`pack append . .c {top}`)
		app.Update()
		for i := 0; i+2 < len(data); i += 3 {
			op, a, b := data[i], int(data[i+1]), int(data[i+2])
			script := fuzzOp(op, a, b)
			_, _ = app.Eval(script) // errors (a missing item, a bad width) are part of the input space
			if op&0x80 != 0 {
				checkFullParity(t, app, script)
			}
		}
		checkFullParity(t, app, "end")
	})
}

// fuzzOp maps one three-byte input to an item command. Coordinates
// reach past every edge of the 120×90 canvas.
func fuzzOp(op byte, a, b int) string {
	x, y := a-60, b-60
	tag := fmt.Sprintf("g%d", a%3)
	if b%4 == 0 {
		tag = fmt.Sprint(1 + a%8)
	}
	color := damageColors[(a+b)%len(damageColors)]
	switch op & 0x7f % 9 {
	case 0:
		return fmt.Sprintf(".c create rectangle %d %d %d %d -fill %s -tags g%d", x, y, x+b%70, y+a%50, color, b%3)
	case 1:
		return fmt.Sprintf(".c create oval %d %d %d %d -fill %s -tags g%d", x, y, x+b%70, y+a%50, color, b%3)
	case 2:
		return fmt.Sprintf(".c create line %d %d %d %d -width %d -fill %s -tags g%d", x, y, b-60, a-60, 1+a%15, color, b%3)
	case 3:
		return fmt.Sprintf(".c create text %d %d -text {%c%c\n} -fill %s -tags g%d", x, y, a, b, color, b%3)
	case 4:
		return fmt.Sprintf(".c create polygon %d %d %d %d %d %d -fill %s -tags g%d", x, y, b-60, a-60, x+20, y-15, color, b%3)
	case 5:
		return fmt.Sprintf(".c move %s %d %d", tag, b%41-20, a%41-20)
	case 6:
		return fmt.Sprintf(".c coords %s %d %d %d %d", tag, x, y, b-60, a-60)
	case 7:
		return fmt.Sprintf(".c itemconfigure %s -fill %s -text {%d} -width %d", tag, color, a*b, b%15)
	default:
		if b%2 == 0 {
			return ".c raise " + tag
		}
		return ".c delete " + tag
	}
}

// actionRequests returns how many requests one script-level action —
// the command, the idle redraw, then update — sends to the server.
func actionRequests(app *core.App, script string) uint64 {
	reqs := app.Disp.Metrics().Counter("requests")
	before := reqs.Value()
	app.MustEval(script)
	app.UpdateIdleTasks()
	app.Update()
	return reqs.Value() - before
}

// TestCanvasDamageRequests pins the request cost of item commands on a
// fixed seeded 240-item deck: a one-group move repaints 30 items' worth
// of damage, not the whole window, and an isolated item's move or a
// paint-stroke line costs a handful of requests whatever the item
// count.
func TestCanvasDamageRequests(t *testing.T) {
	app := deckApp(t, 240)
	ref := canvasShot(t, app)
	actionRequests(app, `.c move row3 5 -4`) // creates the scratch pixmap
	actionRequests(app, `.c move row3 -5 4`)
	if got := canvasShot(t, app); !bytes.Equal(got, ref) {
		t.Fatal("a move followed by its undo changed the pixels")
	}
	// Repainting the whole window costs 242 requests per action here.
	if got := actionRequests(app, `.c move row3 5 -4`); got != 109 {
		t.Errorf("one-group move: %d requests, want 109", got)
	}
	if got := actionRequests(app, `.c move row3 -5 4`); got != 109 {
		t.Errorf("its undo: %d requests, want 109", got)
	}
	if got := canvasShot(t, app); !bytes.Equal(got, ref) {
		t.Fatal("a move followed by its undo changed the pixels")
	}

	for _, n := range []int{240, 2400} {
		app := deckApp(t, n)
		app.MustEval(`.c create rectangle 100 640 130 660 -fill red -tags lone`)
		actionRequests(app, `.c move lone 3 3`) // creates the scratch pixmap
		if got := actionRequests(app, `.c move lone 3 3`); got >= 10 {
			t.Errorf("%d items: moving an isolated item sent %d requests, want < 10", n, got)
		}
		if got := actionRequests(app, `.c create line 300 650 306 654 -width 2 -fill navy`); got >= 10 {
			t.Errorf("%d items: a paint-stroke line sent %d requests, want < 10", n, got)
		}
		checkFullParity(t, app, fmt.Sprintf("%d items", n))
	}
}

// TestCanvasMoveAllocs pins the allocations of a one-group move on the
// deck: the tag spec is parsed once per command, not once per item (a
// failed integer parse allocates), and damage recording reuses its
// buffers.
func TestCanvasMoveAllocs(t *testing.T) {
	app := deckApp(t, 240)
	scripts := []string{".c move row3 1 0", ".c move row3 -1 0"}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		app.MustEval(scripts[i%2])
		i++
	})
	if allocs > 20 {
		t.Errorf("one-group move: %.0f allocations, want <= 20", allocs)
	}
}

// TestCanvasScratchPixmapFreed checks that destroying a canvas returns
// its scratch pixmap's bytes to the server's quota accounting, and that
// a resize replaces the pixmap rather than keeping both.
func TestCanvasScratchPixmapFreed(t *testing.T) {
	app, _ := newApp(t)
	app.Update()
	_, before, _ := app.Server.QuotaUsage()
	app.MustEval(`canvas .c -width 200 -height 150`)
	app.MustEval(`pack append . .c {top}`)
	app.MustEval(`.c create rectangle 10 10 40 40 -tags box`)
	// Enough other items that a partial redraw beats a full one.
	app.MustEval(`foreach x {80 90 100 110 120 130 140 150} {.c create line $x 60 $x 70}`)
	canvasShot(t, app)
	app.MustEval(`.c move box 5 5`)
	canvasShot(t, app)
	_, used, _ := app.Server.QuotaUsage()
	if used-before != 200*150*4 {
		t.Fatalf("scratch pixmap holds %d bytes, want %d", used-before, 200*150*4)
	}
	app.MustEval(`.c configure -width 100 -height 80`)
	canvasShot(t, app)
	app.MustEval(`.c move box 5 5`)
	canvasShot(t, app)
	if _, used, _ = app.Server.QuotaUsage(); used-before != 100*80*4 {
		t.Fatalf("after a resize the scratch pixmap holds %d bytes, want %d", used-before, 100*80*4)
	}
	app.MustEval(`destroy .c`)
	app.Update()
	if _, after, _ := app.Server.QuotaUsage(); after != before {
		t.Fatalf("pixmap bytes %d after destroy .c, want %d as before the canvas", after, before)
	}
}

// TestCanvasDamageOverQuota checks that a canvas refused its scratch
// pixmap by the pixmap-bytes quota still shows what a full redraw
// would, by repainting the whole window instead, and that it asks for
// the pixmap once per window size: one refusal, one background error,
// however many edits follow.
func TestCanvasDamageOverQuota(t *testing.T) {
	app, out := newApp(t)
	app.Server.SetQuota(xserver.Quota{MaxPixmapBytes: 1000})
	app.MustEval(`proc tkerror {msg} {print "tkerror: $msg\n"}`)
	app.MustEval(`canvas .c -width 200 -height 150`)
	app.MustEval(`pack append . .c {top}`)
	app.MustEval(`.c create rectangle 10 10 40 40 -tags box`)
	// Enough other items that a partial redraw beats a full one.
	app.MustEval(`foreach x {80 90 100 110 120 130 140 150} {.c create line $x 60 $x 70}`)
	app.Update()
	denied := app.Server.Metrics().Counter("quota.denied.pixmap_bytes")
	async := app.Disp.Metrics().Counter("errors.async")
	for i := 0; i < 3; i++ {
		app.MustEval(`.c move box 7 5`)
		checkFullParity(t, app, fmt.Sprintf("move %d", i))
	}
	if _, used, _ := app.Server.QuotaUsage(); used != 0 {
		t.Fatalf("pixmap bytes in use %d, want 0", used)
	}
	if n := denied.Value(); n != 1 {
		t.Errorf("quota.denied.pixmap_bytes = %d after three moves, want 1", n)
	}
	if n := async.Value(); n != 1 {
		t.Errorf("errors.async = %d after three moves, want 1", n)
	}
	if n := strings.Count(out.String(), "tkerror:"); n != 1 {
		t.Errorf("%d background errors after three moves, want 1:\n%s", n, out)
	}
}

// TestCanvasDamageFallback checks the cutoff between partial and full
// redraws on a sparse row of 20 items with no border, where a full
// redraw sends 21 requests and moving m isolated items by one pixel
// would send one fill, m items and m copies: 9 items stay partial, while
// 11 (23 requests) and `move all` (41) cost exactly a full redraw.
func TestCanvasDamageFallback(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`canvas .c -width 800 -height 100 -relief flat`)
	app.MustEval(`pack append . .c {top}`)
	for k := 0; k < 20; k++ {
		app.MustEval(fmt.Sprintf(".c create rectangle %d 40 %d 60 -fill navy -tags {g%d}", 10+k*38, 30+k*38, k))
	}
	app.Update()
	actionRequests(app, `.c move 1 1 0`) // creates the scratch pixmap
	full := actionRequests(app, `.c move 1 -1 0; .c itemconfigure all -fill navy`)
	move := func(m int) string {
		var sb strings.Builder
		for k := 0; k < m; k++ {
			fmt.Fprintf(&sb, ".c move g%d 1 0\n", k)
		}
		return sb.String()
	}
	if got := actionRequests(app, move(9)); got != full-2 {
		t.Errorf("moving 9 of 20 items: %d requests, want %d (2 fewer than a full redraw)", got, full-2)
	}
	checkFullParity(t, app, "9 items")
	if got := actionRequests(app, move(11)); got != full {
		t.Errorf("moving 11 of 20 items: %d requests, want %d (a full redraw)", got, full)
	}
	checkFullParity(t, app, "11 items")
	if got := actionRequests(app, `.c move all -1 0`); got != full {
		t.Errorf("moving all 20 items: %d requests, want %d (a full redraw)", got, full)
	}
	checkFullParity(t, app, "all items")
}
