package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"time"

	"repro/internal/tcl"
	"repro/internal/xclient"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// scene is a built workload: its inputs, generated from the seed, and
// the checks on its outputs. The runner calls prepare, act and verify
// for every action, and times act alone.
type scene interface {
	// prepare generates action i's inputs.
	prepare(i int)
	// act performs action i through the program's public API.
	act(c *caller, i int) error
	// verify checks action i's output; an error fails the run.
	verify(i int) error
	// finish checks the state after the last of n actions.
	finish(n int) error
}

// workload builds a rig and its scene from a seed. The rig's tracer,
// set before build in a traced run, must reach every server it creates.
// README.md gives the reason each workload was chosen.
type workload struct {
	name  string
	build func(r *rig, seed int64) (scene, error)
}

var workloads = []workload{
	{"buttons50", buildButtons},
	{"canvas_deck", buildDeck},
	{"remote_text", buildRemote},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// word returns a seeded lowercase word of 3 to 9 letters.
func word(rng *rand.Rand) string {
	b := make([]byte, 3+rng.Intn(7))
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// privateServer gives the rig a private in-process server and the
// driving application on it, over wire v1 with no simulated latency.
func privateServer(r *rig, name string) error {
	r.srv = xserver.New(1024, 768)
	if r.tracer != nil {
		r.srv.SetTracer(r.tracer)
	}
	app, err := r.newApp(r.srv.ConnectPipe(), xclient.Config{}, name, r.tracer)
	if err != nil {
		return err
	}
	r.app = app
	return nil
}

// --- buttons50 --------------------------------------------------------------

// buttons is Table II row 3. One action evaluates "frame .f", 50 ×
// button + pack append and "pack append . .f", lets the toolkit display
// the result, then destroys .f and updates again.
type buttons struct {
	r        *rig
	rng      *rand.Rand
	script   string
	baseline int64 // server window count with no .f
}

func buildButtons(r *rig, seed int64) (scene, error) {
	if err := privateServer(r, "buttons50"); err != nil {
		return nil, err
	}
	r.app.Update()
	w, _, _ := r.srv.QuotaUsage()
	return &buttons{r: r, rng: rand.New(rand.NewSource(seed)), baseline: w}, nil
}

func (b *buttons) prepare(int) {
	var sb strings.Builder
	sb.WriteString("frame .f\n")
	for j := 0; j < 50; j++ {
		fmt.Fprintf(&sb, "button .f.b%d -text %s\npack append .f .f.b%d {top}\n",
			j, tcl.FormatList([]string{"Button " + word(b.rng)}), j)
	}
	sb.WriteString("pack append . .f {top}\n")
	b.script = sb.String()
}

func (b *buttons) act(c *caller, _ int) error {
	if _, err := c.eval(b.script); err != nil {
		return err
	}
	c.idle()
	c.update()
	if _, err := c.eval("destroy .f"); err != nil {
		return err
	}
	c.update()
	return nil
}

func (b *buttons) verify(int) error {
	kids, err := b.r.app.Eval("winfo children .")
	if err != nil {
		return err
	}
	if kids != "" {
		return fmt.Errorf("buttons50: winfo children . is %q after destroy", kids)
	}
	if w, _, _ := b.r.srv.QuotaUsage(); w != b.baseline {
		return fmt.Errorf("buttons50: server holds %d windows after destroy, want %d", w, b.baseline)
	}
	return nil
}

func (b *buttons) finish(int) error { return nil }

// --- canvas_deck ------------------------------------------------------------

const (
	deckItems  = 240
	deckGroups = 8
	deckCycle  = 10 // actions per move cycle; the last one screenshots
)

var deckColors = []string{"red", "blue", "green", "orange", "purple", "gray", "brown", "navy", "gold", "black"}

// deck is a defslide-style slide: 240 seeded items in 8 tag groups on
// an 800×600 canvas. Each cycle of 10 actions makes 5 seeded moves and
// then undoes them in reverse order, so the 10th action's screenshot
// must match the one taken when the scene was built.
type deck struct {
	r      *rig
	rng    *rand.Rand
	canvas xproto.ID
	ref    uint64 // pixel hash of the freshly built slide
	undo   [deckCycle / 2]string
	script string
	shot   xproto.ScreenshotReply // the last cycle's screenshot
}

func buildDeck(r *rig, seed int64) (scene, error) {
	if err := privateServer(r, "canvas_deck"); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	sb.WriteString("canvas .c -width 800 -height 600\npack append . .c {top}\n")
	for k := 0; k < deckItems; k++ {
		x, y := 10+rng.Intn(740), 10+rng.Intn(540)
		w, h := 20+rng.Intn(21), 14+rng.Intn(15)
		fill := deckColors[rng.Intn(len(deckColors))]
		tags := fmt.Sprintf("{row%d item}", k%deckGroups)
		switch k % 4 {
		case 0:
			fmt.Fprintf(&sb, ".c create rectangle %d %d %d %d -fill %s -tags %s\n", x, y, x+w, y+h, fill, tags)
		case 1:
			fmt.Fprintf(&sb, ".c create oval %d %d %d %d -fill %s -tags %s\n", x, y, x+w, y+h, fill, tags)
		case 2:
			fmt.Fprintf(&sb, ".c create line %d %d %d %d -fill %s -width %d -tags %s\n", x, y, x+w, y+h, fill, 1+rng.Intn(3), tags)
		case 3:
			fmt.Fprintf(&sb, ".c create text %d %d -text %s -fill %s -tags %s\n", x, y, word(rng), fill, tags)
		}
	}
	if _, err := r.app.Eval(sb.String()); err != nil {
		return nil, err
	}
	r.app.Update()
	win, err := r.app.NameToWindow(".c")
	if err != nil {
		return nil, err
	}
	d := &deck{r: r, rng: rng, canvas: win.XID}
	shot, err := r.app.Disp.Screenshot(d.canvas)
	if err != nil {
		return nil, err
	}
	d.ref = pixelHash(shot)
	return d, nil
}

func pixelHash(shot xproto.ScreenshotReply) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%dx%d:", shot.Width, shot.Height)
	h.Write(shot.Pixels)
	return h.Sum64()
}

func (d *deck) prepare(i int) {
	j := i % deckCycle
	if j < deckCycle/2 {
		dx, dy := 1+d.rng.Intn(12), 1+d.rng.Intn(12)
		if d.rng.Intn(2) == 0 {
			dx = -dx
		}
		if d.rng.Intn(2) == 0 {
			dy = -dy
		}
		g := d.rng.Intn(deckGroups)
		d.script = fmt.Sprintf(".c move row%d %d %d", g, dx, dy)
		d.undo[j] = fmt.Sprintf(".c move row%d %d %d", g, -dx, -dy)
		return
	}
	d.script = d.undo[deckCycle-1-j]
}

func (d *deck) act(c *caller, i int) error {
	if _, err := c.eval(d.script); err != nil {
		return err
	}
	c.idle()
	c.update()
	if i%deckCycle == deckCycle-1 {
		shot, err := c.screenshot(d.canvas)
		if err != nil {
			return err
		}
		d.shot = shot
	}
	return nil
}

func (d *deck) verify(i int) error {
	if i%deckCycle != deckCycle-1 {
		return nil
	}
	if h := pixelHash(d.shot); h != d.ref {
		return fmt.Errorf("canvas_deck: screenshot %016x after the cycle ending at action %d, want %016x", h, i, d.ref)
	}
	return nil
}

func (d *deck) finish(int) error { return nil }

// --- remote_text ------------------------------------------------------------

const (
	textPage   = 64 // keystrokes per page; the editor clears at each page start
	sendEvery  = 8  // every 8th action also sends to the peer
	segLatency = 500 * time.Microsecond
)

// remoteScript is the editor: a help_tcltk-style tagged text, a listbox
// and an entry. The entry inserts each typed character itself; the
// <KeyPress> binding then appends a tagged line to the text and a line
// to the listbox. Every textPage keystrokes the editor starts a fresh
// page, so the widgets' contents, and the cost of an action, stay
// bounded however long the run. The binding runs after the entry's own
// key handler, so clearing a page puts back the character just typed.
var remoteScript = fmt.Sprintf(`
set count 0
text .t -width 64 -height 16
listbox .l -geometry 30x8
entry .e -width 40
pack append . .t {top} .l {top} .e {top}
.t tag configure t0 -foreground red
.t tag configure t1 -foreground blue -underline 1
.t tag configure t2 -background yellow
.t tag configure t3 -foreground darkgreen
proc keyed {ch} {
    global count words
    if {$count %% %[1]d == 0 && $count > 0} {
        .t delete 1.0 end
        foreach t {t0 t1 t2 t3} {.t tag remove $t}
        .l delete 0 end
        .e delete 0 end
        .e insert end $ch
        .e icursor end
    }
    incr count
    set w [lindex $words [expr {$count %% [llength $words]}]]
    set line [expr {($count - 1) %% %[1]d + 1}]
    .t insert end "$count $ch $w\n"
    .t tag add t[expr {$count %% 4}] $line.0 $line.end
    .l insert end "$count $w"
}
bind .e <KeyPress> {keyed %%A}
focus .e
`, textPage)

// remote is the remote_text workload. The driving editor and its send
// peer attach to one farm session over wire v2; the session server
// charges 500 µs per wire segment. One action is a key press and
// release on the entry; every 8th also sends {incr n} to the peer.
type remote struct {
	r     *rig
	rng   *rand.Rand
	words []string
	key   byte
	typed []byte // characters typed since the current page began
	sends int
	reply string // the peer's answer to the last send
}

func buildRemote(r *rig, seed int64) (scene, error) {
	r.farm = xserver.NewFarm(xserver.FarmOptions{
		Width: 1024, Height: 768, MaxSessions: 2,
		Configure: func(s *xserver.Server) {
			s.SetLatencyModel(xserver.LatencyPerSegment)
			s.SetLatency(segLatency)
			if r.tracer != nil {
				s.SetTracer(r.tracer)
			}
		},
	})
	cfg := xclient.Config{Session: "bench", Wire: xclient.WireV2}
	app, err := r.newApp(r.farm.ConnectPipe(), cfg, "editor", r.tracer)
	if err != nil {
		return nil, err
	}
	r.app = app
	sess, ok := r.farm.Lookup("bench")
	if !ok {
		return nil, fmt.Errorf("remote_text: farm session not found after attach")
	}
	r.srv = sess.Server()
	peer, err := r.newApp(r.farm.ConnectPipe(), cfg, "peer", nil)
	if err != nil {
		return nil, err
	}
	r.peer = peer
	if _, err := peer.Eval("set n 0"); err != nil {
		return nil, err
	}
	r.stopPeer = peer.StartServing()

	rng := rand.New(rand.NewSource(seed))
	m := &remote{r: r, rng: rng}
	for k := 0; k < 64; k++ {
		m.words = append(m.words, word(rng))
	}
	if _, err := app.Interp.SetGlobal("words", tcl.FormatList(m.words)); err != nil {
		return nil, err
	}
	if _, err := app.Eval(remoteScript); err != nil {
		return nil, err
	}
	app.Update()
	return m, nil
}

func (m *remote) prepare(int) { m.key = byte('a' + m.rng.Intn(26)) }

func (m *remote) act(c *caller, i int) error {
	c.fakeKey(xproto.Keysym(m.key), true)
	c.fakeKey(xproto.Keysym(m.key), false)
	c.idle()
	c.update()
	if i%sendEvery == sendEvery-1 {
		res, err := c.send("peer", "incr n")
		if err != nil {
			return err
		}
		m.reply = res
	}
	return nil
}

// verify tracks what the editor must now hold and checks the peer's
// counter after each send; finish checks the widgets themselves.
func (m *remote) verify(i int) error {
	if i%textPage == 0 {
		m.typed = m.typed[:0]
	}
	m.typed = append(m.typed, m.key)
	if i%sendEvery == sendEvery-1 {
		m.sends++
		if m.reply != fmt.Sprint(m.sends) {
			return fmt.Errorf("remote_text: peer answered n=%q after %d sends", m.reply, m.sends)
		}
	}
	return nil
}

func (m *remote) finish(n int) error {
	app := m.r.app
	got := func(script string) string {
		res, err := app.Eval(script)
		if err != nil {
			return "error: " + err.Error()
		}
		return res
	}
	onPage := (n-1)%textPage + 1
	last := fmt.Sprintf("%d %c %s", n, m.typed[len(m.typed)-1], m.words[n%len(m.words)])
	checks := []struct{ what, got, want string }{
		{"keystrokes bound", got("set count"), fmt.Sprint(n)},
		{"text lines", got(".t lines"), fmt.Sprint(onPage + 1)},
		{"last text line", got(fmt.Sprintf(".t get %d.0 %d.end", onPage, onPage)), last},
		{"listbox size", got(".l size"), fmt.Sprint(onPage)},
		{"last listbox line", got(".l get end"), fmt.Sprintf("%d %s", n, m.words[n%len(m.words)])},
		{"entry", got(".e get"), string(m.typed)},
		{"peer n", m.peerN(), fmt.Sprint(m.sends)},
	}
	for _, ck := range checks {
		if ck.got != ck.want {
			return fmt.Errorf("remote_text: %s is %q, want %q after %d keystrokes", ck.what, ck.got, ck.want, n)
		}
	}
	return nil
}

func (m *remote) peerN() string {
	res, err := m.r.app.Send("peer", "set n")
	if err != nil {
		return "error: " + err.Error()
	}
	return res
}
