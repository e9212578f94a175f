package main

import (
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/tk"
	"repro/internal/widget"
	"repro/internal/xclient"
	"repro/internal/xserver"
)

// captureLimit bounds how many client→server bytes a tap keeps for the
// xproto decode replay: enough for a few hundred requests of any
// workload without holding a whole run's traffic in memory.
const captureLimit = 4 << 20

// spanCapacity is the program tracer's ring size. The traced run drains
// it after every action, and the largest action (buttons50) records
// about 2,000 spans, so nothing is overwritten.
const spanCapacity = 1 << 15

// tap wraps the net.Conn between xclient and xserver. It counts the
// bytes each way and the client's Write calls (one per flush, after the
// codec), and keeps a prefix of the client→server stream for the decode
// replay. The client writes from its caller's goroutine and reads on its
// read loop, so every field is atomic or guarded.
type tap struct {
	net.Conn
	writes atomic.Uint64
	out    atomic.Uint64 // client→server bytes
	in     atomic.Uint64 // server→client bytes

	mu      sync.Mutex
	capture []byte // guarded by mu; first captureLimit bytes written
}

func newTap(c net.Conn) *tap { return &tap{Conn: c} }

func (t *tap) Write(p []byte) (int, error) {
	t.writes.Add(1)
	t.mu.Lock()
	if room := captureLimit - len(t.capture); room > 0 {
		if room > len(p) {
			room = len(p)
		}
		t.capture = append(t.capture, p[:room]...)
	}
	t.mu.Unlock()
	n, err := t.Conn.Write(p)
	t.out.Add(uint64(n))
	return n, err
}

func (t *tap) Read(p []byte) (int, error) {
	n, err := t.Conn.Read(p)
	t.in.Add(uint64(n))
	return n, err
}

// captured returns a copy of the captured client→server prefix.
func (t *tap) captured() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]byte(nil), t.capture...)
}

// rig is one built workload instance: the display server the driving
// application talks to, the tapped connections, and the applications.
type rig struct {
	srv      *xserver.Server // the driving app's server (a farm session's for remote_text)
	farm     *xserver.Farm   // non-nil for remote_text
	app      *tk.App         // the driving application
	peer     *tk.App         // the send peer (remote_text only)
	stopPeer func()
	taps     []*tap        // one per connection, the driver's first
	tracer   *trace.Tracer // non-nil in traced runs; sampling interval toggled per action
	attach   time.Duration // time in xclient.OpenWith for the driver's farm session
	bgErrors atomic.Uint64 // Tcl errors raised in bindings (tkerror calls)
}

// apps lists the rig's applications, the driver's first.
func (r *rig) apps() []*tk.App {
	if r.app == nil {
		return nil
	}
	if r.peer != nil {
		return []*tk.App{r.app, r.peer}
	}
	return []*tk.App{r.app}
}

// newApp opens a display over the tapped connection and builds a Tk
// application with every widget command on it — what core.NewApp does,
// with the tap in the middle.
func (r *rig) newApp(conn net.Conn, cfg xclient.Config, name string, spans *trace.Tracer) (*tk.App, error) {
	t := newTap(conn)
	begin := time.Now()
	d, err := xclient.OpenWith(t, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Session != "" && len(r.taps) == 0 {
		r.attach = time.Since(begin)
	}
	if spans != nil {
		d.SetTracer(spans)
	}
	app, err := tk.NewApp(d, tk.Config{Name: name, Spans: spans})
	if err != nil {
		d.Close()
		return nil, err
	}
	widget.Register(app)
	r.taps = append(r.taps, t)
	return app, nil
}

// close tears the rig down and waits for the peer's event loop to end.
func (r *rig) close() {
	if r.stopPeer != nil {
		r.stopPeer()
	}
	for _, a := range r.apps() {
		a.Destroy()
		a.Disp.Close()
	}
	if r.farm != nil {
		r.farm.Close()
	} else if r.srv != nil {
		r.srv.Close()
	}
}

// series names one number the benchmark reads from the program, the
// taps or the Go runtime. Client-side series are summed over all of the
// rig's displays; the toolkit ones are the driving application's alone.
type series int

const (
	cliRequests series = iota
	cliRoundtrips
	cliRawBytes
	cliRTTNs
	tkEvents
	tkCacheMisses
	tkDispatchNs
	srvRequests
	srvSegments
	srvDispatchNs
	srvLockwaitNs
	renderDrawNs
	tilesDamaged
	tapWrites
	tapBytes
	procAllocs
	procGCs
	numSeries
)

// snap is one reading of every series.
type snap [numSeries]int64

// add accumulates the change from a to b, so one snap can sum several
// measurement windows.
func (s *snap) add(a, b snap) {
	for i := range s {
		s[i] += b[i] - a[i]
	}
}

func (r *rig) snapshot() snap {
	var s snap
	for _, a := range r.apps() {
		m := a.Metrics()
		c := m.Counters()
		s[cliRequests] += int64(c["requests"])
		s[cliRoundtrips] += int64(c["roundtrips"])
		s[cliRawBytes] += int64(c["wire.bytes.raw"])
		s[cliRTTNs] += histSum(m, "roundtrip")
	}
	m := r.app.Metrics()
	c := m.Counters()
	s[tkEvents] = int64(c["tk.events"])
	for name, v := range c {
		if strings.HasPrefix(name, "tk.cache.") && strings.HasSuffix(name, ".misses") {
			s[tkCacheMisses] += int64(v)
		}
	}
	s[tkDispatchNs] = histSum(m, "tk.dispatch")
	m = r.srv.Metrics()
	c = m.Counters()
	s[srvRequests] = int64(c["requests"])
	s[srvSegments] = int64(c["segments"])
	s[tilesDamaged] = int64(c["render.tiles.damaged"])
	s[srvDispatchNs] = histSum(m, "dispatch")
	for _, name := range m.HistogramNames() {
		if strings.HasPrefix(name, "lockwait.") {
			s[srvLockwaitNs] += histSum(m, name)
		}
	}
	s[renderDrawNs] = histSum(m, "render.fill") + histSum(m, "render.copy") + histSum(m, "render.text")
	for _, t := range r.taps {
		s[tapWrites] += int64(t.writes.Load())
		s[tapBytes] += int64(t.out.Load() + t.in.Load())
	}
	allocs, gcs := runtimeCounts()
	s[procAllocs], s[procGCs] = int64(allocs), int64(gcs)
	return s
}

func histSum(m *obs.Registry, name string) int64 {
	h, ok := m.FindHistogram(name)
	if !ok {
		return 0
	}
	return h.Snapshot().Sum
}

// runtimeCounts returns the process's cumulative heap allocations and
// completed GC cycles. runtime.ReadMemStats stops the world briefly, but
// unlike runtime/metrics it flushes every P's cached spans, so a count
// taken around one call is exact.
func runtimeCounts() (allocs, gcs uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, uint64(ms.NumGC)
}
