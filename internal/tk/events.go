package tk

import (
	"bufio"
	"container/heap"
	"io"
	"time"

	"repro/internal/obs/trace"
	"repro/internal/xproto"
)

// The Tk dispatcher supports X events, file events, timer events, and
// when-idle events (§3.2). Timers are a heap; idle handlers a FIFO; file
// events arrive via Post (any goroutine may post work into the loop).

type timerEntry struct {
	when time.Time
	fn   func()
	id   int
	seq  int
}

type timerQueue struct {
	entries []*timerEntry
	nextID  int
	nextSeq int
	byID    map[int]*timerEntry
}

func newTimerQueue() *timerQueue {
	return &timerQueue{byID: make(map[int]*timerEntry)}
}

func (q *timerQueue) Len() int { return len(q.entries) }
func (q *timerQueue) Less(i, j int) bool {
	if q.entries[i].when.Equal(q.entries[j].when) {
		return q.entries[i].seq < q.entries[j].seq
	}
	return q.entries[i].when.Before(q.entries[j].when)
}
func (q *timerQueue) Swap(i, j int) { q.entries[i], q.entries[j] = q.entries[j], q.entries[i] }
func (q *timerQueue) Push(x any)    { q.entries = append(q.entries, x.(*timerEntry)) }
func (q *timerQueue) Pop() any {
	old := q.entries
	n := len(old)
	e := old[n-1]
	q.entries = old[:n-1]
	return e
}

// CreateTimerHandler schedules fn to run once after d, returning a handle
// usable with DeleteTimerHandler.
func (app *App) CreateTimerHandler(d time.Duration, fn func()) int {
	q := app.timers
	q.nextID++
	q.nextSeq++
	e := &timerEntry{when: time.Now().Add(d), fn: fn, id: q.nextID, seq: q.nextSeq}
	q.byID[e.id] = e
	heap.Push(q, e)
	app.Metrics().Gauge("tk.timers.depth").Set(int64(len(q.byID)))
	return e.id
}

// DeleteTimerHandler cancels a pending timer.
func (app *App) DeleteTimerHandler(id int) {
	if e, ok := app.timers.byID[id]; ok {
		e.fn = nil // cancelled; skipped when popped
		delete(app.timers.byID, id)
		app.Metrics().Gauge("tk.timers.depth").Set(int64(len(app.timers.byID)))
	}
}

// DoWhenIdle queues fn to run when no other events are pending (§3.2's
// when-idle handlers).
func (app *App) DoWhenIdle(fn func()) {
	app.idle = append(app.idle, fn)
	app.Metrics().Gauge("tk.idle.depth").Set(int64(len(app.idle)))
}

// Post delivers fn into the event loop from any goroutine: the toolkit's
// file-event mechanism (wish posts lines read from stdin this way).
func (app *App) Post(fn func()) {
	app.posted <- fn
}

// CreateFileHandler is §3.2's file-event mechanism: fn runs inside the
// event loop with each line read from r; atEOF (optional) runs when the
// source is exhausted. A goroutine owns the blocking reads; the handler
// itself always executes in the event loop, so it may touch windows and
// the interpreter freely. wish uses this for its stdin command loop.
func (app *App) CreateFileHandler(r io.Reader, fn func(line string), atEOF func()) {
	go func() {
		scanner := bufio.NewScanner(r)
		scanner.Buffer(make([]byte, 1<<20), 1<<20)
		for scanner.Scan() {
			line := scanner.Text()
			app.Post(func() { fn(line) })
		}
		if atEOF != nil {
			app.Post(atEOF)
		}
	}()
}

// runDueTimers fires all expired timers; it reports whether any ran.
func (app *App) runDueTimers() bool {
	ran := false
	now := time.Now()
	q := app.timers
	for q.Len() > 0 && !q.entries[0].when.After(now) {
		e := heap.Pop(q).(*timerEntry)
		delete(q.byID, e.id)
		if e.fn != nil {
			e.fn()
			ran = true
		}
	}
	if ran {
		app.Metrics().Gauge("tk.timers.depth").Set(int64(len(q.byID)))
	}
	return ran
}

// runIdle runs the currently queued idle handlers (but not ones they
// enqueue); it reports whether any ran.
func (app *App) runIdle() bool {
	if len(app.idle) == 0 {
		return false
	}
	batch := app.idle
	app.idle = nil
	app.Metrics().Gauge("tk.idle.depth").Set(0)
	for _, fn := range batch {
		fn() // may call DoWhenIdle, which updates the gauge again
	}
	return true
}

// DoOneEvent processes one round of events. With wait=false it returns
// immediately when nothing is pending. It reports whether any work was
// done. It flushes buffered requests at entry, so whatever the caller
// issued is on the wire before the step runs or blocks.
func (app *App) DoOneEvent(wait bool) bool {
	app.Disp.Flush()
	return app.doOneEvent(wait)
}

// doOneEvent is DoOneEvent without the entry flush: requests issued by
// earlier steps stay buffered. Update uses it, with wait=false, so that
// one round's output travels in the same wire segment as the next
// round's Sync. Only DoOneEvent calls it with wait=true, after its
// flush, so the step never blocks with requests buffered.
func (app *App) doOneEvent(wait bool) bool {
	// 1. Already-queued X events and posted work.
	select {
	case ev, ok := <-app.Disp.Events():
		if !ok {
			app.quitFlag.Store(true)
			return false
		}
		app.evReceived++
		app.DispatchEvent(&ev)
		return true
	case fn := <-app.posted:
		fn()
		return true
	default:
	}
	// An event the read loop has queued but the feeder goroutine has not
	// yet parked on the channel is still pending work: the non-blocking
	// poll above races the feeder and can miss it, which would break
	// Update's "Sync ⇒ events dispatched" contract. The counter
	// comparison is race-free (see Display.EventsSeen), so when it shows
	// an event in flight this blocking receive returns promptly — the
	// feeder delivers it, or closes the channel on disconnect.
	if app.evReceived < app.Disp.EventsSeen() {
		ev, ok := <-app.Disp.Events()
		if !ok {
			app.quitFlag.Store(true)
			return false
		}
		app.evReceived++
		app.DispatchEvent(&ev)
		return true
	}
	// 2. Expired timers.
	if app.runDueTimers() {
		return true
	}
	// 3. Idle handlers.
	if app.runIdle() {
		return true
	}
	if !wait {
		return false
	}
	// 4. Block for the next source.
	var timerCh <-chan time.Time
	if app.timers.Len() > 0 {
		d := time.Until(app.timers.entries[0].when)
		if d < 0 {
			d = 0
		}
		t := time.NewTimer(d)
		defer t.Stop()
		timerCh = t.C
	}
	select {
	case ev, ok := <-app.Disp.Events():
		if !ok {
			app.quitFlag.Store(true)
			return false
		}
		app.evReceived++
		app.DispatchEvent(&ev)
		return true
	case fn := <-app.posted:
		fn()
		return true
	case <-timerCh:
		return app.runDueTimers()
	}
}

// MainLoop runs the dispatcher until Quit or destruction of the main
// window.
func (app *App) MainLoop() {
	for !app.Quitting() {
		app.DoOneEvent(true)
	}
	app.Disp.Flush()
}

// StartServing pumps the application's event loop in a background
// goroutine, blocking (not spinning) between events. It exists for tests,
// benchmarks and examples that run several applications in one process —
// each real application would run MainLoop in its own process. The
// returned function stops the pump and waits for it to finish; the
// application remains usable afterwards.
func (app *App) StartServing() (stop func()) {
	ch := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-ch:
				return
			default:
			}
			if app.Quitting() {
				return
			}
			app.DoOneEvent(true)
		}
	}()
	return func() {
		close(ch)
		app.Post(func() {}) // wake the blocked DoOneEvent
		<-done
	}
}

// Update processes all pending events, timers and idle handlers without
// waiting: the "update" Tcl command. Each round begins with a server sync
// so that every event caused by our own earlier requests (including those
// issued from idle handlers in the previous round) has arrived before we
// decide we are done. The steps inside a round do not flush: the
// round's output (an idle redraw, say) stays buffered and rides to the
// server in the same wire segment as the next round's Sync. Update never
// returns with requests buffered: the last round did no work, so the
// Sync before it carried everything, and the early return on Quitting
// flushes explicitly.
func (app *App) Update() {
	for {
		if err := app.Disp.Sync(); err != nil {
			return
		}
		if !app.doOneEvent(false) {
			return
		}
		for app.doOneEvent(false) {
			if app.Quitting() {
				app.Disp.Flush()
				return
			}
		}
	}
}

// UpdateIdleTasks runs only the idle queue (update idletasks): display
// refresh without processing input.
func (app *App) UpdateIdleTasks() {
	for app.runIdle() {
	}
	app.Disp.Flush()
}

// DispatchEvent routes one X event: structure bookkeeping, C-level
// handlers, then Tcl bindings.
func (app *App) DispatchEvent(ev *xproto.Event) {
	m := app.Metrics()
	m.Counter("tk.events").Inc()
	begin := time.Now()
	defer func() { m.Histogram("tk.dispatch").Observe(time.Since(begin)) }()
	if tr := app.Spans; tr != nil {
		// Events have no protocol sequence number on this side, so the
		// toolkit samples on its own dispatch counter; the span's start
		// time places it on the shared timeline next to whatever requests
		// the handlers issue.
		app.evSpanSeq++
		if tr.Sampled(app.evSpanSeq) {
			seq := app.evSpanSeq
			op := xproto.EventTypeName(int(ev.Type))
			defer func() {
				tr.Record(trace.Span{
					Seq: seq, Name: "tk.event", Side: "tk", Op: op,
					Start: begin.UnixNano(), Dur: int64(time.Since(begin)),
				})
				m.Counter("trace.spans").Inc()
			}()
		}
	}
	w, ok := app.xidMap[ev.Window]
	if !ok {
		// Events for the comm window drive the send protocol.
		if ev.Window == app.commWin {
			app.handleCommEvent(ev)
		}
		return
	}
	// Selection protocol events are handled by the intrinsics (§3.6).
	switch ev.Type {
	case xproto.SelectionRequest:
		app.handleSelectionRequest(ev)
		return
	case xproto.SelectionClear:
		app.handleSelectionClear(ev)
		return
	case xproto.SelectionNotify:
		app.sel().notify = ev
		return
	}

	// Keep the structure cache current (§3.3).
	switch ev.Type {
	case xproto.ConfigureNotify:
		sizeChanged := int(ev.Width) != w.Width || int(ev.Height) != w.Height
		w.X, w.Y = int(ev.X), int(ev.Y)
		w.Width, w.Height = int(ev.Width), int(ev.Height)
		// The server's notify can carry a size that differs from the
		// optimistic cache (it reports configures in request order, so a
		// notify for an older configure may land after a newer local
		// resize). Any slaves laid out against the overwritten size are
		// now stale: re-arrange, exactly as Tk's packer does on its
		// master's ConfigureNotify. The repack is idempotent, so the
		// layout converges once the final notify arrives.
		if sizeChanged {
			if packer := app.packerFor(w); packer != nil {
				packer.scheduleRepack(w)
			}
		}
	case xproto.MapNotify:
		w.Mapped = true
	case xproto.UnmapNotify:
		w.Mapped = false
	case xproto.DestroyNotify:
		// Server-initiated destruction (e.g. another client); tear down
		// our bookkeeping if we did not initiate it.
		if !w.Destroyed {
			app.DestroyWindow(w)
			return
		}
	}

	// C-level handlers.
	mask := xproto.EventMaskFor(int(ev.Type))
	if ev.Type == xproto.MotionNotify && ev.State&(xproto.Button1Mask|
		xproto.Button2Mask|xproto.Button3Mask|xproto.Button4Mask|xproto.Button5Mask) != 0 {
		mask |= xproto.ButtonMotionMask
	}
	for _, h := range w.handlers {
		if h.mask&mask != 0 || mask == 0 {
			h.fn(ev)
			if w.Destroyed {
				return
			}
		}
	}

	// Tcl bindings.
	app.bindings.trigger(app, w, ev)
}
