package main

import (
	"time"

	"repro/internal/obs/trace"
	"repro/internal/tk"
	"repro/internal/xproto"
)

// callKind names a public entry point the workloads call.
type callKind int

const (
	callEval callKind = iota
	callIdle
	callUpdate
	callSend
	callShot
	callKey
	numCalls
)

// callSpans are the benchmark's span names, one per call kind. They are
// recorded by the benchmark around its own calls, never inside the
// program.
var callSpans = [numCalls]string{
	"bench.eval", "bench.update_idle", "bench.update", "bench.send", "bench.screenshot", "bench.fakekey",
}

// caller makes a workload's calls into the program. In a traced action
// it times every call, records a span around it and counts the heap
// allocations made inside App.Eval; otherwise it only forwards.
type caller struct {
	app    *tk.App
	traced bool

	action uint64       // number of the current action: the bench spans' Seq
	spans  []trace.Span // bench spans of the current action

	// Totals over all traced actions.
	ns         [numCalls]int64
	count      [numCalls]uint64
	evalAllocs uint64
	commands   uint64 // Tcl commands run during traced actions
}

// call makes one call into the program, timing it and recording its
// span when the action is traced.
func (c *caller) call(k callKind, fn func()) {
	if !c.traced {
		fn()
		return
	}
	start := time.Now()
	fn()
	d := time.Since(start)
	c.ns[k] += int64(d)
	c.count[k]++
	c.spans = append(c.spans, trace.Span{
		Seq: c.action, Name: callSpans[k], Side: "bench",
		Start: start.UnixNano(), Dur: int64(d),
	})
}

func (c *caller) eval(script string) (res string, err error) {
	var before uint64
	if c.traced {
		before, _ = runtimeCounts()
	}
	c.call(callEval, func() { res, err = c.app.Eval(script) })
	if c.traced {
		after, _ := runtimeCounts()
		c.evalAllocs += after - before
	}
	return res, err
}

func (c *caller) idle()   { c.call(callIdle, c.app.UpdateIdleTasks) }
func (c *caller) update() { c.call(callUpdate, c.app.Update) }

func (c *caller) send(target, script string) (res string, err error) {
	c.call(callSend, func() { res, err = c.app.Send(target, script) })
	return res, err
}

func (c *caller) screenshot(win xproto.ID) (shot xproto.ScreenshotReply, err error) {
	c.call(callShot, func() { shot, err = c.app.Disp.Screenshot(win) })
	return shot, err
}

func (c *caller) fakeKey(ks xproto.Keysym, press bool) {
	c.call(callKey, func() { c.app.Disp.FakeKey(ks, press) })
}
