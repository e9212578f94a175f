// Command perfbench is the repository benchmark. It drives three seeded,
// closed-loop Tcl/Tk workloads through the program's public API (one
// driving client each), checks their output, and prints the end-to-end
// metrics or, in a traced run, the per-layer ones. The per-layer numbers
// are taken from outside the program: by timing the benchmark's own
// calls into each layer, by tapping the connection between xclient and
// xserver, and by reading the counters and histograms the program
// already exports. README.md describes the workloads and every metric.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload canvas_deck --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/tcl"
)

const (
	// setupRepeats is how many times a run builds its scene; setup_s is
	// the median, and the last build is the one measured.
	setupRepeats = 15
	// warmup runs actions unmeasured first, so caches fill and lazy
	// set-up finishes before timing starts. Runs of a fixed number of
	// actions (the tests) warm up by minWarmup actions alone, so the
	// actions they measure are the same every time.
	warmup    = time.Second
	minWarmup = 20
	// blockLen is the traced run's block of consecutive actions; traced
	// and untraced blocks alternate. A multiple of every workload's
	// cycle (10 for canvas_deck, 8 for remote_text's sends) would bias
	// neither side, so it is their least common multiple.
	blockLen = 40
	// exportActions is how many traced actions the Chrome trace keeps
	// (the last ones run).
	exportActions = 3
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	actions  int // when positive, measure exactly this many actions instead
	warmup   time.Duration
	trace    bool
	out      string // directory for the traced run's files; empty writes none
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is a run's result plus the detail the cross-check tests and
// the human-readable summary use.
type report struct {
	result
	counts        snap   // series changes over the measured (in a traced run, the traced) actions
	shot          uint64 // canvas_deck's reference screenshot hash
	overruns      int    // traced actions whose call times summed past their wall time
	tracedActions int
	selfTimes     string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: buttons50, canvas_deck or remote_text")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the workload's inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.StringVar(&o.out, "out", "", "directory for the traced run's Chrome trace and self-time table")
	flag.Parse()
	o.trace = traceFlag == 1
	o.warmup = warmup
	if _, ok := findWorkload(o.workload); !ok || traceFlag < 0 || traceFlag > 1 || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printSummary(o, rep)
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// errCheck marks a failed output check: the run reports correct=false
// and publishes no numbers.
type errCheck struct{ err error }

func (e errCheck) Error() string { return e.err.Error() }

// run builds the workload, measures it and returns its report. An
// output check that fails yields a report with Correct false and no
// metrics; any other error means the benchmark itself could not run.
func run(o options) (*report, error) {
	rep, err := measure(o)
	var ce errCheck
	if errors.As(err, &ce) {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", ce.err)
		return &report{result: result{Attempted: 1, Metrics: map[string]metric{}}}, nil
	}
	return rep, err
}

func measure(o options) (*report, error) {
	w, _ := findWorkload(o.workload)
	r, sc, setups, attaches, err := setUp(w, o)
	if err != nil {
		return nil, err
	}
	defer r.close()

	m := &measurer{r: r, sc: sc, c: &caller{app: r.app}, watch: newFailWatch(r)}
	if o.trace {
		m.self = selfTable{}
		r.app.Interp.Trace = func([]string) {
			if m.c.traced {
				m.c.commands++
			}
		}
	}
	for start := time.Now(); time.Since(start) < o.warmup || m.next < minWarmup; {
		if _, _, err := m.step(false); err != nil {
			return nil, err
		}
	}
	rep := &report{result: result{Correct: true, Metrics: map[string]metric{}}}
	if d, ok := sc.(*deck); ok {
		rep.shot = d.ref
	}
	if o.trace {
		err = m.traced(o, rep, attaches)
	} else {
		err = m.untraced(o, rep, setups)
	}
	if err != nil {
		return nil, err
	}
	if err := sc.finish(m.next); err != nil {
		return nil, errCheck{err}
	}
	return rep, nil
}

// setUp builds the workload setupRepeats times and returns the last
// build with every build's set-up and farm attach times.
//
// The builds run with the collector off and a collection between them,
// so every build after the first reuses memory that is already mapped.
// Page faults, whose cost follows the host's load rather than the code,
// then stay out of setup_s, and so do collections that happen to fall
// inside one build but not another.
func setUp(w workload, o options) (r *rig, sc scene, setups, attaches []float64, err error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for k := 0; k < setupRepeats; k++ {
		if r != nil {
			r.close()
		}
		runtime.GC()
		r = &rig{}
		if o.trace {
			r.tracer = trace.New(spanCapacity, 0)
		}
		start := time.Now()
		sc, err = w.build(r, o.seed)
		elapsed := time.Since(start)
		if err != nil {
			r.close()
			return nil, nil, nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, elapsed.Seconds())
		attaches = append(attaches, float64(r.attach.Nanoseconds())/1e6)
	}
	return r, sc, setups, attaches, nil
}

// measurer runs a built scene's actions.
type measurer struct {
	r     *rig
	sc    scene
	c     *caller
	watch *failWatch
	next  int       // index of the next action
	self  selfTable // traced runs only
	keep  [][]trace.Span
	// overruns counts traced actions whose call times summed past the
	// action's wall time; the cross-check tests require zero.
	overruns int
}

// step runs the next action and returns its latency and whether it
// failed. A traced step records the action's root span and folds every
// span of the action into the self-time table.
func (m *measurer) step(traced bool) (time.Duration, bool, error) {
	i := m.next
	m.next++
	m.sc.prepare(i)
	c := m.c
	c.traced = traced
	c.action = uint64(i)
	c.spans = c.spans[:0]
	if traced {
		m.r.tracer.SetInterval(1)
	}
	start := time.Now()
	err := m.sc.act(c, i)
	lat := time.Since(start)
	if traced {
		m.r.tracer.SetInterval(0)
		c.traced = false
		m.record(i, start, lat)
	}
	failed := m.watch.fired() || err != nil
	if verr := m.sc.verify(i); verr != nil {
		return lat, failed, errCheck{verr}
	}
	return lat, failed, nil
}

// record drains the program's spans for action i, merges them with the
// benchmark's and folds them into the self-time table.
func (m *measurer) record(i int, start time.Time, lat time.Duration) {
	spans := m.r.tracer.Spans()
	m.r.tracer.Reset()
	var calls int64
	for _, s := range m.c.spans {
		calls += s.Dur
	}
	if calls > int64(lat) {
		m.overruns++
	}
	spans = append(spans, m.c.spans...)
	spans = append(spans, trace.Span{
		Seq: uint64(i), Name: "bench.action", Side: "bench",
		Start: start.UnixNano(), Dur: int64(lat),
	})
	m.self.fold(spans)
	if len(m.keep) == exportActions {
		m.keep = m.keep[1:]
	}
	m.keep = append(m.keep, spans)
}

// untraced is the end-to-end run: actions back to back, no tracing.
func (m *measurer) untraced(o options, rep *report, setups []float64) error {
	runtime.GC()
	s0 := m.r.snapshot()
	var lats []float64
	failed := 0
	start := time.Now()
	for n := 0; !done(o, n, start); n++ {
		lat, f, err := m.step(false)
		if err != nil {
			return err
		}
		lats = append(lats, latencyMs(lat, f))
		if f {
			failed++
		}
	}
	elapsed := time.Since(start)
	s1 := m.r.snapshot()
	capFailed(lats, elapsed)
	n := len(lats)
	rep.Attempted, rep.Failed = n, failed
	var d snap
	d.add(s0, s1)
	rep.counts = d
	put := func(name, unit string, v float64) { rep.Metrics[name] = metric{v, unit} }
	put("setup_s", "s", median(setups))
	put("action_p50_ms", "ms", quantile(lats, 0.50))
	put("wire_bytes_per_action", "bytes", float64(d[tapBytes])/float64(n))
	put("ok_frac", "frac", float64(n-failed)/float64(n))
	return nil
}

// traced is the traced run: blocks of untraced and traced actions
// alternate on the same scene. Per-layer numbers come from the traced
// blocks. The tail latency, the throughput and the process-wide
// allocation and GC counts come from the untraced ones, so that tracing
// does not distort them; the ratio of the two blocks' medians is the
// tracing overhead.
func (m *measurer) traced(o options, rep *report, attaches []float64) error {
	var (
		plain, traced []float64
		dt, du        snap
		failed        int
		plainTime     time.Duration
	)
	start := time.Now()
	for b := 0; b < 2 || !done(o, len(plain)+len(traced), start); b++ {
		on := b%2 == 1
		s0 := m.r.snapshot()
		blockStart := time.Now()
		for k := 0; k < blockLen; k++ {
			lat, f, err := m.step(on)
			if err != nil {
				return err
			}
			if on {
				traced = append(traced, latencyMs(lat, f))
			} else {
				plain = append(plain, latencyMs(lat, f))
			}
			if f {
				failed++
			}
		}
		blockTime := time.Since(blockStart)
		s1 := m.r.snapshot()
		if on {
			dt.add(s0, s1)
		} else {
			du.add(s0, s1)
			plainTime += blockTime
		}
	}
	capFailed(plain, time.Since(start))
	capFailed(traced, time.Since(start))
	n := len(plain) + len(traced)
	rep.Attempted, rep.Failed = n, failed
	rep.tracedActions = len(traced)
	rep.overruns = m.overruns
	rep.counts = dt

	cost, err := replayDecode(m.r.taps[0].captured())
	if err != nil {
		return err
	}
	c := m.c
	nt := float64(len(traced))
	per := func(v float64) float64 { return v / nt }
	perCall := func(k callKind) float64 {
		if c.count[k] == 0 {
			return 0
		}
		return float64(c.ns[k]) / float64(c.count[k]) / 1e6
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	put := func(name, unit string, v float64) { rep.Metrics[name] = metric{v, unit} }
	put("tcl.eval_ms", "ms", per(ms(c.ns[callEval])))
	put("tcl.eval_allocs", "count", per(float64(c.evalAllocs)))
	put("tcl.commands", "count", per(float64(c.commands)))
	put("widget.idle_ms", "ms", per(ms(c.ns[callIdle])))
	put("tk.update_ms", "ms", per(ms(c.ns[callUpdate])))
	put("tk.dispatch_ms", "ms", per(ms(dt[tkDispatchNs])))
	put("tk.events", "count", per(float64(dt[tkEvents])))
	put("tk.cache_misses", "count", per(float64(dt[tkCacheMisses])))
	put("tk.send_ms", "ms", perCall(callSend))
	put("xclient.requests", "count", per(float64(dt[cliRequests])))
	put("xclient.flushes", "count", per(float64(dt[tapWrites])))
	put("xclient.roundtrips", "count", per(float64(dt[cliRoundtrips])))
	put("xclient.rtt_ms", "ms", per(ms(dt[cliRTTNs])))
	put("xproto.raw_bytes", "bytes", per(float64(dt[cliRawBytes])))
	put("xproto.decode_ns", "ns", cost.nsPerReq)
	put("xproto.decode_allocs", "count", cost.allocs)
	put("xserver.requests", "count", per(float64(dt[srvRequests])))
	put("xserver.segments", "count", per(float64(dt[srvSegments])))
	put("xserver.dispatch_ms", "ms", per(ms(dt[srvDispatchNs])))
	put("xserver.lockwait_ms", "ms", per(ms(dt[srvLockwaitNs])))
	put("render.draw_ms", "ms", per(ms(dt[renderDrawNs])))
	put("render.tiles_damaged", "count", per(float64(dt[tilesDamaged])))
	put("render.screenshot_ms", "ms", perCall(callShot))
	put("farm.attach_ms", "ms", median(attaches))
	np := float64(len(plain))
	put("action_p99_ms", "ms", quantile(plain, 0.99))
	put("actions_per_s", "1/s", np/plainTime.Seconds())
	put("process.allocs", "count", float64(du[procAllocs])/np)
	put("process.gc_cycles", "count/1k", float64(du[procGCs])/np*1000)
	put("trace.overhead_frac", "frac", median(traced)/median(plain)-1)
	put("failed_frac", "frac", float64(failed)/float64(n))

	rep.selfTimes = m.self.format(len(traced))
	if o.out != "" {
		return m.export(o, rep)
	}
	return nil
}

// export writes the Chrome trace of the last traced actions and the
// self-time table next to it.
func (m *measurer) export(o options, rep *report) error {
	var spans []trace.Span
	for _, s := range m.keep {
		spans = append(spans, s...)
	}
	doc, err := trace.ChromeJSON(spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	if err := os.WriteFile(base+".trace.json", doc, 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+".selftime.txt", []byte(rep.selfTimes), 0o644)
}

// latencyMs converts an action's latency to milliseconds. A failed
// action misses every latency limit: it reads +Inf until capFailed
// replaces that with the whole measurement window.
func latencyMs(lat time.Duration, failed bool) float64 {
	if failed {
		return math.Inf(1)
	}
	return float64(lat.Nanoseconds()) / 1e6
}

func capFailed(lats []float64, window time.Duration) {
	for i, v := range lats {
		if math.IsInf(v, 1) {
			lats[i] = float64(window.Nanoseconds()) / 1e6
		}
	}
}

func done(o options, n int, start time.Time) bool {
	if o.actions > 0 {
		return n >= o.actions
	}
	return time.Since(start).Seconds() >= o.seconds
}

// failWatch notices the failures that do not surface as a returned
// error: asynchronous X errors, round-trip and send timeouts, and Tcl
// errors raised inside bindings (reported through tkerror).
type failWatch struct {
	r        *rig
	counters []*obs.Counter
	last     uint64
}

func newFailWatch(r *rig) *failWatch {
	f := &failWatch{r: r}
	for _, a := range r.apps() {
		m := a.Metrics()
		f.counters = append(f.counters, m.Counter("errors.async"), m.Counter("roundtrip.timeout"), m.Counter("tk.send.timeout"))
		a.Interp.Register("tkerror", func(*tcl.Interp, []string) (string, error) {
			r.bgErrors.Add(1)
			return "", nil
		})
	}
	f.last = f.total()
	return f
}

func (f *failWatch) total() uint64 {
	t := f.r.bgErrors.Load()
	for _, c := range f.counters {
		t += c.Value()
	}
	return t
}

// fired reports whether any failure happened since the last call.
func (f *failWatch) fired() bool {
	now := f.total()
	fired := now != f.last
	f.last = now
	for _, a := range f.r.apps() {
		if len(a.Disp.TakeErrors()) > 0 {
			fired = true
		}
	}
	return fired
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the nearest-rank q-quantile.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// printSummary writes the human-readable lines that precede the JSON.
func printSummary(o options, rep *report) {
	kind := "end-to-end"
	if o.trace {
		kind = "per-layer (traced run)"
	}
	fmt.Printf("perfbench %s seed %d: %s metrics over %d actions (%d failed)\n",
		o.workload, o.seed, kind, rep.Attempted, rep.Failed)
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-24s %14.6g %s\n", name, rep.Metrics[name].Value, rep.Metrics[name].Unit)
	}
	if o.trace {
		fmt.Printf("self time over %d traced actions:\n%s", rep.tracedActions, rep.selfTimes)
	}
}
