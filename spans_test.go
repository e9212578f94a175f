// End-to-end request-span tests: with sampling at 1-in-1, every
// reply-bearing request must produce a client.rtt span and a matching
// server.dispatch span under the same sequence number, the server span
// must nest inside the client round trip, and the merged ring must
// export as loadable Chrome trace-event JSON. The SLO report built from
// spans and registries is checked here too, as is what sampling costs.
package repro_test

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/obs/slo"
	"repro/internal/obs/trace"
	"repro/internal/xclient"
	"repro/internal/xproto"
)

func TestSpansEndToEnd(t *testing.T) {
	app, err := core.NewApp(core.Options{Name: "spantest", SpanInterval: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()

	const syncs = 10
	for i := 0; i < syncs; i++ {
		if err := app.Disp.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	spans := app.Spans.Spans()
	rtt := make(map[uint64]trace.Span)
	disp := make(map[uint64]trace.Span)
	for _, s := range spans {
		switch s.Name {
		case "client.rtt":
			rtt[s.Seq] = s
		case "server.dispatch":
			disp[s.Seq] = s
		}
	}
	if len(rtt) < syncs {
		t.Fatalf("got %d client.rtt spans, want ≥ %d", len(rtt), syncs)
	}
	paired := 0
	for seq, r := range rtt {
		d, ok := disp[seq]
		if !ok {
			continue
		}
		paired++
		if d.Dur > r.Dur {
			t.Errorf("seq %d: server dispatch (%dns) longer than client round trip (%dns)", seq, d.Dur, r.Dur)
		}
		if d.Start < r.Start || d.End() > r.End()+int64(1e6) {
			// Same process, same clock: the dispatch must start after the
			// request was issued. The tail allowance covers the reply
			// being timed on the client before the server span is closed.
			t.Errorf("seq %d: server span [%d,%d] outside client span [%d,%d]",
				seq, d.Start, d.End(), r.Start, r.End())
		}
		if r.Op != d.Op {
			t.Errorf("seq %d: opcode mismatch client %q vs server %q", seq, r.Op, d.Op)
		}
	}
	if paired < syncs {
		t.Fatalf("only %d of %d sampled round trips have both halves", paired, syncs)
	}

	// The NewApp handshake issues reply-bearing requests too; every
	// sampled request must have been flushed inside a timed client.flush.
	hasFlush := false
	for _, s := range spans {
		if s.Name == "client.flush" {
			hasFlush = true
			if s.Arg("frames") <= 0 || s.Arg("bytes") <= 0 {
				t.Errorf("client.flush span missing frames/bytes args: %+v", s)
			}
		}
	}
	if !hasFlush {
		t.Fatal("no client.flush spans recorded")
	}

	// The export parses and carries one X event per span plus the
	// process-name metadata rows.
	data, err := app.Spans.ChromeJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("ChromeJSON output does not parse: %v", err)
	}
	var xEvents, meta int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			xEvents++
		case "M":
			meta++
		}
	}
	if xEvents != len(spans) {
		t.Fatalf("export has %d X events for %d spans", xEvents, len(spans))
	}
	if meta == 0 {
		t.Fatal("export has no process_name metadata")
	}

	// Counters agree with the rings: both sides sampled every request.
	if got := app.Metrics().Counters()["trace.sampled"]; got == 0 {
		t.Fatal("client trace.sampled counter is zero")
	}
	if got := app.Server.Metrics().Counters()["trace.sampled"]; got == 0 {
		t.Fatal("server trace.sampled counter is zero")
	}
}

// TestSpansDisabledByDefault pins the zero-cost default: no tracer, no
// spans, no trace counters.
func TestSpansDisabledByDefault(t *testing.T) {
	app, err := core.NewApp(core.Options{Name: "spantest"})
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	if err := app.Disp.Sync(); err != nil {
		t.Fatal(err)
	}
	if app.Spans != nil {
		t.Fatal("App.Spans set without SpanInterval")
	}
	if got := app.Metrics().Counters()["trace.sampled"]; got != 0 {
		t.Fatalf("trace.sampled = %d without a tracer", got)
	}
}

// pingRound issues flight pipelined Pings and waits for every reply.
func pingRound(t *testing.T, d *xclient.Display, flight int) {
	t.Helper()
	cookies := make([]*xclient.Cookie, flight)
	for j := range cookies {
		cookies[j] = d.SendWithReply(&xproto.PingReq{})
	}
	for _, ck := range cookies {
		if err := ck.Wait(nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSLOReport folds a traced widget-plus-pings workload into the SLO
// report (internal/obs/slo) and checks that it carries everything /slo
// promises: dispatch, round-trip and per-subsystem lock-wait
// quantiles, client/server span pairs, and a clean error budget.
func TestSLOReport(t *testing.T) {
	// 1-in-8 sampling gives the rollup plenty of span pairs.
	app, err := core.NewApp(core.Options{Name: "slotest", SpanInterval: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	app.MustEval(`frame .f`)
	app.MustEval(`pack append . .f {top}`)
	for _, s := range []string{"a", "b", "c"} {
		app.MustEval(`button .f.` + s + ` -text ` + s + ` -foreground red`)
		app.MustEval(`pack append .f .f.` + s + ` {top}`)
	}
	app.Update()
	for i := 0; i < 100; i++ {
		pingRound(t, app.Disp, 8)
	}

	report := slo.Build(slo.Sources{
		Server: app.Server.Metrics(),
		Client: app.Metrics(),
		Spans:  app.Spans.Spans(),
	})
	if report.Dispatch == nil || report.Dispatch.Count == 0 {
		t.Fatal("report has no dispatch quantiles")
	}
	if report.RoundTrip == nil || report.RoundTrip.Count == 0 {
		t.Fatal("report has no round-trip quantiles")
	}
	if report.RoundTrip.P99Ns < report.RoundTrip.P50Ns {
		t.Fatalf("quantiles out of order: p50=%d p99=%d", report.RoundTrip.P50Ns, report.RoundTrip.P99Ns)
	}
	if len(report.Lockwait) == 0 {
		t.Fatal("report has no per-subsystem lockwait quantiles")
	}
	if report.Spans == nil || report.Spans.SampledRoundTrips == 0 {
		t.Fatal("no client.rtt/server.dispatch span pairs in the rollup")
	}
	if report.ErrorBudget.Requests == 0 {
		t.Fatal("error budget saw no requests")
	}
	if report.ErrorBudget.Errors != 0 || report.ErrorBudget.RemainingFraction != 1 {
		t.Fatalf("clean run spent error budget: %+v", report.ErrorBudget)
	}
}

// TestSpanSamplingCost pins what 1-in-64 span sampling costs, by count:
// exactly one server span per 64 requests, and a round of 64 pipelined
// Pings allocates more than the untraced round only by what its one
// sampled request records. An unsampled request that did any tracing
// work would add to the count 63 times per round.
func TestSpanSamplingCost(t *testing.T) {
	const flight, runs = trace.DefaultInterval, 200
	roundAllocs := func(interval int) (allocs float64, app *core.App) {
		app, err := core.NewApp(core.Options{Name: "spantest", SpanInterval: interval})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(app.Close)
		return testing.AllocsPerRun(runs, func() { pingRound(t, app.Disp, flight) }), app
	}
	untraced, _ := roundAllocs(0)
	traced, app := roundAllocs(trace.DefaultInterval)
	t.Logf("64-Ping round: %.0f allocs untraced, %.0f traced", untraced, traced)

	m := app.Server.Metrics()
	requests, spans := m.Counter("requests").Value(), m.Counter("trace.spans").Value()
	if spans != requests/trace.DefaultInterval {
		t.Errorf("server recorded %d spans for %d requests, want exactly 1 in %d", spans, requests, trace.DefaultInterval)
	}
	// Measured at 643 untraced and 649 traced, and an extra 4 to 8 under
	// -race, whose sync.Pool drops entries at random. One allocation per
	// unsampled request would add 63.
	if extra := traced - untraced; extra > 12 {
		t.Errorf("1-in-64 sampling adds %.0f allocs per 64-request round (%.0f vs %.0f), want ≤ 12 for its one sampled request",
			extra, traced, untraced)
	}
}
