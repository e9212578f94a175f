// Observability benchmarks: the round-trip latency distribution the
// roundtrip histogram records, and a machine-readable dump
// (BENCH_obs.json) of per-opcode traffic plus quantiles at two
// simulated IPC latency settings. The JSON is the artifact EXPERIMENTS.md
// points at when reproducing the §3.3 traffic-reduction claims.
package repro_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// BenchmarkRoundTripLatency measures one protocol round trip (Sync) at
// two simulated IPC latencies, reporting the histogram's own quantile
// estimates alongside the wall-clock numbers so the two can be compared.
func BenchmarkRoundTripLatency(b *testing.B) {
	for _, bc := range []struct {
		name string
		lat  time.Duration
	}{
		{"latency=0", 0},
		{"latency=1ms", time.Millisecond},
	} {
		b.Run(bc.name, func(b *testing.B) {
			app, err := core.NewApp(core.Options{Name: "bench"})
			if err != nil {
				b.Fatal(err)
			}
			defer app.Close()
			app.Server.SetLatency(bc.lat)
			defer app.Server.SetLatency(0)
			app.Metrics().Reset()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := app.Disp.Sync(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if h, ok := app.Metrics().FindHistogram("roundtrip"); ok {
				s := h.Snapshot()
				b.ReportMetric(float64(s.Quantile(0.5)), "p50-ns")
				b.ReportMetric(float64(s.Quantile(0.99)), "p99-ns")
			}
		})
	}
}

// obsQuantiles is one latency setting's roundtrip distribution in
// BENCH_obs.json.
type obsQuantiles struct {
	Count uint64 `json:"count"`
	P50Ns int64  `json:"p50_ns"`
	P99Ns int64  `json:"p99_ns"`
	MinNs int64  `json:"min_ns"`
	MaxNs int64  `json:"max_ns"`
}

// TestEmitObsBench runs a fixed widget workload, dumps the server's
// per-opcode request counts, then measures the client roundtrip
// histogram at 0 and 1 ms of simulated IPC latency and writes the lot
// to BENCH_obs.json. It doubles as the smoke check for the whole
// metrics path (make check runs it with OBS_BENCH=1): the p50 with 1 ms
// latency must be at least 1 ms, and must exceed the p50 without.
func TestEmitObsBench(t *testing.T) {
	requireObsBench(t, "BENCH_obs.json")
	app, err := core.NewApp(core.Options{Name: "obsbench"})
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()

	// Fixed workload: a small UI with cached resources exercised twice,
	// so the opcode counts show the §3.3 effect (one AllocNamedColor /
	// OpenFont per distinct resource, not per use).
	app.MustEval(`frame .f`)
	app.MustEval(`pack append . .f {top}`)
	for _, s := range []string{"a", "b", "c", "d", "e"} {
		app.MustEval(`button .f.` + s + ` -text ` + s + ` -foreground red`)
		app.MustEval(`pack append .f .f.` + s + ` {top}`)
	}
	app.Update()

	// Every opcode's counter is declared up front; keep the ones the
	// workload issued.
	opcodes := make(map[string]uint64)
	for name, v := range app.Server.Metrics().Counters() {
		if rest, ok := strings.CutPrefix(name, "requests."); ok && v > 0 {
			opcodes[rest] = v
		}
	}
	if opcodes["AllocNamedColor"] == 0 || opcodes["CreateWindow"] == 0 {
		t.Fatalf("workload left no opcode trail: %v", opcodes)
	}

	measure := func(lat time.Duration) obsQuantiles {
		app.Server.SetLatency(lat)
		defer app.Server.SetLatency(0)
		app.Metrics().Reset()
		for i := 0; i < 50; i++ {
			if err := app.Disp.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		h, ok := app.Metrics().FindHistogram("roundtrip")
		if !ok {
			t.Fatal("no roundtrip histogram")
		}
		s := h.Snapshot()
		return obsQuantiles{
			Count: s.Count,
			P50Ns: s.Quantile(0.5),
			P99Ns: s.Quantile(0.99),
			MinNs: s.Min,
			MaxNs: s.Max,
		}
	}
	fast := measure(0)
	slow := measure(time.Millisecond)

	// Smoke: the histogram tracks the injected latency.
	if slow.P50Ns < int64(time.Millisecond) {
		t.Fatalf("p50 with 1ms simulated latency = %dns, want ≥ 1ms", slow.P50Ns)
	}
	if slow.P50Ns <= fast.P50Ns {
		t.Fatalf("p50 did not track latency: fast=%dns slow=%dns", fast.P50Ns, slow.P50Ns)
	}

	out := struct {
		Workload     string                  `json:"workload"`
		HistBuckets  int                     `json:"histogram_buckets"`
		OpcodeCounts map[string]uint64       `json:"opcode_counts"`
		Roundtrip    map[string]obsQuantiles `json:"roundtrip"`
	}{
		Workload:     "frame + 5 buttons (shared color/font), update, 50 syncs per latency setting",
		HistBuckets:  obs.NumBuckets,
		OpcodeCounts: opcodes,
		Roundtrip: map[string]obsQuantiles{
			"latency_0":   fast,
			"latency_1ms": slow,
		},
	}
	writeBenchJSON(t, "BENCH_obs.json", out)
	t.Logf("wrote BENCH_obs.json: %d opcodes, p50 %dns -> %dns", len(opcodes), fast.P50Ns, slow.P50Ns)
}
