// Package slo folds metric-registry snapshots and request spans into a
// machine-readable service-level report: p50/p99 dispatch and
// round-trip latency, per-subsystem lock-wait quantiles, and an error
// budget computed from the error-class counters. The live introspection
// endpoint (internal/obs/statshttp) serves it from a running server, and
// the root TestSLOReport checks every section against a traced workload.
package slo

import (
	"encoding/json"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// DefaultTarget is the success-rate objective the error budget is
// computed against when Sources.Target is zero: 99.9% of requests
// complete without an error-class event.
const DefaultTarget = 0.999

// Quantiles summarizes one latency histogram.
type Quantiles struct {
	Count  uint64 `json:"count"`
	P50Ns  int64  `json:"p50_ns"`
	P99Ns  int64  `json:"p99_ns"`
	MeanNs int64  `json:"mean_ns"`
	MaxNs  int64  `json:"max_ns"`
}

func fromSnapshot(s obs.HistogramSnapshot) Quantiles {
	return Quantiles{
		Count:  s.Count,
		P50Ns:  s.Quantile(0.5),
		P99Ns:  s.Quantile(0.99),
		MeanNs: s.Mean(),
		MaxNs:  s.Max,
	}
}

// ErrorBudget is the error-class accounting against the SLO target.
// Errors counts every increment of an error-class counter: errors.*,
// fault.*, roundtrip.timeout, protocol.corrupt, stalled, dropped and
// tk.send.timeout. Allowed is how many such events the target tolerates
// for the observed request volume; RemainingFraction is the unspent
// part of that allowance (1 = clean, 0 = budget exhausted or overrun).
type ErrorBudget struct {
	Requests          uint64            `json:"requests"`
	Errors            uint64            `json:"errors"`
	ByCounter         map[string]uint64 `json:"by_counter,omitempty"`
	Target            float64           `json:"target_success_rate"`
	Allowed           float64           `json:"allowed_errors"`
	RemainingFraction float64           `json:"remaining_fraction"`
}

// SpanRollup is what the sampled spans add beyond the histograms: the
// wire-plus-queue component of sampled round trips (client round-trip
// time minus the server's dispatch service time for the same sequence
// number), which is where thin-client collapse hides.
type SpanRollup struct {
	SampledRoundTrips int   `json:"sampled_round_trips"`
	WireP50Ns         int64 `json:"wire_p50_ns"`
	WireP99Ns         int64 `json:"wire_p99_ns"`
	WireMaxNs         int64 `json:"wire_max_ns"`
}

// Report is the rollup. Dispatch and Lockwait come from a server
// registry, RoundTrip from a client registry; either side may be
// absent (e.g. the live endpoint on a standalone server has no client
// registry).
type Report struct {
	Dispatch    *Quantiles           `json:"dispatch,omitempty"`
	RoundTrip   *Quantiles           `json:"round_trip,omitempty"`
	Lockwait    map[string]Quantiles `json:"lockwait,omitempty"`
	ErrorBudget ErrorBudget          `json:"error_budget"`
	Spans       *SpanRollup          `json:"spans,omitempty"`
}

// Sources names the inputs to Build. Nil registries and empty span
// slices are skipped; Target 0 means DefaultTarget.
type Sources struct {
	Server *obs.Registry
	Client *obs.Registry
	Spans  []trace.Span
	Target float64
}

// errorCounterPrefixes and errorCounterNames classify registry counters
// as error-class: each increment is one spent unit of error budget.
var errorCounterPrefixes = []string{"errors.", "fault."}
var errorCounterNames = map[string]bool{
	"roundtrip.timeout": true,
	"protocol.corrupt":  true,
	"stalled":           true,
	"dropped":           true,
	"tk.send.timeout":   true,
}

// IsErrorCounter reports whether a counter name is error-class for
// budget purposes.
func IsErrorCounter(name string) bool {
	for _, p := range errorCounterPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return errorCounterNames[name]
}

// MarshalReport renders a report as indented JSON — the format the /slo
// endpoint emits.
func MarshalReport(r Report) ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Build assembles a report from the sources.
func Build(src Sources) Report {
	target := src.Target
	if target == 0 {
		target = DefaultTarget
	}
	r := Report{
		ErrorBudget: ErrorBudget{
			Target:    target,
			ByCounter: make(map[string]uint64),
		},
	}
	if src.Server != nil {
		hists := src.Server.Histograms()
		if s, ok := hists["dispatch"]; ok {
			q := fromSnapshot(s)
			r.Dispatch = &q
		}
		for name, s := range hists {
			if sub, ok := strings.CutPrefix(name, "lockwait."); ok {
				if r.Lockwait == nil {
					r.Lockwait = make(map[string]Quantiles)
				}
				r.Lockwait[sub] = fromSnapshot(s)
			}
		}
	}
	if src.Client != nil {
		if s, ok := src.Client.Histograms()["roundtrip"]; ok {
			q := fromSnapshot(s)
			r.RoundTrip = &q
		}
	}

	// Requests: the server's view when present (it covers every client),
	// otherwise the client's own.
	budgetFrom := src.Server
	if budgetFrom == nil {
		budgetFrom = src.Client
	}
	if budgetFrom != nil {
		r.ErrorBudget.Requests = budgetFrom.Counters()["requests"]
	}
	for _, reg := range []*obs.Registry{src.Server, src.Client} {
		if reg == nil {
			continue
		}
		for name, v := range reg.Counters() {
			if v > 0 && IsErrorCounter(name) {
				r.ErrorBudget.Errors += v
				r.ErrorBudget.ByCounter[name] += v
			}
		}
	}
	allowed := (1 - target) * float64(r.ErrorBudget.Requests)
	r.ErrorBudget.Allowed = allowed
	switch {
	case allowed <= 0:
		if r.ErrorBudget.Errors == 0 {
			r.ErrorBudget.RemainingFraction = 1
		}
	case float64(r.ErrorBudget.Errors) >= allowed:
		r.ErrorBudget.RemainingFraction = 0
	default:
		r.ErrorBudget.RemainingFraction = 1 - float64(r.ErrorBudget.Errors)/allowed
	}

	if rollup := rollupSpans(src.Spans); rollup != nil {
		r.Spans = rollup
	}
	return r
}

// rollupSpans pairs client.rtt and server.dispatch spans by sequence
// number and summarizes the difference — the time a sampled round trip
// spent outside the server's dispatch path (wire, queues, simulated
// latency, fault-injected jitter).
func rollupSpans(spans []trace.Span) *SpanRollup {
	rtt := make(map[uint64]int64)
	disp := make(map[uint64]int64)
	for _, s := range spans {
		switch s.Name {
		case "client.rtt":
			rtt[s.Seq] = s.Dur
		case "server.dispatch":
			disp[s.Seq] = s.Dur
		}
	}
	var wire []int64
	for seq, d := range rtt {
		if sd, ok := disp[seq]; ok {
			if w := d - sd; w >= 0 {
				wire = append(wire, w)
			}
		}
	}
	if len(wire) == 0 {
		return nil
	}
	sort.Slice(wire, func(i, j int) bool { return wire[i] < wire[j] })
	rank := func(q float64) int64 {
		i := int(q*float64(len(wire))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(wire) {
			i = len(wire) - 1
		}
		return wire[i]
	}
	return &SpanRollup{
		SampledRoundTrips: len(wire),
		WireP50Ns:         rank(0.50),
		WireP99Ns:         rank(0.99),
		WireMaxNs:         wire[len(wire)-1],
	}
}
