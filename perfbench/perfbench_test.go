package main

import (
	"errors"
	"testing"

	"repro/internal/obs/trace"
)

// testActions is how many actions each test run measures: a few full
// cycles of every workload (canvas_deck's 10, remote_text's sends every
// 8 and pages of 64).
const testActions = 80

func runFixed(t *testing.T, workload string, seed int64, traced bool) *report {
	t.Helper()
	rep, err := run(options{workload: workload, seed: seed, actions: testActions, trace: traced})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !rep.Correct {
		t.Fatalf("%s: output check failed", workload)
	}
	if rep.Failed != 0 {
		t.Fatalf("%s: %d of %d actions failed", workload, rep.Failed, rep.Attempted)
	}
	return rep
}

// Every request the clients count is one the server counts, on the
// untraced and the traced run.
func TestClientAndServerRequestsAgree(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep := runFixed(t, w.name, 1, traced)
			if c := rep.counts; c[cliRequests] == 0 || c[cliRequests] != c[srvRequests] {
				t.Errorf("%s traced=%v: xclient sent %d requests, xserver dispatched %d",
					w.name, traced, c[cliRequests], c[srvRequests])
			}
		}
	}
}

// The benchmark's calls inside one action never add up to more than the
// action's wall time, and the traced run yields every per-layer metric.
func TestTracedRunIsConsistent(t *testing.T) {
	for _, w := range workloads {
		rep := runFixed(t, w.name, 2, true)
		if rep.tracedActions == 0 {
			t.Fatalf("%s: no traced actions", w.name)
		}
		if rep.overruns != 0 {
			t.Errorf("%s: %d of %d traced actions have call times summing past their wall time",
				w.name, rep.overruns, rep.tracedActions)
		}
		for _, name := range []string{"tcl.commands", "xclient.requests", "xserver.requests", "xproto.decode_ns", "trace.overhead_frac"} {
			if _, ok := rep.Metrics[name]; !ok {
				t.Errorf("%s: traced run lacks %s", w.name, name)
			}
		}
		if rep.Metrics["xproto.decode_ns"].Value <= 0 {
			t.Errorf("%s: decode replay measured nothing", w.name)
		}
	}
}

// Requests, round trips and (on wire v1) bytes repeat exactly across two
// runs of one seed.
func TestDeterministicCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		a := runFixed(t, w.name, 3, false).counts
		b := runFixed(t, w.name, 3, false).counts
		if a[cliRequests] != b[cliRequests] || a[cliRoundtrips] != b[cliRoundtrips] {
			t.Errorf("%s: requests %d vs %d, round trips %d vs %d",
				w.name, a[cliRequests], b[cliRequests], a[cliRoundtrips], b[cliRoundtrips])
		}
		if w.name != "remote_text" && a[tapBytes] != b[tapBytes] {
			t.Errorf("%s: wire bytes %d vs %d", w.name, a[tapBytes], b[tapBytes])
		}
	}
}

// canvas_deck's screenshots hash the same across repeats of a seed and
// between the traced and untraced runs (every cycle is checked against
// the reference within a run).
func TestDeckScreenshotRepeats(t *testing.T) {
	a := runFixed(t, "canvas_deck", 4, false)
	b := runFixed(t, "canvas_deck", 4, false)
	c := runFixed(t, "canvas_deck", 4, true)
	if a.shot == 0 || a.shot != b.shot || a.shot != c.shot {
		t.Errorf("screenshot hashes differ: %016x, %016x, traced %016x", a.shot, b.shot, c.shot)
	}
}

// A run whose output check fails reports correct=false and publishes
// no numbers.
func TestFailedCheckPublishesNothing(t *testing.T) {
	workloads = append(workloads, workload{name: "broken", build: func(r *rig, seed int64) (scene, error) {
		sc, err := buildButtons(r, seed)
		return brokenScene{sc}, err
	}})
	defer func() { workloads = workloads[:len(workloads)-1] }()
	rep, err := run(options{workload: "broken", seed: 1, actions: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || len(rep.Metrics) != 0 {
		t.Errorf("correct=%v with %d metrics, want false and none", rep.Correct, len(rep.Metrics))
	}
}

type brokenScene struct{ scene }

func (brokenScene) verify(int) error { return errors.New("wrong output") }

// Self time is a span's duration less its direct children's; spans off
// the driving goroutine keep their whole duration.
func TestSelfTimeFold(t *testing.T) {
	tab := selfTable{}
	tab.fold([]trace.Span{
		{Name: "bench.action", Start: 0, Dur: 100},
		{Name: "bench.eval", Start: 10, Dur: 50},
		{Name: "client.flush", Start: 20, Dur: 15},
		{Name: "client.wait", Start: 40, Dur: 10},
		{Name: "bench.update", Start: 70, Dur: 20},
		{Name: "server.dispatch", Start: 22, Dur: 5},
	})
	want := map[string]int64{"bench.action": 30, "bench.eval": 25, "client.flush": 15,
		"client.wait": 10, "bench.update": 20, "server.dispatch": 5}
	for name, self := range want {
		if row := tab[name]; row == nil || row.selfNs != self {
			t.Errorf("%s: self %v, want %d", name, row, self)
		}
	}
}
