package xserver_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/xclient"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// TestLatencyPerSegment checks the per-segment model's defining
// property: a batch of pipelined requests flushed together pays the
// simulated IPC latency once, not once per request.
func TestLatencyPerSegment(t *testing.T) {
	srv := xserver.New(400, 300)
	t.Cleanup(srv.Close)
	const lat = 20 * time.Millisecond
	srv.SetLatency(lat)
	srv.SetLatencyModel(xserver.LatencyPerSegment)

	d, err := xclient.Open(srv.ConnectPipe())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)

	segments := srv.Metrics().Counter("segments")
	before := segments.Value()

	const k = 10
	start := time.Now()
	cookies := make([]xclient.AtomCookie, k)
	for i := range cookies {
		cookies[i] = d.InternAtomAsync(fmt.Sprintf("SEGMENT_ATOM_%d", i))
	}
	for i := range cookies {
		if _, err := cookies[i].Wait(); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)

	// All k requests went out in one flush, so one segment: roughly one
	// latency charge, and nowhere near the k charges the per-request
	// model would make.
	if elapsed < lat {
		t.Fatalf("batch completed in %v, below the %v wire latency", elapsed, lat)
	}
	if elapsed >= time.Duration(k)*lat/2 {
		t.Fatalf("batch took %v; per-segment model should charge ~1×%v, not per request", elapsed, lat)
	}
	if got := segments.Value() - before; got > 3 {
		t.Fatalf("batch consumed %d wire segments, want ≤ 3", got)
	}

	// Simulated time under this model is segments × latency, so the
	// pipelining win is a count: 8 pipelined round trips cross in one
	// segment where 8 serial ones take eight.
	const flight = 8
	before = segments.Value()
	pings := make([]*xclient.Cookie, flight)
	for i := range pings {
		pings[i] = d.SendWithReply(&xproto.PingReq{})
	}
	for _, ck := range pings {
		if err := ck.Wait(nil); err != nil {
			t.Fatal(err)
		}
	}
	pipelined := segments.Value() - before
	before = segments.Value()
	for i := 0; i < flight; i++ {
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	serial := segments.Value() - before
	if pipelined != 1 || serial != flight {
		t.Fatalf("%d round trips took %d segments pipelined and %d serial, want 1 and %d",
			flight, pipelined, serial, flight)
	}
}

// TestLatencyPerRequestDefault checks that the default model still
// charges latency per request, preserving the pre-pipelining
// experiment semantics.
func TestLatencyPerRequestDefault(t *testing.T) {
	srv := xserver.New(400, 300)
	t.Cleanup(srv.Close)
	const lat = 10 * time.Millisecond
	srv.SetLatency(lat)

	d, err := xclient.Open(srv.ConnectPipe())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)

	const k = 5
	start := time.Now()
	cookies := make([]xclient.AtomCookie, k)
	for i := range cookies {
		cookies[i] = d.InternAtomAsync(fmt.Sprintf("PERREQ_ATOM_%d", i))
	}
	for i := range cookies {
		if _, err := cookies[i].Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < time.Duration(k)*lat {
		t.Fatalf("k=%d requests at %v per-request latency took only %v", k, lat, elapsed)
	}
}
