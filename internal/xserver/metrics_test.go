package xserver

import (
	"testing"

	"repro/internal/xclient"
	"repro/internal/xproto"
)

// unknownReq is a one-way request whose opcode has no name and no
// handler.
type unknownReq struct{ op uint16 }

func (r unknownReq) Op() uint16          { return r.op }
func (unknownReq) Encode(*xproto.Writer) {}
func (unknownReq) Decode(*xproto.Reader) {}

func openPrivate(t *testing.T) (*Server, *xclient.Display) {
	t.Helper()
	srv := New(320, 240)
	t.Cleanup(srv.Close)
	d, err := xclient.Open(srv.ConnectPipe())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	return srv, d
}

// TestUnknownOpcodesMintNoMetrics sends thousands of distinct opcodes
// outside the name table. Each is rejected with a protocol error and
// counted only in "requests": no client can grow a registry, and the
// connection stays usable.
func TestUnknownOpcodesMintNoMetrics(t *testing.T) {
	srv, d := openPrivate(t)
	srvBefore, cliBefore := len(srv.Metrics().Counters()), len(d.Metrics().Counters())
	requests := srv.Metrics().Counter("requests")
	reqsBefore := requests.Value()
	const n = 2000
	for op := uint16(1000); op < 1000+n; op++ {
		d.Request(unknownReq{op})
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("connection unusable after unknown opcodes: %v", err)
	}
	if got := len(srv.Metrics().Counters()); got != srvBefore {
		t.Errorf("server registry grew from %d to %d counters", srvBefore, got)
	}
	if got := len(d.Metrics().Counters()); got != cliBefore {
		t.Errorf("client registry grew from %d to %d counters", cliBefore, got)
	}
	if got := requests.Value() - reqsBefore; got != n+1 {
		t.Errorf("requests grew by %d, want %d (every unknown opcode plus the Sync)", got, n+1)
	}
	if errs := d.TakeErrors(); len(errs) != n {
		t.Errorf("got %d protocol errors, want %d", len(errs), n)
	}
}

// TestOneWayRequestAllocs bounds the heap allocations of a batch of
// one-way requests and the Sync that flushes it, counted across the
// client and the server goroutines. Recording a request costs atomic
// adds on pre-resolved handles; a by-name metric key built per request
// ("requests." + name, at the client and twice at the server) shows up
// as three more allocations per request and fails the bound.
func TestOneWayRequestAllocs(t *testing.T) {
	_, d := openPrivate(t)
	req := &xproto.BellReq{}
	const batch = 64
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < batch; i++ {
			d.Request(req)
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
	})
	// Measured at 204 allocs (3.19 per request) with handles and 399
	// (6.23 per request) with by-name keys.
	if perReq := allocs / batch; perReq > 4 {
		t.Errorf("%.0f allocs per %d one-way requests + Sync: %.2f per request, want ≤ 4", allocs, batch, perReq)
	}
}

// TestPipelinedRoundTripAllocs bounds the heap allocations of a
// pipelined round trip, counted across the client and the server
// goroutines: the reply path is pooled end to end (writer, outbound
// frame, read buffers), so a per-frame make on either side shows up
// here.
func TestPipelinedRoundTripAllocs(t *testing.T) {
	_, d := openPrivate(t)
	d.SetRoundTripTimeout(0) // the deadline timer allocates
	const flight = 8
	cookies := make([]*xclient.Cookie, flight)
	allocs := testing.AllocsPerRun(200, func() {
		for i := range cookies {
			cookies[i] = d.SendWithReply(&xproto.PingReq{})
		}
		for _, ck := range cookies {
			if err := ck.Wait(nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	// Measured at 58 allocs (7.25 per round trip), 66 (8.25) under
	// -race; one more allocation per frame on either side breaks the
	// bound under -race.
	if perRTT := allocs / flight; perRTT > 9 {
		t.Errorf("%.0f allocs per %d pipelined round trips: %.2f each, want ≤ 9", allocs, flight, perRTT)
	}
}
