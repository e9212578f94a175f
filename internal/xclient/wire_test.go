package xclient_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/xclient"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// wireWorkload drives a deterministic drawing sequence over d and
// returns the resulting screenshot pixels. Identical workloads must
// yield identical pixels regardless of the negotiated wire protocol.
func wireWorkload(t *testing.T, d *xclient.Display) []byte {
	t.Helper()
	w := d.CreateWindow(d.Root, 0, 0, 200, 150, 0, xclient.WindowAttributes{Background: 0x202020})
	d.MapWindow(w)
	gc := d.CreateGC(xclient.GCValues{Foreground: 0xFF4080})
	// A PolyFillRectangle storm: many small, similar frames.
	for i := 0; i < 300; i++ {
		d.FillRectangle(w, gc, i%40, (i*7)%90, 12, 9)
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	shot, err := d.Screenshot(w)
	if err != nil {
		t.Fatalf("Screenshot: %v", err)
	}
	return shot.Pixels
}

// TestWireNegotiationMatrix exercises every pairing of v1/v2 clients
// and servers plus the session-farm path, proving the upgrade is
// transparent: every combination completes the same workload with the
// same pixels, and only the v2↔v2 pairing actually speaks v2.
func TestWireNegotiationMatrix(t *testing.T) {
	var basePixels []byte
	var baseRaw uint64 // the v1 client's wire.bytes.raw for the workload

	run := func(t *testing.T, d *xclient.Display, wantVersion int) []byte {
		t.Helper()
		if got := d.WireVersion(); got != wantVersion {
			t.Fatalf("WireVersion = %d, want %d", got, wantVersion)
		}
		pixels := wireWorkload(t, d)
		if errs := d.TakeErrors(); len(errs) > 0 {
			t.Fatalf("async errors: %v", errs)
		}
		if basePixels != nil && !bytes.Equal(pixels, basePixels) {
			t.Fatalf("pixels differ from the v1 baseline")
		}
		return pixels
	}

	t.Run("v1-client_v2-server", func(t *testing.T) {
		// The baseline: a default client against a v2-capable server
		// must behave exactly as before the upgrade existed.
		srv := xserver.New(200, 150)
		t.Cleanup(srv.Close)
		d, err := xclient.Open(srv.ConnectPipe())
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		t.Cleanup(d.Close)
		basePixels = run(t, d, 1)
		if n := srv.Metrics().Counter("wire.segments.v2").Value(); n != 0 {
			t.Fatalf("v1 client produced %d v2 segments", n)
		}
		baseRaw = d.Metrics().Counter("wire.bytes.raw").Value()
	})

	t.Run("v2-client_v2-server", func(t *testing.T) {
		srv := xserver.New(200, 150)
		t.Cleanup(srv.Close)
		d, err := xclient.OpenWith(srv.ConnectPipe(), xclient.Config{Wire: xclient.WireV2})
		if err != nil {
			t.Fatalf("OpenWith: %v", err)
		}
		t.Cleanup(d.Close)
		run(t, d, 2)
		m := d.Metrics()
		if n := m.Counter("wire.segments.v2").Value(); n == 0 {
			t.Fatalf("v2 connection sent no segments")
		}
		raw, wire := m.Counter("wire.bytes.raw").Value(), m.Counter("wire.bytes.wire").Value()
		if raw == 0 || wire >= raw {
			t.Fatalf("v2 did not shrink the wire: raw %d, wire %d", raw, wire)
		}
		// Segments hold the v1 frames byte for byte, so the bytes fed to
		// the codec are exactly what the v1 client wrote, and the server
		// unpacks every one of them into a request.
		if baseRaw != 0 && raw != baseRaw {
			t.Fatalf("v2 wire.bytes.raw = %d, want the v1 client's %d", raw, baseRaw)
		}
		if cli, srvN := m.Counter("requests").Value(), srv.Metrics().Counter("requests").Value(); cli != srvN {
			t.Fatalf("server served %d requests, client sent %d", srvN, cli)
		}
	})

	t.Run("v2-client_v1-server", func(t *testing.T) {
		// Server declines the upgrade: the client must fall back to v1
		// transparently and finish the same workload.
		srv := xserver.New(200, 150)
		srv.SetWireV2(false)
		t.Cleanup(srv.Close)
		d, err := xclient.OpenWith(srv.ConnectPipe(), xclient.Config{Wire: xclient.WireV2})
		if err != nil {
			t.Fatalf("OpenWith: %v", err)
		}
		t.Cleanup(d.Close)
		run(t, d, 1)
		if n := d.Metrics().Counter("wire.segments.v2").Value(); n != 0 {
			t.Fatalf("declined upgrade still sent %d segments", n)
		}
	})

	t.Run("v2-client_farm-session", func(t *testing.T) {
		// Through the farm's attach handshake: the upgrade frame follows
		// the attach frame and must reach the session's request loop.
		farm := xserver.NewFarm(xserver.FarmOptions{Width: 200, Height: 150, MaxSessions: 2})
		t.Cleanup(farm.Close)
		d, err := xclient.OpenWith(farm.ConnectPipe(), xclient.Config{Session: "wiretest", Attach: true, Wire: xclient.WireV2})
		if err != nil {
			t.Fatalf("OpenWith: %v", err)
		}
		t.Cleanup(d.Close)
		run(t, d, 2)
		if n := d.Metrics().Counter("wire.segments.v2").Value(); n == 0 {
			t.Fatalf("farm session sent no v2 segments")
		}
	})
}

// TestWireV2ServerSegments verifies the server→client direction also
// wraps: a reply-heavy workload over v2 must produce server-side
// segments and compressed bytes savings on large replies.
func TestWireV2ServerSegments(t *testing.T) {
	srv := xserver.New(300, 200)
	t.Cleanup(srv.Close)
	d, err := xclient.OpenWith(srv.ConnectPipe(), xclient.Config{Wire: xclient.WireV2})
	if err != nil {
		t.Fatalf("OpenWith: %v", err)
	}
	t.Cleanup(d.Close)

	w := d.CreateWindow(d.Root, 0, 0, 300, 200, 0, xclient.WindowAttributes{Background: 0x808080})
	d.MapWindow(w)
	// Screenshots are large, uniform replies: highly compressible.
	for i := 0; i < 4; i++ {
		if _, err := d.Screenshot(w); err != nil {
			t.Fatalf("Screenshot: %v", err)
		}
	}
	segs := srv.Metrics().Counter("wire.segments.v2").Value()
	if segs == 0 {
		t.Fatalf("server wrapped no v2 segments")
	}
	raw := srv.Metrics().Counter("wire.bytes.raw").Value()
	wire := srv.Metrics().Counter("wire.bytes.wire").Value()
	if raw == 0 || wire >= raw {
		t.Fatalf("server compression did not shrink the wire: raw %d, wire %d", raw, wire)
	}
}

// TestWireV2PipelinedCookies proves the sequence lockstep survives the
// upgrade: pipelined reply-bearing requests resolve in order with the
// right sequence numbers.
func TestWireV2PipelinedCookies(t *testing.T) {
	srv := xserver.New(100, 100)
	t.Cleanup(srv.Close)
	d, err := xclient.OpenWith(srv.ConnectPipe(), xclient.Config{Wire: xclient.WireV2})
	if err != nil {
		t.Fatalf("OpenWith: %v", err)
	}
	t.Cleanup(d.Close)

	var cookies []*xclient.Cookie
	for i := 0; i < 32; i++ {
		cookies = append(cookies, d.SendWithReply(&xproto.PingReq{}))
	}
	for i, ck := range cookies {
		if err := ck.Wait(nil); err != nil {
			t.Fatalf("cookie %d: %v", i, err)
		}
	}
	if errs := d.TakeErrors(); len(errs) > 0 {
		t.Fatalf("async errors: %v", errs)
	}
}

// TestWireV2Storm gates wire v2's two claims on a 3,000-fill rectangle
// storm, both as counts. v2 ships at least 5x fewer bytes than v1. At
// 10 ms RTT, once 16 Syncs have fed the round-trip EWMA that sizes
// v2's adaptive flushes, v2 crosses in at most half of v1's wire
// segments. Under the per-segment latency model simulated time is
// segments × RTT, so the second check is the 2x speed claim without a
// clock.
func TestWireV2Storm(t *testing.T) {
	// storm runs the storm on a fresh connection and returns the
	// client's wire bytes for the whole connection and the server
	// segments the storm itself took.
	storm := func(mode xclient.WireMode, rtt time.Duration) (wire, segs uint64) {
		srv := xserver.New(640, 480)
		t.Cleanup(srv.Close)
		srv.SetLatencyModel(xserver.LatencyPerSegment)
		srv.SetLatency(rtt)
		d, err := xclient.OpenWith(srv.ConnectPipe(), xclient.Config{Wire: mode})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		if rtt > 0 {
			for i := 0; i < 16; i++ {
				if err := d.Sync(); err != nil {
					t.Fatal(err)
				}
			}
		}
		segments := srv.Metrics().Counter("segments")
		before := segments.Value()
		w := d.CreateWindow(d.Root, 0, 0, 640, 480, 0, xclient.WindowAttributes{Background: 0x101010})
		d.MapWindow(w)
		gc := d.CreateGC(xclient.GCValues{Foreground: 0x40C080})
		for i := 0; i < 3000; i++ {
			d.FillRectangle(w, gc, i%600, (i*13)%440, 16, 12)
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		raw, wire := d.Metrics().Counter("wire.bytes.raw").Value(), d.Metrics().Counter("wire.bytes.wire").Value()
		if mode == xclient.WireV1 && raw != wire {
			t.Fatalf("v1 raw (%d) != v1 wire (%d): v1 must be a passthrough", raw, wire)
		}
		return wire, segments.Value() - before
	}

	v1Wire, _ := storm(xclient.WireV1, 0)
	v2Wire, _ := storm(xclient.WireV2, 0)
	if v2Wire*5 > v1Wire {
		t.Errorf("v2 wire bytes %d vs v1 %d: %.1fx reduction, want ≥ 5x", v2Wire, v1Wire, float64(v1Wire)/float64(v2Wire))
	}
	const rtt = 10 * time.Millisecond
	_, v1Segs := storm(xclient.WireV1, rtt)
	_, v2Segs := storm(xclient.WireV2, rtt)
	if v2Segs*2 > v1Segs {
		t.Errorf("storm at %v RTT: v2 took %d segments vs v1's %d, want at most half", rtt, v2Segs, v1Segs)
	}
	t.Logf("bytes v1 %d, v2 %d; segments at %v v1 %d, v2 %d", v1Wire, v2Wire, rtt, v1Segs, v2Segs)
}
