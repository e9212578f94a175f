// Package xclient is the client-side library for the simulated X display
// server — the analogue of Xlib in the paper's stack. It manages the
// connection, buffers requests, performs round trips for requests with
// replies, maintains the incoming event queue, and provides typed
// wrappers for every request the Tk toolkit needs.
package xclient

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/xproto"
)

// ErrTimeout marks round-trip deadline expiry; test with errors.Is.
var ErrTimeout = errors.New("timeout")

// DefaultRoundTripTimeout bounds Cookie.Wait (and so every RoundTrip
// and Sync) unless SetRoundTripTimeout overrides it. A reply that takes
// this long means the server or the wire is wedged; waiting forever
// would wedge the client with it.
const DefaultRoundTripTimeout = 30 * time.Second

// setupTimeout bounds the initial setup-block read in Open, so a dialed
// connection to something that is not (or no longer) a display server
// fails fast instead of hanging the caller.
const setupTimeout = 10 * time.Second

// Display is an open connection to a display server.
//
// Its lock order is declared for cmd/tkcheck's lock-order analyzer:
// the writer lock may be held while registering a reply waiter, and
// the event-queue and error-sink locks never nest with anything.
//
// lock-order: mu -> pendMu
// lock-order: evMu
// lock-order: errMu
type Display struct {
	conn net.Conn

	// Screen parameters from the setup block.
	Root   xproto.ID
	Width  int
	Height int

	// ErrorHandler receives asynchronous protocol errors (errors for
	// requests nobody was waiting on). Defaults to collecting them in
	// Errors.
	ErrorHandler func(msg string)

	mu     sync.Mutex // serializes writers
	wbuf   []byte     // guarded by mu
	wcount int        // guarded by mu — frames buffered since the last flush
	seq    uint64     // guarded by mu
	idNext uint32     // guarded by mu (written once more in Open, pre-publication)
	closed bool       // guarded by mu

	// Reply routing (the XCB cookie model): every reply-bearing request
	// registers a waiter keyed by its sequence number, so any number of
	// requests can be in flight at once and readLoop routes each
	// reply/error to its own waiter. pendMu is ordered after mu
	// (SendWithReply takes mu then pendMu; nothing takes them the other
	// way around).
	pendMu  sync.Mutex
	waiters map[uint64]*Cookie // guarded by pendMu
	lostErr error              // guarded by pendMu — set once when readLoop exits

	// Incoming events are buffered in an unbounded queue (as Xlib's
	// event queue is) so the socket reader never blocks however far the
	// application falls behind; a feeder goroutine moves them onto the
	// events channel consumers select on.
	events  chan xproto.Event
	evMu    sync.Mutex
	evCond  *sync.Cond
	evQueue []xproto.Event // guarded by evMu
	evDone  bool           // guarded by evMu

	// evSeen counts events the read loop has queued since Open. Because
	// the read loop is sequential, by the time any round trip resolves
	// the count covers every event the server sent before that reply —
	// see EventsSeen.
	evSeen atomic.Uint64

	errMu  sync.Mutex
	errors []string // guarded by errMu

	readerDone chan struct{}
	stop       chan struct{} // closed by Close; releases the feeder

	// rtTimeout is the Cookie.Wait deadline in nanoseconds (0 disables);
	// atomic so SetRoundTripTimeout may be called from any goroutine.
	rtTimeout atomic.Int64

	// metrics records client-side traffic; m holds its handles. Both
	// are immutable after Open.
	metrics *obs.Registry
	m       *clientMetrics

	// tracer, when set, records spans for sampled reply-bearing requests
	// (see internal/obs/trace). Atomic so SetTracer may race requests.
	tracer atomic.Pointer[trace.Tracer]

	// tracedFlush is the sequence number of a sampled request buffered
	// since the last flush (0 = none), so flushLocked knows to time and
	// record the wire write that carries it. guarded by mu.
	tracedFlush uint64

	// Wire protocol v2 state (docs/pipelining.md, "Wire protocol v2").
	// wireTx says the upgrade was negotiated; it is settled during
	// OpenWith, before the Display is published. segTx is the segment
	// assembly scratch, segRx the readLoop's decompression scratch.
	wireTx bool   // immutable after OpenWith
	segTx  []byte // guarded by mu
	segRx  []byte // readLoop only

	// rttEwma is the smoothed round-trip estimate (ns) fed by every
	// completed round trip on a v2 connection; the adaptive flush
	// controller sizes the auto-flush threshold from it
	// (flushThresholdLocked). 0 = no samples yet (and always 0 on v1,
	// whose reply path skips the update entirely).
	rttEwma atomic.Int64
}

// clientMetrics are the display's metric handles, resolved once in
// OpenWith so no path records by name.
type clientMetrics struct {
	requests, async, roundtrips, events, pipelined *obs.Counter
	roundtripTimeout, errorsAsync, protocolCorrupt *obs.Counter
	traceSampled, traceSpans                       *obs.Counter
	wireSegs, wireBytesRaw, wireBytesWire          *obs.Counter
	wireSkipped, wireDecodeErrs                    *obs.Counter
	inflight, wireThreshold, wireRTT               *obs.Gauge
	roundtrip, flushBatch                          *obs.Histogram

	ops [256]*obs.Counter // requests.<OpName>; nil for unnamed opcodes
}

func newClientMetrics(reg *obs.Registry) *clientMetrics {
	m := &clientMetrics{
		requests:         reg.Counter("requests"),
		async:            reg.Counter("async"),
		roundtrips:       reg.Counter("roundtrips"),
		roundtrip:        reg.Histogram("roundtrip"),
		roundtripTimeout: reg.Counter("roundtrip.timeout"),
		events:           reg.Counter("events"),
		inflight:         reg.Gauge("inflight"),
		pipelined:        reg.Counter("pipelined"),
		flushBatch:       reg.Histogram("flush.batch"),
		errorsAsync:      reg.Counter("errors.async"),
		protocolCorrupt:  reg.Counter("protocol.corrupt"),
		traceSampled:     reg.Counter("trace.sampled"),
		traceSpans:       reg.Counter("trace.spans"),
		wireSegs:         reg.Counter("wire.segments.v2"),
		wireBytesRaw:     reg.Counter("wire.bytes.raw"),
		wireBytesWire:    reg.Counter("wire.bytes.wire"),
		wireSkipped:      reg.Counter("wire.compress.skipped"),
		wireDecodeErrs:   reg.Counter("wire.decode.errors"),
		wireThreshold:    reg.Gauge("wire.flush.threshold"),
		wireRTT:          reg.Gauge("wire.rtt.ewma"),
	}
	xproto.EachOp(func(op uint16, name string) { m.ops[op] = reg.Counter("requests." + name) })
	return m
}

const eventChanSize = 64

// WireMode selects the wire protocol OpenWith negotiates at setup.
type WireMode int

const (
	// WireV1 speaks the original framing — the default. No upgrade
	// frame is written, so the connection is byte-for-byte identical to
	// a pre-v2 client (and stays decodable by the xtrace tap).
	WireV1 WireMode = iota
	// WireV2 requests the LBX-style v2 upgrade (per-segment
	// compression and latency-adaptive flushing; docs/pipelining.md)
	// and falls back to v1 transparently if the server declines.
	WireV2
)

// Config configures OpenWith. The zero value reproduces Open exactly.
type Config struct {
	// Session names the virtual display to attach on a session farm
	// (docs/farm.md); a non-empty name implies the attach handshake.
	Session string
	// Attach writes the session-attach handshake even when Session is
	// empty (selecting the farm's default session) — what OpenSession
	// has always done.
	Attach bool
	// Wire selects the wire protocol to negotiate.
	Wire WireMode
}

// Open establishes a Display over an existing connection (from
// xserver.ConnectPipe or net.Dial).
func Open(conn net.Conn) (*Display, error) {
	return OpenWith(conn, Config{})
}

// OpenWith establishes a Display with explicit session and
// wire-protocol configuration. Both handshakes are written raw before
// the setup block is read, and neither carries a sequence number on
// either side, so the cookie/span sequence lockstep is untouched
// whatever is negotiated.
func OpenWith(conn net.Conn, cfg Config) (*Display, error) {
	if cfg.Attach || cfg.Session != "" {
		w := xproto.AcquireWriter()
		(&xproto.AttachSessionReq{Session: cfg.Session}).Encode(w)
		err := xproto.WriteRequestFrame(conn, xproto.OpAttachSession, w.Bytes())
		xproto.ReleaseWriter(w)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("xclient: writing session attach: %w", err)
		}
	}
	if cfg.Wire == WireV2 {
		w := xproto.AcquireWriter()
		(&xproto.UpgradeWireReq{Version: 2}).Encode(w)
		err := xproto.WriteRequestFrame(conn, xproto.OpUpgradeWire, w.Bytes())
		xproto.ReleaseWriter(w)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("xclient: writing wire upgrade: %w", err)
		}
	}
	d := &Display{
		conn:       conn,
		waiters:    make(map[uint64]*Cookie),
		events:     make(chan xproto.Event, eventChanSize),
		readerDone: make(chan struct{}),
		stop:       make(chan struct{}),
		metrics:    obs.NewRegistry(),
	}
	d.m = newClientMetrics(d.metrics)
	d.evCond = sync.NewCond(&d.evMu)
	d.rtTimeout.Store(int64(DefaultRoundTripTimeout))
	// The setup block arrives before anything else. Bound the wait so a
	// dead endpoint fails the Open instead of hanging it.
	conn.SetReadDeadline(time.Now().Add(setupTimeout))
	kind, payload, err := xproto.ReadServerFrame(conn)
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		conn.Close()
		// A server that is already shut down closes (or has closed) the
		// connection before sending any setup block; distinguish that
		// from a genuinely malformed stream so the caller sees what
		// actually happened instead of a bare EOF.
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
			errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
			return nil, fmt.Errorf("xclient: display server closed the connection during setup (server not running or already shut down): %w", err)
		}
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return nil, fmt.Errorf("xclient: no connection setup block within %v (endpoint is not a display server, or is wedged): %w", setupTimeout, err)
		}
		return nil, fmt.Errorf("xclient: connection setup failed: %w", err)
	}
	if kind == xproto.KindError {
		// A pre-setup refusal: a session farm rejecting admission (cap
		// reached, malformed attach) answers with a sequence-0 error
		// frame instead of a setup block. Surface its message.
		conn.Close()
		r := xproto.NewReader(payload)
		r.U64() // sequence; 0 for pre-setup refusals
		if msg := r.String(); r.Err() == nil && msg != "" {
			return nil, fmt.Errorf("xclient: display server refused the connection: %s", msg)
		}
		return nil, fmt.Errorf("xclient: display server refused the connection")
	}
	if kind != xproto.KindReply {
		conn.Close()
		return nil, fmt.Errorf("xclient: unexpected setup message kind %d", kind)
	}
	var setup xproto.SetupReply
	setup.Decode(xproto.NewReader(payload))
	d.Root = setup.Root
	d.Width = int(setup.Width)
	d.Height = int(setup.Height)
	d.idNext = setup.ResourceIDBase
	if cfg.Wire == WireV2 {
		// The ack is queued right behind the setup block (the server's
		// request loop consumed the upgrade before dispatching anything),
		// so it is read synchronously here — the negotiation is settled
		// before the read loop starts and before the first request.
		conn.SetReadDeadline(time.Now().Add(setupTimeout))
		kind, ack, err := xproto.ReadServerFrame(conn)
		conn.SetReadDeadline(time.Time{})
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("xclient: reading wire upgrade ack: %w", err)
		}
		if kind != xproto.KindWireAck || len(ack) < 1 {
			conn.Close()
			return nil, fmt.Errorf("xclient: malformed wire upgrade ack (kind %d, %d bytes)", kind, len(ack))
		}
		d.wireTx = ack[0] >= 2
		// A version-1 ack is the transparent fallback: the server
		// declined and both sides continue in v1 framing.
	}
	go d.readLoop()
	go d.feedEvents()
	return d, nil
}

// WireVersion reports the negotiated wire protocol: 2 after an accepted
// upgrade, 1 otherwise (including declined upgrades).
func (d *Display) WireVersion() int {
	if d.wireTx {
		return 2
	}
	return 1
}

// Dial connects to a display server at a TCP address.
func Dial(addr string) (*Display, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return Open(conn)
}

// OpenSession establishes a Display attached to the named virtual
// display of a session-multiplexing server (xserver.Farm,
// docs/farm.md). The attach handshake is written raw before the setup
// read — it carries no sequence number on either side, so against a
// plain single-display server (which consumes it without counting it)
// the connection behaves exactly like Open. The empty name selects the
// farm's default session.
func OpenSession(conn net.Conn, session string) (*Display, error) {
	return OpenWith(conn, Config{Session: session, Attach: true})
}

// Close shuts the connection down.
func (d *Display) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.conn.Close()
	close(d.stop)
	d.mu.Unlock()
	// Wake the feeder so it can observe the stop and exit. Signaled
	// after mu is released: evMu is a leaf and must never nest under
	// the writer lock (see the lock-order declaration on Display).
	d.evMu.Lock()
	d.evCond.Signal()
	d.evMu.Unlock()
}

// Closed reports whether the display connection has been closed.
func (d *Display) Closed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.closed
}

// NewID allocates a fresh resource ID from this connection's range.
func (d *Display) NewID() xproto.ID {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.idNext++
	return xproto.ID(d.idNext)
}

// readLoop dispatches incoming server messages. Events go to the
// unbounded queue so this loop never stalls on a slow consumer;
// replies and errors are routed to their waiting cookie by sequence
// number. Any framing damage — a read error, a torn frame, an unknown
// frame kind — is unrecoverable (stream alignment is gone), so it is
// turned into one clean connection-lost error that fails every
// outstanding and future cookie rather than hanging them.
func (d *Display) readLoop() {
	defer close(d.readerDone)
	// Frames are read into a reusable scratch buffer. Events are decoded
	// before the next read (Event.Decode copies what it keeps), so the
	// steady-state event path allocates nothing; reply and error payloads
	// outlive the loop iteration inside their cookie (decode happens
	// lazily at Wait), so those are copied out of the scratch.
	var scratch []byte
	for {
		kind, payload, err := xproto.ReadServerFrameInto(d.conn, scratch)
		if err != nil {
			d.connLost(fmt.Errorf("xclient: connection lost: %w", err))
			return
		}
		scratch = payload
		if kind == xproto.KindWireSeg {
			// A v2 segment of batched server frames: verify, unwrap and
			// handle each inner frame. Decode failure is fatal — the
			// checksum no longer vouches for the stream.
			raw, s2, derr := xproto.DecodeSegmentPayload(payload, d.segRx)
			d.segRx = s2
			if derr == nil {
				derr = xproto.WalkServerFrames(raw, d.handleServerFrame)
			}
			if derr != nil {
				d.m.wireDecodeErrs.Inc()
				d.m.protocolCorrupt.Inc()
				d.conn.Close()
				d.connLost(fmt.Errorf("xclient: protocol corruption: %w", derr))
				return
			}
			continue
		}
		if err := d.handleServerFrame(kind, payload); err != nil {
			// Garbage where a frame header should be: the stream can no
			// longer be trusted byte-for-byte. Fail cleanly.
			d.m.protocolCorrupt.Inc()
			d.conn.Close()
			d.connLost(err)
			return
		}
	}
}

// handleServerFrame processes one server frame — bare off the wire or
// unwrapped from a v2 segment. A returned error is fatal to the
// connection (stream alignment or trust is gone); recoverable damage
// inside a correctly delimited frame surfaces through asyncError.
func (d *Display) handleServerFrame(kind byte, payload []byte) error {
	switch kind {
	case xproto.KindEvent:
		var ev xproto.Event
		r := xproto.NewReader(payload)
		ev.Decode(r)
		if r.Err() != nil {
			// The frame itself was delimited correctly, so the
			// stream is still aligned: surface the damage and skip
			// the frame instead of killing the connection.
			d.asyncError(fmt.Sprintf("malformed event: %v", r.Err()))
			return nil
		}
		d.m.events.Inc()
		d.evSeen.Add(1)
		d.evMu.Lock()
		d.evQueue = append(d.evQueue, ev)
		d.evCond.Signal()
		d.evMu.Unlock()
		return nil
	case xproto.KindReply, xproto.KindError:
		d.routeReply(kind, append([]byte(nil), payload...))
		return nil
	default:
		return fmt.Errorf("xclient: protocol corruption: unknown frame kind %d", kind)
	}
}

// connLost marks the connection dead with its root cause: the event
// queue is drained-and-closed, and every cookie still waiting (or
// registered from now on) fails with err instead of blocking forever.
func (d *Display) connLost(err error) {
	d.evMu.Lock()
	d.evDone = true
	d.evCond.Signal()
	d.evMu.Unlock()
	d.pendMu.Lock()
	d.lostErr = err
	for seq, ck := range d.waiters {
		delete(d.waiters, seq)
		ck.resolve(nil, err)
	}
	d.m.inflight.Set(0)
	d.pendMu.Unlock()
}

// routeReply delivers one reply or error frame to the cookie waiting on
// its sequence number. Frames nobody is waiting on surface through
// asyncError.
func (d *Display) routeReply(kind byte, payload []byte) {
	r := xproto.NewReader(payload)
	seq := r.U64()
	if r.Err() != nil {
		d.asyncError(fmt.Sprintf("malformed server message: %v", r.Err()))
		return
	}
	d.pendMu.Lock()
	ck := d.waiters[seq]
	if ck != nil {
		delete(d.waiters, seq)
		d.m.inflight.Set(int64(len(d.waiters)))
	}
	d.pendMu.Unlock()
	if ck == nil {
		if kind == xproto.KindError {
			d.asyncError(r.String())
		} else {
			d.asyncError(fmt.Sprintf("unexpected reply seq %d", seq))
		}
		return
	}
	// The histogram records issue→answer wall time, so it includes the
	// server's simulated IPC latency — the quantity §3.3's caches exist
	// to avoid paying.
	elapsed := time.Since(ck.begin)
	d.m.roundtrip.Observe(elapsed)
	if d.wireTx {
		// Only the v2 flush controller consumes the EWMA; keep the v1
		// reply path free of the extra CAS + gauge store.
		d.observeRTT(int64(elapsed))
	}
	if ck.traced {
		if tr := d.tracer.Load(); tr != nil {
			tr.Record(trace.Span{
				Seq: ck.seq, Name: "client.rtt", Side: "client",
				Op:    xproto.OpName(ck.op),
				Start: ck.begin.UnixNano(), Dur: int64(elapsed),
			})
			d.m.traceSpans.Inc()
		}
	}
	if kind == xproto.KindError {
		ck.resolve(nil, fmt.Errorf("x error: %s", r.String()))
		return
	}
	ck.resolve(payload[8:], nil)
}

// feedEvents moves queued events onto the events channel, closing it
// when the connection has dropped and the queue is drained.
func (d *Display) feedEvents() {
	for {
		d.evMu.Lock()
		for len(d.evQueue) == 0 && !d.evDone {
			d.evCond.Wait()
		}
		if len(d.evQueue) == 0 && d.evDone {
			d.evMu.Unlock()
			close(d.events)
			return
		}
		ev := d.evQueue[0]
		d.evQueue = d.evQueue[1:]
		if len(d.evQueue) == 0 {
			// Let the backing array be reclaimed after bursts.
			d.evQueue = nil
		}
		d.evMu.Unlock()
		select {
		case d.events <- ev:
		case <-d.stop:
			// Consumer is gone (explicit Close): discard and finish.
			close(d.events)
			return
		}
	}
}

// Events returns the incoming event channel; it is closed when the
// connection drops.
func (d *Display) Events() <-chan xproto.Event { return d.events }

// EventsSeen returns the number of events the read loop has queued for
// delivery since Open. The read loop is sequential, so once any round
// trip completes the count includes every event the server sent before
// that reply. A consumer that tracks how many events it has received
// from Events() can therefore distinguish "nothing pending" from
// "queued but not yet handed to the channel by the feeder": when the
// counts differ, a blocking receive on Events() is guaranteed to
// return promptly (the feeder delivers the event, or closes the
// channel on disconnect). A non-blocking poll alone cannot tell — it
// races the feeder goroutine.
func (d *Display) EventsSeen() uint64 { return d.evSeen.Load() }

// NextEvent blocks for the next event; ok is false after disconnect.
func (d *Display) NextEvent() (xproto.Event, bool) {
	ev, ok := <-d.events
	return ev, ok
}

// SetRoundTripTimeout replaces the deadline Cookie.Wait applies to
// every round trip (DefaultRoundTripTimeout initially; 0 disables).
// Safe to call from any goroutine.
func (d *Display) SetRoundTripTimeout(timeout time.Duration) {
	d.rtTimeout.Store(int64(timeout))
}

// asyncError records or reports a protocol error nobody is waiting on.
func (d *Display) asyncError(msg string) {
	d.m.errorsAsync.Inc()
	if d.ErrorHandler != nil {
		d.ErrorHandler(msg)
		return
	}
	d.errMu.Lock()
	d.errors = append(d.errors, msg)
	d.errMu.Unlock()
}

// TakeErrors returns and clears the accumulated asynchronous errors.
func (d *Display) TakeErrors() []string {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	errs := d.errors
	d.errors = nil
	return errs
}

// Metrics returns the client-side registry.
func (d *Display) Metrics() *obs.Registry { return d.metrics }

// SetTracer attaches (or, with nil, detaches) a span tracer. The tracer
// samples reply-bearing requests by sequence number; pair it with a
// server-side tracer at the same interval to get both halves of each
// sampled request (see internal/obs/trace).
func (d *Display) SetTracer(t *trace.Tracer) { d.tracer.Store(t) }

// send buffers a request, encoding it directly into the write buffer
// (no per-request Writer or header allocation). Must be called with
// d.mu held.
func (d *Display) send(req xproto.Request) uint64 {
	d.m.requests.Inc()
	if op := req.Op(); int(op) < len(d.m.ops) && d.m.ops[op] != nil {
		d.m.ops[op].Inc()
	}
	d.seq++
	d.wbuf = xproto.AppendRequestFrame(d.wbuf, req)
	d.wcount++
	return d.seq
}

// flushLocked writes the buffered requests as one wire segment. Must be
// called with d.mu held.
func (d *Display) flushLocked() error {
	if len(d.wbuf) == 0 || d.closed {
		return nil
	}
	frames := int64(d.wcount)
	// flush.batch is a count (frames per flush), not a duration.
	d.m.flushBatch.ObserveCount(frames)
	d.wcount = 0
	tracedSeq := d.tracedFlush
	d.tracedFlush = 0

	// Pick what actually goes on the wire: the v1 frames as they are,
	// or one v2 segment wrapping them.
	out := d.wbuf
	if d.wireTx {
		var compressed bool
		d.segTx, compressed = xproto.AppendWireSegRequestFrame(d.segTx[:0], d.wbuf)
		out = d.segTx
		d.m.wireSegs.Inc()
		if !compressed {
			d.m.wireSkipped.Inc()
		}
	}
	d.m.wireBytesRaw.Add(uint64(len(d.wbuf)))
	d.m.wireBytesWire.Add(uint64(len(out)))

	if tr := d.tracer.Load(); tr != nil && tracedSeq != 0 {
		bytes := int64(len(out))
		start := trace.Now()
		_, err := d.conn.Write(out)
		d.wbuf = d.wbuf[:0]
		tr.Record(trace.Span{
			Seq: tracedSeq, Name: "client.flush", Side: "client",
			Start: start, Dur: trace.Now() - start,
			Args: []trace.Arg{{Key: "frames", Val: frames}, {Key: "bytes", Val: bytes}},
		})
		d.m.traceSpans.Inc()
		return err
	}
	_, err := d.conn.Write(out)
	d.wbuf = d.wbuf[:0]
	return err
}

// observeRTT folds one measured round trip into the EWMA (alpha 1/4)
// that drives the adaptive flush threshold. Lock-free: routeReply runs
// on the read loop while flushes hold d.mu.
func (d *Display) observeRTT(ns int64) {
	for {
		cur := d.rttEwma.Load()
		next := ns
		if cur > 0 {
			next = cur + (ns-cur)/4
		}
		if next <= 0 {
			next = 1
		}
		if d.rttEwma.CompareAndSwap(cur, next) {
			d.m.wireRTT.Set(next)
			return
		}
	}
}

// flushThresholdLocked returns the buffered-bytes level that triggers an
// automatic flush. v1 keeps the historical fixed 32 KiB. v2 scales with
// the measured round-trip EWMA: on a fast local pipe small batches keep
// latency low; at WAN latencies the round trip dwarfs serialization
// time, so larger batches amortize per-segment cost without adding
// user-visible delay. 12 KiB of budget per 500 µs of RTT on top of an
// 8 KiB floor, clamped to 256 KiB.
func (d *Display) flushThresholdLocked() int {
	if !d.wireTx {
		return 32 << 10
	}
	rtt := d.rttEwma.Load()
	if rtt <= 0 {
		return 32 << 10 // no samples yet — keep the v1 default
	}
	th := 8<<10 + int(rtt/int64(500*time.Microsecond))*(12<<10)
	if th > 256<<10 {
		th = 256 << 10
	}
	d.m.wireThreshold.Set(int64(th))
	return th
}

// Request buffers a one-way request (no reply). Like Xlib, requests are
// batched until a Flush or a round trip. Requests on a closed display
// are discarded.
func (d *Display) Request(req xproto.Request) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.m.async.Inc()
	d.send(req)
	// Keep the buffer bounded even without explicit flushes.
	var flushErr error
	if len(d.wbuf) >= d.flushThresholdLocked() {
		flushErr = d.flushLocked()
	}
	d.mu.Unlock()
	if flushErr != nil {
		// Nobody is waiting on a one-way request; surface the write
		// failure the same way protocol errors for them surface.
		d.asyncError(fmt.Sprintf("xclient: flush failed: %v", flushErr))
	}
}

// Flush writes all buffered requests to the server.
func (d *Display) Flush() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.flushLocked()
}

// Cookie is the handle for an in-flight reply-bearing request (the XCB
// model): SendWithReply returns immediately and the reply is claimed
// later with Wait, so any number of requests can be pipelined into one
// wire segment before the first reply is needed. A cookie is resolved
// exactly once (by readLoop, or by connection teardown); Wait may be
// called from any goroutine, but decode runs only on the first call.
type Cookie struct {
	d     *Display
	seq   uint64
	begin time.Time
	done  chan struct{}

	// traced marks a request sampled for span recording; op is its
	// opcode, kept so the round-trip span can be labeled at resolve
	// time. Both are set before the cookie is registered and read-only
	// afterwards.
	traced bool
	op     uint16

	// Set exactly once, before done is closed.
	payload []byte
	err     error

	decoded  atomic.Bool
	waitSpan atomic.Bool // client.wait span recorded (Wait may be called twice)
}

// Seq returns the request's protocol sequence number.
func (ck *Cookie) Seq() uint64 { return ck.seq }

// resolve fills in the outcome and releases waiters. Called exactly
// once, by whoever removed the cookie from the waiter map.
func (ck *Cookie) resolve(payload []byte, err error) {
	ck.payload = payload
	ck.err = err
	close(ck.done)
}

// failedCookie returns an already-resolved cookie, for requests that
// cannot be issued at all.
func failedCookie(d *Display, err error) *Cookie {
	ck := &Cookie{d: d, done: make(chan struct{})}
	ck.resolve(nil, err)
	return ck
}

// SendWithReply buffers a reply-bearing request, registers a waiter for
// its sequence number and returns immediately — the pipelined
// counterpart of RoundTrip. The request is not written to the wire
// until the next Flush (or a Cookie.Wait, which flushes first), so a
// batch of SendWithReply calls travels as one segment.
func (d *Display) SendWithReply(req xproto.Request) *Cookie {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return failedCookie(d, fmt.Errorf("xclient: display closed"))
	}
	d.m.roundtrips.Inc()
	ck := &Cookie{d: d, begin: time.Now(), done: make(chan struct{})}
	ck.seq = d.send(req)
	if tr := d.tracer.Load(); tr != nil && tr.Sampled(ck.seq) {
		ck.traced = true
		ck.op = req.Op()
		d.tracedFlush = ck.seq
		d.m.traceSampled.Inc()
	}
	d.pendMu.Lock()
	if lost := d.lostErr; lost != nil {
		d.pendMu.Unlock()
		d.mu.Unlock()
		ck.resolve(nil, lost)
		return ck
	}
	if len(d.waiters) > 0 {
		d.m.pipelined.Inc()
	}
	d.waiters[ck.seq] = ck
	d.m.inflight.Set(int64(len(d.waiters)))
	d.pendMu.Unlock()
	d.mu.Unlock()
	return ck
}

// failCookie resolves ck with err if it is still pending; a cookie the
// read loop already resolved is left alone.
func (d *Display) failCookie(ck *Cookie, err error) {
	d.pendMu.Lock()
	if d.waiters[ck.seq] == ck {
		delete(d.waiters, ck.seq)
		d.m.inflight.Set(int64(len(d.waiters)))
		ck.resolve(nil, err)
	}
	d.pendMu.Unlock()
}

// Wait flushes any buffered requests (so the awaited request is on the
// wire) and blocks until the reply arrives, decoding it with decode.
// It does not hold the display lock while blocked, so other goroutines
// can keep issuing requests and waiting on their own cookies. Protocol
// errors for this request surface as the returned error. Calling Wait
// again returns the same error outcome without re-decoding.
//
// The wait is bounded by the display's round-trip deadline
// (SetRoundTripTimeout): a wedged server or wire resolves the cookie
// with an error satisfying errors.Is(err, ErrTimeout) instead of
// blocking the caller forever. A reply that arrives after the deadline
// is reported through the async-error path, not delivered here.
func (ck *Cookie) Wait(decode func(r *xproto.Reader)) error {
	var waitStart int64
	if ck.traced {
		waitStart = trace.Now()
	}
	if err := ck.d.Flush(); err != nil {
		ck.d.failCookie(ck, err)
	}
	if to := time.Duration(ck.d.rtTimeout.Load()); to > 0 {
		timer := time.NewTimer(to)
		select {
		case <-ck.done:
			timer.Stop()
		case <-timer.C:
			ck.d.m.roundtripTimeout.Inc()
			ck.d.failCookie(ck, fmt.Errorf("xclient: round trip (seq %d) timed out after %v: %w", ck.seq, to, ErrTimeout))
			// failCookie resolved the cookie unless the read loop beat
			// us to it; either way done is closed now.
			<-ck.done
		}
	} else {
		<-ck.done
	}
	if ck.traced && ck.waitSpan.CompareAndSwap(false, true) {
		if tr := ck.d.tracer.Load(); tr != nil {
			tr.Record(trace.Span{
				Seq: ck.seq, Name: "client.wait", Side: "client",
				Op:    xproto.OpName(ck.op),
				Start: waitStart, Dur: trace.Now() - waitStart,
			})
			ck.d.m.traceSpans.Inc()
		}
	}
	if ck.err != nil {
		return ck.err
	}
	if !ck.decoded.CompareAndSwap(false, true) {
		return nil
	}
	if decode != nil {
		r := xproto.NewReader(ck.payload)
		decode(r)
		return r.Err()
	}
	return nil
}

// RoundTrip sends a request and blocks until its reply arrives, decoding
// it with decode. Protocol errors for this request surface as errors.
// It is a thin shim over SendWithReply + Wait.
func (d *Display) RoundTrip(req xproto.Request, decode func(r *xproto.Reader)) error {
	return d.SendWithReply(req).Wait(decode)
}

// Sync flushes and waits until the server has processed everything
// (an empty round trip, like XSync).
func (d *Display) Sync() error {
	return d.RoundTrip(&xproto.PingReq{}, nil)
}
