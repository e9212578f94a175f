// Package xserver implements a simulated X11 display server. It stands in
// for the real X server the paper ran against (X11R4 on a DECstation
// 3100): clients connect over any net.Conn (in-process pipes or TCP
// between separate OS processes), speak the request/reply/event protocol
// defined in internal/xproto, and the server maintains the window tree,
// properties, atoms, selections, input focus, pointer state, and actual
// pixel contents — so screenshots like the paper's Figure 10 can be
// regenerated, and protocol traffic (the thing Tk's resource caches
// exist to reduce, §3.3) can be counted and measured.
package xserver

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/xproto"
)

// Server is a simulated X display.
//
// Request handling is locked per subsystem, not globally, so independent
// clients dispatch in parallel (docs/architecture.md, "The locking
// model"). Every mutable field carries a "guarded by <mutex>" annotation
// naming its subsystem mutex, and cmd/tkcheck's lock analyzer checks
// that annotated fields are only touched with that mutex held (or from
// methods documented "s.<mutex> held"). The subsystem mutexes are
// obs.TimedMutex/TimedRWMutex, so every acquisition wait lands in a
// "lockwait.<subsystem>" histogram.
//
// Lock order (always acquire left before right, release before taking a
// peer): treeMu → pixmap.mu → {gcs, pixmaps, cursors shard locks,
// fontsMu, colorsMu, atomsMu}. The right-hand group are leaves — no
// server mutex is ever acquired while one of them is held — except that
// two pixmap locks may nest in ascending-ID order (CopyArea between
// pixmaps). connsMu is independent: never held together with any other
// server mutex.
//
// Per-tile render state needs no lock class of its own: a tiled image's
// slab pointers, versions and copy-on-write shared/dirty flags are all
// guarded by the lock of the drawable that owns the image — treeMu for
// window pixels, the pixmap's mu for pixmap pixels — exactly as the
// flat pixel buffers were. Screenshot snapshots alias slabs under that
// lock and are immutable afterwards (writers clone shared slabs instead
// of mutating them), so composing and packing a snapshot takes no lock
// at all; and the render worker pool's fill jobs run while their
// submitter holds the drawable lock, touching disjoint tiles, acquiring
// nothing (see render.go).
//
// The declaration below is the machine-readable form of that order;
// cmd/tkcheck's lock-order analyzer checks every acquisition edge in
// the package against it (resShard.mu is the class of all three
// resource tables' shard locks, and the ascending-ID pixmap pair is
// the one sanctioned same-class nesting).
//
// lock-order: treeMu -> pixmap.mu -> {atomsMu, fontsMu, colorsMu, resShard.mu}
// lock-order: connsMu
type Server struct {
	width, height int     // immutable after New
	root          *window // the pointer is immutable; its contents are guarded by treeMu

	// treeMu is the window subsystem: the window tree and every
	// window's fields and pixels, input state (focus, pointer, grabs)
	// and selection ownership — the state whose invariants span
	// multiple windows and so cannot be sharded.
	treeMu     obs.TimedMutex
	windows    map[xproto.ID]*window      // guarded by treeMu
	selections map[xproto.Atom]*selection // guarded by treeMu
	focus      xproto.ID                  // guarded by treeMu
	pointerX   int                        // guarded by treeMu
	pointerY   int                        // guarded by treeMu
	buttons    uint16                     // guarded by treeMu
	modifiers  uint16                     // guarded by treeMu
	pointerWin *window                    // guarded by treeMu
	grabWin    *window                    // guarded by treeMu

	// Atoms are intern-once, read-forever (exactly the workload Tk's
	// resource names generate): reads take the read lock, a miss
	// upgrades to the write lock and re-checks.
	atomsMu   obs.TimedRWMutex
	atoms     map[string]xproto.Atom // guarded by atomsMu
	atomNames map[xproto.Atom]string // guarded by atomsMu
	nextAtom  xproto.Atom            // guarded by atomsMu

	// Fonts: the map is read-mostly; font objects themselves are
	// immutable once opened, so they may be used after release.
	fontsMu obs.TimedRWMutex
	fonts   map[xproto.ID]*font // guarded by fontsMu

	// Colors: interned cells for resolved color specs (the stand-in for
	// colormap cell allocation). Bounded by the distinct colors clients
	// actually use.
	colorsMu   obs.TimedRWMutex
	colorCells map[string]uint32 // guarded by colorsMu

	// Per-client resources live in sharded tables: clients touching
	// disjoint IDs take disjoint shard locks. Table pointers are
	// immutable after New.
	gcs     *resTable[*gcontext]
	pixmaps *resTable[*pixmap]
	cursors *resTable[string]

	nextIDBase   atomic.Uint32 // next connection's resource-ID range base
	latency      atomic.Int64  // nanoseconds per request (or per segment)
	latModel     atomic.Int32  // LatencyModel selecting how latency is charged
	writeTimeout atomic.Int64  // nanoseconds a stalled peer may block a write
	wireV2       atomic.Bool   // accept wire-protocol-v2 upgrades (SetWireV2)
	start        time.Time     // immutable after New

	// Resource quota (SetQuota, docs/farm.md): limits and live usage are
	// atomics, so allocating handlers CAS-reserve against the limit with
	// no new lock and every free path (FreeGC/FreePixmap, DestroyWindow,
	// cleanupConn's sweeps) releases what the allocation reserved. A zero
	// limit means unlimited.
	quotaWindows     atomic.Int64
	quotaPixmapBytes atomic.Int64
	quotaGCs         atomic.Int64
	usedWindows      atomic.Int64
	usedPixmapBytes  atomic.Int64
	usedGCs          atomic.Int64

	// rollup is nil outside a farm; SetRollup sets it before the first
	// connection, and it is immutable afterwards.
	rollup *rollupMetrics

	// activity, when non-nil, receives a unix-nano stamp per dispatched
	// request: the farm points it at the owning session's last-active
	// clock so the idle-eviction sweeper sees tenant activity without the
	// dispatch path knowing the farm exists. Set before serving,
	// immutable afterwards.
	activity *atomic.Int64

	// Connection registry, independent of the dispatch locks above.
	connsMu  obs.TimedMutex
	conns    map[*conn]bool // guarded by connsMu
	listener net.Listener   // guarded by connsMu
	closed   bool           // guarded by connsMu

	// metrics aggregates across all connections; m holds its handles.
	// Both are immutable after New.
	metrics *obs.Registry
	m       *serverMetrics

	// tracer, when set, records a server.dispatch span (with per-subsystem
	// lock waits attributed) for sampled requests. Atomic so SetTracer
	// may race dispatch.
	tracer atomic.Pointer[trace.Tracer]
}

// gcontext is a server-side graphics context. Fields are mutated only
// under the gcs shard lock holding it (applyGC runs inside
// resTable.with); dispatch paths that draw take a value snapshot under
// that lock and work from the copy.
type gcontext struct {
	foreground uint32
	background uint32
	lineWidth  int
	font       xproto.ID
	owner      *conn
}

// pixmap is a server-side off-screen drawable. The img pointer and the
// image's dimensions are immutable after CreatePixmap; the pixel
// contents are guarded by mu, so clients drawing into distinct pixmaps
// never contend (and never touch treeMu at all).
type pixmap struct {
	mu    obs.TimedMutex
	img   *image // the pointer is immutable; pixel contents are guarded by mu
	bytes int64  // nominal quota cost (w·h·4 at create), immutable
	owner *conn  // creating connection, immutable; cleanupConn sweeps by it
}

// with runs fn on the pixmap's pixels under its lock.
func (p *pixmap) with(fn func(im *image)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fn(p.img)
}

// property is a window property value.
type property struct {
	typ  xproto.Atom
	data []byte
}

// selection tracks ICCCM selection ownership.
type selection struct {
	owner *window
	time  uint32
}

// window is a server-side window. All fields are guarded by the
// server's treeMu (windows are reached only through Server.windows or
// the tree itself).
type window struct {
	id          xproto.ID
	parent      *window
	children    []*window // bottom-to-top stacking order
	x, y        int
	w, h        int
	borderWidth int
	background  uint32
	border      uint32
	override    bool
	mapped      bool
	img         *image
	masks       map[*conn]uint32
	props       map[xproto.Atom]property
	owner       *conn
	cursor      string
}

// conn is one client connection.
type conn struct {
	s    *Server
	rw   net.Conn
	out  chan *[]byte
	done chan struct{}
	seq  uint64
	once sync.Once

	// Wire protocol v2 state (docs/pipelining.md, "Wire protocol v2"):
	// the receive half — wireRx and the decode scratch — is owned by
	// the request-loop goroutine exclusively and needs no lock. The
	// writer goroutine learns of the upgrade from the wireTxSentinel
	// instead. Codec state lives and dies with the conn: session
	// teardown (farm eviction, Server.Close) severs the connection and
	// drops it.
	wireRx bool
	rxSeg  []byte

	// stampReply is set for the duration of a sampled dispatch; reply
	// then records in repliedAt when the reply was queued, which is
	// where the request's server.dispatch span ends. Both are owned by
	// the request-loop goroutine.
	stampReply bool
	repliedAt  time.Time

	// This connection's own counts, which QueryCounters answers from;
	// every other series is recorded in the server registry only.
	requests, roundtrips, events obs.Counter
}

// New creates a server with the given screen size.
func New(width, height int) *Server {
	s := &Server{
		width:      width,
		height:     height,
		windows:    make(map[xproto.ID]*window),
		fonts:      make(map[xproto.ID]*font),
		atoms:      make(map[string]xproto.Atom),
		atomNames:  make(map[xproto.Atom]string),
		colorCells: make(map[string]uint32),
		selections: make(map[xproto.Atom]*selection),
		conns:      make(map[*conn]bool),
		metrics:    obs.NewRegistry(),
		start:      time.Now(),
		nextAtom:   100,
	}
	s.m = newServerMetrics(s.metrics)
	s.nextIDBase.Store(0x00200000)
	s.wireV2.Store(true)
	// lockwait resolves each subsystem's wait histogram once and records
	// its full name for labelling sampled dispatch spans.
	lockwait := func(subsystem string) *obs.Histogram {
		h := s.metrics.Histogram("lockwait." + subsystem)
		s.m.lockKeys[h] = "lockwait." + subsystem
		return h
	}
	s.treeMu.Instrument(lockwait("tree"))
	s.atomsMu.Instrument(lockwait("atoms"))
	s.fontsMu.Instrument(lockwait("fonts"))
	s.colorsMu.Instrument(lockwait("colors"))
	s.connsMu.Instrument(lockwait("conns"))
	s.gcs = newResTable[*gcontext](lockwait("gcs"))
	s.m.pixmapLock = lockwait("pixmaps")
	s.pixmaps = newResTable[*pixmap](s.m.pixmapLock)
	s.cursors = newResTable[string](lockwait("cursors"))
	s.writeTimeout.Store(int64(DefaultWriteTimeout))
	for a, name := range xproto.PredefinedAtoms {
		s.atoms[name] = a
		s.atomNames[a] = name
	}
	s.root = &window{
		id:         1,
		w:          width,
		h:          height,
		background: 0x5f9ea0, // the classic root-weave stand-in
		mapped:     true,
		img:        newImageM(width, height, s.m),
		masks:      make(map[*conn]uint32),
		props:      make(map[xproto.Atom]property),
	}
	s.root.img.fillRect(0, 0, width, height, s.root.background)
	s.windows[1] = s.root
	s.pointerWin = s.root
	s.pointerX, s.pointerY = width/2, height/2
	return s
}

// Root returns the root window ID.
func (s *Server) Root() xproto.ID { return 1 }

// LatencyModel selects how the simulated IPC latency is charged.
type LatencyModel int32

const (
	// LatencyPerRequest charges the latency once per request, however
	// the requests arrive — the historical default, and what the
	// EXPERIMENTS.md Table II numbers use. It models a client that
	// performs a full round trip for every request.
	LatencyPerRequest LatencyModel = iota
	// LatencyPerSegment charges the latency once per wire read: a flush
	// of K pipelined requests arrives as one segment and pays the
	// latency once, not K times — the payoff the XCB cookie model (and
	// this client's SendWithReply) exists to collect.
	LatencyPerSegment
)

// SetLatency sets the simulated IPC latency applied to every request
// (or, under LatencyPerSegment, every wire segment).
func (s *Server) SetLatency(d time.Duration) { s.latency.Store(int64(d)) }

// SetLatencyModel selects how SetLatency's cost is charged. The default
// is LatencyPerRequest.
func (s *Server) SetLatencyModel(m LatencyModel) { s.latModel.Store(int32(m)) }

// DefaultWriteTimeout bounds how long a stalled peer — one that stops
// reading its end of the connection — may block the server's writer
// before the connection is declared dead and closed.
const DefaultWriteTimeout = 10 * time.Second

// SetWriteTimeout changes the stalled-peer write bound. Zero disables
// the bound (writes may block forever — only sensible in tests). Each
// severed connection increments the "stalled" counter.
func (s *Server) SetWriteTimeout(d time.Duration) { s.writeTimeout.Store(int64(d)) }

// SetWireV2 sets whether the server accepts wire-protocol-v2 upgrades
// (the default). With false, every OpUpgradeWire is answered with a
// version-1 ack and clients fall back to v1 framing transparently —
// the knob the negotiation-matrix test and `xsimd -wire v1` use.
// Affects connections negotiated after the call.
func (s *Server) SetWireV2(on bool) { s.wireV2.Store(on) }

// Metrics returns the server-wide registry.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// SetTracer attaches (or, with nil, detaches) a span tracer. Give the
// server and its clients tracers with the same sampling interval and
// both sides record spans for the same requests — each connection's
// request sequence numbers advance in lockstep with the client's own
// numbering (see internal/obs/trace).
func (s *Server) SetTracer(t *trace.Tracer) { s.tracer.Store(t) }

// SetRollup attaches an aggregate registry (a farm's) that the dispatch
// path bumps alongside this server's own: the standard "requests"
// counter and "dispatch" histogram names, and quota denials (quota.go).
// Call before the server accepts its first connection.
func (s *Server) SetRollup(reg *obs.Registry) { s.rollup = newRollupMetrics(reg) }

// setActivity points the per-request activity stamp at the given clock
// (the farm's per-session last-active time). Call before the server
// accepts its first connection.
func (s *Server) setActivity(clock *atomic.Int64) { s.activity = clock }

// now returns the server timestamp in milliseconds.
func (s *Server) now() uint32 {
	return uint32(time.Since(s.start) / time.Millisecond)
}

// Serve accepts connections on l until the listener is closed.
func (s *Server) Serve(l net.Listener) {
	s.connsMu.Lock()
	s.listener = l
	s.connsMu.Unlock()
	for {
		nc, err := l.Accept()
		if err != nil {
			return
		}
		go s.ServeConn(nc)
	}
}

// Listen starts serving on a TCP address and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go s.Serve(l)
	return l.Addr().String(), nil
}

// ConnectPipe creates an in-process connection to the server and returns
// the client end.
func (s *Server) ConnectPipe() net.Conn {
	client, server := net.Pipe()
	go s.ServeConn(server)
	return client
}

// Close shuts the server down, closing all connections.
func (s *Server) Close() {
	s.connsMu.Lock()
	s.closed = true
	l := s.listener
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.connsMu.Unlock()
	if l != nil {
		l.Close()
	}
	for _, c := range conns {
		c.close()
	}
}

// framePool recycles outbound frame buffers: enqueueFrame fills one,
// the writer goroutine (or a drop path) returns it. Pooled as *[]byte
// so channel sends and puts move one pointer, not a slice header.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 256)
		return &b
	},
}

// ServeConn runs the protocol on one established connection, blocking
// until it closes.
func (s *Server) ServeConn(nc net.Conn) {
	c := &conn{
		s:    s,
		rw:   nc,
		out:  make(chan *[]byte, 4096),
		done: make(chan struct{}),
	}
	s.connsMu.Lock()
	if s.closed {
		s.connsMu.Unlock()
		nc.Close()
		return
	}
	s.conns[c] = true
	s.connsMu.Unlock()
	base := s.nextIDBase.Add(0x00200000) - 0x00200000

	// Writer goroutine: coalesces every frame queued at wake-up time
	// into a single Write, so a burst of replies/events crosses the
	// wire as one segment (the mirror of the client's batched flush).
	// Each Write carries a deadline so a peer that stops reading cannot
	// wedge the goroutine forever: on timeout the connection is counted
	// as stalled and severed. Frame buffers return to the pool here,
	// after the batch copy.
	//
	// Once the request loop accepts a v2 upgrade it queues the
	// wireTxSentinel; everything dequeued before the sentinel is written
	// in v1 framing (the setup block and the upgrade ack must be), and
	// every batch after it is wrapped in a checksummed, compressed
	// KindWireSeg envelope. Small batches stay unwrapped: the v2 client
	// accepts both framings on the same stream.
	go func() {
		var batch, seg []byte
		v2 := false
		for {
			select {
			case bp, ok := <-c.out:
				if !ok {
					return
				}
				if bp == wireTxSentinel {
					v2 = true
					continue
				}
				batch = append(batch[:0], *bp...)
				framePool.Put(bp)
				sentinel := false
			coalesce:
				for {
					select {
					case more, ok := <-c.out:
						if !ok {
							break coalesce
						}
						if more == wireTxSentinel {
							// Flush what precedes the upgrade in the old
							// framing; the new framing starts next batch.
							sentinel = true
							break coalesce
						}
						batch = append(batch, *more...)
						framePool.Put(more)
					default:
						break coalesce
					}
				}
				out := batch
				s.m.wireBytesRaw.Add(uint64(len(batch)))
				if v2 && len(batch) >= wireWrapMin {
					var compressed bool
					seg, compressed = xproto.AppendWireSegServerFrame(seg[:0], batch)
					s.m.wireSegs.Inc()
					if !compressed {
						s.m.wireSkipped.Inc()
					}
					out = seg
				}
				s.m.wireBytesWire.Add(uint64(len(out)))
				if to := s.writeTimeout.Load(); to > 0 {
					nc.SetWriteDeadline(time.Now().Add(time.Duration(to)))
				}
				if _, err := nc.Write(out); err != nil {
					if ne, ok := err.(net.Error); ok && ne.Timeout() {
						c.markStalled()
					}
					c.close()
					return
				}
				if sentinel {
					v2 = true
				}
			case <-c.done:
				return
			}
		}
	}()

	// Connection setup block.
	setup := &xproto.SetupReply{
		ResourceIDBase: base,
		Root:           s.Root(),
		Width:          uint16(s.width),
		Height:         uint16(s.height),
	}
	w := xproto.AcquireWriter()
	setup.Encode(w)
	c.enqueueFrame(xproto.KindReply, w.Bytes(), true)
	xproto.ReleaseWriter(w)

	// Request loop. Requests are read through a buffered reader over a
	// latency-charging wrapper: under LatencyPerSegment each underlying
	// conn read (one wire segment, typically one client flush) pays the
	// simulated latency once, however many requests it carries; under
	// LatencyPerRequest the historical per-request sleep below applies.
	// The payload scratch buffer is reused across requests (safe: every
	// request Decode copies what it retains — see ReadRequestFrameInto).
	br := bufio.NewReaderSize(&segmentReader{s: s, conn: nc}, 64<<10)
	var rbuf []byte
loop:
	for {
		op, payload, err := xproto.ReadRequestFrameInto(br, rbuf)
		if err != nil {
			break
		}
		rbuf = payload
		switch op {
		case xproto.OpAttachSession:
			// The farm consumes the attach handshake before the request
			// loop ever starts (Farm.ServeConn); one arriving here means a
			// session-aware client attached a plain single-display server,
			// which is already the display it asked for. Consume the frame
			// without assigning it a sequence number — the client wrote it
			// before its Display existed and does not count it either, so
			// skipping keeps both sides' numbering in lockstep.
			continue
		case xproto.OpUpgradeWire:
			// The v2 version exchange follows the attach idiom: no
			// sequence number on either side (the client writes it before
			// its Display exists), answered out-of-band with a KindWireAck.
			s.handleUpgradeWire(c, payload)
			continue
		case xproto.OpWireSeg:
			// A v2 segment of batched requests. Decode failure is fatal:
			// the envelope checksum or the framing no longer vouches for
			// the stream, so sever rather than dispatch garbage.
			if err := s.serveWireSeg(c, payload); err != nil {
				s.m.wireDecodeErrs.Inc()
				c.protoError("wire: %v", err)
				break loop
			}
			continue
		}
		s.serveRequest(c, op, payload)
	}
	c.close()
	s.connsMu.Lock()
	delete(s.conns, c)
	s.connsMu.Unlock()
	s.cleanupConn(c)
}

// serveRequest runs the full per-request pipeline — simulated
// per-request latency, sequence accounting, metrics, span sampling,
// dispatch and service-time histograms — for one decoded request frame,
// whether it arrived bare on the wire or inside a v2 segment. Inner
// frames of a segment therefore behave exactly like v1 requests:
// identical sequence numbering (the lockstep span sampling relies on)
// and identical LatencyPerRequest semantics.
func (s *Server) serveRequest(c *conn, op uint16, payload []byte) {
	if s.latModel.Load() == int32(LatencyPerRequest) {
		if lat := s.latency.Load(); lat > 0 {
			time.Sleep(time.Duration(lat))
		}
	}
	c.seq++
	// Counters are bumped before dispatch so a QueryCounters reply
	// includes its own request; timing wraps only decode + handle,
	// so the "dispatch" histogram measures true service time, not
	// the simulated IPC latency above.
	s.m.count(op)
	c.requests.Inc()
	if s.rollup != nil {
		s.rollup.requests.Inc()
	}
	begin := time.Now()
	if a := s.activity; a != nil {
		a.Store(begin.UnixNano())
	}
	var elapsed time.Duration
	if tr := s.tracer.Load(); tr != nil && tr.Sampled(c.seq) {
		// Sampled dispatch: collect this goroutine's contended lock
		// waits (dispatch runs synchronously here, so every wait the
		// collector sees belongs to this request) and attribute them
		// to the span by subsystem.
		s.m.traceSampled.Inc()
		span := trace.Span{
			Seq: c.seq, Name: "server.dispatch", Side: "server",
			Op: xproto.OpName(op), Start: begin.UnixNano(),
		}
		remove := obs.SetWaitCollector(func(h *obs.Histogram, waitNs int64) {
			key, ok := s.m.lockKeys[h]
			if !ok {
				key = "lockwait.other" // untimed mutexes
			}
			for i := range span.Args {
				if span.Args[i].Key == key {
					span.Args[i].Val += waitNs
					return
				}
			}
			span.Args = append(span.Args, trace.Arg{Key: key, Val: waitNs})
		})
		c.stampReply, c.repliedAt = true, time.Time{}
		s.dispatch(c, op, payload)
		c.stampReply = false
		remove()
		elapsed = time.Since(begin)
		// The span ends when the reply is queued, not when the handler
		// returns: past that point the client may already hold the
		// answer, and its round trip must contain this span.
		span.Dur = int64(elapsed)
		if !c.repliedAt.IsZero() {
			span.Dur = int64(c.repliedAt.Sub(begin))
		}
		tr.Record(span)
		s.m.traceSpans.Inc()
	} else {
		s.dispatch(c, op, payload)
		elapsed = time.Since(begin)
	}
	s.m.dispatch.Observe(elapsed)
	if s.rollup != nil {
		s.rollup.dispatch.Observe(elapsed)
	}
}

// wireWrapMin is the smallest outbound batch worth wrapping in a v2
// segment envelope: below it the envelope overhead exceeds any win, and
// the v2 client accepts unwrapped v1 frames on the same stream.
const wireWrapMin = 128

// wireTxSentinel is the writer-goroutine signal that the v2 upgrade was
// accepted: frames queued before it cross in v1 framing, batches after
// it are wrapped (see ServeConn's writer). The pointer identity is the
// signal; the pointee is never touched.
var wireTxSentinel = new([]byte)

// handleUpgradeWire answers the OpUpgradeWire version exchange. Like
// the attach handshake it carries no sequence number on either side.
// The ack ([u8 version]) is queued behind the setup block that
// ServeConn already enqueued, so the client always reads setup first;
// the tx-upgrade sentinel is queued after the ack, so the ack itself
// still crosses in v1 framing.
func (s *Server) handleUpgradeWire(c *conn, payload []byte) {
	var req xproto.UpgradeWireReq
	r := xproto.NewReader(payload)
	req.Decode(r)
	accept := r.Err() == nil && req.Version >= 2 && s.wireV2.Load()
	ver := byte(1)
	if accept {
		ver = 2
		c.wireRx = true
	}
	c.enqueueFrame(xproto.KindWireAck, []byte{ver}, true)
	if accept {
		c.enqueueBuf(wireTxSentinel, true, false)
	}
}

// serveWireSeg decodes one v2 segment and serves each inner request
// through the standard pipeline. Any error means the stream can no
// longer be trusted (checksum mismatch, torn framing) and
// the caller severs the connection — corruption degrades to a clean
// connection loss, never to a garbled request reaching a handler.
func (s *Server) serveWireSeg(c *conn, payload []byte) error {
	if !c.wireRx {
		return fmt.Errorf("v2 segment before a negotiated upgrade")
	}
	raw, scratch, err := xproto.DecodeSegmentPayload(payload, c.rxSeg)
	c.rxSeg = scratch
	if err != nil {
		return err
	}
	return xproto.WalkRequestFrames(raw, func(op uint16, pl []byte) error {
		switch op {
		case xproto.OpAttachSession, xproto.OpUpgradeWire, xproto.OpWireSeg:
			// Handshake opcodes are pre-setup, outer-framing-only; nested
			// inside a segment they can only be stream damage.
			return fmt.Errorf("handshake opcode %s inside a v2 segment", xproto.OpName(op))
		}
		s.serveRequest(c, op, pl)
		return nil
	})
}

func (c *conn) close() {
	c.once.Do(func() {
		close(c.done)
		c.rw.Close()
	})
}

// markStalled records that this connection was severed because the peer
// stopped draining it (a write deadline expired or the outbound queue
// stayed full past the write timeout).
func (c *conn) markStalled() {
	c.s.m.stalled.Inc()
}

// segmentReader counts wire segments and charges the per-segment
// simulated latency: each successful read from the underlying
// connection is one segment (one client flush, up to the buffer size),
// so K pipelined requests in one flush pay the latency once. The sleep
// happens on the connection's own read goroutine with no server lock
// held, so concurrent clients overlap their latency.
type segmentReader struct {
	s    *Server
	conn net.Conn
}

func (sr *segmentReader) Read(p []byte) (int, error) {
	n, err := sr.conn.Read(p)
	if n > 0 {
		sr.s.m.segments.Inc()
		if sr.s.latModel.Load() == int32(LatencyPerSegment) {
			if lat := sr.s.latency.Load(); lat > 0 {
				time.Sleep(time.Duration(lat))
			}
		}
	}
	return n, err
}

// enqueueFrame frames and queues a server-to-client message into a
// pooled buffer (ownership passes to the writer goroutine on send, and
// returns to the pool here on every non-delivery path). Replies and
// errors must not be dropped; events may be dropped under extreme
// backpressure rather than deadlocking the server. Even mustDeliver
// waits are bounded: if the outbound queue stays full past the write
// timeout the peer has stopped draining it, and the connection is
// counted as stalled and severed rather than wedging the dispatcher.
func (c *conn) enqueueFrame(kind byte, payload []byte, mustDeliver bool) {
	bp := framePool.Get().(*[]byte)
	buf := append((*bp)[:0], kind)
	buf = append(buf, byte(len(payload)>>24), byte(len(payload)>>16), byte(len(payload)>>8), byte(len(payload)))
	buf = append(buf, payload...)
	*bp = buf
	c.enqueueBuf(bp, mustDeliver, true)
}

// enqueueBuf delivers one buffer pointer to the writer goroutine with
// enqueueFrame's backpressure rules; pooled buffers are returned to the
// pool on every non-delivery path (the tx-upgrade sentinel is not
// pooled).
func (c *conn) enqueueBuf(bp *[]byte, mustDeliver, pooled bool) {
	release := func() {
		if pooled {
			framePool.Put(bp)
		}
	}
	if mustDeliver {
		// Fast path: queue space available or connection already gone.
		select {
		case c.out <- bp:
			return
		case <-c.done:
			release()
			return
		default:
		}
		to := c.s.writeTimeout.Load()
		if to <= 0 {
			select {
			case c.out <- bp:
			case <-c.done:
				release()
			}
			return
		}
		timer := time.NewTimer(time.Duration(to))
		defer timer.Stop()
		select {
		case c.out <- bp:
		case <-c.done:
			release()
		case <-timer.C:
			release()
			c.markStalled()
			c.close()
		}
		return
	}
	select {
	case c.out <- bp:
	case <-c.done:
		release()
	default:
		release()
		c.s.m.dropped.Inc()
	}
}

// reply sends a reply for the current request. The Writer is pooled:
// enqueueFrame copies the encoded bytes into the outbound frame before
// the writer is released, so the hot reply path allocates nothing.
func (c *conn) reply(encode func(w *xproto.Writer)) {
	c.roundtrips.Inc()
	w := xproto.AcquireWriter()
	w.PutU64(c.seq)
	encode(w)
	if c.stampReply {
		c.repliedAt = time.Now()
	}
	c.enqueueFrame(xproto.KindReply, w.Bytes(), true)
	xproto.ReleaseWriter(w)
}

// protoError sends an error message for the current request.
func (c *conn) protoError(format string, args ...any) {
	w := xproto.AcquireWriter()
	w.PutU64(c.seq)
	w.PutString(fmt.Sprintf(format, args...))
	if c.stampReply {
		c.repliedAt = time.Now()
	}
	c.enqueueFrame(xproto.KindError, w.Bytes(), true)
	xproto.ReleaseWriter(w)
}

// sendEvent delivers an event to this connection.
func (c *conn) sendEvent(ev *xproto.Event) {
	c.events.Inc()
	w := xproto.AcquireWriter()
	ev.Encode(w)
	c.enqueueFrame(xproto.KindEvent, w.Bytes(), false)
	xproto.ReleaseWriter(w)
}

// dispatch decodes and executes one request. Locking is per subsystem,
// inside handle and the handlers it calls — there is no server-wide
// lock, so requests from different clients that touch different
// subsystems (or different shards of one) run in parallel.
func (s *Server) dispatch(c *conn, op uint16, payload []byte) {
	req := xproto.NewRequest(op)
	if req == nil {
		c.protoError("bad request opcode %d", op)
		return
	}
	r := xproto.NewReader(payload)
	req.Decode(r)
	if r.Err() != nil {
		c.protoError("malformed request %d: %v", op, r.Err())
		return
	}
	s.handle(c, req)
}

// cleanupConn releases all resources owned by a departed client: its
// windows are destroyed (as X does), its GCs and pixmaps freed, its
// event-mask entries removed, and its selections cleared. Every release
// returns its quota reservation, so after the last connection of a
// session disconnects QuotaUsage reports zero across the board — the
// reconciliation invariant the farm bench asserts on teardown.
func (s *Server) cleanupConn(c *conn) {
	s.treeMu.Lock()
	// Collect first, destroy second: destroyWindow mutates s.windows
	// (and detaches whole subtrees), so destroying while ranging over
	// the map would visit it mid-mutation. Top-level windows go first
	// (X semantics: the visible tree comes down before orphans deeper
	// in other clients' trees); the liveness re-check skips windows an
	// earlier destroy already took down with their ancestor.
	var topLevel, nested []*window
	for _, w := range s.windows {
		if w.owner != c || w == s.root {
			continue
		}
		if w.parent == s.root {
			topLevel = append(topLevel, w)
		} else {
			nested = append(nested, w)
		}
	}
	for _, w := range append(topLevel, nested...) {
		if s.windows[w.id] == w {
			s.destroyWindow(w)
		}
	}
	for _, w := range s.windows {
		delete(w.masks, c)
	}
	for sel, o := range s.selections {
		if o.owner != nil && o.owner.owner == c {
			delete(s.selections, sel)
		}
	}
	s.treeMu.Unlock()
	s.gcs.sweep(func(gc *gcontext) bool {
		if gc.owner != c {
			return false
		}
		s.usedGCs.Add(-1)
		return true
	})
	// Pixmaps are per-client resources too: sweeping them here (by the
	// owner recorded at CreatePixmap) both releases their quota bytes and
	// frees their backing tiles when a client departs, instead of letting
	// orphaned pixmaps accumulate for the life of the server.
	s.pixmaps.sweep(func(p *pixmap) bool {
		if p.owner != c {
			return false
		}
		s.usedPixmapBytes.Add(-p.bytes)
		return true
	})
}
