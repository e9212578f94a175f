package xserver

import (
	"repro/internal/obs"
	"repro/internal/xproto"
)

// Metric handles. Every series the server records is resolved once,
// when its owner is built — the Server in New, the farm in NewFarm, a
// session's rollup in SetRollup — so no path records by name.
// docs/observability.md's metrics-registry block documents each name.

// serverMetrics are the handles into the server-wide registry. New
// fills lockKeys (each lockwait histogram's name, for labelling sampled
// dispatch spans) and pixmapLock (which times every pixmap's lock).
type serverMetrics struct {
	requests, segments, stalled, dropped               *obs.Counter
	traceSampled, traceSpans                           *obs.Counter
	wireSegs, wireBytesRaw, wireBytesWire, wireSkipped *obs.Counter
	wireDecodeErrs                                     *obs.Counter
	dispatch                                           *obs.Histogram

	ops         [256]*obs.Counter // requests.<OpName>; nil for unnamed opcodes
	quotaDenied [len(quotaResNames)]*obs.Counter
	lockKeys    map[*obs.Histogram]string
	pixmapLock  *obs.Histogram

	// Render pipeline: clean→dirty tile transitions, slab clones forced
	// by writes to shared tiles, tiles aliased into snapshots, fills fanned
	// out to the worker pool; then per-primitive service times (the
	// screenshot's is compose + encode, outside treeMu).
	tilesDamaged, tilesCOW, tilesSnapshot, parallelFills *obs.Counter
	fill, copyArea, text, screenshot                     *obs.Histogram
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	m := &serverMetrics{
		requests:       reg.Counter("requests"),
		segments:       reg.Counter("segments"),
		stalled:        reg.Counter("stalled"),
		dropped:        reg.Counter("dropped"),
		traceSampled:   reg.Counter("trace.sampled"),
		traceSpans:     reg.Counter("trace.spans"),
		wireSegs:       reg.Counter("wire.segments.v2"),
		wireBytesRaw:   reg.Counter("wire.bytes.raw"),
		wireBytesWire:  reg.Counter("wire.bytes.wire"),
		wireSkipped:    reg.Counter("wire.compress.skipped"),
		wireDecodeErrs: reg.Counter("wire.decode.errors"),
		dispatch:       reg.Histogram("dispatch"),
		quotaDenied:    newQuotaDenied(reg),
		lockKeys:       make(map[*obs.Histogram]string),
		tilesDamaged:   reg.Counter("render.tiles.damaged"),
		tilesCOW:       reg.Counter("render.tiles.cow"),
		tilesSnapshot:  reg.Counter("render.tiles.snapshot"),
		parallelFills:  reg.Counter("render.fill.parallel"),
		fill:           reg.Histogram("render.fill"),
		copyArea:       reg.Histogram("render.copy"),
		text:           reg.Histogram("render.text"),
		screenshot:     reg.Histogram("render.screenshot"),
	}
	xproto.EachOp(func(op uint16, name string) { m.ops[op] = reg.Counter("requests." + name) })
	return m
}

// count records one request. An opcode outside the name table (which
// dispatch rejects) is counted only in "requests", so a client cannot
// mint metric names.
func (m *serverMetrics) count(op uint16) {
	m.requests.Inc()
	if int(op) < len(m.ops) && m.ops[op] != nil {
		m.ops[op].Inc()
	}
}

func newQuotaDenied(reg *obs.Registry) (cs [len(quotaResNames)]*obs.Counter) {
	for i, res := range quotaResNames {
		cs[i] = reg.Counter("quota.denied." + res)
	}
	return cs
}

// rollupMetrics are a farm session's handles into the farm's aggregate
// registry, so /metrics and /slo over the farm see every tenant.
type rollupMetrics struct {
	requests    *obs.Counter
	dispatch    *obs.Histogram
	quotaDenied [len(quotaResNames)]*obs.Counter
}

func newRollupMetrics(reg *obs.Registry) *rollupMetrics {
	return &rollupMetrics{
		requests:    reg.Counter("requests"),
		dispatch:    reg.Histogram("dispatch"),
		quotaDenied: newQuotaDenied(reg),
	}
}

// farmMetrics are the farm's lifecycle series in its aggregate registry.
type farmMetrics struct {
	sessions, conns                           *obs.Gauge
	admissions, rejections, evictions, sweeps *obs.Counter
}

func newFarmMetrics(reg *obs.Registry) farmMetrics {
	return farmMetrics{
		sessions:   reg.Gauge("farm.sessions"),
		conns:      reg.Gauge("farm.conns"),
		admissions: reg.Counter("farm.admissions"),
		rejections: reg.Counter("farm.rejections"),
		evictions:  reg.Counter("farm.evictions"),
		sweeps:     reg.Counter("farm.sweeps"),
	}
}
