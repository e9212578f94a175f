package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/obs/trace"
	"repro/internal/xproto"
)

// nested are the spans recorded on the driving goroutine: the
// benchmark's own, the toolkit's event dispatches and the client's
// flushes and reply waits. They nest strictly, so a parent's self time
// is its duration less its direct children's. client.rtt overlaps other
// work on that goroutine and server.dispatch runs on the server's, so
// each counts its whole duration in a lane of its own.
var nested = map[string]bool{
	"bench.action": true, "bench.eval": true, "bench.update_idle": true, "bench.update": true,
	"bench.send": true, "bench.screenshot": true, "bench.fakekey": true,
	"tk.event": true, "client.flush": true, "client.wait": true,
}

// spanLayer names the layer each span's self time belongs to.
var spanLayer = map[string]string{
	"bench.action":      "bench (between calls)",
	"bench.eval":        "tcl",
	"bench.update_idle": "widget",
	"bench.update":      "tk",
	"bench.send":        "tk (send)",
	"bench.screenshot":  "xclient (screenshot)",
	"bench.fakekey":     "xclient (fake input)",
	"tk.event":          "tk (dispatch)",
	"client.flush":      "xclient / xproto",
	"client.wait":       "xclient (blocked on reply)",
	"client.rtt":        "xclient (request in flight)",
	"server.dispatch":   "xserver / render",
}

type selfRow struct {
	count           uint64
	totalNs, selfNs int64
}

// selfTable accumulates per-span-name totals and self times over the
// traced actions.
type selfTable map[string]*selfRow

func (t selfTable) fold(spans []trace.Span) {
	var lane []trace.Span
	for _, s := range spans {
		if nested[s.Name] {
			lane = append(lane, s)
			continue
		}
		t.add(s.Name, s.Dur, s.Dur)
	}
	sort.SliceStable(lane, func(i, j int) bool {
		if lane[i].Start != lane[j].Start {
			return lane[i].Start < lane[j].Start
		}
		return lane[i].Dur > lane[j].Dur
	})
	child := make([]int64, len(lane))
	var stack []int
	for i, s := range lane {
		for len(stack) > 0 && lane[stack[len(stack)-1]].End() <= s.Start {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			child[stack[len(stack)-1]] += s.Dur
		}
		stack = append(stack, i)
	}
	for i, s := range lane {
		self := s.Dur - child[i]
		if self < 0 {
			self = 0 // clock granularity at span edges
		}
		t.add(s.Name, s.Dur, self)
	}
}

func (t selfTable) add(name string, total, self int64) {
	row := t[name]
	if row == nil {
		row = &selfRow{}
		t[name] = row
	}
	row.count++
	row.totalNs += total
	row.selfNs += self
}

// format renders the table per action, largest self time first.
func (t selfTable) format(actions int) string {
	names := make([]string, 0, len(t))
	for name := range t {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if t[names[i]].selfNs != t[names[j]].selfNs {
			return t[names[i]].selfNs > t[names[j]].selfNs
		}
		return names[i] < names[j]
	})
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 0, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "span\tlayer\tspans/action\ttotal ms/action\tself ms/action\t\n")
	n := float64(actions)
	for _, name := range names {
		row := t[name]
		fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.4f\t%.4f\t\n", name, spanLayer[name],
			float64(row.count)/n, float64(row.totalNs)/n/1e6, float64(row.selfNs)/n/1e6)
	}
	tw.Flush()
	return b.String()
}

// decodeCost is the xproto layer's cost of turning captured wire bytes
// back into requests, as the server's read loop does, and re-encoding
// them, as the client does.
type decodeCost struct {
	requests int
	nsPerReq float64
	allocs   float64 // per request
}

// replayDecode replays a captured client→server stream through
// ReadRequestFrame, the v2 segment and delta decoders when the stream
// was upgraded, NewRequest().Decode and AppendRequestFrame. It repeats
// the pass until at least minReplay has been measured.
func replayDecode(stream []byte) (decodeCost, error) {
	const minReplay = 50 * time.Millisecond
	var (
		cost    decodeCost
		elapsed time.Duration
		allocs  uint64
	)
	for passes := 0; elapsed < minReplay && passes < 1000; passes++ {
		a0, _ := runtimeCounts()
		start := time.Now()
		n, err := decodePass(stream)
		elapsed += time.Since(start)
		a1, _ := runtimeCounts()
		if err != nil {
			return cost, err
		}
		if n == 0 {
			return cost, fmt.Errorf("replay: no requests in %d captured bytes", len(stream))
		}
		allocs += a1 - a0
		cost.requests += n
	}
	cost.nsPerReq = float64(elapsed.Nanoseconds()) / float64(cost.requests)
	cost.allocs = float64(allocs) / float64(cost.requests)
	return cost, nil
}

// decodePass decodes one copy of the stream and returns how many
// requests it held. The capture may end inside a frame; the pass stops
// there.
func decodePass(stream []byte) (int, error) {
	var (
		rd       = bytes.NewReader(stream)
		dc       *xproto.DeltaCache
		scratch  []byte
		out      []byte
		requests int
	)
	decode := func(op uint16, payload []byte) error {
		req := xproto.NewRequest(op)
		if req == nil {
			return fmt.Errorf("replay: unknown opcode %d", op)
		}
		r := xproto.NewReader(payload)
		req.Decode(r)
		if err := r.Err(); err != nil {
			return fmt.Errorf("replay: decoding %s: %w", xproto.OpName(op), err)
		}
		out = xproto.AppendRequestFrame(out[:0], req)
		requests++
		return nil
	}
	for {
		op, payload, err := xproto.ReadRequestFrame(rd)
		if err != nil {
			return requests, nil // end of the capture
		}
		switch op {
		case xproto.OpAttachSession:
		case xproto.OpUpgradeWire:
			dc = xproto.NewDeltaCache()
		case xproto.OpWireSeg:
			if dc == nil {
				return requests, fmt.Errorf("replay: v2 segment before the wire upgrade")
			}
			var raw []byte
			if raw, scratch, err = xproto.DecodeSegmentPayload(payload, scratch); err != nil {
				return requests, err
			}
			if err := dc.DecodeRequestSegment(raw, decode); err != nil {
				return requests, err
			}
		default:
			if err := decode(op, payload); err != nil {
				return requests, err
			}
		}
	}
}
