// Package fixtures exercises the metrics-registry analyzer: literal
// names, a package const, the "prefix."+expr pattern, an undocumented
// name, dynamic names it cannot check (a forwarded parameter among
// them), and recording by name through a chained accessor call.
package fixtures

type counter struct{}

func (counter) Inc() {}

type histogram struct{}

func (histogram) Observe(v int64) {}

type registry struct{}

func (registry) Counter(name string) counter     { return counter{} }
func (registry) Histogram(name string) histogram { return histogram{} }

const ctrConst = "documented.const"

// handles is the recording idiom: every metric resolved once.
type handles struct {
	count, konst, op, undocumented counter
	lat                            histogram
}

func resolve(r registry, opName func() string) handles {
	return handles{
		count:        r.Counter("documented.count"),
		lat:          r.Histogram("documented.lat"),
		konst:        r.Counter(ctrConst),
		op:           r.Counter("requests." + opName()),
		undocumented: r.Counter("undocumented.count"),
	}
}

// bump forwards a name into the registry; the name is not checkable.
func (r registry) bump(name string) {
	c := r.Counter(name)
	c.Inc()
}

func recordDynamic(r registry, suffix string) {
	c := r.Counter(suffix + ".made.up")
	c.Inc()
}

func recordByName(r registry) {
	r.Counter("documented.count").Inc()
}
