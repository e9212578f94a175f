package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Metrics-name registry analysis. Every obs counter/gauge/histogram
// name constructed in Go must appear in the documented metrics
// registry, and every documented name must be constructed somewhere —
// the observability surface cannot silently drift in either direction.
//
// Code side: string arguments to .Counter(...) / .Gauge(...) /
// .Histogram(...) calls. Besides plain literals the collector resolves
// package-level string constants (fault's CtrJitter et al) and
// "prefix." + expr concatenations, which normalize to the pattern
// "prefix.*". Any other argument is reported as dynamic.
//
// Recording idiom: every metric is resolved to a handle when its owner
// is constructed and recorded through the handle. In non-test code an
// accessor call used directly as a method receiver —
// reg.Counter("x").Inc() — is a by-name lookup on every call and is
// reported.
//
// Doc side: fenced code blocks tagged "metrics-registry" in Markdown
// files (docs/observability.md holds the canonical one). Each
// non-comment line's first field is a metric name; <placeholder>
// segments normalize to "*", so "requests.<OpName>" matches the
// code-side pattern "requests.*" and "lockwait.<subsystem>" matches
// every literal lockwait name.
//
// Like the opcode analyzer this is a cross-target facts accumulator:
// names are collected per package and per document, and the two sides
// are compared only once both have been seen, so partial runs (Go
// files only, or docs only) stay silent.

type metricSite struct {
	file string
	line int
	col  int
}

// MetricsFacts accumulates metric names across packages and documents.
type MetricsFacts struct {
	codeSeen bool
	docSeen  bool
	code     map[string]metricSite // name or "prefix.*" pattern -> first site
	doc      map[string]metricSite // normalized doc name -> site
	extra    []Diag                // site-local problems (dynamic names)
}

// NewMetricsFacts returns empty accumulation state.
func NewMetricsFacts() *MetricsFacts {
	return &MetricsFacts{
		code: make(map[string]metricSite),
		doc:  make(map[string]metricSite),
	}
}

// Merge folds another accumulator (e.g. a parallel worker's) into m.
func (m *MetricsFacts) Merge(other *MetricsFacts) {
	m.codeSeen = m.codeSeen || other.codeSeen
	m.docSeen = m.docSeen || other.docSeen
	for name, site := range other.code {
		keepEarliest(m.code, name, site)
	}
	for name, site := range other.doc {
		keepEarliest(m.doc, name, site)
	}
	m.extra = append(m.extra, other.extra...)
}

// keepEarliest records site for name unless an earlier one is known.
func keepEarliest(sites map[string]metricSite, name string, site metricSite) {
	if cur, ok := sites[name]; !ok || earlierSite(site, cur) {
		sites[name] = site
	}
}

func earlierSite(a, b metricSite) bool {
	if a.file != b.file {
		return a.file < b.file
	}
	if a.line != b.line {
		return a.line < b.line
	}
	return a.col < b.col
}

var metricAccessors = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true}

// CollectPackage gathers metric names from one package's files and
// reports by-name recording outside tests.
func (m *MetricsFacts) CollectPackage(fset *token.FileSet, files []*ast.File) {
	consts := packageStringConsts(files)
	for _, f := range files {
		test := strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if recv, ok := call.Fun.(*ast.SelectorExpr); ok && !test && isMetricAccessor(recv.X) {
				p := fset.Position(recv.X.Pos())
				m.extra = append(m.extra, Diag{
					File: p.Filename, Line: p.Line, Col: p.Column, Rule: "metrics",
					Msg: "metric recorded by name: resolve it to a handle when its owner is constructed and record through the handle",
				})
			}
			if isMetricAccessor(call) {
				m.recordCodeName(fset, call.Args[0], consts)
			}
			return true
		})
	}
	m.codeSeen = true
}

// isMetricAccessor reports whether e is a one-argument .Counter,
// .Gauge or .Histogram call.
func isMetricAccessor(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && metricAccessors[sel.Sel.Name]
}

func (m *MetricsFacts) recordCodeName(fset *token.FileSet, arg ast.Expr, consts map[string]string) {
	p := fset.Position(arg.Pos())
	site := metricSite{file: p.Filename, line: p.Line, col: p.Column}
	add := func(name string) { keepEarliest(m.code, name, site) }
	switch v := arg.(type) {
	case *ast.BasicLit:
		if v.Kind == token.STRING {
			if s, err := strconv.Unquote(v.Value); err == nil {
				add(s)
				return
			}
		}
	case *ast.Ident:
		if s, ok := consts[v.Name]; ok {
			add(s)
			return
		}
	case *ast.BinaryExpr:
		// "prefix." + dynamic normalizes to the pattern "prefix.*".
		if v.Op == token.ADD {
			if lit, ok := v.X.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil && s != "" {
					add(s + "*")
					return
				}
			}
		}
	}
	m.extra = append(m.extra, Diag{
		File: p.Filename, Line: p.Line, Col: p.Column, Rule: "metrics",
		Msg: "metric name is dynamic (not a string literal, package const, or \"prefix.\"+expr) and cannot be checked against the registry",
	})
}

// packageStringConsts collects top-level string constants.
func packageStringConsts(files []*ast.File) map[string]string {
	consts := make(map[string]string)
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i >= len(vs.Values) {
						break
					}
					lit, ok := vs.Values[i].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						continue
					}
					if s, err := strconv.Unquote(lit.Value); err == nil {
						consts[name.Name] = s
					}
				}
			}
		}
	}
	return consts
}

var (
	fenceRe       = regexp.MustCompile("^```+")
	placeholderRe = regexp.MustCompile(`<[^<>]*>`)
)

// CollectDoc gathers metric names from "metrics-registry" fenced
// blocks in one Markdown document.
func (m *MetricsFacts) CollectDoc(path string, src string) {
	inBlock := false
	for i, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		if fence := fenceRe.FindString(trimmed); fence != "" {
			if inBlock {
				inBlock = false
				continue
			}
			info := strings.TrimSpace(strings.TrimPrefix(trimmed, fence))
			if info == "metrics-registry" {
				inBlock = true
				m.docSeen = true
			}
			continue
		}
		if !inBlock || trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		name := strings.Fields(trimmed)[0]
		name = placeholderRe.ReplaceAllString(name, "*")
		keepEarliest(m.doc, name, metricSite{file: path, line: i + 1, col: 1})
	}
}

// nameMatches reports whether a code-side name and a doc-side entry
// refer to the same metric. Doc entries may contain "*" wildcards
// (from <placeholder> segments); a code-side pattern ("prefix.*")
// must match the doc entry exactly.
func nameMatches(code, doc string) bool {
	if code == doc {
		return true
	}
	if strings.Contains(code, "*") {
		return false
	}
	if strings.Contains(doc, "*") {
		ok, err := path.Match(doc, code)
		return err == nil && ok
	}
	return false
}

// Diags compares the two sides. Evaluation is gated on having seen
// both Go code and a registry document, so partial runs stay silent.
func (m *MetricsFacts) Diags() []Diag {
	diags := append([]Diag(nil), m.extra...)
	if !m.codeSeen || !m.docSeen {
		return diags
	}
	codeNames, docNames := sortedKeys(m.code), sortedKeys(m.doc)
	unmatched := func(sites map[string]metricSite, names, others []string, match func(name, other string) bool, format string) {
		for _, name := range names {
			if !slices.ContainsFunc(others, func(other string) bool { return match(name, other) }) {
				site := sites[name]
				diags = append(diags, Diag{
					File: site.file, Line: site.line, Col: site.col, Rule: "metrics",
					Msg: fmt.Sprintf(format, name),
				})
			}
		}
	}
	unmatched(m.code, codeNames, docNames, nameMatches,
		"metric %q is not documented in the metrics registry (add it to the metrics-registry block in docs/observability.md)")
	unmatched(m.doc, docNames, codeNames, func(dn, cn string) bool { return nameMatches(cn, dn) },
		"documented metric %q is not constructed anywhere in the scanned Go code (stale registry entry?)")
	return diags
}

func sortedKeys(m map[string]metricSite) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
