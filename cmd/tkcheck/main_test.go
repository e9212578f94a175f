package main

import (
	"bytes"
	"strings"
	"testing"
)

// fixture paths are relative to this package directory.
const fixtures = "../../internal/lint/testdata"

func runCheck(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestExitNonZeroOnBadFixtures(t *testing.T) {
	cases := []struct {
		target string
		want   string // a substring of the expected diagnostic
	}{
		{fixtures + "/unknown.tcl", `unknown.tcl:3:1: unknown command "frobnicate"`},
		{fixtures + "/arity.tcl", `arity.tcl:2:1: wrong # args for "set"`},
		{fixtures + "/brace.tcl", `brace.tcl:2:19: missing close-brace`},
		{fixtures + "/deferred.tcl", `deferred.tcl:4:18: unknown command "hilight"`},
		{fixtures + "/expr.tcl", `expr.tcl:3:10: expression syntax error`},
		{fixtures + "/path.tcl", `path.tcl:2:8: bad window path name ".a..b"`},
		{fixtures + "/locks", `locks.go:23:11: counter.count (guarded by mu) accessed without holding mu`},
		{fixtures + "/opcodes", `opcodes.go:9:2: opcode OpOrphan has no case in the NewRequest factory`},
	}
	for _, tc := range cases {
		t.Run(tc.target, func(t *testing.T) {
			code, out, _ := runCheck(t, tc.target)
			if code != 1 {
				t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
			}
			if !strings.Contains(out, tc.want) {
				t.Errorf("output missing %q:\n%s", tc.want, out)
			}
		})
	}
}

func TestExitZeroOnRepoScripts(t *testing.T) {
	code, out, errOut := runCheck(t, "../../examples/...")
	if code != 0 {
		t.Fatalf("examples: exit = %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	code, out, errOut = runCheck(t, "-tests", "../../cmd/wish")
	if code != 0 {
		t.Fatalf("cmd/wish -tests: exit = %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
}

// TestGoldenHumanOutput pins the full human-mode stdout for a fixture
// with diagnostics from both sides of the metrics registry: exact
// lines, exact order, and the trailing problem count.
func TestGoldenHumanOutput(t *testing.T) {
	code, out, errOut := runCheck(t, "-time", fixtures+"/metricsreg")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s", code, out)
	}
	want := fixtures + `/metricsreg/metrics.go:34:27: metric "undocumented.count" is not documented in the metrics registry (add it to the metrics-registry block in docs/observability.md) [metrics]
` + fixtures + `/metricsreg/metrics.go:40:17: metric name is dynamic (not a string literal, package const, or "prefix."+expr) and cannot be checked against the registry [metrics]
` + fixtures + `/metricsreg/metrics.go:45:17: metric name is dynamic (not a string literal, package const, or "prefix."+expr) and cannot be checked against the registry [metrics]
` + fixtures + `/metricsreg/metrics.go:50:2: metric recorded by name: resolve it to a handle when its owner is constructed and record through the handle [metrics]
` + fixtures + `/metricsreg/registry.md:11:1: documented metric "ghost.metric" is not constructed anywhere in the scanned Go code (stale registry entry?) [metrics]
tkcheck: 5 problem(s)
`
	if out != want {
		t.Errorf("stdout mismatch:\ngot:\n%s\nwant:\n%s", out, want)
	}
	// -time reports to stderr only, so golden stdout stays stable; the
	// analyzers that ran over this fixture must each show up.
	for _, name := range []string{"parse", "metrics", "lockorder", "pool"} {
		if !strings.Contains(errOut, "tkcheck: "+name) {
			t.Errorf("stderr timing output missing %q:\n%s", name, errOut)
		}
	}
}

// TestGoldenJSONOutput pins the -json report byte for byte, for the
// same fixture and for a clean run (empty diagnostics array, not
// null).
func TestGoldenJSONOutput(t *testing.T) {
	code, out, _ := runCheck(t, "-json", fixtures+"/metricsreg")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s", code, out)
	}
	want := `{
  "problems": 5,
  "diagnostics": [
    {
      "file": "` + fixtures + `/metricsreg/metrics.go",
      "line": 34,
      "col": 27,
      "analyzer": "metrics",
      "severity": "error",
      "message": "metric \"undocumented.count\" is not documented in the metrics registry (add it to the metrics-registry block in docs/observability.md)"
    },
    {
      "file": "` + fixtures + `/metricsreg/metrics.go",
      "line": 40,
      "col": 17,
      "analyzer": "metrics",
      "severity": "error",
      "message": "metric name is dynamic (not a string literal, package const, or \"prefix.\"+expr) and cannot be checked against the registry"
    },
    {
      "file": "` + fixtures + `/metricsreg/metrics.go",
      "line": 45,
      "col": 17,
      "analyzer": "metrics",
      "severity": "error",
      "message": "metric name is dynamic (not a string literal, package const, or \"prefix.\"+expr) and cannot be checked against the registry"
    },
    {
      "file": "` + fixtures + `/metricsreg/metrics.go",
      "line": 50,
      "col": 2,
      "analyzer": "metrics",
      "severity": "error",
      "message": "metric recorded by name: resolve it to a handle when its owner is constructed and record through the handle"
    },
    {
      "file": "` + fixtures + `/metricsreg/registry.md",
      "line": 11,
      "col": 1,
      "analyzer": "metrics",
      "severity": "error",
      "message": "documented metric \"ghost.metric\" is not constructed anywhere in the scanned Go code (stale registry entry?)"
    }
  ]
}
`
	if out != want {
		t.Errorf("json mismatch:\ngot:\n%s\nwant:\n%s", out, want)
	}

	code, out, _ = runCheck(t, "-json", fixtures+"/good.tcl")
	if code != 0 {
		t.Fatalf("clean run: exit = %d, want 0\nstdout:\n%s", code, out)
	}
	want = "{\n  \"problems\": 0,\n  \"diagnostics\": []\n}\n"
	if out != want {
		t.Errorf("clean json mismatch:\ngot:\n%s\nwant:\n%s", out, want)
	}
}

// TestJobsFlagDeterministic runs the same mixed target set with -j 1
// and -j 8: stdout must be identical.
func TestJobsFlagDeterministic(t *testing.T) {
	targets := []string{fixtures + "/lockorder", fixtures + "/pool", fixtures + "/locks", fixtures + "/arity.tcl"}
	_, serial, _ := runCheck(t, append([]string{"-j", "1"}, targets...)...)
	if !strings.Contains(serial, "problem(s)") {
		t.Fatalf("expected diagnostics, got:\n%s", serial)
	}
	for i := 0; i < 5; i++ {
		_, parallel, _ := runCheck(t, append([]string{"-j", "8"}, targets...)...)
		if parallel != serial {
			t.Fatalf("parallel output differs from serial:\n--- j1\n%s\n--- j8\n%s", serial, parallel)
		}
	}
}

func TestKnownFlag(t *testing.T) {
	code, _, _ := runCheck(t, fixtures+"/unknown.tcl")
	if code != 1 {
		t.Fatalf("without -known: exit = %d, want 1", code)
	}
	code, out, _ := runCheck(t, "-known", "frobnicate", fixtures+"/unknown.tcl")
	if code != 0 {
		t.Fatalf("with -known: exit = %d, want 0; output:\n%s", code, out)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runCheck(t); code != 2 {
		t.Error("no targets should exit 2")
	}
	if code, _, _ := runCheck(t, "no/such/file.tcl"); code != 2 {
		t.Error("missing target should exit 2")
	}
	if code, _, _ := runCheck(t, "-bogusflag"); code != 2 {
		t.Error("bad flag should exit 2")
	}
}
