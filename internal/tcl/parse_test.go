package tcl

import (
	"os"
	"strings"
	"testing"
	"testing/quick"
)

// TestParserNeverPanics property: arbitrary byte strings either evaluate
// or return an error — the parser must not crash or hang.
func TestParserNeverPanics(t *testing.T) {
	in := New()
	// Remove commands with side effects before fuzzing.
	for _, dangerous := range []string{"exec", "exit", "cd", "source", "file", "glob", "time"} {
		in.Unregister(dangerous)
	}
	f := func(script string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic on %q: %v", script, r)
			}
		}()
		_, _ = in.Eval(script)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestExprNeverPanics property: the expression evaluator rejects garbage
// without crashing.
func TestExprNeverPanics(t *testing.T) {
	in := New()
	f := func(expr string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic on expr %q: %v", expr, r)
			}
		}()
		_, _ = in.EvalExpr(expr)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestCommandSubstMatching pins how a command substitution finds its
// close bracket: backslashes and braces hide brackets, quotes do not,
// and a bracket hidden from an enclosing substitution by braces is
// matched afresh when a bare word substitutes it.
func TestCommandSubstMatching(t *testing.T) {
	for _, tc := range []struct{ script, want, err string }{
		{`set x [set y {a]b}]`, "a]b", ""},
		{`set x [set y a\]b]`, "a]b", ""},
		{`set x [set y "a]b"]`, "", `missing "`},
		{`set x [set y "a[set z b]c"]`, "abc", ""},
		{`set x [set y a{b[set z 1]}]`, "a{b1}", ""},
		{`set x [set y a{[b}]`, "", "missing close-bracket"},
		{`set x [set y a{b}c[set z {d[}]]`, "a{b}cd[", ""},
		{`set x [set y {[}][set z {]}]`, "[]", ""},
		{`set x [list [list a [list b c]] d]`, "{a {b c}} d", ""},
		{`set x [[set y list] a [set z b]]`, "a b", ""},
		{`set x [set y \\]`, `\`, ""},
		{`set x [set y a\`, "", "missing close-bracket"},
		{`set x [set y {a]`, "", "missing close-brace"},
		{`set x [set y [set z 1]`, "", "missing close-bracket"},
		{"set x [set a 1\nset b 2]", "2", ""},
		{`set x []`, "", ""},
		{`expr {0 && [error {b]oom}]}`, "0", ""},
		{`expr {1 || [error {x}`, "", "missing close-brace"},
		{`expr {1 || [error [x]}`, "", "missing close-bracket"},
	} {
		got, err := New().Eval(tc.script)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s: got %q, err %v; want error %q", tc.script, got, err, tc.err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("%s: got %q, err %v; want %q", tc.script, got, err, tc.want)
		}
	}
}

// TestDeepCommandSubst checks substitution nested to the interpreter's
// depth limit, straight and with each level's bracket behind a brace in
// a bare word, and one level past the limit.
func TestDeepCommandSubst(t *testing.T) {
	in := New()
	d := in.maxNesting - 1
	if got, err := in.Eval(strings.Repeat("[", d) + "set x 7" + strings.Repeat("]", d)); err == nil || !strings.Contains(err.Error(), `invalid command name "7"`) {
		t.Errorf("%d nested brackets: got %q, err %v", d, got, err)
	}
	if got, err := in.Eval("set y " + strings.Repeat("[set z a{", d) + strings.Repeat("}]", d)); err != nil || got != strings.Repeat("a{", d)+strings.Repeat("}", d) {
		t.Errorf("%d brace-hidden brackets: got %.20q..., err %v", d, got, err)
	}
	if _, err := in.Eval(strings.Repeat("[", d+2) + "set x 7" + strings.Repeat("]", d+2)); err == nil || !strings.Contains(err.Error(), "too many nested calls") {
		t.Errorf("%d nested brackets: err %v, want a nesting error", d+2, err)
	}
	if in.nesting != 0 {
		t.Fatalf("nesting depth %d after the errors, want 0", in.nesting)
	}
}

// TestUnterminatedConstructs all produce errors, not hangs.
func TestUnterminatedConstructs(t *testing.T) {
	in := New()
	for _, bad := range []string{
		"set a {unterminated",
		`set a "unterminated`,
		"set a [unterminated",
		"set a ${unterminated",
		"set a {nested {deeper",
		`puts "a[set b"`,
	} {
		if _, err := in.Eval(bad); err == nil {
			t.Errorf("Eval(%q) should fail", bad)
		}
	}
}

func TestDeepNestingBounded(t *testing.T) {
	in := New()
	// Deeply nested command substitution hits the recursion limit
	// gracefully.
	script := strings.Repeat("[set x ", 2000) + "1" + strings.Repeat("]", 2000)
	if _, err := in.Eval("set y " + script); err == nil {
		t.Fatal("expected nesting error")
	}
}

func TestEnvArray(t *testing.T) {
	os.Setenv("TCL_TEST_ENV_VAR", "from-environment")
	in := New()
	got, err := in.Eval(`set env(TCL_TEST_ENV_VAR)`)
	if err != nil || got != "from-environment" {
		t.Fatalf("env array: %q %v", got, err)
	}
	if _, err := in.Eval(`set env(PATH)`); err != nil {
		t.Fatalf("PATH missing from env: %v", err)
	}
}

// TestBracketInBareWord: a lone close-bracket outside command
// substitution is ordinary text.
func TestBracketInBareWord(t *testing.T) {
	in := New()
	got, err := in.Eval("set x a]b")
	if err != nil || got != "a]b" {
		t.Fatalf("bare ]: %q %v", got, err)
	}
}

// TestSubstituteAll covers the whole-string substitution entry point used
// by Tk.
func TestSubstituteAll(t *testing.T) {
	in := New()
	in.SetVar("n", "7")
	got, err := in.SubstituteAll(`n is $n, sum [expr 1+1], tab\t.`)
	if err != nil || got != "n is 7, sum 2, tab\t." {
		t.Fatalf("SubstituteAll: %q %v", got, err)
	}
}

// TestEvalResultIsLastCommand per the evaluation model.
func TestEvalResultIsLastCommand(t *testing.T) {
	in := New()
	got, err := in.Eval("set a 1\nset b 2\nset c 3")
	if err != nil || got != "3" {
		t.Fatalf("result = %q %v", got, err)
	}
	// Empty scripts and comment-only scripts give empty results.
	if got, err := in.Eval(""); err != nil || got != "" {
		t.Fatalf("empty script: %q %v", got, err)
	}
	if got, err := in.Eval("# just a comment"); err != nil || got != "" {
		t.Fatalf("comment script: %q %v", got, err)
	}
}

// TestBackslashSequences covers the full Figure 5 table.
func TestBackslashSequences(t *testing.T) {
	in := New()
	cases := []struct{ script, want string }{
		{`set x a\nb`, "a\nb"},
		{`set x a\tb`, "a\tb"},
		{`set x a\rb`, "a\rb"},
		{`set x a\\b`, `a\b`},
		{`set x a\$b`, "a$b"},
		{`set x a\[b\]`, "a[b]"},
		{`set x a\{b\}`, "a{b}"},
		{`set x a\;b`, "a;b"},
		{`set x a\ b`, "a b"},
		{`set x \x41`, "A"},
		{`set x \101`, "A"},
		{`set x \7`, "\x07"},
	}
	for _, c := range cases {
		got, err := in.Eval(c.script)
		if err != nil || got != c.want {
			t.Errorf("Eval(%q) = %q %v, want %q", c.script, got, err, c.want)
		}
	}
}
