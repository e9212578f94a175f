package tcl

import (
	"errors"
	"io"
	"strconv"
	"strings"
	"testing"
)

// Budgets that keep one fuzz input's work bounded: commands run, and
// the bytes of any one command's words (which caps the values a script
// can build by repeated doubling).
const (
	fuzzMaxCommands  = 10000
	fuzzMaxWordBytes = 4096
)

// fuzzInterp returns an interpreter fit for arbitrary scripts. Output
// is discarded; commands that reach the operating system or loop
// without running a command (while, for, time) are removed; string
// repeat is capped; and once a script passes either budget the
// interpreter is deleted, so every further Eval fails and the script
// unwinds with errors.
func fuzzInterp() *Interp {
	in := New()
	in.Out = io.Discard
	for _, name := range []string{"exec", "exit", "cd", "pwd", "pid", "source", "file", "glob", "while", "for", "time"} {
		in.Unregister(name)
	}
	stringCmd := in.cmds["string"].fn
	in.Register("string", func(in *Interp, args []string) (string, error) {
		if len(args) == 4 && args[1] == "repeat" {
			if n, err := strconv.Atoi(args[3]); err == nil && n > 0 && len(args[2]) > fuzzMaxWordBytes/n {
				return "", errf("string repeat result over the fuzz budget")
			}
		}
		return stringCmd(in, args)
	})
	commands := 0
	in.Trace = func(words []string) {
		commands++
		size := 0
		for _, w := range words {
			size += len(w)
		}
		if commands > fuzzMaxCommands || size > fuzzMaxWordBytes {
			in.Delete()
		}
	}
	return in
}

// FuzzEval runs arbitrary scripts through Interp.Eval: the parser,
// substitution, the core commands and expr. The properties are no Go
// panic (and no fatal stack overflow, which would kill the fuzzer as
// surely), and that a script placed under more than maxNesting levels
// of nesting — expr parentheses, a unary minus chain, or bracketed
// command substitution — fails with a Tcl error, whatever it contains.
func FuzzEval(f *testing.F) {
	for _, s := range []string{
		`set a 1; expr {$a + 2}`,
		`proc f {x} {expr {$x * 2}}; f 3`,
		`expr {(1 + 2) * -3 ? ~4 : !5}`,
		`expr {abs(-1) + sqrt(4) + atan2(1, 2)}`,
		`foreach i {1 2 3} {append s $i}; set s`,
		`switch -glob abc {a* {set x 1} default {set x 2}}`,
		`catch {error boom} msg; set msg`,
		`set l [list a {b c} d]; lindex $l 1`,
		`format %5.2f 3.14159; regsub -all a banana o r`,
		`expr {((((1))))}; expr {- - - 1}; set y [set x [set w 1]]`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script string) {
		_, _ = fuzzInterp().Eval(script)

		// The nesting error comes before any of the script runs, so one
		// interpreter serves all three wrappings.
		in := fuzzInterp()
		deep := in.maxNesting + 1
		for _, w := range []struct{ pre, post string }{
			{"expr {" + strings.Repeat("(", deep), strings.Repeat(")", deep) + "}"},
			{"expr {" + strings.Repeat("-", deep), "}"},
			{strings.Repeat("[", deep), strings.Repeat("]", deep)},
		} {
			_, err := in.Eval(w.pre + script + w.post)
			var te *Error
			if !errors.As(err, &te) {
				t.Fatalf("script nested %d levels deep: err = %v, want a Tcl error", deep, err)
			}
		}
	})
}
