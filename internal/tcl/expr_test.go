package tcl

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func exprOK(t *testing.T, in *Interp, expr, want string) {
	t.Helper()
	got, err := in.EvalExpr(expr)
	if err != nil {
		t.Fatalf("EvalExpr(%q) error: %v", expr, err)
	}
	if got != want {
		t.Fatalf("EvalExpr(%q) = %q, want %q", expr, got, want)
	}
}

func exprErr(t *testing.T, in *Interp, expr string) {
	t.Helper()
	if got, err := in.EvalExpr(expr); err == nil {
		t.Fatalf("EvalExpr(%q) = %q, expected error", expr, got)
	}
}

func TestExprArithmetic(t *testing.T) {
	in := New()
	exprOK(t, in, "1+2", "3")
	exprOK(t, in, "10-4", "6")
	exprOK(t, in, "6*7", "42")
	exprOK(t, in, "7/2", "3")
	exprOK(t, in, "7%3", "1")
	exprOK(t, in, "-5", "-5")
	exprOK(t, in, "- -5", "5")
	exprOK(t, in, "2+3*4", "14")
	exprOK(t, in, "(2+3)*4", "20")
	exprOK(t, in, "2 - 1 - 1", "0") // left associative
	exprOK(t, in, "8/2/2", "2")
	exprOK(t, in, "1 + 2 * 3 - 4 / 2 % 3", "5")
	exprOK(t, in, "1 << 2 + 1", "8")
	exprOK(t, in, "1 | 2 ^ 3 & 6", "1")
	exprOK(t, in, "1 < 2 == 1 && 0 || 1", "1")
	exprOK(t, in, "7.0/2", "3.5")
	exprOK(t, in, "1e2", "100.0")
	exprOK(t, in, "0x10", "16")
	exprErr(t, in, "1/0")
	exprErr(t, in, "5%0")
}

func TestExprComparisonsAndLogic(t *testing.T) {
	in := New()
	exprOK(t, in, "1 < 2", "1")
	exprOK(t, in, "2 <= 2", "1")
	exprOK(t, in, "3 > 4", "0")
	exprOK(t, in, "3 >= 3", "1")
	exprOK(t, in, "1 == 1.0", "1")
	exprOK(t, in, "1 != 2", "1")
	exprOK(t, in, "1 && 1", "1")
	exprOK(t, in, "1 && 0", "0")
	exprOK(t, in, "0 || 1", "1")
	exprOK(t, in, "!1", "0")
	exprOK(t, in, "!0", "1")
	// String comparison when either operand is non-numeric.
	exprOK(t, in, `"abc" < "abd"`, "1")
	exprOK(t, in, `"abc" == "abc"`, "1")
	exprOK(t, in, `"10" == "10.0"`, "1") // both numeric: numeric compare
}

func TestExprBitwise(t *testing.T) {
	in := New()
	exprOK(t, in, "1 << 4", "16")
	exprOK(t, in, "16 >> 2", "4")
	exprOK(t, in, "6 & 3", "2")
	exprOK(t, in, "6 | 3", "7")
	exprOK(t, in, "6 ^ 3", "5")
	exprOK(t, in, "~0", "-1")
	exprErr(t, in, "1.5 & 2")
}

func TestExprTernary(t *testing.T) {
	in := New()
	exprOK(t, in, "1 ? 10 : 20", "10")
	exprOK(t, in, "0 ? 10 : 20", "20")
	exprOK(t, in, "2 > 1 ? 5+5 : 0", "10")
	exprOK(t, in, "0 ? 1 : 0 ? 2 : 3", "3") // right associative
}

func TestExprVariablesAndCommands(t *testing.T) {
	in := New()
	evalOK(t, in, "set i 1")
	// The exact expression from the paper's discussion of if.
	got, err := in.EvalBool("$i<2")
	if err != nil || !got {
		t.Fatalf("$i<2 = %v, %v", got, err)
	}
	evalOK(t, in, "set x 10")
	exprOK(t, in, "$x * 2", "20")
	exprOK(t, in, "[llength {a b c}] + 1", "4")
	evalOK(t, in, `set s "hello"`)
	exprOK(t, in, `$s == "hello"`, "1")
}

func TestExprMathFunctions(t *testing.T) {
	in := New()
	exprOK(t, in, "sqrt(16)", "4.0")
	exprOK(t, in, "abs(-3)", "3")
	exprOK(t, in, "abs(-3.5)", "3.5")
	exprOK(t, in, "int(3.9)", "3")
	exprOK(t, in, "round(3.5)", "4")
	exprOK(t, in, "floor(3.9)", "3.0")
	exprOK(t, in, "ceil(3.1)", "4.0")
	exprOK(t, in, "pow(2, 10)", "1024.0")
	exprOK(t, in, "hypot(3, 4)", "5.0")
	exprOK(t, in, "double(2)", "2.0")
	exprOK(t, in, "fmod(7, 3)", "1.0")
}

func TestExprMathFuncErrors(t *testing.T) {
	in := New()
	exprErr(t, in, "nosuchfunc(1)")
	exprErr(t, in, "sqrt(-1)")
	exprErr(t, in, "sqrt()")
	exprErr(t, in, "sqrt(1, 2)")
	exprErr(t, in, "fmod(1, 0)")
}

func TestExprSyntaxErrors(t *testing.T) {
	in := New()
	exprErr(t, in, "")
	exprErr(t, in, "1 +")
	exprErr(t, in, "(1")
	exprErr(t, in, "1 ? 2")
	exprErr(t, in, "abc + 1")
}

func TestExprBooleanStrings(t *testing.T) {
	in := New()
	for _, s := range []string{"true", "yes", "on"} {
		got, err := in.EvalBool(fmt.Sprintf("%q", s))
		if err != nil || !got {
			t.Fatalf("EvalBool(%q) = %v, %v", s, got, err)
		}
	}
	for _, s := range []string{"false", "no", "off"} {
		got, err := in.EvalBool(fmt.Sprintf("%q", s))
		if err != nil || got {
			t.Fatalf("EvalBool(%q) = %v, %v", s, got, err)
		}
	}
}

// TestExprIntRoundTrip property: evaluating the decimal representation of
// any int64 pair under + yields the Go sum (when no overflow).
func TestExprIntRoundTrip(t *testing.T) {
	in := New()
	f := func(a, b int32) bool {
		want := int64(a) + int64(b)
		got, err := in.EvalExpr(fmt.Sprintf("%d + %d", a, b))
		return err == nil && got == strconv.FormatInt(want, 10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestExprComparisonTotalOrder property: for any pair of int32, exactly
// one of <, ==, > holds.
func TestExprComparisonTotalOrder(t *testing.T) {
	in := New()
	f := func(a, b int32) bool {
		lt, err1 := in.EvalExpr(fmt.Sprintf("%d < %d", a, b))
		eq, err2 := in.EvalExpr(fmt.Sprintf("%d == %d", a, b))
		gt, err3 := in.EvalExpr(fmt.Sprintf("%d > %d", a, b))
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		ones := 0
		for _, v := range []string{lt, eq, gt} {
			if v == "1" {
				ones++
			}
		}
		return ones == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestExprLazyEvaluation: the untaken ternary branch and the
// short-circuited side of &&/|| must not execute their side effects.
func TestExprLazyEvaluation(t *testing.T) {
	in := New()
	in.SetVar("a", "0")
	in.SetVar("b", "0")
	exprOK(t, in, `1 ? [incr a] : [incr b]`, "1")
	if v, _ := in.GetVar("a"); v != "1" {
		t.Fatalf("taken branch: a = %q", v)
	}
	if v, _ := in.GetVar("b"); v != "0" {
		t.Fatalf("untaken branch ran: b = %q", v)
	}
	exprOK(t, in, `0 ? [incr a] : [incr b]`, "1")
	if v, _ := in.GetVar("a"); v != "1" {
		t.Fatalf("untaken branch ran: a = %q", v)
	}
	if v, _ := in.GetVar("b"); v != "1" {
		t.Fatalf("taken branch: b = %q", v)
	}
	// Short-circuit &&.
	in.SetVar("c", "0")
	exprOK(t, in, `0 && [incr c]`, "0")
	if v, _ := in.GetVar("c"); v != "0" {
		t.Fatalf("&& rhs ran: c = %q", v)
	}
	exprOK(t, in, `1 || [incr c]`, "1")
	if v, _ := in.GetVar("c"); v != "0" {
		t.Fatalf("|| rhs ran: c = %q", v)
	}
	exprOK(t, in, `1 && [incr c]`, "1")
	if v, _ := in.GetVar("c"); v != "1" {
		t.Fatalf("needed && rhs did not run: c = %q", v)
	}
	// The untaken branch may reference undefined variables and divide by
	// zero without erroring, but its syntax is still checked.
	exprOK(t, in, `1 ? 5 : $nosuchvar`, "5")
	exprOK(t, in, `1 ? 5 : 1/0`, "5")
	exprOK(t, in, `1 ? 5 : sqrt(-1)`, "5")
	exprErr(t, in, `1 ? 5 : nosuchfunc(1)`)
	exprErr(t, in, `1 ? 5 : (`)
	// Nested ternaries with skipping.
	exprOK(t, in, `0 ? (1 ? 10 : 20) : (0 ? 30 : 40)`, "40")
	// Quoted operand in a skipped branch.
	exprOK(t, in, `1 ? 7 : "no [nosuchcmd] here"`, "7")
}

// TestExprDeepNesting: an expression nested past the interpreter's
// maxNesting — by parentheses, a unary minus chain, ?: branches or
// function arguments, alone or under a chain of recursive procs — is a
// Tcl error, never a Go stack overflow, and leaves the interpreter's
// nesting depth where it found it.
func TestExprDeepNesting(t *testing.T) {
	const n = 200000
	in := New()
	for _, tc := range []struct{ name, expr string }{
		{"parentheses", strings.Repeat("(", n) + "1" + strings.Repeat(")", n)},
		{"unary minus", strings.Repeat("-", n) + "1"},
		{"ternary", strings.Repeat("1?1:", n) + "1"},
		{"function", strings.Repeat("abs(", n) + "1" + strings.Repeat(")", n)},
	} {
		if _, err := in.Eval("expr {" + tc.expr + "}"); err == nil || !strings.Contains(err.Error(), "nested too deeply") {
			t.Errorf("%s: err = %v, want a nesting error", tc.name, err)
		}
		if in.nesting != 0 {
			t.Fatalf("%s: nesting depth %d after the error, want 0", tc.name, in.nesting)
		}
	}
	// Each proc level nests 900 parentheses around the next call: no
	// single expression passes the bound, the chain as a whole does.
	if _, err := in.Eval(`proc f {n} {expr {$n <= 0 ? 0 : ` + strings.Repeat("(", 900) + `[f [expr {$n-1}]]` + strings.Repeat(")", 900) + `}}`); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Eval("f 1000"); err == nil {
		t.Errorf("proc chain: nested 900000 levels without error")
	}
	// Within the bound, nesting still evaluates.
	exprOK(t, in, strings.Repeat("(", 300)+"7"+strings.Repeat(")", 300), "7")
	exprOK(t, in, strings.Repeat("-", 301)+"7", "-7")
	exprOK(t, in, strings.Repeat("abs(", 100)+"-7"+strings.Repeat(")", 100), "7")
	if _, err := in.Eval("f 0"); err != nil {
		t.Errorf("f 0: %v", err)
	}
}
