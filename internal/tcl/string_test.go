package tcl

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestStringSubcommands(t *testing.T) {
	in := New()
	expect(t, in, "string length hello", "5")
	expect(t, in, "string length {}", "0")
	expect(t, in, "string index hello 1", "e")
	expect(t, in, "string index hello end", "o")
	expect(t, in, "string index hello 99", "")
	expect(t, in, "string range hello 1 3", "ell")
	expect(t, in, "string range hello 0 end", "hello")
	expect(t, in, "string compare abc abd", "-1")
	expect(t, in, "string compare abc abc", "0")
	expect(t, in, "string compare abd abc", "1")
	expect(t, in, "string equal a a", "1")
	expect(t, in, "string equal a b", "0")
	expect(t, in, "string first ll hello", "2")
	expect(t, in, "string first zz hello", "-1")
	expect(t, in, "string last l hello", "3")
	expect(t, in, "string tolower HeLLo", "hello")
	expect(t, in, "string toupper HeLLo", "HELLO")
	expect(t, in, "string trim {  spaced  }", "spaced")
	expect(t, in, "string trimleft xxabcxx x", "abcxx")
	expect(t, in, "string trimright xxabcxx x", "xxabc")
	expect(t, in, "string repeat ab 3", "ababab")
	expect(t, in, "string reverse abc", "cba")
	expect(t, in, "string wordend {hello world} 0", "5")
	expect(t, in, "string wordstart {hello world} 8", "6")
	evalErr(t, in, "string nosuch x", "bad option")
}

func TestStringMatch(t *testing.T) {
	in := New()
	cases := []struct {
		pat, s string
		want   string
	}{
		{"*", "anything", "1"},
		{"*", "", "1"},
		{"a*c", "abc", "1"},
		{"a*c", "ac", "1"},
		{"a*c", "abd", "0"},
		{"?", "x", "1"},
		{"?", "", "0"},
		{"a?c", "abc", "1"},
		{"[a-c]x", "bx", "1"},
		{"[a-c]x", "dx", "0"},
		{"[abc]", "b", "1"},
		{"\\*", "*", "1"},
		{"\\*", "x", "0"},
		{"a**b", "ab", "1"},
		{"*.tcl", "main.tcl", "1"},
		{"*.tcl", "main.go", "0"},
		{"*a*b*", "xaybz", "1"},
		{"*a?c*", "zzabcz", "1"},
		{"*a*b", "abba", "0"},
		// Twelve stars over sixty characters: rejected without trying
		// every star position under every other (about 60^12 steps).
		{strings.Repeat("*a", 12) + "*b", strings.Repeat("a", 60), "0"},
		{strings.Repeat("*a", 12) + "*", strings.Repeat("a", 60), "1"},
	}
	for _, c := range cases {
		got := evalOK(t, in, "string match {"+c.pat+"} {"+c.s+"}")
		if got != c.want {
			t.Errorf("string match %q %q = %s, want %s", c.pat, c.s, got, c.want)
		}
	}
}

// Property: a string always matches itself when it has no pattern
// metacharacters, and "*" matches everything.
func TestGlobMatchProperties(t *testing.T) {
	literal := func(s string) bool {
		for _, c := range s {
			switch c {
			case '*', '?', '[', ']', '\\':
				return true // skip strings with metacharacters
			}
		}
		return GlobMatch(s, s) && GlobMatch("*", s)
	}
	if err := quick.Check(literal, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFormatCommand(t *testing.T) {
	in := New()
	expect(t, in, `format "x is %s" 42`, "x is 42")
	expect(t, in, `format %d 42`, "42")
	expect(t, in, `format %5d 42`, "   42")
	expect(t, in, `format %-5d| 42`, "42   |")
	expect(t, in, `format %05d 42`, "00042")
	expect(t, in, `format %x 255`, "ff")
	expect(t, in, `format %X 255`, "FF")
	expect(t, in, `format %o 8`, "10")
	expect(t, in, `format %c 65`, "A")
	expect(t, in, `format %.2f 3.14159`, "3.14")
	expect(t, in, `format %e 12345.678 `, "1.234568e+04")
	expect(t, in, `format %g 0.0001`, "0.0001")
	expect(t, in, `format "100%%"`, "100%")
	expect(t, in, `format "%s and %s" a b`, "a and b")
	expect(t, in, `format %*d 6 42`, "    42")
	expect(t, in, `format %.*f 1 3.999`, "4.0")
	evalErr(t, in, `format %d notanumber`, "expected integer")
	evalErr(t, in, `format "%s %s" onlyone`, "not enough arguments")
	evalErr(t, in, `format %q x`, "bad field specifier")
}

func TestScanCommand(t *testing.T) {
	in := New()
	expect(t, in, `scan "42 hello" "%d %s" a b`, "2")
	expect(t, in, "set a", "42")
	expect(t, in, "set b", "hello")
	expect(t, in, `scan "3.5" %f f`, "1")
	expect(t, in, "set f", "3.5")
	expect(t, in, `scan "ff" %x h`, "1")
	expect(t, in, "set h", "255")
	expect(t, in, `scan "17" %o o`, "1")
	expect(t, in, "set o", "15")
	expect(t, in, `scan "A" %c c`, "1")
	expect(t, in, "set c", "65")
	expect(t, in, `scan "xyz" %d nope`, "0")
	// Width-limited conversion.
	expect(t, in, `scan "12345" %2d two`, "1")
	expect(t, in, "set two", "12")
}
