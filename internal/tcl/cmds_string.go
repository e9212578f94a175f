package tcl

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// registerString installs string, format and scan.
func registerString(in *Interp) {
	in.Register("string", cmdString)
	in.Register("format", cmdFormat)
	in.Register("scan", cmdScan)
}

// GlobMatch reports whether s matches the glob pattern pat using Tcl's
// "string match" rules: * matches any sequence, ? any single character,
// [chars] a set or range, and backslash escapes the next character.
func GlobMatch(pat, s string) bool { return globMatch(pat, s) == globMatched }

// globResult is globMatch's verdict. globAbort means s ran out before
// pat did: no suffix of s can match the rest of pat either, so an
// enclosing * need not try its remaining positions (wildmat's early
// exit). Without it every * retries every position under every later
// one, and a pattern of k stars costs len(s)^k.
type globResult int8

const (
	globNoMatch globResult = iota
	globMatched
	globAbort
)

func globMatch(pat, s string) globResult {
	p, n := 0, 0
	for p < len(pat) {
		switch pat[p] {
		case '*':
			// Collapse consecutive stars.
			for p < len(pat) && pat[p] == '*' {
				p++
			}
			if p == len(pat) {
				return globMatched
			}
			for i := n; i <= len(s); i++ {
				if r := globMatch(pat[p:], s[i:]); r != globNoMatch {
					return r
				}
			}
			return globAbort
		case '?':
			if n >= len(s) {
				return globAbort
			}
			p++
			n++
		case '[':
			if n >= len(s) {
				return globAbort
			}
			p++
			matched := false
			c := s[n]
			for p < len(pat) && pat[p] != ']' {
				lo := pat[p]
				if lo == '\\' && p+1 < len(pat) {
					p++
					lo = pat[p]
				}
				hi := lo
				if p+2 < len(pat) && pat[p+1] == '-' && pat[p+2] != ']' {
					hi = pat[p+2]
					p += 2
				}
				if c >= lo && c <= hi {
					matched = true
				}
				p++
			}
			if p < len(pat) {
				p++ // consume ']'
			}
			if !matched {
				return globNoMatch
			}
			n++
		case '\\':
			p++
			if p >= len(pat) {
				switch {
				case n >= len(s):
					return globAbort
				case s[n] == '\\':
					return globMatched
				}
				return globNoMatch
			}
			fallthrough
		default:
			if n >= len(s) {
				return globAbort
			}
			if s[n] != pat[p] {
				return globNoMatch
			}
			p++
			n++
		}
	}
	if n == len(s) {
		return globMatched
	}
	return globNoMatch
}

func cmdString(in *Interp, args []string) (string, error) {
	if len(args) < 3 {
		return "", errf(`wrong # args: should be "string option arg ?arg ...?"`)
	}
	op := args[1]
	switch op {
	case "compare":
		if len(args) != 4 {
			return "", errf(`wrong # args: should be "string compare string1 string2"`)
		}
		return strconv.Itoa(strings.Compare(args[2], args[3])), nil
	case "equal":
		if len(args) != 4 {
			return "", errf(`wrong # args: should be "string equal string1 string2"`)
		}
		if args[2] == args[3] {
			return "1", nil
		}
		return "0", nil
	case "first":
		if len(args) != 4 {
			return "", errf(`wrong # args: should be "string first string1 string2"`)
		}
		return strconv.Itoa(strings.Index(args[3], args[2])), nil
	case "last":
		if len(args) != 4 {
			return "", errf(`wrong # args: should be "string last string1 string2"`)
		}
		return strconv.Itoa(strings.LastIndex(args[3], args[2])), nil
	case "index":
		if len(args) != 4 {
			return "", errf(`wrong # args: should be "string index string charIndex"`)
		}
		i, err := listIndex(args[3], len(args[2]))
		if err != nil {
			return "", err
		}
		if i < 0 || i >= len(args[2]) {
			return "", nil
		}
		return string(args[2][i]), nil
	case "length":
		if len(args) != 3 {
			return "", errf(`wrong # args: should be "string length string"`)
		}
		return strconv.Itoa(len(args[2])), nil
	case "match":
		if len(args) != 4 {
			return "", errf(`wrong # args: should be "string match pattern string"`)
		}
		if GlobMatch(args[2], args[3]) {
			return "1", nil
		}
		return "0", nil
	case "range":
		if len(args) != 5 {
			return "", errf(`wrong # args: should be "string range string first last"`)
		}
		s := args[2]
		first, err := listIndex(args[3], len(s))
		if err != nil {
			return "", err
		}
		last, err := listIndex(args[4], len(s))
		if err != nil {
			return "", err
		}
		if first < 0 {
			first = 0
		}
		if last >= len(s) {
			last = len(s) - 1
		}
		if first > last {
			return "", nil
		}
		return s[first : last+1], nil
	case "repeat":
		if len(args) != 4 {
			return "", errf(`wrong # args: should be "string repeat string count"`)
		}
		n, err := strconv.Atoi(args[3])
		if err != nil || n < 0 {
			return "", errf("bad count %q", args[3])
		}
		return strings.Repeat(args[2], n), nil
	case "tolower":
		return strings.ToLower(args[2]), nil
	case "toupper":
		return strings.ToUpper(args[2]), nil
	case "trim":
		return trimCmd(args, strings.Trim)
	case "trimleft":
		return trimCmd(args, strings.TrimLeft)
	case "trimright":
		return trimCmd(args, strings.TrimRight)
	case "reverse":
		r := []rune(args[2])
		for i, j := 0, len(r)-1; i < j; i, j = i+1, j-1 {
			r[i], r[j] = r[j], r[i]
		}
		return string(r), nil
	case "wordend":
		if len(args) != 4 {
			return "", errf(`wrong # args: should be "string wordend string index"`)
		}
		s := args[2]
		i, err := strconv.Atoi(args[3])
		if err != nil {
			return "", errf("bad index %q", args[3])
		}
		if i < 0 {
			i = 0
		}
		if i >= len(s) {
			return strconv.Itoa(len(s)), nil
		}
		if isWordChar(s[i]) {
			for i < len(s) && isWordChar(s[i]) {
				i++
			}
		} else {
			i++
		}
		return strconv.Itoa(i), nil
	case "wordstart":
		if len(args) != 4 {
			return "", errf(`wrong # args: should be "string wordstart string index"`)
		}
		s := args[2]
		i, err := strconv.Atoi(args[3])
		if err != nil {
			return "", errf("bad index %q", args[3])
		}
		if i >= len(s) {
			i = len(s) - 1
		}
		if i < 0 {
			return "0", nil
		}
		if isWordChar(s[i]) {
			for i > 0 && isWordChar(s[i-1]) {
				i--
			}
		}
		return strconv.Itoa(i), nil
	}
	return "", errf("bad option %q: should be compare, equal, first, index, last, length, match, range, repeat, reverse, tolower, toupper, trim, trimleft, trimright, wordend, or wordstart", op)
}

func isWordChar(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

func trimCmd(args []string, fn func(string, string) string) (string, error) {
	chars := " \t\n\r\v\f"
	if len(args) > 4 {
		return "", errf(`wrong # args: should be "string %s string ?chars?"`, args[1])
	}
	if len(args) == 4 {
		chars = args[3]
	}
	return fn(args[2], chars), nil
}

// cmdFormat implements the C-printf-like format command by translating
// each directive to the corresponding Go verb with a correctly typed
// argument.
func cmdFormat(in *Interp, args []string) (string, error) {
	if len(args) < 2 {
		return "", errf(`wrong # args: should be "format formatString ?arg ...?"`)
	}
	spec := args[1]
	rest := args[2:]
	var b strings.Builder
	ai := 0
	nextArg := func() (string, error) {
		if ai >= len(rest) {
			return "", errf("not enough arguments for all format specifiers")
		}
		a := rest[ai]
		ai++
		return a, nil
	}
	i := 0
	for i < len(spec) {
		c := spec[i]
		if c != '%' {
			b.WriteByte(c)
			i++
			continue
		}
		i++
		if i >= len(spec) {
			return "", errf(`format string ended in middle of field specifier`)
		}
		if spec[i] == '%' {
			b.WriteByte('%')
			i++
			continue
		}
		start := i
		// Flags.
		for i < len(spec) && strings.IndexByte("-+ 0#", spec[i]) >= 0 {
			i++
		}
		// Width (possibly '*').
		width := ""
		if i < len(spec) && spec[i] == '*' {
			a, err := nextArg()
			if err != nil {
				return "", err
			}
			w, err2 := strconv.Atoi(strings.TrimSpace(a))
			if err2 != nil {
				return "", errf("expected integer but got %q", a)
			}
			width = strconv.Itoa(w)
			i++
		} else {
			for i < len(spec) && isDigit(spec[i]) {
				i++
			}
		}
		// Precision.
		prec := ""
		if i < len(spec) && spec[i] == '.' {
			i++
			if i < len(spec) && spec[i] == '*' {
				a, err := nextArg()
				if err != nil {
					return "", err
				}
				p, err2 := strconv.Atoi(strings.TrimSpace(a))
				if err2 != nil {
					return "", errf("expected integer but got %q", a)
				}
				prec = "." + strconv.Itoa(p)
				i++
			} else {
				ps := i
				for i < len(spec) && isDigit(spec[i]) {
					i++
				}
				prec = "." + spec[ps:i]
			}
		}
		// Length modifiers are accepted and ignored (h, l).
		for i < len(spec) && (spec[i] == 'h' || spec[i] == 'l') {
			i++
		}
		if i >= len(spec) {
			return "", errf("format string ended in middle of field specifier")
		}
		verb := spec[i]
		i++
		flagsAndWidth := spec[start:]
		// Rebuild the Go directive from the pieces we parsed.
		flags := ""
		for _, fc := range flagsAndWidth {
			if strings.ContainsRune("-+ 0#", fc) {
				flags += string(fc)
			} else {
				break
			}
		}
		if width == "" {
			ws := start + len(flags)
			we := ws
			for we < len(spec) && isDigit(spec[we]) {
				we++
			}
			width = spec[ws:we]
		}
		goDirective := "%" + flags + width + prec
		a, err := nextArg()
		if err != nil {
			return "", err
		}
		switch verb {
		case 'd', 'i', 'o', 'x', 'X', 'u':
			n, err := strconv.ParseInt(strings.TrimSpace(a), 0, 64)
			if err != nil {
				if f, ferr := strconv.ParseFloat(strings.TrimSpace(a), 64); ferr == nil {
					n = int64(f)
				} else {
					return "", errf("expected integer but got %q", a)
				}
			}
			v := verb
			if v == 'i' || v == 'u' {
				v = 'd'
			}
			fmt.Fprintf(&b, goDirective+string(v), n)
		case 'c':
			n, err := strconv.ParseInt(strings.TrimSpace(a), 0, 64)
			if err != nil {
				return "", errf("expected integer but got %q", a)
			}
			fmt.Fprintf(&b, goDirective+"c", rune(n))
		case 'f', 'e', 'E', 'g', 'G':
			f, err := strconv.ParseFloat(strings.TrimSpace(a), 64)
			if err != nil {
				return "", errf("expected floating-point number but got %q", a)
			}
			fmt.Fprintf(&b, goDirective+string(verb), f)
		case 's':
			fmt.Fprintf(&b, goDirective+"s", a)
		default:
			return "", errf("bad field specifier %q", string(verb))
		}
	}
	return b.String(), nil
}

// cmdScan implements a subset of sscanf: %d, %o, %x, %f/%e/%g, %s, %c and
// literal matching. It returns the number of conversions performed.
func cmdScan(in *Interp, args []string) (string, error) {
	if len(args) < 3 {
		return "", errf(`wrong # args: should be "scan string formatString varName ?varName ...?"`)
	}
	input, spec := args[1], args[2]
	vars := args[3:]
	vi := 0
	si := 0
	conversions := 0
	skipSpace := func() {
		for si < len(input) && (input[si] == ' ' || input[si] == '\t' || input[si] == '\n') {
			si++
		}
	}
	store := func(val string) error {
		if vi >= len(vars) {
			return errf("not enough variables for all conversions")
		}
		_, err := in.SetVar(vars[vi], val)
		vi++
		return err
	}
	i := 0
	for i < len(spec) {
		c := spec[i]
		if c == ' ' || c == '\t' || c == '\n' {
			skipSpace()
			i++
			continue
		}
		if c != '%' {
			if si < len(input) && input[si] == c {
				si++
				i++
				continue
			}
			break
		}
		i++
		if i >= len(spec) {
			break
		}
		// Optional maximum field width.
		maxW := -1
		ws := i
		for i < len(spec) && isDigit(spec[i]) {
			i++
		}
		if i > ws {
			maxW, _ = strconv.Atoi(spec[ws:i])
		}
		if i >= len(spec) {
			break
		}
		verb := spec[i]
		i++
		switch verb {
		case 'd', 'o', 'x':
			skipSpace()
			start := si
			if si < len(input) && (input[si] == '-' || input[si] == '+') {
				si++
			}
			valid := func(b byte) bool {
				switch verb {
				case 'o':
					return b >= '0' && b <= '7'
				case 'x':
					return isHex(b)
				default:
					return isDigit(b)
				}
			}
			for si < len(input) && valid(input[si]) && (maxW < 0 || si-start < maxW) {
				si++
			}
			if si == start {
				return strconv.Itoa(conversions), nil
			}
			base := 10
			if verb == 'o' {
				base = 8
			} else if verb == 'x' {
				base = 16
			}
			n, err := strconv.ParseInt(input[start:si], base, 64)
			if err != nil {
				return strconv.Itoa(conversions), nil
			}
			if err := store(strconv.FormatInt(n, 10)); err != nil {
				return "", err
			}
			conversions++
		case 'f', 'e', 'g':
			skipSpace()
			start := si
			for si < len(input) && strings.IndexByte("+-0123456789.eE", input[si]) >= 0 && (maxW < 0 || si-start < maxW) {
				si++
			}
			f, err := strconv.ParseFloat(input[start:si], 64)
			if err != nil {
				return strconv.Itoa(conversions), nil
			}
			if err := store(formatFloat(f)); err != nil {
				return "", err
			}
			conversions++
		case 's':
			skipSpace()
			start := si
			for si < len(input) && input[si] != ' ' && input[si] != '\t' && input[si] != '\n' && (maxW < 0 || si-start < maxW) {
				si++
			}
			if si == start {
				return strconv.Itoa(conversions), nil
			}
			if err := store(input[start:si]); err != nil {
				return "", err
			}
			conversions++
		case 'c':
			if si >= len(input) {
				return strconv.Itoa(conversions), nil
			}
			if err := store(strconv.Itoa(int(input[si]))); err != nil {
				return "", err
			}
			si++
			conversions++
		case '%':
			if si < len(input) && input[si] == '%' {
				si++
			}
		default:
			return "", errf("bad scan conversion character %q", string(verb))
		}
	}
	return strconv.Itoa(conversions), nil
}
