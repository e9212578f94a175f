package tcl

import (
	"math"
	"strconv"
	"strings"
)

// The expression evaluator implements Tcl's expr sub-language: C-like
// operators and precedence over integers, floating-point numbers and
// strings, with $variable and [command] substitution performed on
// operands (so that "if {$i < 2} ..." works on the unsubstituted braced
// argument, as in real Tcl).

type valKind int

const (
	intVal valKind = iota
	floatVal
	strVal
)

type exprVal struct {
	kind valKind
	i    int64
	f    float64
	s    string
}

func intValue(i int64) exprVal     { return exprVal{kind: intVal, i: i} }
func floatValue(f float64) exprVal { return exprVal{kind: floatVal, f: f} }
func strValue(s string) exprVal    { return exprVal{kind: strVal, s: s} }

func (v exprVal) String() string {
	switch v.kind {
	case intVal:
		return strconv.FormatInt(v.i, 10)
	case floatVal:
		return formatFloat(v.f)
	default:
		return v.s
	}
}

// formatFloat renders a float the way Tcl's default precision does.
func formatFloat(f float64) string {
	if math.IsInf(f, 1) {
		return "Inf"
	}
	if math.IsInf(f, -1) {
		return "-Inf"
	}
	s := strconv.FormatFloat(f, 'g', 12, 64)
	// Guarantee the result re-parses as a float, not an integer.
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

func (v exprVal) isNumeric() bool { return v.kind == intVal || v.kind == floatVal }

func (v exprVal) asFloat() float64 {
	if v.kind == intVal {
		return float64(v.i)
	}
	return v.f
}

// truth interprets a value as a boolean condition.
func (v exprVal) truth() (bool, error) {
	switch v.kind {
	case intVal:
		return v.i != 0, nil
	case floatVal:
		return v.f != 0, nil
	default:
		switch strings.ToLower(v.s) {
		case "true", "yes", "on", "1":
			return true, nil
		case "false", "no", "off", "0":
			return false, nil
		}
		if n, ok := parseNumber(v.s); ok {
			return n.truth()
		}
		return false, errf("expected boolean value but got %q", v.s)
	}
}

// parseNumber attempts to read s as a Tcl integer (decimal, 0x hex, 0
// octal) or float. Whitespace is trimmed first.
func parseNumber(s string) (exprVal, bool) {
	t := strings.TrimSpace(s)
	if t == "" {
		return exprVal{}, false
	}
	if i, err := strconv.ParseInt(t, 0, 64); err == nil {
		return intValue(i), true
	}
	if f, err := strconv.ParseFloat(t, 64); err == nil {
		return floatValue(f), true
	}
	return exprVal{}, false
}

// EvalExpr evaluates a Tcl expression and returns its string value.
func (in *Interp) EvalExpr(expr string) (string, error) {
	v, err := in.exprValue(expr)
	if err != nil {
		return "", err
	}
	return v.String(), nil
}

// EvalBool evaluates a Tcl expression as a condition.
func (in *Interp) EvalBool(expr string) (bool, error) {
	v, err := in.exprValue(expr)
	if err != nil {
		return false, err
	}
	return v.truth()
}

func (in *Interp) exprValue(expr string) (exprVal, error) {
	ep := &exprParser{in: in, src: expr}
	v, err := ep.parseTernary()
	if err != nil {
		return exprVal{}, err
	}
	ep.skipSpace()
	if !ep.eof() {
		return exprVal{}, errf("syntax error in expression %q", expr)
	}
	return v, nil
}

type exprParser struct {
	in  *Interp
	src string
	pos int
	// skip > 0 while parsing a branch whose value is not needed (the
	// untaken arm of ?: or the short-circuited side of &&/||): operands
	// are scanned but not evaluated, so side effects do not occur — the
	// lazy-evaluation semantics of Tcl's expr.
	skip int
}

// scanVarRef advances past a $variable reference without evaluating it.
func (e *exprParser) scanVarRef() error {
	e.pos++ // '$'
	if e.pos >= len(e.src) {
		return nil
	}
	if e.src[e.pos] == '{' {
		end := strings.IndexByte(e.src[e.pos:], '}')
		if end < 0 {
			return errf("missing close-brace for variable name")
		}
		e.pos += end + 1
		return nil
	}
	for e.pos < len(e.src) && isVarNameChar(e.src[e.pos]) {
		e.pos++
	}
	if e.pos < len(e.src) && e.src[e.pos] == '(' {
		depth := 0
		for e.pos < len(e.src) {
			switch e.src[e.pos] {
			case '\\':
				e.pos++
			case '(':
				depth++
			case ')':
				depth--
				if depth == 0 {
					e.pos++
					return nil
				}
			case '[':
				if err := e.scanBracket(); err != nil {
					return err
				}
				continue
			}
			e.pos++
		}
		return errf("missing )")
	}
	return nil
}

// scanBracket advances past a [command] without evaluating it.
func (e *exprParser) scanBracket() error {
	var c closes
	end, err := c.match(e.src, e.pos)
	if err != nil {
		return err
	}
	e.pos = end + 1
	return nil
}

func (e *exprParser) eof() bool { return e.pos >= len(e.src) }

func (e *exprParser) skipSpace() {
	for !e.eof() {
		c := e.src[e.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			e.pos++
			continue
		}
		break
	}
}

func (e *exprParser) peekOp() string {
	e.skipSpace()
	if e.eof() {
		return ""
	}
	rest := e.src[e.pos:]
	for _, op := range [...]string{"<<", ">>", "<=", ">=", "==", "!=", "&&", "||"} {
		if strings.HasPrefix(rest, op) {
			return op
		}
	}
	c := rest[0]
	switch c {
	case '+', '-', '*', '/', '%', '<', '>', '&', '|', '^', '?', ':', '!', '~':
		return string(c)
	}
	return ""
}

func (e *exprParser) takeOp(op string) { e.pos += len(op) }

// enter descends one level of expression nesting: a parenthesis, a
// function argument, a ?: branch or a unary operator. The levels count
// against the interpreter's nesting depth, the one Eval bounds by
// maxNesting, so an expression nested arbitrarily deep — alone or
// inside a deep chain of procs and substitutions — is a Tcl error
// rather than a Go stack overflow. Each nil return is paired with
// e.in.nesting--.
func (e *exprParser) enter() error {
	if e.in.nesting >= e.in.maxNesting {
		return errf("expression nested too deeply")
	}
	e.in.nesting++
	return nil
}

// parseTernary handles cond ? a : b (lowest precedence).
func (e *exprParser) parseTernary() (exprVal, error) {
	if err := e.enter(); err != nil {
		return exprVal{}, err
	}
	defer func() { e.in.nesting-- }()
	cond, err := e.parseBinary(0)
	if err != nil {
		return exprVal{}, err
	}
	if e.peekOp() != "?" {
		return cond, nil
	}
	e.takeOp("?")
	b := false
	if e.skip == 0 {
		var err error
		if b, err = cond.truth(); err != nil {
			return exprVal{}, err
		}
	}
	// Both branches are parsed, but only the selected one is evaluated;
	// the other is scanned in skip mode so its side effects never occur.
	if !b {
		e.skip++
	}
	left, err := e.parseTernary()
	if !b {
		e.skip--
	}
	if err != nil {
		return exprVal{}, err
	}
	e.skipSpace()
	if e.peekOp() != ":" {
		return exprVal{}, errf("missing ':' in ternary expression")
	}
	e.takeOp(":")
	if b {
		e.skip++
	}
	right, err := e.parseTernary()
	if b {
		e.skip--
	}
	if err != nil {
		return exprVal{}, err
	}
	if b {
		return left, nil
	}
	return right, nil
}

// binLevels lists the binary operators by precedence, loosest first.
var binLevels = [][]string{
	{"||"},
	{"&&"},
	{"|"},
	{"^"},
	{"&"},
	{"==", "!="},
	{"<", ">", "<=", ">="},
	{"<<", ">>"},
	{"+", "-"},
	{"*", "/", "%"},
}

// binLevel returns op's index in binLevels, or -1 when op is not a
// binary operator.
func binLevel(op string) int {
	for level, ops := range binLevels {
		for _, cand := range ops {
			if op == cand {
				return level
			}
		}
	}
	return -1
}

// parseBinary parses operands joined by binary operators of precedence
// minLevel or tighter, by precedence climbing: each operator's right
// operand is parsed at the next tighter level, so operators of equal
// precedence associate to the left. An operand costs one call, not
// one per precedence level, which keeps deeply parenthesized
// expressions shallow on the Go stack.
func (e *exprParser) parseBinary(minLevel int) (exprVal, error) {
	left, err := e.parseUnary()
	if err != nil {
		return exprVal{}, err
	}
	for {
		op := e.peekOp()
		level := binLevel(op)
		if level < minLevel {
			return left, nil
		}
		e.takeOp(op)

		// Lazy evaluation for && and ||: when the left operand decides
		// the result, the right side is scanned without evaluation.
		if op == "&&" || op == "||" {
			if e.skip > 0 {
				if _, err := e.parseBinary(level + 1); err != nil {
					return exprVal{}, err
				}
				continue
			}
			lb, err := left.truth()
			if err != nil {
				return exprVal{}, err
			}
			decided := (op == "&&" && !lb) || (op == "||" && lb)
			if decided {
				e.skip++
			}
			right, err := e.parseBinary(level + 1)
			if decided {
				e.skip--
			}
			if err != nil {
				return exprVal{}, err
			}
			if decided {
				left = boolValue(lb)
				continue
			}
			rb, err := right.truth()
			if err != nil {
				return exprVal{}, err
			}
			left = boolValue(rb)
			continue
		}

		right, err := e.parseBinary(level + 1)
		if err != nil {
			return exprVal{}, err
		}
		if e.skip > 0 {
			left = intValue(0)
			continue
		}
		left, err = applyBinary(op, left, right)
		if err != nil {
			return exprVal{}, err
		}
	}
}

func boolValue(b bool) exprVal {
	if b {
		return intValue(1)
	}
	return intValue(0)
}

func applyBinary(op string, l, r exprVal) (exprVal, error) {
	switch op {
	case "==", "!=", "<", ">", "<=", ">=":
		return compareVals(op, l, r)
	}
	// The remaining operators are numeric.
	ln, lok := coerceNumber(l)
	rn, rok := coerceNumber(r)
	if !lok || !rok {
		bad := l
		if lok {
			bad = r
		}
		return exprVal{}, errf("can't use non-numeric string %q as operand of %q", bad.String(), op)
	}
	bothInt := ln.kind == intVal && rn.kind == intVal
	switch op {
	case "+":
		if bothInt {
			return intValue(ln.i + rn.i), nil
		}
		return floatValue(ln.asFloat() + rn.asFloat()), nil
	case "-":
		if bothInt {
			return intValue(ln.i - rn.i), nil
		}
		return floatValue(ln.asFloat() - rn.asFloat()), nil
	case "*":
		if bothInt {
			return intValue(ln.i * rn.i), nil
		}
		return floatValue(ln.asFloat() * rn.asFloat()), nil
	case "/":
		if bothInt {
			if rn.i == 0 {
				return exprVal{}, errf("divide by zero")
			}
			return intValue(ln.i / rn.i), nil
		}
		if rn.asFloat() == 0 {
			return exprVal{}, errf("divide by zero")
		}
		return floatValue(ln.asFloat() / rn.asFloat()), nil
	case "%":
		if !bothInt {
			return exprVal{}, errf("can't use floating-point value as operand of %q", "%")
		}
		if rn.i == 0 {
			return exprVal{}, errf("divide by zero")
		}
		return intValue(ln.i % rn.i), nil
	case "<<", ">>", "&", "|", "^":
		if !bothInt {
			return exprVal{}, errf("can't use floating-point value as operand of %q", op)
		}
		switch op {
		case "<<":
			return intValue(ln.i << uint(rn.i&63)), nil
		case ">>":
			return intValue(ln.i >> uint(rn.i&63)), nil
		case "&":
			return intValue(ln.i & rn.i), nil
		case "|":
			return intValue(ln.i | rn.i), nil
		default:
			return intValue(ln.i ^ rn.i), nil
		}
	}
	return exprVal{}, errf("unknown operator %q", op)
}

// coerceNumber converts a string value to numeric when possible.
func coerceNumber(v exprVal) (exprVal, bool) {
	if v.isNumeric() {
		return v, true
	}
	return parseNumber(v.s)
}

// compareVals compares numerically when both operands are numeric,
// otherwise as strings (Tcl semantics).
func compareVals(op string, l, r exprVal) (exprVal, error) {
	ln, lok := coerceNumber(l)
	rn, rok := coerceNumber(r)
	var c int
	if lok && rok {
		lf, rf := ln.asFloat(), rn.asFloat()
		switch {
		case lf < rf:
			c = -1
		case lf > rf:
			c = 1
		}
	} else {
		c = strings.Compare(l.String(), r.String())
	}
	switch op {
	case "==":
		return boolValue(c == 0), nil
	case "!=":
		return boolValue(c != 0), nil
	case "<":
		return boolValue(c < 0), nil
	case ">":
		return boolValue(c > 0), nil
	case "<=":
		return boolValue(c <= 0), nil
	default:
		return boolValue(c >= 0), nil
	}
}

func (e *exprParser) parseUnary() (exprVal, error) {
	e.skipSpace()
	if e.eof() {
		return exprVal{}, errf("premature end of expression")
	}
	op := e.src[e.pos]
	if op != '-' && op != '+' && op != '!' && op != '~' {
		return e.parsePrimary()
	}
	e.pos++
	if err := e.enter(); err != nil {
		return exprVal{}, err
	}
	v, err := e.parseUnary()
	e.in.nesting--
	if err != nil {
		return exprVal{}, err
	}
	if e.skip > 0 {
		return intValue(0), nil
	}
	switch op {
	case '!':
		b, err := v.truth()
		if err != nil {
			return exprVal{}, err
		}
		return boolValue(!b), nil
	case '~':
		n, ok := coerceNumber(v)
		if !ok || n.kind != intVal {
			return exprVal{}, errf("can't use non-integer value as operand of %q", "~")
		}
		return intValue(^n.i), nil
	}
	n, ok := coerceNumber(v)
	if !ok {
		return exprVal{}, errf("can't use non-numeric string %q as operand of %q", v.String(), string(op))
	}
	if op == '+' {
		return n, nil
	}
	if n.kind == intVal {
		return intValue(-n.i), nil
	}
	return floatValue(-n.f), nil
}

func (e *exprParser) parsePrimary() (exprVal, error) {
	e.skipSpace()
	if e.eof() {
		return exprVal{}, errf("premature end of expression")
	}
	c := e.src[e.pos]
	switch {
	case c == '(':
		e.pos++
		v, err := e.parseTernary()
		if err != nil {
			return exprVal{}, err
		}
		e.skipSpace()
		if e.eof() || e.src[e.pos] != ')' {
			return exprVal{}, errf("looking for close parenthesis")
		}
		e.pos++
		return v, nil
	case c == '$':
		if e.skip > 0 {
			if err := e.scanVarRef(); err != nil {
				return exprVal{}, err
			}
			return intValue(0), nil
		}
		p := &parser{src: e.src, pos: e.pos}
		s, err := p.parseVarSubst(e.in)
		if err != nil {
			return exprVal{}, err
		}
		e.pos = p.pos
		if n, ok := parseNumber(s); ok {
			return n, nil
		}
		return strValue(s), nil
	case c == '[':
		if e.skip > 0 {
			if err := e.scanBracket(); err != nil {
				return exprVal{}, err
			}
			return intValue(0), nil
		}
		p := &parser{src: e.src, pos: e.pos}
		s, err := p.parseCommandSubst(e.in)
		if err != nil {
			return exprVal{}, err
		}
		e.pos = p.pos
		if n, ok := parseNumber(s); ok {
			return n, nil
		}
		return strValue(s), nil
	case c == '"':
		if e.skip > 0 {
			if err := e.scanQuoted(); err != nil {
				return exprVal{}, err
			}
			return intValue(0), nil
		}
		p := &parser{src: e.src, pos: e.pos}
		s, err := p.parseQuotedString(e.in)
		if err != nil {
			return exprVal{}, err
		}
		e.pos = p.pos
		return strValue(s), nil
	case c == '{':
		p := &parser{src: e.src, pos: e.pos}
		s, err := p.parseBraced()
		if err != nil {
			return exprVal{}, err
		}
		e.pos = p.pos
		return strValue(s), nil
	case c >= '0' && c <= '9' || c == '.':
		return e.parseNumberToken()
	case isAlpha(c):
		return e.parseFuncCall()
	}
	return exprVal{}, errf("syntax error in expression at %q", e.src[e.pos:])
}

// parseQuotedString is parseQuoted without the trailing-separator check,
// for use inside expressions where an operator may follow the quote.
func (p *parser) parseQuotedString(in *Interp) (string, error) {
	p.pos++ // consume '"'
	var b strings.Builder
	for !p.eof() {
		c := p.peek()
		switch c {
		case '"':
			p.pos++
			return b.String(), nil
		case '$':
			s, err := p.parseVarSubst(in)
			if err != nil {
				return "", err
			}
			b.WriteString(s)
		case '[':
			s, err := p.parseCommandSubst(in)
			if err != nil {
				return "", err
			}
			b.WriteString(s)
		case '\\':
			s, err := p.parseBackslash()
			if err != nil {
				return "", err
			}
			b.WriteString(s)
		default:
			b.WriteByte(c)
			p.pos++
		}
	}
	return "", errf("missing \"")
}

func isAlpha(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func (e *exprParser) parseNumberToken() (exprVal, error) {
	start := e.pos
	isFloat := false
	// Hex.
	if e.src[e.pos] == '0' && e.pos+1 < len(e.src) && (e.src[e.pos+1] == 'x' || e.src[e.pos+1] == 'X') {
		e.pos += 2
		for !e.eof() && isHex(e.src[e.pos]) {
			e.pos++
		}
		i, err := strconv.ParseInt(e.src[start:e.pos], 0, 64)
		if err != nil {
			return exprVal{}, errf("malformed number %q", e.src[start:e.pos])
		}
		return intValue(i), nil
	}
	for !e.eof() {
		c := e.src[e.pos]
		if c >= '0' && c <= '9' {
			e.pos++
			continue
		}
		if c == '.' {
			isFloat = true
			e.pos++
			continue
		}
		if c == 'e' || c == 'E' {
			// Exponent, possibly signed.
			if e.pos+1 < len(e.src) && (isDigit(e.src[e.pos+1]) ||
				(e.src[e.pos+1] == '+' || e.src[e.pos+1] == '-') && e.pos+2 < len(e.src) && isDigit(e.src[e.pos+2])) {
				isFloat = true
				e.pos++
				if e.src[e.pos] == '+' || e.src[e.pos] == '-' {
					e.pos++
				}
				continue
			}
		}
		break
	}
	tok := e.src[start:e.pos]
	if isFloat {
		f, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return exprVal{}, errf("malformed number %q", tok)
		}
		return floatValue(f), nil
	}
	i, err := strconv.ParseInt(tok, 0, 64)
	if err != nil {
		// Out-of-range integers fall back to float.
		if f, ferr := strconv.ParseFloat(tok, 64); ferr == nil {
			return floatValue(f), nil
		}
		return exprVal{}, errf("malformed number %q", tok)
	}
	return intValue(i), nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// parseFuncCall handles math functions like sin(x) and atan2(y, x).
func (e *exprParser) parseFuncCall() (exprVal, error) {
	start := e.pos
	for !e.eof() && (isAlpha(e.src[e.pos]) || isDigit(e.src[e.pos])) {
		e.pos++
	}
	name := e.src[start:e.pos]
	e.skipSpace()
	if e.eof() || e.src[e.pos] != '(' {
		return exprVal{}, errf("syntax error in expression: unknown token %q", name)
	}
	e.pos++
	var args []exprVal
	e.skipSpace()
	if !e.eof() && e.src[e.pos] == ')' {
		e.pos++
	} else {
		for {
			v, err := e.parseTernary()
			if err != nil {
				return exprVal{}, err
			}
			args = append(args, v)
			e.skipSpace()
			if e.eof() {
				return exprVal{}, errf("missing close parenthesis in function call")
			}
			if e.src[e.pos] == ',' {
				e.pos++
				continue
			}
			if e.src[e.pos] == ')' {
				e.pos++
				break
			}
			return exprVal{}, errf("syntax error in function arguments")
		}
	}
	if e.skip > 0 {
		// In a skipped branch only the function's existence is checked.
		if !knownMathFunc(name) {
			return exprVal{}, errf("unknown math function %q", name)
		}
		return intValue(0), nil
	}
	return applyMathFunc(name, args)
}

// knownMathFunc reports whether name is a recognized math function.
func knownMathFunc(name string) bool {
	switch name {
	case "abs", "acos", "asin", "atan", "atan2", "ceil", "cos", "cosh",
		"double", "exp", "floor", "fmod", "hypot", "int", "log", "log10",
		"pow", "round", "sin", "sinh", "sqrt", "tan", "tanh":
		return true
	}
	return false
}

// scanQuoted advances past a "..." operand without evaluating the
// substitutions inside it.
func (e *exprParser) scanQuoted() error {
	e.pos++ // '"'
	for e.pos < len(e.src) {
		switch e.src[e.pos] {
		case '\\':
			e.pos += 2
			continue
		case '"':
			e.pos++
			return nil
		case '[':
			if err := e.scanBracket(); err != nil {
				return err
			}
			continue
		}
		e.pos++
	}
	return errf("missing \"")
}

func applyMathFunc(name string, args []exprVal) (exprVal, error) {
	numArgs := func(n int) ([]float64, error) {
		if len(args) != n {
			return nil, errf("math function %q needs %d argument(s), got %d", name, n, len(args))
		}
		out := make([]float64, n)
		for i, a := range args {
			v, ok := coerceNumber(a)
			if !ok {
				return nil, errf("argument to math function %q isn't numeric", name)
			}
			out[i] = v.asFloat()
		}
		return out, nil
	}
	one := func(fn func(float64) float64) (exprVal, error) {
		a, err := numArgs(1)
		if err != nil {
			return exprVal{}, err
		}
		r := fn(a[0])
		if math.IsNaN(r) {
			return exprVal{}, errf("domain error: argument not in valid range")
		}
		return floatValue(r), nil
	}
	switch name {
	case "abs":
		a, err := numArgs(1)
		if err != nil {
			return exprVal{}, err
		}
		v, _ := coerceNumber(args[0])
		if v.kind == intVal {
			if v.i < 0 {
				return intValue(-v.i), nil
			}
			return v, nil
		}
		return floatValue(math.Abs(a[0])), nil
	case "acos":
		return one(math.Acos)
	case "asin":
		return one(math.Asin)
	case "atan":
		return one(math.Atan)
	case "atan2":
		a, err := numArgs(2)
		if err != nil {
			return exprVal{}, err
		}
		return floatValue(math.Atan2(a[0], a[1])), nil
	case "ceil":
		return one(math.Ceil)
	case "cos":
		return one(math.Cos)
	case "cosh":
		return one(math.Cosh)
	case "double":
		a, err := numArgs(1)
		if err != nil {
			return exprVal{}, err
		}
		return floatValue(a[0]), nil
	case "exp":
		return one(math.Exp)
	case "floor":
		return one(math.Floor)
	case "fmod":
		a, err := numArgs(2)
		if err != nil {
			return exprVal{}, err
		}
		if a[1] == 0 {
			return exprVal{}, errf("divide by zero in fmod")
		}
		return floatValue(math.Mod(a[0], a[1])), nil
	case "hypot":
		a, err := numArgs(2)
		if err != nil {
			return exprVal{}, err
		}
		return floatValue(math.Hypot(a[0], a[1])), nil
	case "int":
		a, err := numArgs(1)
		if err != nil {
			return exprVal{}, err
		}
		return intValue(int64(a[0])), nil
	case "log":
		return one(math.Log)
	case "log10":
		return one(math.Log10)
	case "pow":
		a, err := numArgs(2)
		if err != nil {
			return exprVal{}, err
		}
		return floatValue(math.Pow(a[0], a[1])), nil
	case "round":
		a, err := numArgs(1)
		if err != nil {
			return exprVal{}, err
		}
		return intValue(int64(math.Round(a[0]))), nil
	case "sin":
		return one(math.Sin)
	case "sinh":
		return one(math.Sinh)
	case "sqrt":
		return one(math.Sqrt)
	case "tan":
		return one(math.Tan)
	case "tanh":
		return one(math.Tanh)
	}
	return exprVal{}, errf("unknown math function %q", name)
}

// registerExprCmd installs the expr command.
func registerExprCmd(in *Interp) {
	in.Register("expr", func(in *Interp, args []string) (string, error) {
		if len(args) < 2 {
			return "", errf(`wrong # args: should be "expr arg ?arg ...?"`)
		}
		// Multiple arguments are concatenated with spaces, as in Tcl.
		return in.EvalExpr(strings.Join(args[1:], " "))
	})
}
