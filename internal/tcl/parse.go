package tcl

import (
	"strings"
)

// parser walks a script, producing one fully substituted command at a
// time. Substitution happens during parsing, as in the original
// string-based Tcl: there is no intermediate representation.
type parser struct {
	src string
	pos int
	// closes is shared by the parsers of nested command substitutions
	// over one source string (see closes.match).
	closes closes
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) peek() byte { return p.src[p.pos] }

// nextCommand returns the next command's words after substitution. ok is
// false at end of script.
func (p *parser) nextCommand(in *Interp) (words []string, ok bool, err error) {
	// Skip command separators and blank space before the command.
	for !p.eof() {
		c := p.peek()
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == ';' {
			p.pos++
			continue
		}
		if c == '\\' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '\n' {
			p.pos += 2
			continue
		}
		break
	}
	if p.eof() {
		return nil, false, nil
	}
	// A '#' at command start introduces a comment to end of line.
	if p.peek() == '#' {
		for !p.eof() {
			c := p.peek()
			if c == '\\' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '\n' {
				p.pos += 2
				continue
			}
			p.pos++
			if c == '\n' {
				break
			}
		}
		return p.nextCommand(in)
	}

	for {
		// Skip blanks between words (backslash-newline is a blank).
		for !p.eof() {
			c := p.peek()
			if c == ' ' || c == '\t' || c == '\r' {
				p.pos++
				continue
			}
			if c == '\\' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '\n' {
				p.pos += 2
				continue
			}
			break
		}
		if p.eof() {
			break
		}
		c := p.peek()
		if c == '\n' || c == ';' {
			p.pos++
			break
		}
		var w string
		var werr error
		switch c {
		case '{':
			w, werr = p.parseBraced()
		case '"':
			w, werr = p.parseQuoted(in)
		default:
			w, werr = p.parseBare(in)
		}
		if werr != nil {
			return nil, false, werr
		}
		words = append(words, w)
	}
	return words, true, nil
}

// parseBraced consumes a {...} word. Contents are passed through
// verbatim, except that backslash-newline (plus following blanks) becomes
// a single space, matching Tcl semantics.
func (p *parser) parseBraced() (string, error) {
	p.pos++ // consume '{'
	depth := 1
	var b strings.Builder
	for !p.eof() {
		c := p.peek()
		switch c {
		case '\\':
			if p.pos+1 < len(p.src) {
				if p.src[p.pos+1] == '\n' {
					// Backslash-newline: substitute a space even inside
					// braces (the one substitution braces don't suppress).
					b.WriteByte(' ')
					p.pos += 2
					for !p.eof() && (p.peek() == ' ' || p.peek() == '\t') {
						p.pos++
					}
					continue
				}
				b.WriteByte(c)
				b.WriteByte(p.src[p.pos+1])
				p.pos += 2
				continue
			}
			b.WriteByte(c)
			p.pos++
		case '{':
			depth++
			b.WriteByte(c)
			p.pos++
		case '}':
			depth--
			p.pos++
			if depth == 0 {
				if !p.eof() {
					n := p.peek()
					if n != ' ' && n != '\t' && n != '\n' && n != '\r' && n != ';' && n != ']' {
						return "", errf("extra characters after close-brace")
					}
				}
				return b.String(), nil
			}
			b.WriteByte('}')
		default:
			b.WriteByte(c)
			p.pos++
		}
	}
	return "", errf("missing close-brace")
}

// parseQuoted consumes a "..." word, performing $, [] and backslash
// substitution on the contents.
func (p *parser) parseQuoted(in *Interp) (string, error) {
	p.pos++ // consume '"'
	var b strings.Builder
	for !p.eof() {
		c := p.peek()
		switch c {
		case '"':
			p.pos++
			if !p.eof() {
				n := p.peek()
				if n != ' ' && n != '\t' && n != '\n' && n != '\r' && n != ';' && n != ']' {
					return "", errf("extra characters after close-quote")
				}
			}
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

// parseBare consumes an unquoted word, performing substitutions.
func (p *parser) parseBare(in *Interp) (string, error) {
	var b strings.Builder
	for !p.eof() {
		c := p.peek()
		switch c {
		case ' ', '\t', '\n', '\r', ';':
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
			if p.pos+1 < len(p.src) && p.src[p.pos+1] == '\n' {
				return b.String(), nil
			}
			s, err := p.parseBackslash()
			if err != nil {
				return "", err
			}
			b.WriteString(s)
		case ']':
			// ']' terminates a word only inside command substitution;
			// the command-substitution scanner never hands us one, so a
			// bare ']' here is ordinary text.
			b.WriteByte(c)
			p.pos++
		default:
			b.WriteByte(c)
			p.pos++
		}
	}
	return b.String(), nil
}

// parseVarSubst handles $name, ${name} and $name(index) starting at '$'.
// A lone '$' not followed by a variable name is literal.
func (p *parser) parseVarSubst(in *Interp) (string, error) {
	start := p.pos
	p.pos++ // consume '$'
	if p.eof() {
		return "$", nil
	}
	if p.peek() == '{' {
		p.pos++
		end := strings.IndexByte(p.src[p.pos:], '}')
		if end < 0 {
			return "", errf("missing close-brace for variable name")
		}
		name := p.src[p.pos : p.pos+end]
		p.pos += end + 1
		return in.varRead(name, "")
	}
	nameStart := p.pos
	for !p.eof() && isVarNameChar(p.peek()) {
		p.pos++
	}
	name := p.src[nameStart:p.pos]
	if name == "" {
		p.pos = start + 1
		return "$", nil
	}
	if !p.eof() && p.peek() == '(' {
		// Array reference: the index itself undergoes substitution.
		p.pos++
		var idx strings.Builder
		depth := 1
		for {
			if p.eof() {
				return "", errf("missing )")
			}
			c := p.peek()
			switch c {
			case ')':
				depth--
				p.pos++
				if depth == 0 {
					return in.varRead(name, idx.String())
				}
				idx.WriteByte(')')
			case '(':
				depth++
				idx.WriteByte('(')
				p.pos++
			case '$':
				s, err := p.parseVarSubst(in)
				if err != nil {
					return "", err
				}
				idx.WriteString(s)
			case '[':
				s, err := p.parseCommandSubst(in)
				if err != nil {
					return "", err
				}
				idx.WriteString(s)
			case '\\':
				s, err := p.parseBackslash()
				if err != nil {
					return "", err
				}
				idx.WriteString(s)
			default:
				idx.WriteByte(c)
				p.pos++
			}
		}
	}
	return in.varRead(name, "")
}

func isVarNameChar(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// parseCommandSubst handles [script] starting at '['. The close bracket
// is found before any of the script runs, and the script is then
// evaluated in place: a parser over the same source string, cut off at
// the close bracket, so positions, and what p.closes has recorded
// about them, stay valid at every level of nesting.
func (p *parser) parseCommandSubst(in *Interp) (string, error) {
	open := p.pos
	end, err := p.closes.match(p.src, open)
	if err != nil {
		return "", err
	}
	sub := &parser{src: p.src[:end], pos: open + 1, closes: p.closes}
	p.pos = end + 1
	res, err := in.eval(sub)
	p.closes = sub.closes // keep a record the nested parser started
	return res, err
}

// closes records, for one source string, where brackets and braces
// close: position of a '[' or '{' to position of its ']' or '}'.
type closes map[int]int

// match returns the index of the ']' closing the command substitution
// that opens at src[open]. Backslashes and brace groups hide brackets;
// quotes do not. The scan records the close of every bracket nested
// inside, and of every brace group below the first level, and jumps
// over any whose close is already recorded. So a chain of nested
// substitutions, each of which matches its own bracket before its
// script runs, costs one scan of the source rather than one per level;
// a bracket hidden in a brace group and matched afresh stays inside
// that group, where every brace it meets is recorded. A recorded close
// depends only on the text from its opening to it, so it holds in any
// view src[:n] that still contains it.
func (c *closes) match(src string, open int) (int, error) {
	if end, ok := (*c)[open]; ok && end < len(src) {
		return end, nil
	}
	var buf [16]int
	stack := append(buf[:0], open)
	for i := open + 1; i < len(src); i++ {
		ch := src[i]
		if ch == '\\' {
			i++
			continue
		}
		inBraces := src[stack[len(stack)-1]] == '{'
		switch {
		case ch == '{' || ch == '[' && !inBraces:
			if end, ok := (*c)[i]; ok && end < len(src) {
				i = end
				continue
			}
			stack = append(stack, i)
		case ch == '}' && inBraces || ch == ']' && !inBraces:
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if len(stack) == 0 {
				return i, nil
			}
			if ch == ']' || len(stack) > 1 {
				if *c == nil {
					*c = make(closes)
				}
				(*c)[top] = i
			}
		}
	}
	if src[stack[len(stack)-1]] == '{' {
		return 0, errf("missing close-brace")
	}
	return 0, errf("missing close-bracket")
}

// parseBackslash consumes one backslash sequence and returns its
// replacement text (Figure 5 of the paper plus the standard table).
func (p *parser) parseBackslash() (string, error) {
	p.pos++ // consume '\'
	if p.eof() {
		return "\\", nil
	}
	c := p.peek()
	p.pos++
	switch c {
	case 'a':
		return "\a", nil
	case 'b':
		return "\b", nil
	case 'f':
		return "\f", nil
	case 'n':
		return "\n", nil
	case 'r':
		return "\r", nil
	case 't':
		return "\t", nil
	case 'v':
		return "\v", nil
	case '\n':
		// Backslash-newline plus following blanks collapses to a space.
		for !p.eof() && (p.peek() == ' ' || p.peek() == '\t') {
			p.pos++
		}
		return " ", nil
	case 'x':
		// \xHH hexadecimal.
		val := 0
		n := 0
		for !p.eof() && n < 2 && isHex(p.peek()) {
			val = val*16 + hexVal(p.peek())
			p.pos++
			n++
		}
		if n == 0 {
			return "x", nil
		}
		return string(rune(val)), nil
	case '0', '1', '2', '3', '4', '5', '6', '7':
		val := int(c - '0')
		n := 1
		for !p.eof() && n < 3 && p.peek() >= '0' && p.peek() <= '7' {
			val = val*8 + int(p.peek()-'0')
			p.pos++
			n++
		}
		return string(rune(val)), nil
	default:
		return string(c), nil
	}
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	default:
		return int(c-'A') + 10
	}
}

// SubstituteAll performs $, [] and backslash substitution on s without
// splitting it into words, like Tcl_ExprString's argument handling. Tk's
// bind machinery uses it for %-substituted commands that arrive as whole
// scripts.
func (in *Interp) SubstituteAll(s string) (string, error) {
	p := &parser{src: s}
	var b strings.Builder
	for !p.eof() {
		c := p.peek()
		switch c {
		case '$':
			r, err := p.parseVarSubst(in)
			if err != nil {
				return "", err
			}
			b.WriteString(r)
		case '[':
			r, err := p.parseCommandSubst(in)
			if err != nil {
				return "", err
			}
			b.WriteString(r)
		case '\\':
			r, err := p.parseBackslash()
			if err != nil {
				return "", err
			}
			b.WriteString(r)
		default:
			b.WriteByte(c)
			p.pos++
		}
	}
	return b.String(), nil
}
