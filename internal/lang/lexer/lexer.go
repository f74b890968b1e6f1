// Package lexer tokenizes stateful-entity DSL source code. The language is
// a Python-like subset, so the lexer is indentation-aware: it emits NEWLINE
// at the end of each logical line and INDENT/DEDENT tokens when the leading
// whitespace of a line increases or decreases, exactly like CPython's
// tokenizer. Blank lines and comment-only lines produce no layout tokens.
package lexer

import (
	"fmt"
	"strings"
	"unicode"

	"statefulentities.dev/stateflow/internal/lang/token"
)

// Error is a lexical error with a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans DSL source text into tokens.
type Lexer struct {
	src    []rune
	pos    int // index into src
	line   int
	col    int
	indent []int // indentation stack, always starts with 0
	pend   []token.Token
	parens int  // depth of (, [, { — newlines are insignificant inside
	atBOL  bool // at beginning of a logical line
	eofed  bool
	err    *Error
}

// New returns a lexer over the given source text.
func New(src string) *Lexer {
	// Normalize line endings so positions are stable across platforms.
	src = strings.ReplaceAll(src, "\r\n", "\n")
	return &Lexer{
		src:    []rune(src),
		line:   1,
		col:    1,
		indent: []int{0},
		atBOL:  true,
	}
}

// Tokenize scans the entire input and returns all tokens including the
// trailing EOF, or the first lexical error encountered.
func Tokenize(src string) ([]token.Token, error) {
	lx := New(src)
	var toks []token.Token
	for {
		t := lx.Next()
		if lx.err != nil {
			return nil, lx.err
		}
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks, nil
		}
	}
}

func (l *Lexer) fail(pos token.Pos, format string, args ...any) token.Token {
	if l.err == nil {
		l.err = &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
	}
	return token.Token{Kind: token.ILLEGAL, Pos: pos}
}

func (l *Lexer) here() token.Pos { return token.Pos{Line: l.line, Col: l.col} }

func (l *Lexer) peek() rune {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peekAt(off int) rune {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *Lexer) advance() rune {
	r := l.src[l.pos]
	l.pos++
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

// Next returns the next token. After EOF it keeps returning EOF.
func (l *Lexer) Next() token.Token {
	if len(l.pend) > 0 {
		t := l.pend[0]
		l.pend = l.pend[1:]
		return t
	}
	if l.eofed {
		return token.Token{Kind: token.EOF, Pos: l.here()}
	}
	if l.atBOL && l.parens == 0 {
		if t, ok := l.handleLineStart(); ok {
			return t
		}
	}
	l.skipSpacesAndComments()
	if l.pos >= len(l.src) {
		return l.emitEOF()
	}
	r := l.peek()
	switch {
	case r == '\n':
		pos := l.here()
		l.advance()
		if l.parens > 0 {
			return l.Next() // newline insignificant inside brackets
		}
		l.atBOL = true
		return token.Token{Kind: token.NEWLINE, Pos: pos}
	case isIdentStart(r):
		return l.lexIdent()
	case unicode.IsDigit(r):
		return l.lexNumber()
	case r == '"' || r == '\'':
		return l.lexString()
	default:
		return l.lexOperator()
	}
}

// handleLineStart measures indentation at the beginning of a logical line
// and, if it changed, queues INDENT/DEDENT tokens. It returns (tok, true)
// when a layout token should be delivered first.
func (l *Lexer) handleLineStart() (token.Token, bool) {
	for {
		// Measure leading whitespace of this physical line.
		width := 0
		start := l.pos
		for l.pos < len(l.src) {
			switch l.peek() {
			case ' ':
				width++
				l.advance()
			case '\t':
				width += 8 - width%8
				l.advance()
			default:
				goto measured
			}
		}
	measured:
		// Blank or comment-only lines contribute no layout tokens.
		if l.pos >= len(l.src) {
			l.atBOL = false
			return token.Token{}, false
		}
		if l.peek() == '\n' {
			l.advance()
			continue
		}
		if l.peek() == '#' {
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
			continue
		}
		_ = start
		l.atBOL = false
		cur := l.indent[len(l.indent)-1]
		pos := l.here()
		switch {
		case width > cur:
			l.indent = append(l.indent, width)
			return token.Token{Kind: token.INDENT, Pos: pos}, true
		case width < cur:
			var deds []token.Token
			for len(l.indent) > 1 && l.indent[len(l.indent)-1] > width {
				l.indent = l.indent[:len(l.indent)-1]
				deds = append(deds, token.Token{Kind: token.DEDENT, Pos: pos})
			}
			if l.indent[len(l.indent)-1] != width {
				return l.fail(pos, "unindent does not match any outer indentation level"), true
			}
			l.pend = append(l.pend, deds[1:]...)
			return deds[0], true
		default:
			return token.Token{}, false
		}
	}
}

func (l *Lexer) skipSpacesAndComments() {
	for l.pos < len(l.src) {
		r := l.peek()
		if r == ' ' || r == '\t' {
			l.advance()
			continue
		}
		if r == '#' {
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
			continue
		}
		if r == '\\' && l.peekAt(1) == '\n' { // explicit line continuation
			l.advance()
			l.advance()
			continue
		}
		return
	}
}

// emitEOF closes any open indentation blocks, then yields EOF. A NEWLINE is
// synthesized first so parsers always see statement terminators.
func (l *Lexer) emitEOF() token.Token {
	l.eofed = true
	pos := l.here()
	first := token.Token{Kind: token.NEWLINE, Pos: pos}
	for len(l.indent) > 1 {
		l.indent = l.indent[:len(l.indent)-1]
		l.pend = append(l.pend, token.Token{Kind: token.DEDENT, Pos: pos})
	}
	l.pend = append(l.pend, token.Token{Kind: token.EOF, Pos: pos})
	return first
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentCont(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func (l *Lexer) lexIdent() token.Token {
	pos := l.here()
	var sb strings.Builder
	for l.pos < len(l.src) && isIdentCont(l.peek()) {
		sb.WriteRune(l.advance())
	}
	lit := sb.String()
	if kw, ok := token.Keywords[lit]; ok {
		return token.Token{Kind: kw, Lit: lit, Pos: pos}
	}
	return token.Token{Kind: token.IDENT, Lit: lit, Pos: pos}
}

func (l *Lexer) lexNumber() token.Token {
	pos := l.here()
	var sb strings.Builder
	kind := token.INT
	for l.pos < len(l.src) && (unicode.IsDigit(l.peek()) || l.peek() == '_') {
		r := l.advance()
		if r != '_' {
			sb.WriteRune(r)
		}
	}
	if l.peek() == '.' && unicode.IsDigit(l.peekAt(1)) {
		kind = token.FLOAT
		sb.WriteRune(l.advance())
		for l.pos < len(l.src) && unicode.IsDigit(l.peek()) {
			sb.WriteRune(l.advance())
		}
	}
	if isIdentStart(l.peek()) {
		return l.fail(l.here(), "invalid character %q in number literal", l.peek())
	}
	return token.Token{Kind: kind, Lit: sb.String(), Pos: pos}
}

func (l *Lexer) lexString() token.Token {
	pos := l.here()
	quote := l.advance()
	var sb strings.Builder
	for {
		if l.pos >= len(l.src) || l.peek() == '\n' {
			return l.fail(pos, "unterminated string literal")
		}
		r := l.advance()
		if r == quote {
			return token.Token{Kind: token.STRING, Lit: sb.String(), Pos: pos}
		}
		if r == '\\' {
			if l.pos >= len(l.src) {
				return l.fail(pos, "unterminated string literal")
			}
			esc := l.advance()
			switch esc {
			case 'n':
				sb.WriteRune('\n')
			case 't':
				sb.WriteRune('\t')
			case '\\':
				sb.WriteRune('\\')
			case '\'':
				sb.WriteRune('\'')
			case '"':
				sb.WriteRune('"')
			default:
				return l.fail(pos, "unknown escape sequence \\%c", esc)
			}
			continue
		}
		sb.WriteRune(r)
	}
}

func (l *Lexer) lexOperator() token.Token {
	pos := l.here()
	r := l.advance()
	two := func(next rune, k2, k1 token.Kind) token.Token {
		if l.peek() == next {
			l.advance()
			return token.Token{Kind: k2, Pos: pos}
		}
		return token.Token{Kind: k1, Pos: pos}
	}
	switch r {
	case '+':
		return two('=', token.PLUSEQ, token.PLUS)
	case '-':
		if l.peek() == '>' {
			l.advance()
			return token.Token{Kind: token.ARROW, Pos: pos}
		}
		return two('=', token.MINUSEQ, token.MINUS)
	case '*':
		return two('=', token.STAREQ, token.STAR)
	case '/':
		if l.peek() == '/' {
			l.advance()
			return token.Token{Kind: token.DSLASH, Pos: pos}
		}
		return two('=', token.SLASHEQ, token.SLASH)
	case '%':
		return token.Token{Kind: token.PERCENT, Pos: pos}
	case '=':
		return two('=', token.EQ, token.ASSIGN)
	case '!':
		if l.peek() == '=' {
			l.advance()
			return token.Token{Kind: token.NEQ, Pos: pos}
		}
		return l.fail(pos, "unexpected character '!'")
	case '<':
		return two('=', token.LTE, token.LT)
	case '>':
		return two('=', token.GTE, token.GT)
	case '(':
		l.parens++
		return token.Token{Kind: token.LPAREN, Pos: pos}
	case ')':
		l.parens--
		return token.Token{Kind: token.RPAREN, Pos: pos}
	case '[':
		l.parens++
		return token.Token{Kind: token.LBRACKET, Pos: pos}
	case ']':
		l.parens--
		return token.Token{Kind: token.RBRACKET, Pos: pos}
	case '{':
		l.parens++
		return token.Token{Kind: token.LBRACE, Pos: pos}
	case '}':
		l.parens--
		return token.Token{Kind: token.RBRACE, Pos: pos}
	case ',':
		return token.Token{Kind: token.COMMA, Pos: pos}
	case ':':
		return token.Token{Kind: token.COLON, Pos: pos}
	case '.':
		return token.Token{Kind: token.DOT, Pos: pos}
	case '@':
		return token.Token{Kind: token.AT, Pos: pos}
	default:
		return l.fail(pos, "unexpected character %q", r)
	}
}
