package vba

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/hostile"
)

// Lex tokenizes VBA source code. It never fails: characters that do not
// start any known token are emitted as KindIllegal tokens so that feature
// extraction keeps working on intentionally broken macros.
//
// Physical lines joined by the VBA continuation sequence (space underscore
// end-of-line) are fused into one logical line: the continuation itself
// produces no token and no KindEOL is emitted at the break.
func Lex(src string) []Token {
	toks, _ := LexBudget(src, nil)
	return toks
}

// LexBudget is Lex under a resource budget: the scan stops after the
// budget's remaining token allowance, returning the tokens produced so far
// alongside a hostile.ErrLimitExceeded error. Tokens produced are charged
// against the budget so repeated modules share one per-document allowance.
// A nil budget disables the limit.
func LexBudget(src string, bud *hostile.Budget) ([]Token, error) {
	scratch := tokScratchPool.Get().(*[]Token)
	lx := lexer{src: src, line: 1, col: 1, maxTokens: bud.TokenAllowance(), toks: (*scratch)[:0]}
	scratchToks := lx.run()
	toks := make([]Token, len(scratchToks))
	copy(toks, scratchToks)
	clear(scratchToks) // drop the Text references before pooling
	*scratch = scratchToks[:0]
	if cap(scratchToks) <= maxPooledTokens {
		tokScratchPool.Put(scratch)
	}
	chargeErr := bud.AddTokens(int64(len(toks)))
	if lx.overflow {
		if chargeErr == nil {
			chargeErr = bud.AddTokens(1)
		}
		return toks, fmt.Errorf("vba: lexer stopped at line %d after %d tokens: %w",
			lx.line, len(toks), chargeErr)
	}
	return toks, chargeErr
}

// tokScratchPool recycles lexer token buffers: the lexer appends into a
// pooled buffer and LexBudget copies the exact-size result out, so steady
// state lexing pays one right-sized allocation instead of a growth series.
var tokScratchPool = sync.Pool{New: func() any {
	s := make([]Token, 0, 256)
	return &s
}}

// maxPooledTokens caps the buffers the pool retains; a pathological
// document should not pin a huge scratch slice for the process lifetime.
const maxPooledTokens = 1 << 14

type lexer struct {
	src       string
	pos       int
	line      int
	col       int
	toks      []Token
	maxTokens int64
	overflow  bool
}

func (lx *lexer) run() []Token {
	for lx.pos < len(lx.src) {
		if int64(len(lx.toks)) >= lx.maxTokens {
			lx.overflow = true
			return lx.toks
		}
		c := lx.src[lx.pos]
		switch {
		case c == '\r' || c == '\n':
			lx.lexEOL()
		case c == ' ' || c == '\t':
			if lx.tryContinuation() {
				continue
			}
			lx.advance(1)
		case c == '\'':
			lx.lexComment(1)
		case c == '"':
			lx.lexString()
		case c == '#':
			lx.lexDateOrHash()
		case c >= '0' && c <= '9':
			lx.lexNumber()
		case c == '&':
			lx.lexAmp()
		case isIdentStart(c):
			lx.lexWord()
		case c == '[':
			lx.lexBracketIdent()
		default:
			lx.lexOperatorOrPunct()
		}
	}
	// Terminate the final logical line so downstream line iteration is
	// uniform even when the source lacks a trailing newline.
	if n := len(lx.toks); n > 0 && lx.toks[n-1].Kind != KindEOL {
		lx.emitAt(KindEOL, "", lx.line, lx.col)
	}
	return lx.toks
}

// tryContinuation consumes a " _<eol>" sequence. It must only be attempted
// when positioned at whitespace.
func (lx *lexer) tryContinuation() bool {
	i := lx.pos
	for i < len(lx.src) && (lx.src[i] == ' ' || lx.src[i] == '\t') {
		i++
	}
	if i >= len(lx.src) || lx.src[i] != '_' {
		return false
	}
	j := i + 1
	if j < len(lx.src) && lx.src[j] == '\r' {
		j++
	}
	if j < len(lx.src) && lx.src[j] == '\n' {
		j++
	} else if j < len(lx.src) && lx.src[j-1] != '\r' {
		// An underscore not immediately followed by EOL is an identifier
		// start or illegal; not a continuation.
		return false
	}
	lx.pos = j
	lx.line++
	lx.col = 1
	return true
}

func (lx *lexer) lexEOL() {
	startLine, startCol := lx.line, lx.col
	if lx.src[lx.pos] == '\r' {
		lx.pos++
		if lx.pos < len(lx.src) && lx.src[lx.pos] == '\n' {
			lx.pos++
		}
	} else {
		lx.pos++
	}
	lx.emitAt(KindEOL, "\n", startLine, startCol)
	lx.line++
	lx.col = 1
}

// lexComment consumes from the current position to (not including) the end
// of the physical line. skip is the length of the comment introducer already
// verified by the caller (1 for "'", 3 for "Rem").
func (lx *lexer) lexComment(skip int) {
	start := lx.pos
	startLine, startCol := lx.line, lx.col
	lx.pos += skip
	for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' && lx.src[lx.pos] != '\r' {
		lx.pos++
	}
	lx.col += lx.pos - start
	lx.emitAt(KindComment, lx.src[start:lx.pos], startLine, startCol)
}

func (lx *lexer) lexString() {
	start := lx.pos
	startLine, startCol := lx.line, lx.col
	lx.pos++ // opening quote
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if c == '\n' || c == '\r' {
			break // unterminated string: stop at EOL like the VBA editor
		}
		if c == '"' {
			if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '"' {
				lx.pos += 2 // escaped quote
				continue
			}
			lx.pos++
			break
		}
		lx.pos++
	}
	lx.col += lx.pos - start
	lx.emitAt(KindString, lx.src[start:lx.pos], startLine, startCol)
}

// lexDateOrHash handles #...# date literals and the bare '#' type suffix /
// file-number punctuation. A date literal must close on the same line.
func (lx *lexer) lexDateOrHash() {
	i := lx.pos + 1
	for i < len(lx.src) && lx.src[i] != '\n' && lx.src[i] != '\r' && lx.src[i] != '#' {
		i++
	}
	if i < len(lx.src) && lx.src[i] == '#' && i > lx.pos+1 {
		startLine, startCol := lx.line, lx.col
		text := lx.src[lx.pos : i+1]
		lx.col += len(text)
		lx.pos = i + 1
		lx.emitAt(KindDate, text, startLine, startCol)
		return
	}
	lx.emitAt(KindPunct, "#", lx.line, lx.col)
	lx.pos++
	lx.col++
}

func (lx *lexer) lexNumber() {
	start := lx.pos
	startLine, startCol := lx.line, lx.col
	for lx.pos < len(lx.src) && isDigit(lx.src[lx.pos]) {
		lx.pos++
	}
	if lx.pos < len(lx.src) && lx.src[lx.pos] == '.' {
		lx.pos++
		for lx.pos < len(lx.src) && isDigit(lx.src[lx.pos]) {
			lx.pos++
		}
	}
	// Exponent part: 1.5E+10
	if lx.pos < len(lx.src) && (lx.src[lx.pos] == 'e' || lx.src[lx.pos] == 'E') {
		j := lx.pos + 1
		if j < len(lx.src) && (lx.src[j] == '+' || lx.src[j] == '-') {
			j++
		}
		if j < len(lx.src) && isDigit(lx.src[j]) {
			lx.pos = j
			for lx.pos < len(lx.src) && isDigit(lx.src[lx.pos]) {
				lx.pos++
			}
		}
	}
	// Type suffix: % & ! # @ ^
	if lx.pos < len(lx.src) && strings.IndexByte("%&!#@^", lx.src[lx.pos]) >= 0 {
		lx.pos++
	}
	lx.col += lx.pos - start
	lx.emitAt(KindNumber, lx.src[start:lx.pos], startLine, startCol)
}

// lexAmp distinguishes &H.. / &O.. radix literals from the & concatenation
// operator.
func (lx *lexer) lexAmp() {
	if lx.pos+1 < len(lx.src) {
		next := lx.src[lx.pos+1]
		if next == 'H' || next == 'h' {
			lx.lexRadix(isHexDigit)
			return
		}
		if next == 'O' || next == 'o' {
			lx.lexRadix(isOctalDigit)
			return
		}
	}
	lx.emitAt(KindOperator, "&", lx.line, lx.col)
	lx.pos++
	lx.col++
}

func (lx *lexer) lexRadix(valid func(byte) bool) {
	start := lx.pos
	startLine, startCol := lx.line, lx.col
	lx.pos += 2
	for lx.pos < len(lx.src) && valid(lx.src[lx.pos]) {
		lx.pos++
	}
	if lx.pos < len(lx.src) && (lx.src[lx.pos] == '&' || lx.src[lx.pos] == '%') {
		lx.pos++ // integer type suffix
	}
	lx.col += lx.pos - start
	lx.emitAt(KindNumber, lx.src[start:lx.pos], startLine, startCol)
}

func (lx *lexer) lexWord() {
	start := lx.pos
	startLine, startCol := lx.line, lx.col
	for lx.pos < len(lx.src) && isIdentPart(lx.src[lx.pos]) {
		lx.pos++
	}
	word := lx.src[start:lx.pos]
	// Identifier type suffix characters bind to the identifier.
	if lx.pos < len(lx.src) && strings.IndexByte("%&!#@$", lx.src[lx.pos]) >= 0 {
		lx.pos++
	}
	lx.col += lx.pos - start
	if strings.EqualFold(word, "Rem") {
		// Rem starts a comment that runs to end of line; rewind to lex it
		// as a single comment token.
		lx.pos = start
		lx.col = startCol
		lx.lexComment(3)
		return
	}
	text := lx.src[start : start+len(word)]
	if IsKeyword(word) {
		lx.emitAt(KindKeyword, text, startLine, startCol)
	} else {
		lx.emitAt(KindIdent, text, startLine, startCol)
	}
}

// lexBracketIdent consumes a [bracketed identifier], used in VBA to escape
// names that collide with keywords.
func (lx *lexer) lexBracketIdent() {
	start := lx.pos
	startLine, startCol := lx.line, lx.col
	lx.pos++
	for lx.pos < len(lx.src) && lx.src[lx.pos] != ']' && lx.src[lx.pos] != '\n' && lx.src[lx.pos] != '\r' {
		lx.pos++
	}
	if lx.pos < len(lx.src) && lx.src[lx.pos] == ']' {
		lx.pos++
	}
	lx.col += lx.pos - start
	lx.emitAt(KindIdent, lx.src[start:lx.pos], startLine, startCol)
}

func (lx *lexer) lexOperatorOrPunct() {
	startLine, startCol := lx.line, lx.col
	c := lx.src[lx.pos]
	// Two-character comparison operators.
	if lx.pos+1 < len(lx.src) {
		two := lx.src[lx.pos : lx.pos+2]
		switch two {
		case "<>", "<=", ">=", ":=":
			lx.pos += 2
			lx.col += 2
			lx.emitAt(KindOperator, two, startLine, startCol)
			return
		}
	}
	lx.pos++
	lx.col++
	// The text is a slice of the source, so single-byte tokens allocate
	// nothing (c < 0x80 here: higher bytes start identifiers).
	text := lx.src[lx.pos-1 : lx.pos]
	switch c {
	case '+', '-', '*', '/', '\\', '^', '=', '<', '>':
		lx.emitAt(KindOperator, text, startLine, startCol)
	case '(', ')', ',', '.', ':', ';', '!', '?', '$', '@', '%', '{', '}', ']':
		lx.emitAt(KindPunct, text, startLine, startCol)
	default:
		lx.emitAt(KindIllegal, text, startLine, startCol)
	}
}

func (lx *lexer) advance(n int) {
	lx.pos += n
	lx.col += n
}

func (lx *lexer) emitAt(kind Kind, text string, line, col int) {
	lx.toks = append(lx.toks, Token{Kind: kind, Text: text, Line: line, Col: col})
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isHexDigit(c byte) bool   { return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') }
func isOctalDigit(c byte) bool { return c >= '0' && c <= '7' }

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }
