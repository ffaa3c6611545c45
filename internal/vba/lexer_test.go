package vba

import (
	"strings"
	"testing"
	"testing/quick"
)

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func texts(toks []Token, kind Kind) []string {
	var out []string
	for _, t := range toks {
		if t.Kind == kind {
			out = append(out, t.Text)
		}
	}
	return out
}

func TestLexSimpleSub(t *testing.T) {
	src := "Sub Hello()\n    MsgBox \"hi\"\nEnd Sub\n"
	toks := Lex(src)
	want := []struct {
		kind Kind
		text string
	}{
		{KindKeyword, "Sub"}, {KindIdent, "Hello"}, {KindPunct, "("}, {KindPunct, ")"}, {KindEOL, "\n"},
		{KindIdent, "MsgBox"}, {KindString, `"hi"`}, {KindEOL, "\n"},
		{KindKeyword, "End"}, {KindKeyword, "Sub"}, {KindEOL, "\n"},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(want), toks)
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Text != w.text {
			t.Errorf("token %d = {%v %q}, want {%v %q}", i, toks[i].Kind, toks[i].Text, w.kind, w.text)
		}
	}
}

func TestLexStringEscapes(t *testing.T) {
	toks := Lex(`x = "a""b"`)
	strs := texts(toks, KindString)
	if len(strs) != 1 || strs[0] != `"a""b"` {
		t.Fatalf("strings = %q", strs)
	}
	var tok Token
	for _, tk := range toks {
		if tk.Kind == KindString {
			tok = tk
		}
	}
	if got := tok.StringValue(); got != `a"b` {
		t.Errorf("StringValue = %q, want %q", got, `a"b`)
	}
}

func TestLexUnterminatedStringStopsAtEOL(t *testing.T) {
	toks := Lex("a = \"oops\nb = 1\n")
	strs := texts(toks, KindString)
	if len(strs) != 1 || strs[0] != `"oops` {
		t.Fatalf("strings = %q", strs)
	}
	// The next line must still tokenize.
	ids := texts(toks, KindIdent)
	if len(ids) != 2 || ids[1] != "b" {
		t.Fatalf("idents = %q", ids)
	}
}

func TestLexComments(t *testing.T) {
	src := "' full line\nx = 1 ' trailing\nRem old style\nRemx = 2\n"
	toks := Lex(src)
	comments := texts(toks, KindComment)
	if len(comments) != 3 {
		t.Fatalf("comments = %q, want 3", comments)
	}
	if comments[2] != "Rem old style" {
		t.Errorf("Rem comment = %q", comments[2])
	}
	// "Remx" must be an identifier, not a comment.
	found := false
	for _, id := range texts(toks, KindIdent) {
		if id == "Remx" {
			found = true
		}
	}
	if !found {
		t.Error("Remx not lexed as identifier")
	}
}

func TestLexLineContinuation(t *testing.T) {
	src := "x = 1 + _\n    2\ny = 3\n"
	toks := Lex(src)
	var eols int
	for _, tk := range toks {
		if tk.Kind == KindEOL {
			eols++
		}
	}
	if eols != 2 {
		t.Fatalf("EOL count = %d, want 2 (continuation must fuse lines); tokens: %v", eols, toks)
	}
	// Line numbering continues across the continuation.
	for _, tk := range toks {
		if tk.Kind == KindIdent && tk.Text == "y" && tk.Line != 3 {
			t.Errorf("y on line %d, want 3", tk.Line)
		}
	}
}

func TestLexNumbers(t *testing.T) {
	cases := map[string]string{
		"x = 42":       "42",
		"x = 3.14":     "3.14",
		"x = 1.5E+10":  "1.5E+10",
		"x = &H1F&":    "&H1F&",
		"x = &o17":     "&o17",
		"x = 100&":     "100&",
		"y = 2.5!":     "2.5!",
		"z = 7% + 1":   "7%",
		"w = 1e5 + 2":  "1e5",
		"v = 10# - 1":  "10#",
		"u = 12@ * 2":  "12@",
		"t = 0.5 ^ 2":  "0.5",
		"s = &HABCDEF": "&HABCDEF",
	}
	for src, want := range cases {
		toks := Lex(src)
		nums := texts(toks, KindNumber)
		if len(nums) == 0 || nums[0] != want {
			t.Errorf("Lex(%q) numbers = %q, want first %q", src, nums, want)
		}
	}
}

func TestLexDateLiteral(t *testing.T) {
	toks := Lex("d = #1/15/2020#\n")
	dates := texts(toks, KindDate)
	if len(dates) != 1 || dates[0] != "#1/15/2020#" {
		t.Fatalf("dates = %q", dates)
	}
}

func TestLexOperators(t *testing.T) {
	toks := Lex(`a = b & "x" + c <> d <= e >= f := g`)
	ops := texts(toks, KindOperator)
	want := []string{"=", "&", "+", "<>", "<=", ">=", ":="}
	if len(ops) != len(want) {
		t.Fatalf("ops = %q, want %q", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("op %d = %q, want %q", i, ops[i], want[i])
		}
	}
}

func TestLexBracketedIdent(t *testing.T) {
	toks := Lex("[End] = 5\n")
	ids := texts(toks, KindIdent)
	if len(ids) != 1 || ids[0] != "[End]" {
		t.Fatalf("idents = %q", ids)
	}
}

func TestLexKeywordsCaseInsensitive(t *testing.T) {
	toks := Lex("SUB x()\nend sub\n")
	kws := texts(toks, KindKeyword)
	if len(kws) != 3 {
		t.Fatalf("keywords = %q", kws)
	}
}

func TestLexPositions(t *testing.T) {
	toks := Lex("ab cd\nef\n")
	wantPos := []struct{ line, col int }{{1, 1}, {1, 4}, {1, 6}, {2, 1}, {2, 3}}
	for i, w := range wantPos {
		if toks[i].Line != w.line || toks[i].Col != w.col {
			t.Errorf("token %d at %d:%d, want %d:%d", i, toks[i].Line, toks[i].Col, w.line, w.col)
		}
	}
}

func TestLexEmptyAndWhitespaceOnly(t *testing.T) {
	if toks := Lex(""); len(toks) != 0 {
		t.Errorf("Lex(\"\") = %v", toks)
	}
	toks := Lex("   \t  ")
	// Whitespace-only input produces at most the synthetic trailing EOL.
	for _, tk := range toks {
		if tk.Kind != KindEOL {
			t.Errorf("unexpected token %v", tk)
		}
	}
}

func TestLexIllegalBytes(t *testing.T) {
	toks := Lex("x = `~\n")
	var illegal int
	for _, tk := range toks {
		if tk.Kind == KindIllegal {
			illegal++
		}
	}
	if illegal != 2 {
		t.Fatalf("illegal tokens = %d, want 2", illegal)
	}
}

func TestLexAlwaysTerminates(t *testing.T) {
	// Property: lexing any byte string terminates and covers the input in
	// the sense that total token text length never exceeds input length
	// plus the synthetic EOL.
	f := func(data []byte) bool {
		src := string(data)
		toks := Lex(src)
		total := 0
		for _, tk := range toks {
			total += len(tk.Text)
		}
		return total <= len(src)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLexRoundTripLineCount(t *testing.T) {
	// Property: for sources without continuations, number of EOL tokens
	// equals the number of non-empty-tail physical lines.
	f := func(lines []string) bool {
		var clean []string
		for _, l := range lines {
			l = strings.Map(func(r rune) rune {
				if r == '\n' || r == '\r' || r == '_' {
					return 'x'
				}
				return r
			}, l)
			clean = append(clean, l)
		}
		src := strings.Join(clean, "\n")
		toks := Lex(src)
		eols := 0
		for _, tk := range toks {
			if tk.Kind == KindEOL {
				eols++
			}
		}
		return eols <= len(clean)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindIdent: "Ident", KindKeyword: "Keyword", KindString: "String",
		KindNumber: "Number", KindDate: "Date", KindComment: "Comment",
		KindOperator: "Operator", KindPunct: "Punct", KindEOL: "EOL",
		KindIllegal: "Illegal", Kind(99): "Kind(99)",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestIsKeyword(t *testing.T) {
	for _, w := range []string{"Sub", "sub", "SUB", "End", "Dim", "xor"} {
		if !IsKeyword(w) {
			t.Errorf("IsKeyword(%q) = false", w)
		}
	}
	for _, w := range []string{"MsgBox", "Shell", "foo", ""} {
		if IsKeyword(w) {
			t.Errorf("IsKeyword(%q) = true", w)
		}
	}
}

// raceEnabled is set in -race builds (race_test.go).
var raceEnabled bool

// Lexing allocates the exact-size token slice and nothing per token, so
// the allocation count does not grow with the number of operator and
// punctuation tokens.
func TestLexAllocsConstantInTokens(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled token buffers at random")
	}
	line := "a = b + c - (d * e)\n"
	one := testing.AllocsPerRun(50, func() { Lex(line) })
	src := strings.Repeat(line, 100)
	hundred := testing.AllocsPerRun(50, func() { Lex(src) })
	if one != hundred {
		t.Errorf("Lex allocs: %v for 1 line, %v for 100 lines; want equal", one, hundred)
	}
}

func BenchmarkLex(b *testing.B) {
	src := strings.Repeat("Sub Work()\n    Dim i As Long\n    For i = 1 To 100\n        Total = Total + i * 2 ' accumulate\n    Next i\nEnd Sub\n", 50)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Lex(src)
	}
}
