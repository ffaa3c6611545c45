// Suspicious-API/keyword channel: frequencies of the VBA built-in
// functions obfuscators leans on (Chr/Asc/Mid string assembly, CByte/CLng
// conversions, Xor decoding) plus occurrence counts of the suspicious
// capability keywords the malicious-macro literature tracks (Shell,
// CreateObject, Auto_Open, VirtualAlloc, ...). Cheap, interpretable, and
// complementary to the V/J statistics: V measures *how* code is written,
// this channel measures *what* it reaches for.
package features

import (
	"math"
	"strings"

	"repro/internal/vba"
)

// VBABuiltins are the 65 built-in function names whose call frequencies
// form the first block of the channel (order is part of the channel
// version).
var VBABuiltins = []string{
	"Asc", "AscB", "AscW", "Chr", "ChrB", "ChrW", "Mid", "Join", "InStr", "Replace",
	"Right", "StrConv", "Abs", "Atn", "Cos", "Exp", "Log", "Hex", "Oct", "Str",
	"Val", "Int", "Fix", "Sgn", "Rnd", "Sin", "Sqr", "Tan", "CBool", "CByte",
	"CCur", "CDate", "CDbl", "CDec", "CInt", "CLng", "CLngLng", "CLngPtr", "CSng", "CStr",
	"CVar", "DDB", "FV", "IPmt", "PV", "Pmt", "Rate", "SLN", "SYD", "Array",
	"StrReverse", "Xor", "LBound", "LCase", "Left", "LTrim", "RTrim", "Trim", "Space", "Split",
	"InStrRev", "UBound", "UCase", "Round", "CallByName",
}

// SuspiciousKeywords are the 46 capability markers forming the second
// block: auto-execution entry points, process/file/registry reach, and the
// Win32 process-injection surface. Matched case-insensitively as
// substrings of the raw source, so `.Run`, `Wscript.Shell` and
// `powershell.exe` count wherever they appear.
var SuspiciousKeywords = []string{
	"Shell", "CreateObject", "GetObject", ".Run", ".Exec", ".Create", "Kill", ".StartupPath",
	"ShellExecute", "Shell.Application", "Binary", "Lib", "System", "Wscript.Shell", "Document_Open", "Auto_Open",
	"ShowWindow", "Workbook_Open", "Print", "FileCopy", "Virtual", "AutoOpen", "Open", "Windows",
	"Write", "Document_Close", "Output", "vbhide", "ExecuteExcel4Macro", "SaveToFile", "Environ", "CreateTextFile",
	"dde", "CreateProcessA", "CreateThread", "CreateUserThread", "VirtualAlloc", "VirtualAllocEx", "RtlMoveMemory", "WriteProcessMemory",
	"SetContextThread", "QueueApcThread", "WriteVirtualMemory", "VirtualProtect", "cmd.exe", "powershell.exe",
}

// APIDim is the channel's dimension: one frequency per built-in, one per
// suspicious keyword, plus the two block totals.
var APIDim = len(VBABuiltins) + len(SuspiciousKeywords) + 2

// builtinIndex maps the lowercased built-in name to its feature slot.
var builtinIndex = func() map[string]int {
	m := make(map[string]int, len(VBABuiltins))
	for i, name := range VBABuiltins {
		m[strings.ToLower(name)] = i
	}
	return m
}()

// suspiciousLower holds the lowercased keyword patterns, in feature order.
var suspiciousLower = func() []string {
	out := make([]string, len(SuspiciousKeywords))
	for i, kw := range SuspiciousKeywords {
		out[i] = strings.ToLower(kw)
	}
	return out
}()

// apiFeatureNames labels every dimension of the channel.
func apiFeatureNames() []string {
	names := make([]string, 0, APIDim)
	for _, fn := range VBABuiltins {
		names = append(names, "fn_"+fn)
	}
	for _, kw := range SuspiciousKeywords {
		names = append(names, "kw_"+sanitizeName(kw))
	}
	names = append(names, "api_fn_total", "api_kw_total")
	return names
}

// sanitizeName makes a keyword safe as a feature label.
func sanitizeName(s string) string {
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_':
			sb.WriteByte(c)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// APIChannel computes the suspicious-API/keyword vector for the analyzed
// macro. Counts are normalized by the comment-free code length (the
// paper's §IV.C rule), keeping the channel scale-invariant. It is a pure
// function of the analysis, so concurrent calls on a shared Analysis are
// safe, and it allocates only the output vector.
func (a *Analysis) APIChannel() []float64 {
	out := make([]float64, APIDim)
	fnBase := 0
	kwBase := len(VBABuiltins)

	// Block 1 — built-in function frequencies from the token stream. The
	// lexer classifies some built-ins (Abs, Mid, CInt, Xor, ...) as
	// reserved words, so both identifier and keyword tokens participate.
	fnTotal := 0
	var lowerTok [16]byte
	for _, t := range a.module.Tokens {
		if t.Kind != vba.KindIdent && t.Kind != vba.KindKeyword {
			continue
		}
		if len(t.Text) > maxBuiltinLen {
			continue
		}
		if i, ok := builtinIndex[string(appendLowerASCII(lowerTok[:0], t.Text))]; ok {
			out[fnBase+i]++
			fnTotal++
		}
	}

	// Block 2 — suspicious keyword substring counts over the raw source
	// (dotted and dashed patterns never survive tokenization), all 46 in
	// one case-folding automaton pass.
	var counts [numSuspicious]int
	keywordAutomaton.count(a.src, &counts)
	kwTotal := 0
	for i, n := range counts {
		out[kwBase+i] = float64(n)
		kwTotal += n
	}

	// Normalize counts by the comment-free code length and close out the
	// two block totals.
	code := float64(a.codeChars)
	for i := 0; i < kwBase+len(SuspiciousKeywords); i++ {
		out[i] = ratio(out[i], code)
	}
	out[APIDim-2] = ratio(float64(fnTotal), code)
	out[APIDim-1] = ratio(float64(kwTotal), code)
	return out
}

// ExtractAPI is the convenience one-shot API-channel extractor.
func ExtractAPI(src string) []float64 { return Analyze(src).APIChannel() }

// maxBuiltinLen bounds the token case-folding work; no built-in name is
// longer.
var maxBuiltinLen = func() int {
	n := 0
	for _, name := range VBABuiltins {
		if len(name) > n {
			n = len(name)
		}
	}
	return n
}()

// appendLowerASCII appends s to dst with ASCII letters lowercased. Bytes
// ≥ 0x80 pass through unchanged — the built-in names are pure ASCII, so
// exotic case-folding aliases cannot create false matches.
func appendLowerASCII(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// numSuspicious is len(SuspiciousKeywords), as a constant so the keyword
// counts live in a stack array.
const numSuspicious = 46

// keywordAutomaton matches every suspicious keyword in one pass.
var keywordAutomaton = func() *kwAutomaton {
	if len(SuspiciousKeywords) != numSuspicious {
		panic("features: numSuspicious disagrees with SuspiciousKeywords")
	}
	return newKWAutomaton(suspiciousLower)
}()

// kwAutomaton is an Aho–Corasick automaton over the lowercased keyword
// patterns. Input bytes are case-folded through class: ASCII A–Z share
// their lowercase letter's class, and every byte no pattern uses (all
// bytes ≥ 0x80 among them) shares class 0, so the scan reads the raw
// source with no lowered copy. next is the dense transition table,
// states × classes, with failure links already folded in.
type kwAutomaton struct {
	class    [256]uint8
	nclass   int
	next     []uint16
	outStart []int   // state s reports patterns out[outStart[s]:outStart[s+1]]
	out      []uint8 // pattern indices, including those reached by failure links
	patLen   [numSuspicious]int
}

func newKWAutomaton(pats []string) *kwAutomaton {
	if len(pats) > numSuspicious {
		panic("features: more keyword patterns than numSuspicious")
	}
	a := &kwAutomaton{}
	a.nclass = 1
	for _, p := range pats {
		for i := 0; i < len(p); i++ {
			if c := p[i]; a.class[c] == 0 {
				a.class[c] = uint8(a.nclass)
				a.nclass++
			}
		}
	}
	for c := 'A'; c <= 'Z'; c++ {
		a.class[c] = a.class[c+'a'-'A']
	}

	// Trie: goto edges (0 = absent; the root is state 0 and has no
	// incoming edges) and the patterns ending at each state.
	var gotos [][]uint16
	var ends [][]uint8
	newState := func() int {
		if len(gotos) > math.MaxUint16 {
			panic("features: keyword automaton exceeds uint16 states")
		}
		gotos = append(gotos, make([]uint16, a.nclass))
		ends = append(ends, nil)
		return len(gotos) - 1
	}
	newState()
	for pi, p := range pats {
		s := 0
		for i := 0; i < len(p); i++ {
			c := a.class[p[i]]
			if gotos[s][c] == 0 {
				gotos[s][c] = uint16(newState())
			}
			s = int(gotos[s][c])
		}
		ends[s] = append(ends[s], uint8(pi))
		a.patLen[pi] = len(p)
	}

	// Breadth-first: each state's transitions and outputs derive from its
	// failure state's, which sits at a lower depth and is already done.
	n := len(gotos)
	a.next = make([]uint16, n*a.nclass)
	fail := make([]int, n)
	outs := make([][]uint8, n)
	queue := []int{0}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if s != 0 {
			outs[s] = append(append([]uint8(nil), ends[s]...), outs[fail[s]]...)
		}
		for c := 0; c < a.nclass; c++ {
			t := int(gotos[s][c])
			switch {
			case t != 0:
				if s != 0 {
					fail[t] = int(a.next[fail[s]*a.nclass+c])
				}
				a.next[s*a.nclass+c] = uint16(t)
				queue = append(queue, t)
			case s != 0:
				a.next[s*a.nclass+c] = a.next[fail[s]*a.nclass+c]
			}
		}
	}
	a.outStart = make([]int, n+1)
	for s := 0; s < n; s++ {
		a.out = append(a.out, outs[s]...)
		a.outStart[s+1] = len(a.out)
	}
	return a
}

// count adds to counts[p] the non-overlapping occurrences of pattern p in
// src, with the greedy left-to-right semantics of a per-pattern substring
// scan: a match counts only if it starts at or after the end of that
// pattern's previous counted match. Different patterns overlap freely —
// "Shell" counts inside "ShellExecute" and "Wscript.Shell", "Open" inside
// "Auto_Open". (No current keyword can overlap itself, but the check keeps
// the counts exact for any pattern list.)
func (a *kwAutomaton) count(src string, counts *[numSuspicious]int) {
	var lastEnd [numSuspicious]int
	s := 0
	for i := 0; i < len(src); i++ {
		s = int(a.next[s*a.nclass+int(a.class[src[i]])])
		lo, hi := a.outStart[s], a.outStart[s+1]
		if lo == hi {
			continue
		}
		end := i + 1
		for _, p := range a.out[lo:hi] {
			if end-a.patLen[p] >= lastEnd[p] {
				counts[p]++
				lastEnd[p] = end
			}
		}
	}
}
