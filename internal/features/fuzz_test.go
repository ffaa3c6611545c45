package features

import (
	"math"
	"runtime"
	"strings"
	"testing"
)

// FuzzEntropySeries hammers the sliding-histogram entropy series with
// arbitrary bytes and window/stride geometry. Invariants: never panic,
// every value finite and within [0, 8] bits/byte, length bounded by the
// window cap, and every window agrees bit for bit with a from-scratch
// recount through entropyFromCounts.
func FuzzEntropySeries(f *testing.F) {
	f.Add([]byte("Sub A()\nMsgBox Chr(65)\nEnd Sub\n"), 256, 128, 64)
	f.Add([]byte(""), 1, 1, 0)
	f.Add([]byte(strings.Repeat("A", 1000)), 16, 64, 10)
	f.Add([]byte(strings.Repeat("Sub A()\nx = Chr(65) & \"QUJD\"\nEnd Sub\n", 30)), EntropyWindow, EntropyStride, 0)
	f.Add([]byte{0, 255, 0, 255, 0, 255}, 2, 1, 0)
	f.Add([]byte("\xff\xfe\x00\x01base64=="), 0, -3, 5)
	f.Fuzz(func(t *testing.T, data []byte, window, stride, maxWindows int) {
		// Keep geometry in a range where the naive bound below is sane;
		// negatives and zero exercise the clamping.
		if window > 1<<16 {
			window = 1 << 16
		}
		if stride > 1<<16 {
			stride = 1 << 16
		}
		series := EntropySeries(data, window, stride, maxWindows)
		if maxWindows > 0 && len(series) > maxWindows {
			t.Fatalf("series length %d exceeds cap %d", len(series), maxWindows)
		}
		for i, h := range series {
			if math.IsNaN(h) || h < 0 || h > 8 {
				t.Fatalf("window %d entropy %v out of [0,8]", i, h)
			}
		}
		if len(data) > 0 && maxWindows != 0 && len(series) == 0 {
			t.Fatal("non-empty input produced empty series")
		}
		// Recount every window from scratch.
		w, st := max(window, 1), max(stride, 1)
		i := 0
		for start := 0; start < len(data); start += st {
			if maxWindows > 0 && i >= maxWindows {
				break
			}
			end := min(start+w, len(data))
			var counts [256]int
			for _, b := range data[start:end] {
				counts[b]++
			}
			if i >= len(series) {
				t.Fatalf("series has %d windows, recount reaches window %d", len(series), i)
			}
			if want := entropyFromCounts(&counts, end-start); !sameEntropy(series[i], want) {
				t.Fatalf("window %d [%d:%d]: incremental %v, recount %v", i, start, end, series[i], want)
			}
			i++
			if end >= len(data) {
				break
			}
		}
		if i != len(series) {
			t.Fatalf("series has %d windows, recount %d", len(series), i)
		}
		// Summary must also hold up under the same input.
		for i, v := range entropySummary(string(data), window, stride, maxWindows) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("summary[%d] = %v", i, v)
			}
		}
	})
}

// sameEntropy compares a series value with its from-scratch recount. On
// amd64 they are bit-identical, the full-window table included; targets
// that fuse multiply-adds may round entropyFromCounts's sum differently
// from the table's pre-rounded terms, so there the last bits may differ.
func sameEntropy(got, want float64) bool {
	if runtime.GOARCH == "amd64" {
		return math.Float64bits(got) == math.Float64bits(want)
	}
	return math.Abs(got-want) <= 1e-12
}

// APIFuzzSeeds is FuzzAPIChannel's seed corpus. It is exported (in test
// builds only) because the golden stack-vector digest covers it too.
var APIFuzzSeeds = []string{
	"Sub Auto_Open()\nSet o = CreateObject(\"Wscript.Shell\")\no.Run \"cmd.exe\", vbhide\nEnd Sub\n",
	"x = Chr(65) & Chr(66) Xor 3",
	"",
	"' CreateObject inside a comment\nSub A()\nEnd Sub",
	"\x00\xff\xfeShell\x00VirtualAlloc",
	strings.Repeat("powershell.exe ", 50),
}

// FuzzAPIChannel drives the suspicious-API extractor through the full
// single-parse analysis with arbitrary source. Invariants: never panic,
// fixed dimension, all values finite and non-negative, deterministic
// across repeated extraction from the same analysis, and the keyword
// automaton's 46 counts equal the reference substring scan's.
func FuzzAPIChannel(f *testing.F) {
	for _, src := range APIFuzzSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		a := Analyze(src)
		v := a.APIChannel()
		if len(v) != APIDim {
			t.Fatalf("dim %d, want %d", len(v), APIDim)
		}
		for i, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
				t.Fatalf("feature %d = %v", i, x)
			}
		}
		again := a.APIChannel()
		for i := range v {
			if v[i] != again[i] {
				t.Fatalf("non-deterministic extraction at %d: %v vs %v", i, v[i], again[i])
			}
		}
		var got [numSuspicious]int
		keywordAutomaton.count(src, &got)
		if want := keywordCountsOracle(src); got != want {
			t.Fatalf("automaton counts %v, reference %v", got, want)
		}
	})
}

// keywordCountsOracle is the reference for the keyword automaton: one
// countSub scan per pattern over an ASCII-lowercased copy of src.
func keywordCountsOracle(src string) [numSuspicious]int {
	lower := appendLowerASCII(nil, src)
	var counts [numSuspicious]int
	for i, pat := range suspiciousLower {
		counts[i] = countSub(lower, pat)
	}
	return counts
}

// countSub counts non-overlapping occurrences of pat in b, greedily left
// to right.
func countSub(b []byte, pat string) int {
	if len(pat) == 0 || len(b) < len(pat) {
		return 0
	}
	n := 0
	first := pat[0]
	for i := 0; i+len(pat) <= len(b); {
		if b[i] != first {
			i++
			continue
		}
		if string(b[i:i+len(pat)]) == pat {
			n++
			i += len(pat)
			continue
		}
		i++
	}
	return n
}
