// Entropy channel: windowed Shannon-entropy statistics over the raw macro
// bytes. Packed or encoded payloads (Base64 blobs, XOR'd shellcode,
// chr-encoded strings) push local entropy far above what hand-written VBA
// reaches, and they do so in *runs* — a property the single whole-source
// entropy value (V13/J15) averages away. The windowed series follows Liu
// et al. 2019 (PAPERS.md): slide a fixed window over the bytes, compute
// per-window entropy, and summarize the series.
package features

import (
	"math"

	"repro/internal/hostile"
)

// Windowing parameters of entropy channel version 1. Changing any of them
// changes the channel's output and requires a version bump in the registry.
const (
	// EntropyWindow is the window width in bytes.
	EntropyWindow = 256
	// EntropyStride is the window step in bytes.
	EntropyStride = 128
	// EntropyHighBits is the per-window threshold (bits/byte) above which
	// a window counts as "high entropy". Natural-language VBA sits around
	// 4.2–5.2; Base64 payloads measure ~5.8 empirically on 256-byte
	// windows (the 64-symbol ideal is 6.0, minus small-sample bias) and
	// random bytes approach 8.
	EntropyHighBits = 5.5
	// EntropyDim is the channel's dimension.
	EntropyDim = 8
)

// EntropyNames labels the channel's dimensions in output order.
var EntropyNames = []string{
	"E1_win_entropy_mean", "E2_win_entropy_max", "E3_win_entropy_min",
	"E4_win_entropy_var", "E5_win_entropy_range",
	"E6_high_entropy_frac", "E7_high_entropy_runs", "E8_high_entropy_longest_run",
}

// entropyMaxWindows bounds the series length. Featurization runs after
// extraction has already enforced hostile.Limits.MaxMacroSourceBytes, so
// this is a second fence sized from the same budget: the largest macro the
// default budget admits yields exactly this many strides. A hand-crafted
// larger input (bypassing extraction) degrades to a truncated series
// instead of unbounded work.
var entropyMaxWindows = EntropyWindowBudget(hostile.DefaultLimits())

// EntropyWindowBudget converts a hostile resource budget into the maximum
// number of entropy windows its largest admissible macro can produce.
func EntropyWindowBudget(lim hostile.Limits) int {
	lim = lim.Normalize()
	return int(lim.MaxMacroSourceBytes/EntropyStride) + 1
}

// EntropyChannel computes the windowed-entropy summary vector for the
// analyzed macro. It is a pure function of the source, so concurrent calls
// on a shared Analysis are safe.
func (a *Analysis) EntropyChannel() []float64 {
	return entropySummary(a.src, EntropyWindow, EntropyStride, entropyMaxWindows)
}

// ExtractEntropy is the convenience one-shot entropy-channel extractor.
func ExtractEntropy(src string) []float64 {
	return entropySummary(src, EntropyWindow, EntropyStride, entropyMaxWindows)
}

// EntropySeries computes the windowed Shannon-entropy series (bits/byte
// per window) over data. The final partial window, when at least one byte,
// is included. maxWindows truncates the series (<= 0 means unbounded);
// window and stride are clamped to at least 1.
func EntropySeries(data []byte, window, stride, maxWindows int) []float64 {
	var out []float64
	forEachWindowEntropy(string(data), window, stride, maxWindows, func(h float64) {
		out = append(out, h)
	})
	return out
}

// forEachWindowEntropy slides the window over s, maintaining the byte
// histogram incrementally (each byte enters and leaves the histogram once)
// and folding it into entropy per window position. Full EntropyWindow-byte
// windows fold through the fullWindowTerms table; partial tail windows
// (and other window widths) take entropyFromCounts.
func forEachWindowEntropy(s string, window, stride, maxWindows int, fn func(float64)) {
	if len(s) == 0 {
		return
	}
	if window < 1 {
		window = 1
	}
	if stride < 1 {
		stride = 1
	}
	var counts [256]int
	emitted := 0
	start := 0
	end := window
	if end > len(s) {
		end = len(s)
	}
	for i := 0; i < end; i++ {
		counts[s[i]]++
	}
	for {
		if maxWindows > 0 && emitted >= maxWindows {
			return
		}
		if end-start == EntropyWindow {
			fn(fullWindowEntropy(&counts))
		} else {
			fn(entropyFromCounts(&counts, end-start))
		}
		emitted++
		if end >= len(s) {
			return
		}
		// Advance by one stride: retire the bytes leaving the window, admit
		// the ones entering it.
		newStart := start + stride
		newEnd := newStart + window
		if newEnd > len(s) {
			newEnd = len(s)
		}
		if newStart >= len(s) {
			return
		}
		for i := start; i < newStart && i < end; i++ {
			counts[s[i]]--
		}
		lo := end
		if newStart > lo {
			lo = newStart
		}
		for i := lo; i < newEnd; i++ {
			counts[s[i]]++
		}
		start, end = newStart, newEnd
	}
}

// fullWindowTerms[c] is the entropy term of a byte seen c times in an
// EntropyWindow-byte window. Each entry is the expression entropyFromCounts
// evaluates, p := float64(c)/256; p*math.Log2(p), and fullWindowEntropy
// subtracts the entries in entropyFromCounts's order (byte value, zero
// buckets skipped), so a full window's entropy is bit-identical to
// entropyFromCounts(counts, 256) on targets that round every product
// (amd64).
var fullWindowTerms = func() (t [EntropyWindow + 1]float64) {
	fn := float64(EntropyWindow)
	for c := 1; c <= EntropyWindow; c++ {
		p := float64(c) / fn
		t[c] = p * math.Log2(p)
	}
	return t
}()

// fullWindowEntropy is entropyFromCounts(counts, EntropyWindow) by table
// lookup.
func fullWindowEntropy(counts *[256]int) float64 {
	h := 0.0
	for _, c := range counts {
		if c != 0 {
			h -= fullWindowTerms[c]
		}
	}
	return h
}

// entropySummary folds the windowed series into the channel's summary
// statistics in one pass (the series is never materialized).
func entropySummary(s string, window, stride, maxWindows int) []float64 {
	out := make([]float64, EntropyDim)
	var (
		n          int
		sum, sumSq float64
		minH       = math.Inf(1)
		maxH       = math.Inf(-1)
		high       int // windows above the threshold
		runs       int // maximal runs of consecutive high windows
		runLen     int // current run length
		longestRun int
	)
	forEachWindowEntropy(s, window, stride, maxWindows, func(h float64) {
		n++
		sum += h
		sumSq += h * h
		if h < minH {
			minH = h
		}
		if h > maxH {
			maxH = h
		}
		if h >= EntropyHighBits {
			high++
			if runLen == 0 {
				runs++
			}
			runLen++
			if runLen > longestRun {
				longestRun = runLen
			}
		} else {
			runLen = 0
		}
	})
	if n == 0 {
		return out
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0 // float cancellation on near-constant series
	}
	out[0] = mean
	out[1] = maxH
	out[2] = minH
	out[3] = variance
	out[4] = maxH - minH
	out[5] = float64(high) / float64(n)
	out[6] = float64(runs)
	out[7] = float64(longestRun)
	return out
}
