package features_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/features"
)

// goldenStackDigest is the SHA-256 of the stacked feature vectors (v, j,
// entropy, api) of goldenSources, each float64 written as its
// little-endian IEEE-754 bits. Every saved model scores against these
// exact bits: a featurizer rewrite that keeps the channel versions at @1
// must leave the digest unchanged. The digest is pinned on amd64; targets
// that fuse multiply-adds (arm64, ppc64le, s390x) may round the entropy
// sums differently.
const goldenStackDigest = "a3f51cece736bcb5cb294f9fd3002bc562c3a4a2e2c633431424be200d9d7187"

// goldenSources are the first 64 SmallSpec macros followed by the
// FuzzAPIChannel seeds.
func goldenSources() []string {
	srcs := corpus.GenerateMacros(corpus.SmallSpec()).Sources()[:64]
	return append(srcs, features.APIFuzzSeeds...)
}

func TestGoldenStackVectorDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest pinned on amd64, running on %s", runtime.GOARCH)
	}
	h := sha256.New()
	var buf [8]byte
	for _, src := range goldenSources() {
		for _, x := range core.FeatureSetStack.Extract(src) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenStackDigest {
		t.Fatalf("stack vector digest = %s, want %s", got, goldenStackDigest)
	}
}
