package core

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
)

// probeSources returns deterministic macro sources for score comparisons.
func probeSources() []string {
	spec := corpus.SmallSpec()
	spec.BenignMacros, spec.BenignObfuscated = 12, 4
	spec.MaliciousMacros, spec.MaliciousObfuscated = 8, 7
	return corpus.GenerateMacros(spec).Sources()
}

// assertSameVerdicts checks that two detectors produce bit-identical scores
// on every probe source.
func assertSameVerdicts(t *testing.T, want, got *Detector) {
	t.Helper()
	for i, src := range probeSources() {
		a, err := want.ClassifySource(src)
		if err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
		b, err := got.ClassifySource(src)
		if err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
		if a.Score != b.Score || a.Obfuscated != b.Obfuscated {
			t.Fatalf("probe %d: verdict drift: %v/%v vs %v/%v",
				i, b.Score, b.Obfuscated, a.Score, a.Obfuscated)
		}
	}
}

// legacyContainer builds a VBADMDL1 model container by hand: the frozen
// 24-byte preamble (magic, container version, reserved word, JSON length),
// the JSON model, and — when section is non-nil — the 8-aligned section
// length word followed by the section bytes.
func legacyContainer(jsonBlob []byte, version uint32, section []byte) []byte {
	le := binary.LittleEndian
	buf := make([]byte, modelPreambleSize, modelPreambleSize+len(jsonBlob)+16+len(section))
	copy(buf, modelMagic)
	le.PutUint32(buf[8:], version)
	le.PutUint64(buf[16:], uint64(len(jsonBlob)))
	buf = append(buf, jsonBlob...)
	if section == nil {
		return buf
	}
	buf = append(buf, make([]byte, alignModel8(len(buf))-len(buf))...)
	buf = le.AppendUint64(buf, uint64(len(section)))
	return append(buf, section...)
}

// arbitrarySection is section payload no loader decodes: containers are
// read for their JSON head only.
var arbitrarySection = []byte("compiled-forest section bytes, skipped unread by the loader")

func TestLoadModelContainerSkewAndDamage(t *testing.T) {
	det := trainSmall(t, AlgoRF, FeatureSetV)
	plain, err := det.SaveModel()
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := LoadModel(plain)
	if err != nil {
		t.Fatal(err)
	}
	loads := func(t *testing.T, blob []byte) {
		t.Helper()
		restored, err := LoadModel(blob)
		if err != nil {
			t.Fatalf("container should load from its JSON head, got %v", err)
		}
		assertSameVerdicts(t, fromJSON, restored)
	}

	// Any section — a future section version, or bytes no decoder would
	// accept — is skipped.
	t.Run("section_version_skew_falls_back", func(t *testing.T) {
		loads(t, legacyContainer(plain, modelContainerVersion, arbitrarySection))
	})

	t.Run("container_version_skew_falls_back", func(t *testing.T) {
		loads(t, legacyContainer(plain, modelContainerVersion+5, arbitrarySection))
	})

	t.Run("no_section", func(t *testing.T) {
		loads(t, legacyContainer(plain, modelContainerVersion, nil))
	})

	t.Run("truncated_container_is_an_error", func(t *testing.T) {
		blob := legacyContainer(plain, modelContainerVersion, arbitrarySection)
		if _, err := LoadModel(blob[:20]); err == nil {
			t.Fatal("truncated preamble accepted")
		}
		if _, err := LoadModel(blob[:modelPreambleSize+len(plain)/2]); err == nil {
			t.Fatal("truncated JSON head accepted")
		}
		if _, err := LoadModel(blob[:len(blob)-30]); err == nil {
			t.Fatal("truncated section accepted")
		}
	})
}

func TestLoadModelFile(t *testing.T) {
	det := trainSmall(t, AlgoRF, FeatureSetV)
	plain, err := det.SaveModel()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := os.WriteFile(path, legacyContainer(plain, modelContainerVersion, arbitrarySection), 0o644); err != nil {
		t.Fatal(err)
	}

	t.Run("read", func(t *testing.T) {
		loaded, err := LoadModelFile(path)
		if err != nil {
			t.Fatal(err)
		}
		assertSameVerdicts(t, det, loaded)
	})

	t.Run("missing", func(t *testing.T) {
		if _, err := LoadModelFile(filepath.Join(t.TempDir(), "nope")); err == nil {
			t.Fatal("missing model file accepted")
		}
	})
}
