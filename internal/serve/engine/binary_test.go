package engine

import (
	"context"
	"path/filepath"
	"testing"

	"prid/internal/serve/wire"
)

// TestRegistryBinaryModeListingAndRouting: a binary entry lists
// mode=binary, routes predicts through the Hamming fast path
// bit-identically to the in-process binary model, and keeps the float
// entry's listing mode empty.
func TestRegistryBinaryModeListingAndRouting(t *testing.T) {
	r := NewRegistry(nil)
	defer r.Close()
	m, _, queries := trainModel(t, 21, 24, 256)
	bm := m.Binarize()
	r.Register("float", "", m)
	r.RegisterBinary("bin", "", bm)

	infos := r.List()
	if len(infos) != 2 {
		t.Fatalf("listed %d models, want 2", len(infos))
	}
	byName := map[string]wire.ModelInfo{}
	for _, info := range infos {
		byName[info.Name] = info
	}
	if byName["float"].Mode != "" {
		t.Fatalf("float entry mode %q, want empty", byName["float"].Mode)
	}
	bi := byName["bin"]
	if bi.Mode != ModeBinary {
		t.Fatalf("binary entry mode %q, want %q", bi.Mode, ModeBinary)
	}
	if bi.Features != bm.Features() || bi.Dimension != bm.Dimension() || bi.Classes != bm.Classes() {
		t.Fatalf("binary listing shape %d/%d/%d != model %d/%d/%d",
			bi.Features, bi.Dimension, bi.Classes, bm.Features(), bm.Dimension(), bm.Classes())
	}

	e, ok := r.Get("bin")
	if !ok {
		t.Fatal("binary entry missing")
	}
	if e.Model() != nil {
		t.Fatal("binary entry holds a float model")
	}
	want, err := bm.PredictBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Served().PredictBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("query %d: served %d, in-process %d", i, got[i], want[i])
		}
	}
	if class, err := e.Batch().Predict(context.Background(), queries[0]); err != nil || class != want[0] {
		t.Fatalf("batcher predict (%d, %v), want (%d, nil)", class, err, want[0])
	}
}

// TestRegistryLoadFileBinary: a *float* artifact loads into binary
// serving form (binarize-on-load), and Reload keeps the entry in binary
// mode.
func TestRegistryLoadFileBinary(t *testing.T) {
	m, _, queries := trainModel(t, 22, 24, 256)
	path := filepath.Join(t.TempDir(), "m.prid")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(nil)
	defer r.Close()
	if err := r.LoadFileBinary("m", path); err != nil {
		t.Fatal(err)
	}
	e1, _ := r.Get("m")
	if e1.Info().Mode != ModeBinary {
		t.Fatalf("mode %q after LoadFileBinary, want %q", e1.Info().Mode, ModeBinary)
	}
	want, err := m.Binarize().PredictBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e1.Served().PredictBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("query %d: served %d, binarized-in-process %d", i, got[i], want[i])
		}
	}
	if n, err := r.Reload(); err != nil || n != 1 {
		t.Fatalf("reload = (%d, %v), want (1, nil)", n, err)
	}
	e2, _ := r.Get("m")
	if e2.Info().Mode != ModeBinary {
		t.Fatalf("mode %q after reload, want %q (binary mode lost)", e2.Info().Mode, ModeBinary)
	}
}

// TestRegistryLoadStoreBinaryReloadKeepsMode: store-backed binary
// entries advance generations under Reload without falling back to
// float serving.
func TestRegistryLoadStoreBinaryReloadKeepsMode(t *testing.T) {
	st := newTestStore(t)
	m1, _, _ := trainModel(t, 23, 24, 256)
	saveGen(t, st, "m", m1)
	r := NewRegistry(nil)
	defer r.Close()
	if err := r.LoadStoreBinary("m", st); err != nil {
		t.Fatal(err)
	}
	e1, _ := r.Get("m")
	if e1.Info().Mode != ModeBinary || e1.Info().Generation != 1 {
		t.Fatalf("info %+v, want binary generation 1", e1.Info())
	}

	m2, _, _ := trainModel(t, 24, 24, 512)
	saveGen(t, st, "m", m2)
	if _, err := r.Reload(); err != nil {
		t.Fatal(err)
	}
	e2, _ := r.Get("m")
	if e2.Info().Generation != 2 || e2.Info().Mode != ModeBinary {
		t.Fatalf("after reload: %+v, want binary generation 2", e2.Info())
	}
	if e2.Info().Dimension != 512 {
		t.Fatalf("dimension %d after reload, want 512", e2.Info().Dimension)
	}
}

// TestEngineBinaryRefusesAttackSurface: the engine serves predict and
// similarities for a binary model but answers reconstruct and leakage
// audits with a caller error (KindInvalid) — the packing destroyed what
// those need, which is the point of the defense.
func TestEngineBinaryRefusesAttackSurface(t *testing.T) {
	eng := New(Config{})
	defer eng.Close()
	m, x, queries := trainModel(t, 25, 24, 256)
	bm := m.Binarize()
	eng.Registry().RegisterBinary("bin", "", bm)

	want, err := bm.PredictBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Predict(context.Background(), "bin", queries, "inputs")
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("query %d: engine %d, in-process %d", i, got[i], want[i])
		}
	}
	class, sims, err := eng.Similarities(context.Background(), "bin", queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if class != want[0] || len(sims) != bm.Classes() {
		t.Fatalf("similarities (%d, %d scores), want class %d with %d scores",
			class, len(sims), want[0], bm.Classes())
	}

	if _, err := eng.Reconstruct(context.Background(), "bin", queries[0]); KindOf(err) != KindInvalid {
		t.Fatalf("reconstruct against binary model: err %v kind %d, want KindInvalid", err, KindOf(err))
	}
	if _, err := eng.AuditLeakage(context.Background(), "bin", x, queries); KindOf(err) != KindInvalid {
		t.Fatalf("leakage audit against binary model: err %v kind %d, want KindInvalid", err, KindOf(err))
	}
	if _, err := (&Entry{}).Attacker(); err == nil {
		t.Fatal("attacker built from an entry with no float model")
	}
}
