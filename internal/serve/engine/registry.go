package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"prid"
	"prid/internal/serve/wire"
	"prid/internal/store"
)

// ModeBinary marks an entry served through the bit-packed Hamming fast
// path. The zero mode ("") is the float cosine path, kept empty on the
// wire so pre-binary clients see an unchanged listing.
const ModeBinary = "binary"

// Served is the inference surface a registry entry routes requests to,
// implemented by both *prid.Model (float cosine) and *prid.BinaryModel
// (bit-packed Hamming). Reconstruction and leakage audits are
// deliberately absent: they need the float class hypervectors, which
// binary entries do not hold.
type Served interface {
	Features() int
	Dimension() int
	Classes() int
	PredictBatch(x [][]float64) ([]int, error)
	Similarities(x []float64) ([]float64, error)
}

// Entry binds one named model to its micro-batcher and a lazily built
// attacker (the attacker decodes every class hypervector up front, which
// is wasted work for models never probed through /v1/reconstruct).
type Entry struct {
	info   wire.ModelInfo
	served Served
	// model is the float form; nil for binary entries (the packing
	// destroyed what Reconstruct/AuditLeakage need — that's the defense).
	model *prid.Model
	batch *Batcher
	// st is non-nil for store-backed entries; Reload pulls newer verified
	// generations from it.
	st *store.Store

	attackOnce sync.Once
	attacker   *prid.Attacker
	attackErr  error
}

// Info returns the entry's listing metadata.
func (e *Entry) Info() wire.ModelInfo { return e.info }

// Model returns the loaded float model, or nil for binary entries.
func (e *Entry) Model() *prid.Model { return e.model }

// Served returns the inference surface requests route to.
func (e *Entry) Served() Served { return e.served }

// Batch returns the entry's micro-batcher.
func (e *Entry) Batch() *Batcher { return e.batch }

// Attacker returns the entry's shared attacker, constructing it on first
// use.
func (e *Entry) Attacker() (*prid.Attacker, error) {
	e.attackOnce.Do(func() {
		if e.model == nil {
			e.attackErr = errors.New("binary-mode model holds no float class hypervectors to attack")
			return
		}
		e.attacker, e.attackErr = prid.NewAttacker(e.model)
	})
	return e.attacker, e.attackErr
}

// Registry is a named, hot-reloadable collection of served models. Reads
// (every request) take the read lock only long enough to grab the entry
// pointer; loads build the replacement entry outside the lock and swap it
// in, so a reload never stalls the hot path. Replaced entries keep
// serving requests that already hold them — their batcher drains before
// closing.
type Registry struct {
	newBatcher func(m Served) *Batcher

	mu      sync.RWMutex
	entries map[string]*Entry
}

// NewRegistry returns an empty registry whose entries micro-batch through
// batchers built by mk (nil selects batchers that flush every request
// individually — registry tests use that).
func NewRegistry(mk func(m Served) *Batcher) *Registry {
	if mk == nil {
		mk = func(m Served) *Batcher { return NewBatcher(m.PredictBatch, 0, 1) }
	}
	return &Registry{newBatcher: mk, entries: make(map[string]*Entry)}
}

// Register installs model under name. A model already registered under
// that name is replaced atomically; its batcher drains and closes.
func (r *Registry) Register(name, path string, model *prid.Model) {
	r.install(&Entry{
		info: wire.ModelInfo{
			Name:      name,
			Path:      path,
			Features:  model.Features(),
			Dimension: model.Dimension(),
			Classes:   model.Classes(),
			LoadedAt:  time.Now().UTC(),
		},
		served: model,
		model:  model,
	})
}

// RegisterBinary installs a bit-packed model under name: predicts and
// similarities route through the Hamming fast path, while reconstruct
// and leakage audits are refused (the float hypervectors are gone).
func (r *Registry) RegisterBinary(name, path string, model *prid.BinaryModel) {
	r.install(&Entry{
		info: wire.ModelInfo{
			Name:      name,
			Path:      path,
			Mode:      ModeBinary,
			Features:  model.Features(),
			Dimension: model.Dimension(),
			Classes:   model.Classes(),
			LoadedAt:  time.Now().UTC(),
		},
		served: model,
	})
}

// install swaps e into the registry, building its batcher and closing
// the batcher of any entry it replaces.
func (r *Registry) install(e *Entry) {
	e.batch = r.newBatcher(e.served)
	r.mu.Lock()
	old := r.entries[e.info.Name]
	r.entries[e.info.Name] = e
	r.mu.Unlock()
	if old != nil {
		old.batch.Close()
	}
	//pridlint:allow leaksurface logs wire.ModelInfo metadata (name, path, shape) only; class rows never pass through wire.ModelInfo
	logger.Info("model registered", "name", e.info.Name, "path", e.info.Path,
		"store", e.info.Store, "generation", e.info.Generation, "mode", e.info.Mode,
		"features", e.info.Features, "dim", e.info.Dimension, "classes", e.info.Classes)
}

// LoadFile loads the model file at path and registers it under name.
func (r *Registry) LoadFile(name, path string) error {
	model, err := prid.LoadFile(path)
	if err != nil {
		return fmt.Errorf("serve: loading model %q: %w", name, err)
	}
	r.Register(name, path, model)
	return nil
}

// LoadFileBinary loads the model file at path into binary serving form —
// a persisted-binary artifact directly, a float artifact binarized on
// load — and registers it under name.
func (r *Registry) LoadFileBinary(name, path string) error {
	model, err := prid.LoadBinaryFile(path)
	if err != nil {
		return fmt.Errorf("serve: loading binary model %q: %w", name, err)
	}
	r.RegisterBinary(name, path, model)
	return nil
}

// LoadStore loads the newest intact generation of name from st and
// registers it as a store-backed entry: Reload pulls newer verified
// generations from the same store, and the entry's listing carries the
// served generation and checksum.
func (r *Registry) LoadStore(name string, st *store.Store) error {
	model, meta, err := prid.LoadNewest(st, name)
	if err != nil {
		return fmt.Errorf("serve: loading model %q from store %s: %w", name, st.Dir(), err)
	}
	r.install(storeEntry(name, st, meta, model, model))
	return nil
}

// LoadStoreBinary is LoadStore through the binary loader: the newest
// intact generation (float or persisted-binary) is served in bit-packed
// Hamming form, and reloads stay in binary mode.
func (r *Registry) LoadStoreBinary(name string, st *store.Store) error {
	model, meta, err := prid.LoadNewestBinary(st, name)
	if err != nil {
		return fmt.Errorf("serve: loading binary model %q from store %s: %w", name, st.Dir(), err)
	}
	r.install(storeEntry(name, st, meta, model, nil))
	return nil
}

// storeEntry assembles a store-backed entry; fm is nil for binary mode.
func storeEntry(name string, st *store.Store, meta store.Meta, served Served, fm *prid.Model) *Entry {
	mode := ""
	if fm == nil {
		mode = ModeBinary
	}
	return &Entry{
		info: wire.ModelInfo{
			Name:       name,
			Store:      st.Dir(),
			Generation: meta.Generation,
			Checksum:   meta.SHA256,
			Mode:       mode,
			Features:   meta.Features,
			Dimension:  meta.Dimension,
			Classes:    meta.Classes,
			LoadedAt:   time.Now().UTC(),
		},
		served: served,
		model:  fm,
		st:     st,
	}
}

// reloadStore refreshes one store-backed entry with a no-rollback
// guard: the swap happens only when the newest *verified* generation is
// strictly newer than the one being served. A corrupt head that forces
// the store to fall back to an older generation therefore never evicts
// the serving model — in PRID's setting, silently rolling a served model
// back can reinstate a less-defended, higher-leakage generation.
func (r *Registry) reloadStore(e *Entry) error {
	// A binary entry reloads through the binary loader so the serving
	// mode survives hot reloads and generation advances.
	var served Served
	var fm *prid.Model
	var meta store.Meta
	var err error
	if e.info.Mode == ModeBinary {
		served, meta, err = prid.LoadNewestBinary(e.st, e.info.Name)
	} else {
		fm, meta, err = prid.LoadNewest(e.st, e.info.Name)
		served = fm
	}
	if err != nil {
		// Nothing intact in the store: keep serving what we have, loudly.
		return fmt.Errorf("serve: reloading model %q from store %s (still serving generation %d): %w",
			e.info.Name, e.st.Dir(), e.info.Generation, err)
	}
	if meta.Generation < e.info.Generation {
		logger.Warn("store reload refused: newest intact generation is older than served",
			"model", e.info.Name, "served", e.info.Generation, "intact", meta.Generation)
		return nil
	}
	if meta.Generation == e.info.Generation {
		return nil // already serving the newest intact generation
	}
	r.install(storeEntry(e.info.Name, e.st, meta, served, fm))
	return nil
}

// Reload re-reads every backed entry and swaps the result in (hot
// reload: in-flight requests finish on the old models). File-backed
// entries re-read their path; store-backed entries pull the newest
// verified generation, refusing rollbacks (see reloadStore). Entries
// registered with neither are left untouched. The first error aborts
// the sweep; models already reloaded stay reloaded.
func (r *Registry) Reload() (int, error) {
	r.mu.RLock()
	backed := make([]*Entry, 0, len(r.entries))
	for _, e := range r.entries {
		if e.info.Path != "" || e.st != nil {
			backed = append(backed, e)
		}
	}
	r.mu.RUnlock()
	sort.Slice(backed, func(i, j int) bool { return backed[i].info.Name < backed[j].info.Name })
	for _, e := range backed {
		var err error
		switch {
		case e.st != nil:
			err = r.reloadStore(e)
		case e.info.Mode == ModeBinary:
			err = r.LoadFileBinary(e.info.Name, e.info.Path)
		default:
			err = r.LoadFile(e.info.Name, e.info.Path)
		}
		if err != nil {
			return 0, err
		}
	}
	metricReloads.Inc()
	return len(backed), nil
}

// Get returns the entry serving name.
func (r *Registry) Get(name string) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// List returns every entry's info, sorted by name.
func (r *Registry) List() []wire.ModelInfo {
	r.mu.RLock()
	infos := make([]wire.ModelInfo, 0, len(r.entries))
	for _, e := range r.entries {
		infos = append(infos, e.info)
	}
	r.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// Len returns the number of registered models.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// Close drains and closes every entry's batcher.
func (r *Registry) Close() {
	r.mu.Lock()
	entries := r.entries
	r.entries = make(map[string]*Entry)
	r.mu.Unlock()
	for _, e := range entries {
		e.batch.Close()
	}
}
