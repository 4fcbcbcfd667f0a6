// Package catalog maintains per-run manifests: a machine-readable
// inventory of a run's checkpoint history with provenance (application,
// configuration, seeds) and per-checkpoint state (size, schema, metadata
// presence, compaction). Reproducibility studies compare *runs*, so the
// manifest is what ties a history of files back to "what produced this" —
// the provenance layer the paper's related work (§4) attributes to
// workflow systems, scoped down to what the comparator needs.
package catalog

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/cas"
	"repro/internal/ckpt"
	"repro/internal/compare"
	"repro/internal/pfs"
)

// Manifest is one run's provenance record.
type Manifest struct {
	// RunID is the run's history prefix on the store.
	RunID string `json:"runId"`
	// App names the producing application ("hacc", "jacobi", ...).
	App string `json:"app,omitempty"`
	// Config is the application configuration, app-defined JSON.
	Config json.RawMessage `json:"config,omitempty"`
	// CreatedUnix is the manifest creation time (seconds).
	CreatedUnix int64 `json:"createdUnix"`
	// Checkpoints inventories the history, ordered by iteration and rank.
	Checkpoints []Entry `json:"checkpoints"`
}

// Entry is one checkpoint's state.
type Entry struct {
	Name        string  `json:"name"`
	Iteration   int     `json:"iteration"`
	Rank        int     `json:"rank"`
	Fields      int     `json:"fields"`
	DataBytes   int64   `json:"dataBytes"`
	Compacted   bool    `json:"compacted"`
	// Differential marks a checkpoint captured through the shared CAS: it
	// has no container file — its chunks live as extents of the store's
	// pack, addressed by the leaf manifest next to the checkpoint name.
	Differential bool `json:"differential,omitempty"`
	HasMetadata  bool `json:"hasMetadata"`
	Epsilon     float64 `json:"epsilon,omitempty"`
	ChunkSize   int     `json:"chunkSize,omitempty"`
	MetaBytes   int64   `json:"metaBytes,omitempty"`
}

// ManifestName returns the run's manifest path on the store.
func ManifestName(runID string) string { return runID + "/manifest.json" }

// Scan builds a manifest from the store's current contents: both live
// checkpoints and compacted (metadata-only) ones are inventoried.
// Cancellation is observed between checkpoints.
func Scan(ctx context.Context, store *pfs.Store, runID string, now func() time.Time) (*Manifest, error) {
	if now == nil {
		// Manifest creation timestamps are run metadata, not priced
		// measurements; callers inject a fixed clock for reproducible
		// manifests.
		now = time.Now
	}
	live, err := ckpt.History(store, runID)
	if err != nil {
		return nil, err
	}
	withMeta, err := compare.MetadataHistory(store, runID)
	if err != nil {
		return nil, err
	}
	names := map[string]bool{}
	for _, n := range live {
		names[n] = true
	}
	for _, n := range withMeta {
		names[n] = true
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("catalog: run %q has no checkpoints", runID)
	}
	m := &Manifest{RunID: runID, CreatedUnix: now().Unix()}
	for name := range names {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		_, it, rank, ok := ckpt.ParseName(name)
		if !ok {
			continue
		}
		e := Entry{Name: name, Iteration: it, Rank: rank}
		if r, _, err := ckpt.OpenReader(store, name); err == nil {
			e.Fields = r.NumFields()
			e.DataBytes = r.Meta().TotalBytes()
			r.Close()
		} else if man, _, _, err := cas.LoadManifest(ctx, store, name, nil); err == nil {
			// No container, but a leaf manifest: a differential capture —
			// fully recoverable from the shared pack, not compacted.
			e.Differential = true
			e.Fields = len(man.Fields)
			e.DataBytes = man.TotalBytes()
		} else {
			e.Compacted = true
		}
		if meta, _, _, err := compare.LoadMetadata(ctx, store, name); err == nil {
			e.HasMetadata = true
			e.Epsilon = meta.Epsilon
			e.MetaBytes = meta.Bytes()
			if len(meta.Fields) > 0 {
				e.ChunkSize = meta.Fields[0].Tree.ChunkSize()
				if e.Compacted {
					e.Fields = len(meta.Fields)
					for _, f := range meta.Fields {
						e.DataBytes += f.Tree.DataLen()
					}
				}
			}
		}
		m.Checkpoints = append(m.Checkpoints, e)
	}
	sort.Slice(m.Checkpoints, func(a, b int) bool {
		ca, cb := m.Checkpoints[a], m.Checkpoints[b]
		if ca.Iteration != cb.Iteration {
			return ca.Iteration < cb.Iteration
		}
		return ca.Rank < cb.Rank
	})
	return m, nil
}

// SetApp records the producing application and its configuration.
func (m *Manifest) SetApp(app string, config any) error {
	raw, err := json.Marshal(config)
	if err != nil {
		return fmt.Errorf("catalog: marshal config: %w", err)
	}
	m.App = app
	m.Config = raw
	return nil
}

// TotalDataBytes sums the (original) data footprint of the history.
func (m *Manifest) TotalDataBytes() int64 {
	var t int64
	for _, e := range m.Checkpoints {
		t += e.DataBytes
	}
	return t
}

// LiveDataBytes sums only non-compacted checkpoints.
func (m *Manifest) LiveDataBytes() int64 {
	var t int64
	for _, e := range m.Checkpoints {
		if !e.Compacted {
			t += e.DataBytes
		}
	}
	return t
}

// Save writes the manifest onto the store.
func Save(store *pfs.Store, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("catalog: marshal manifest: %w", err)
	}
	w, err := store.Create(ManifestName(m.RunID))
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// Load reads a run's manifest from the store.
func Load(ctx context.Context, store *pfs.Store, runID string) (*Manifest, error) {
	data, _, err := store.ReadFileFull(ctx, ManifestName(runID), 0, nil)
	if err != nil {
		return nil, err
	}
	var m Manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("catalog: parse manifest for %q: %w", runID, err)
	}
	if m.RunID != runID {
		return nil, fmt.Errorf("catalog: manifest names run %q, expected %q", m.RunID, runID)
	}
	return &m, nil
}

// SameProvenance reports whether two manifests describe comparable runs:
// same application, same configuration, and checkpoint inventories aligned
// by (iteration, rank) with matching schemas.
func SameProvenance(a, b *Manifest) (bool, string) {
	if a.App != b.App {
		return false, fmt.Sprintf("apps differ: %q vs %q", a.App, b.App)
	}
	if !bytes.Equal(a.Config, b.Config) {
		return false, "configurations differ"
	}
	if len(a.Checkpoints) != len(b.Checkpoints) {
		return false, fmt.Sprintf("history lengths differ: %d vs %d", len(a.Checkpoints), len(b.Checkpoints))
	}
	for i := range a.Checkpoints {
		ea, eb := a.Checkpoints[i], b.Checkpoints[i]
		if ea.Iteration != eb.Iteration || ea.Rank != eb.Rank {
			return false, fmt.Sprintf("entry %d misaligned: iter/rank (%d,%d) vs (%d,%d)",
				i, ea.Iteration, ea.Rank, eb.Iteration, eb.Rank)
		}
		if ea.Fields != eb.Fields || ea.DataBytes != eb.DataBytes {
			return false, fmt.Sprintf("entry %d schema mismatch", i)
		}
	}
	return true, ""
}
