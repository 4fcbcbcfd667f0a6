package experiments

import (
	"context"
	"fmt"

	"repro/internal/aio"
	"repro/internal/compare"
)

// Ablations renders the design-choice studies of DESIGN.md §6 as one
// table: each row disables or replaces one design decision of the method
// and reports the impact on the end-to-end comparison (virtual runtime and
// bytes read) or on the relevant sub-metric.
func (e *Env) Ablations(ctx context.Context) (*Table, error) {
	p, err := e.MakePair("500M", 77)
	if err != nil {
		return nil, err
	}
	const (
		eps   = 1e-5
		chunk = 4 << 10
	)
	if err := e.BuildMetadataFor(ctx, p, eps, chunk); err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "Ablations",
		Title:  fmt.Sprintf("Design-choice ablations (%s checkpoints, ε=%.0e, %s chunks)", gb(p.Bytes), eps, kb(chunk)),
		Header: []string{"Variant", "Virtual(ms)", "BytesRead", "Notes"},
		Notes: []string{
			"each row changes exactly one design decision; baseline first",
			"see BenchmarkAblation* for the wall-clock counterparts",
		},
	}

	run := func(label, notes string, mutate func(*compare.Options)) error {
		opts := e.opts(eps, chunk)
		if mutate != nil {
			mutate(&opts)
		}
		e.Store.EvictAll()
		res, err := compare.CompareMerkle(ctx, e.Store, p.NameA, p.NameB, opts)
		if err != nil {
			return fmt.Errorf("ablation %s: %w", label, err)
		}
		t.Rows = append(t.Rows, []string{
			label,
			fmt.Sprintf("%.3f", res.VirtualElapsed().Seconds()*1e3),
			gb(res.BytesRead),
			notes,
		})
		return nil
	}

	if err := run("baseline", "mid-tree BFS, io_uring pricing + coalescing, depth-2 pipeline", nil); err != nil {
		return nil, err
	}
	if err := run("BFS from root", "no mid-tree start (§2.5.1)", func(o *compare.Options) {
		o.StartLevel = 1 // 0 is "auto"; 1 is effectively the root region
	}); err != nil {
		return nil, err
	}
	if err := run("mmap backend", "synchronous page faults instead of io_uring (§2.5.2)", func(o *compare.Options) {
		o.Backend = aio.Mmap{}
	}); err != nil {
		return nil, err
	}
	if err := run("no pipelining", "single giant slice: stage-2 I/O and compare serialize (Fig. 3)", func(o *compare.Options) {
		o.SliceBytes = 1 << 30
	}); err != nil {
		return nil, err
	}
	if err := run("no coalescing", "every candidate chunk is its own PFS op", func(o *compare.Options) {
		o.CoalesceMaxGap = -1
	}); err != nil {
		return nil, err
	}
	if err := run("depth-1 pipeline", "one window in flight: stage-2 I/O and compare serialize", func(o *compare.Options) {
		o.Depth = 1
	}); err != nil {
		return nil, err
	}
	if err := run("depth-4 pipeline", "four windows in flight", func(o *compare.Options) {
		o.Depth = 4
	}); err != nil {
		return nil, err
	}

	// Tree-construction ablation (chained vs flat hashing) is covered by
	// BenchmarkAblationBlockChain: chained hashing costs hashing
	// throughput but makes the digest order-sensitive across the whole
	// chunk; note the trade-off here.
	t.Rows = append(t.Rows, []string{
		"flat chunk hash", "n/a", "n/a",
		"see BenchmarkAblationBlockChain: ~8x faster hashing, loses block-order chaining (§2.4)",
	})
	return t, nil
}
