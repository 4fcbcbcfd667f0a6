package experiments

import (
	"context"
	"fmt"

	"repro/internal/compare"
	"repro/internal/metrics"
)

// Fig6 reproduces Figure 6 (a: ε=1e-7, b: ε=1e-3): the comparison runtime
// broken into the five phase timers, across chunk sizes, in virtual
// seconds.
func (e *Env) Fig6(ctx context.Context, eps float64) (*Table, error) {
	p, err := e.MakePair("2B", 6)
	if err != nil {
		return nil, err
	}
	sub := "a"
	if eps >= 1e-4 {
		sub = "b"
	}
	t := &Table{
		ID:    "Figure 6" + sub,
		Title: fmt.Sprintf("Runtime breakdown (virtual s), error bound %.0e", eps),
		Header: []string{"Chunk", "Setup", "Read", "Deserialize", "CompareTree",
			"CompareDirect", "Total"},
		Notes: []string{
			"Read covers metadata only; CompareDirect owns its (overlapped) data loading, as in the paper",
		},
	}
	for _, chunk := range ChunkSizes {
		if err := e.BuildMetadataFor(ctx, p, eps, chunk); err != nil {
			return nil, err
		}
		e.Store.EvictAll()
		res, err := compare.CompareMerkle(ctx, e.Store, p.NameA, p.NameB, e.opts(eps, chunk))
		if err != nil {
			return nil, fmt.Errorf("fig6 eps=%g chunk=%d: %w", eps, chunk, err)
		}
		row := []string{kb(chunk)}
		for _, ph := range metrics.Phases() {
			row = append(row, fmt.Sprintf("%.4f", res.Breakdown.Get(ph).Virtual.Seconds()))
		}
		row = append(row, fmt.Sprintf("%.4f", res.VirtualElapsed().Seconds()))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
