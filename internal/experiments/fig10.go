package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/compare"
	"repro/internal/metrics"
)

// fig10PerNode is how many simulated processes share one node's PFS link
// (four, as on Polaris).
const fig10PerNode = 4

// strongScale compares the pairs over procs simulated processes on the
// paper's static stride schedule — pair i on process i mod procs, each
// process working through its share in order — and returns the mean
// per-process throughput (GB/s) and the slowest process's virtual runtime,
// the study's makespan. Processes on one node contend for that node's PFS
// link (the store's sharers factor); distinct nodes add bandwidth, so the
// aggregate scales near-linearly. The page cache is evicted first so every
// process starts cold.
func (e *Env) strongScale(ctx context.Context, pairs []Pair, procs int, m compare.Method, opts compare.Options) (gbps float64, makespan time.Duration, err error) {
	e.Store.EvictAll()
	e.Store.SetSharers(min(procs, fig10PerNode))
	defer e.Store.SetSharers(1)
	for proc := 0; proc < procs; proc++ {
		var virtual time.Duration
		var bytes int64
		for i := proc; i < len(pairs); i += procs {
			r, err := m.Run(ctx, e.Store, pairs[i].NameA, pairs[i].NameB, opts)
			if err != nil {
				return 0, 0, fmt.Errorf("proc %d pair %d: %w", proc, i, err)
			}
			virtual += r.VirtualElapsed()
			bytes += 2 * r.CheckpointBytes
		}
		gbps += metrics.Throughput(bytes, virtual)
		makespan = max(makespan, virtual)
	}
	return gbps / float64(procs), makespan, nil
}

// Fig10 reproduces Figure 10 (a: ε=1e-7, b: ε=1e-3): strong scaling of
// the Merkle method vs Direct over an increasing process count (four per
// node), comparing a fixed workload of checkpoint pairs from the
// 17-billion-particle run. Reported: mean per-process throughput (GB/s,
// higher is better) and makespan (virtual s, lower is better).
func (e *Env) Fig10(ctx context.Context, eps float64, pairsCount int, processCounts []int) (*Table, error) {
	if pairsCount <= 0 {
		pairsCount = 128
	}
	if len(processCounts) == 0 {
		processCounts = []int{16, 32, 64, 128}
	}
	sub := "a"
	if eps >= 1e-4 {
		sub = "b"
	}
	// Build the workload: pairsCount checkpoint pairs at the 17B per-rank
	// scale, with metadata at the sweep's chunk size.
	const chunk = 64 << 10
	pairs := make([]Pair, 0, pairsCount)
	for i := 0; i < pairsCount; i++ {
		p, err := e.MakePair("17B", int64(1000+i))
		if err != nil {
			return nil, err
		}
		if err := e.BuildMetadataFor(ctx, p, eps, chunk); err != nil {
			return nil, err
		}
		pairs = append(pairs, p)
	}

	t := &Table{
		ID:    "Figure 10" + sub,
		Title: fmt.Sprintf("Strong scaling, %d checkpoint pairs, ε=%.0e", pairsCount, eps),
		Header: []string{"Processes", "Direct GB/s/proc", "Ours GB/s/proc",
			"Direct makespan", "Ours makespan", "speedup"},
		Notes: []string{
			"four processes per node share one node's PFS link (cost model)",
			fmt.Sprintf("chunk size %s; throughput is per-process mean on the virtual clock", kb(chunk)),
		},
	}
	for _, procs := range processCounts {
		row := []string{fmt.Sprintf("%d", procs)}
		var makespans []float64
		var ths []float64
		for _, m := range []compare.Method{compare.MethodDirect, compare.MethodMerkle} {
			th, makespan, err := e.strongScale(ctx, pairs, procs, m, e.opts(eps, chunk))
			if err != nil {
				return nil, fmt.Errorf("fig10 %s procs=%d: %w", m, procs, err)
			}
			ths = append(ths, th)
			makespans = append(makespans, makespan.Seconds())
		}
		row = append(row,
			fmt.Sprintf("%.2f", ths[0]),
			fmt.Sprintf("%.2f", ths[1]),
			fmt.Sprintf("%.3f", makespans[0]),
			fmt.Sprintf("%.3f", makespans[1]),
			fmt.Sprintf("%.1fx", makespans[0]/makespans[1]),
		)
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
