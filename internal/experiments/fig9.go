package experiments

import (
	"context"
	"fmt"

	"repro/internal/aio"
	"repro/internal/compare"
)

// Fig9 reproduces Figure 9: completion time of the comparison with the
// mmap backend vs the io_uring backend for the scattered verification I/O
// (500-million-particle checkpoints, ε=1e-7, several repetitions to show
// spread). Lower is better; the paper reports io_uring >3× faster with
// less variance.
func (e *Env) Fig9(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:     "Figure 9",
		Title:  "Scattered-I/O backend completion time (virtual s), ε=1e-7",
		Header: []string{"Chunk", "mmap(mean)", "mmap(min–max)", "io_uring(mean)", "io_uring(min–max)", "speedup"},
		Notes: []string{
			"three repetitions with distinct perturbation seeds per cell",
		},
	}
	const reps = 3
	// One engine for every cell.
	uring := aio.NewUring(256)
	for _, chunk := range []int{4 << 10, 8 << 10, 16 << 10} {
		stats := map[string][]float64{}
		for rep := 0; rep < reps; rep++ {
			p, err := e.MakePair("500M", int64(90+rep))
			if err != nil {
				return nil, err
			}
			if err := e.BuildMetadataFor(ctx, p, 1e-7, chunk); err != nil {
				return nil, err
			}
			for _, backend := range []aio.Backend{aio.Mmap{}, uring} {
				opts := e.opts(1e-7, chunk)
				opts.Backend = backend
				e.Store.EvictAll()
				res, err := compare.CompareMerkle(ctx, e.Store, p.NameA, p.NameB, opts)
				if err != nil {
					return nil, fmt.Errorf("fig9 %s chunk=%d: %w", backend.Name(), chunk, err)
				}
				stats[backend.Name()] = append(stats[backend.Name()], res.VirtualElapsed().Seconds())
			}
		}
		mmapMean, mmapMin, mmapMax := summarize(stats["mmap"])
		urMean, urMin, urMax := summarize(stats["io_uring"])
		t.Rows = append(t.Rows, []string{
			kb(chunk),
			fmt.Sprintf("%.3f", mmapMean),
			fmt.Sprintf("%.3f–%.3f", mmapMin, mmapMax),
			fmt.Sprintf("%.3f", urMean),
			fmt.Sprintf("%.3f–%.3f", urMin, urMax),
			fmt.Sprintf("%.1fx", mmapMean/urMean),
		})
	}
	return t, nil
}

func summarize(xs []float64) (mean, min, max float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs {
		mean += x
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return mean / float64(len(xs)), min, max
}
