package experiments

import (
	"fmt"
)

// Table1 reproduces the paper's Table 1: the HACC checkpoint schema and
// the problem-size → checkpoint-size map, at both paper and scaled sizes.
func (e *Env) Table1() (*Table, error) {
	t := &Table{
		ID:     "Table 1",
		Title:  "Content of HACC checkpoints",
		Header: []string{"Size", "#Particles(paper)", "Chkpt(paper)", "Chkpt(scaled)", "#Particles(scaled)"},
		Notes: []string{
			"fields: x, y, z, vx, vy, vz (F32 coordinates/velocities), phi (F32 grav. potential)",
			fmt.Sprintf("scale divisor: %d (see DESIGN.md §5)", e.ScaleDiv),
		},
	}
	for _, size := range []string{"500M", "1B", "2B", "17B"} {
		scaled, err := e.ScaledBytes(size)
		if err != nil {
			return nil, err
		}
		paperParticles := map[string]string{
			"500M": "0.5 B", "1B": "1 B", "2B": "2 B", "17B": "17 B (1.1 GB/rank)",
		}[size]
		t.Rows = append(t.Rows, []string{
			size,
			paperParticles,
			gb(PaperCheckpointBytes[size]),
			gb(scaled),
			fmt.Sprintf("%d", scaledParticles(scaled)),
		})
	}
	return t, nil
}

// Table2 reproduces the paper's Table 2: the evaluation parameter matrix.
func (e *Env) Table2() (*Table, error) {
	return &Table{
		ID:     "Table 2",
		Title:  "Setup used to evaluate performance and scalability",
		Header: []string{"Description", "Values"},
		Rows: [][]string{
			{"Number of Nodes", "1, 2, 4, 8, 16, 32 (simulated; 4 processes per node)"},
			{"Error bounds", "1e-3, 1e-4, 1e-5, 1e-6, 1e-7"},
			{"Chunk sizes", "4KB-512KB"},
		},
		Notes: []string{
			"nodes are simulated processes sharing a cost-modelled PFS (internal/experiments, fig10.go)",
		},
	}, nil
}
