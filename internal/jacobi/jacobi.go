// Package jacobi implements a second evaluation substrate: a 2-D heat
// diffusion solver (Jacobi iteration) with a nondeterministic parallel
// residual reduction. Where the HACC substrate exhibits divergence through
// chaotic N-body dynamics, this solver shows the other common mechanism
// the paper's introduction cites: a *convergence decision* driven by a
// floating-point reduction whose accumulation order varies between runs.
// Two runs compute nearly identical fields, but once the reduced residual
// straddles the tolerance differently, iteration counts — and therefore
// captured intermediate states — diverge.
package jacobi

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/ckpt"
	"repro/internal/errbound"
)

// Config parameterizes a solver run.
type Config struct {
	// N is the grid extent per axis (interior points; boundaries fixed).
	N int
	// Alpha is the diffusion coefficient (0 < Alpha <= 0.25 for
	// stability of the explicit scheme).
	Alpha float64
	// Seed determines the initial temperature field (identical across
	// compared runs).
	Seed int64
	// Nondet enables nondeterministic residual reduction.
	Nondet bool
	// NondetSeed distinguishes runs (used only when Nondet is set).
	NondetSeed int64
	// ReduceChunks is the number of partial sums in the parallel
	// reduction (the "thread count"; default 16).
	ReduceChunks int
}

// DefaultConfig returns a stable configuration.
func DefaultConfig(n int) Config {
	return Config{N: n, Alpha: 0.2, Seed: 1, ReduceChunks: 16}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.N < 4 {
		return fmt.Errorf("jacobi: grid %d too small", c.N)
	}
	if c.Alpha <= 0 || c.Alpha > 0.25 {
		return fmt.Errorf("jacobi: alpha %v outside (0, 0.25]", c.Alpha)
	}
	if c.ReduceChunks < 1 {
		return fmt.Errorf("jacobi: reduce chunks %d must be positive", c.ReduceChunks)
	}
	return nil
}

// Sim is one solver run.
type Sim struct {
	cfg  Config
	step int
	u    []float64 // current field, (N+2)² with boundary ring
	next []float64
	res  float64 // last residual
	rng  *rand.Rand
}

// New creates a solver with a deterministic random hot-spot initial field.
func New(cfg Config) (*Sim, error) {
	if cfg.ReduceChunks == 0 {
		cfg.ReduceChunks = 16
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	side := cfg.N + 2
	s := &Sim{
		cfg:  cfg,
		u:    make([]float64, side*side),
		next: make([]float64, side*side),
	}
	if cfg.Nondet {
		s.rng = rand.New(rand.NewSource(cfg.NondetSeed))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for k := 0; k < 8; k++ {
		cx, cy := 1+rng.Intn(cfg.N), 1+rng.Intn(cfg.N)
		amp := 50 + rng.Float64()*100
		sigma := 2 + rng.Float64()*float64(cfg.N)/8
		for y := 1; y <= cfg.N; y++ {
			for x := 1; x <= cfg.N; x++ {
				d2 := float64((x-cx)*(x-cx) + (y-cy)*(y-cy))
				s.u[y*side+x] += amp * math.Exp(-d2/(2*sigma*sigma))
			}
		}
	}
	return s, nil
}

// Iteration returns the completed step count.
func (s *Sim) Iteration() int { return s.step }

// Residual returns the last step's reduced residual.
func (s *Sim) Residual() float64 { return s.res }

// Step advances one Jacobi sweep and computes the residual with a
// chunked parallel-style reduction. In nondeterministic mode, the chunk
// partial sums are combined in a shuffled order in float32 precision —
// the canonical nondeterministic-reduction pattern.
func (s *Sim) Step() {
	n := s.cfg.N
	side := n + 2
	a := s.cfg.Alpha
	for y := 1; y <= n; y++ {
		for x := 1; x <= n; x++ {
			i := y*side + x
			lap := s.u[i-1] + s.u[i+1] + s.u[i-side] + s.u[i+side] - 4*s.u[i]
			s.next[i] = s.u[i] + a*lap
		}
	}

	// Residual = Σ (next-u)², reduced in chunks.
	chunks := s.cfg.ReduceChunks
	partials := make([]float64, chunks)
	rows := (n + chunks - 1) / chunks
	for c := 0; c < chunks; c++ {
		lo, hi := 1+c*rows, 1+(c+1)*rows
		if hi > n+1 {
			hi = n + 1
		}
		var sum float64
		for y := lo; y < hi; y++ {
			for x := 1; x <= n; x++ {
				i := y*side + x
				d := s.next[i] - s.u[i]
				sum += d * d
			}
		}
		partials[c] = sum
	}
	if s.rng != nil {
		s.rng.Shuffle(chunks, func(i, j int) { partials[i], partials[j] = partials[j], partials[i] })
		var acc float32
		for _, p := range partials {
			acc += float32(p) // float32 tree-less accumulation, shuffled
		}
		s.res = float64(acc)
	} else {
		var acc float64
		for _, p := range partials {
			acc += p
		}
		s.res = acc
	}

	s.u, s.next = s.next, s.u
	s.step++
}

// RunUntil advances until the residual drops below tol or maxSteps is
// reached, returning the number of steps executed. Because the residual
// is reduced nondeterministically, two runs can stop at different
// iteration counts — the divergence mechanism this substrate contributes.
func (s *Sim) RunUntil(tol float64, maxSteps int) int {
	start := s.step
	for s.step-start < maxSteps {
		s.Step()
		if s.res < tol {
			break
		}
	}
	return s.step - start
}

// FieldNames lists the checkpointed variables.
var FieldNames = []string{"temp"}

// Schema returns the checkpoint schema for the solver's grid.
func Schema(n int) []ckpt.FieldSpec {
	return []ckpt.FieldSpec{{Name: "temp", DType: errbound.Float32, Count: int64(n * n)}}
}

// Snapshot captures the interior field as checkpoint buffers.
func (s *Sim) Snapshot() [][]byte {
	n := s.cfg.N
	side := n + 2
	out := make([]byte, 4*n*n)
	k := 0
	for y := 1; y <= n; y++ {
		for x := 1; x <= n; x++ {
			binary.LittleEndian.PutUint32(out[k*4:], math.Float32bits(float32(s.u[y*side+x])))
			k++
		}
	}
	return [][]byte{out}
}

// CheckpointMeta builds the checkpoint identity for the current iteration.
func (s *Sim) CheckpointMeta(runID string, rank int) ckpt.Meta {
	return ckpt.Meta{
		RunID:     runID,
		Iteration: s.step,
		Rank:      rank,
		Fields:    Schema(s.cfg.N),
	}
}

// Capture snapshots the field into a checkpointer.
func (s *Sim) Capture(c *ckpt.Checkpointer, runID string, rank int) error {
	return c.Capture(s.CheckpointMeta(runID, rank), s.Snapshot())
}
