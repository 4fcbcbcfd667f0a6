// Package synth generates synthetic checkpoint data with precisely
// controllable run-to-run divergence, used by the experiment harness to
// sweep the error-bound × chunk-size space of Figs. 5–7 without paying for
// full simulation runs at every problem size.
//
// The perturbation model mirrors what nondeterministic HACC runs produce
// (see internal/hacc): differences are spatially correlated — contiguous
// regions of particles share a divergence scale — and their magnitudes are
// log-uniformly distributed across several decades, so each error bound ε
// in the paper's sweep {1e-3..1e-7} marks a different fraction of the data
// as changed.
package synth

import (
	"encoding/binary"
	"math"
	"math/rand"

	"repro/internal/errbound"
)

// FieldF32 generates n float32 elements with HACC-like statistics:
// smoothly varying positive coordinates mixed with Gaussian velocities,
// deterministic in seed.
func FieldF32(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, 4*n)
	walk := rng.Float64() * 100
	for i := 0; i < n; i++ {
		walk += rng.NormFloat64() * 0.01
		v := float32(walk + rng.NormFloat64()*0.1)
		binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(v))
	}
	return out
}

// PerturbConfig controls the divergence injected between two runs.
type PerturbConfig struct {
	// Seed makes the perturbation deterministic.
	Seed int64
	// BlockElems is the spatial-correlation length: contiguous blocks of
	// this many elements share a base divergence magnitude.
	BlockElems int
	// MagLo and MagHi bound the log-uniform block magnitude distribution.
	MagLo, MagHi float64
	// UntouchedFrac is the fraction of blocks left bit-identical
	// (regions where the two runs agree exactly).
	UntouchedFrac float64
	// ChangedFrac is the fraction of elements that actually change within
	// a touched block (divergence is sparse: a few particles differ, not
	// every value). Default 1/1024.
	ChangedFrac float64
}

// DefaultPerturb matches the statistics of the paper's nondeterministic
// HACC runs: divergence magnitudes span the whole ε sweep (log-uniform
// 1e-8..1e-2), regions of divergence are long (64 KB correlation length,
// matching the high marked fractions of Fig. 7a even at 4 KB chunks),
// changes within a region are sparse (so within-bound regions only rarely
// cross an ε-grid boundary, keeping hash false-positive rates in the
// paper's 0–0.2 range), and a modest fraction of the data is
// bit-identical. With these parameters ε=1e-3 marks ~15% of chunks and
// ε=1e-7 marks ~70%.
func DefaultPerturb(seed int64) PerturbConfig {
	return PerturbConfig{
		Seed:          seed,
		BlockElems:    16384,
		MagLo:         1e-8,
		MagHi:         1e-2,
		UntouchedFrac: 0.15,
		ChangedFrac:   1.0 / 1024,
	}
}

// PerturbF32 returns a perturbed copy of a float32 field under the config.
func PerturbF32(data []byte, cfg PerturbConfig) []byte {
	n := len(data) / 4
	out := make([]byte, len(data))
	copy(out, data)
	if cfg.BlockElems <= 0 {
		cfg.BlockElems = 1024
	}
	if cfg.MagLo <= 0 || cfg.MagHi < cfg.MagLo {
		return out
	}
	if cfg.ChangedFrac <= 0 || cfg.ChangedFrac > 1 {
		cfg.ChangedFrac = 1.0 / 1024
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	logLo, logHi := math.Log(cfg.MagLo), math.Log(cfg.MagHi)
	for start := 0; start < n; start += cfg.BlockElems {
		end := start + cfg.BlockElems
		if end > n {
			end = n
		}
		if rng.Float64() < cfg.UntouchedFrac {
			continue
		}
		mag := math.Exp(logLo + rng.Float64()*(logHi-logLo))
		for i := start; i < end; i++ {
			if rng.Float64() >= cfg.ChangedFrac {
				continue
			}
			bits := binary.LittleEndian.Uint32(out[i*4:])
			v := float64(math.Float32frombits(bits))
			delta := mag * (0.5 + rng.Float64()) // magnitude within [0.5, 1.5]·mag
			if rng.Intn(2) == 0 {
				delta = -delta
			}
			binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(float32(v+delta)))
		}
	}
	return out
}

// CountExceedingF32 returns how many element pairs differ by more than eps.
func CountExceedingF32(a, b []byte, eps float64) int {
	n := len(a) / 4
	if len(b)/4 < n {
		n = len(b) / 4
	}
	count := 0
	for i := 0; i < n; i++ {
		va := float64(math.Float32frombits(binary.LittleEndian.Uint32(a[i*4:])))
		vb := float64(math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:])))
		if !errbound.Equal(va, vb, eps) {
			count++
		}
	}
	return count
}

// RunPair generates the fields of two synthetic checkpoint "runs" with the
// given per-field element count: run B is run A under the perturbation.
func RunPair(fieldElems int, nFields int, dataSeed int64, perturb PerturbConfig) (runA, runB [][]byte) {
	runA = make([][]byte, nFields)
	runB = make([][]byte, nFields)
	for f := 0; f < nFields; f++ {
		runA[f] = FieldF32(fieldElems, dataSeed+int64(f)*7919)
		p := perturb
		p.Seed = perturb.Seed + int64(f)*104729
		runB[f] = PerturbF32(runA[f], p)
	}
	return runA, runB
}
