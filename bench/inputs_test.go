package main

import (
	"bytes"
	"testing"
)

func TestSeedDeterminesInputs(t *testing.T) {
	for _, s := range []shape{sparseShape.smoke(), denseShape.smoke(), groupShape.smoke(), captureShape.smoke()} {
		a, b, c := generate(s, 1, poolVariants), generate(s, 1, poolVariants), generate(s, 2, poolVariants)
		if a.digest != b.digest {
			t.Errorf("seed 1 gave digests %v and %v", a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("seeds 1 and 2 gave the same digest %v", a.digest)
		}
		for v := range a.variants {
			for f := range a.variants[v] {
				if !bytes.Equal(a.variants[v][f], b.variants[v][f]) {
					t.Fatalf("seed 1, variant %d field %d: bytes differ between generations", v, f)
				}
			}
			if a.diffs[v] != b.diffs[v] {
				t.Errorf("oracle differs between generations: %d vs %d", a.diffs[v], b.diffs[v])
			}
		}
	}
}

// The amount of divergence is part of the shape, not of the seed: every
// seed touches the same number of blocks, so ops cost the same.
func TestTouchedBlocksFixedAcrossSeeds(t *testing.T) {
	s := sparseShape.smoke()
	// Change every element of a touched block, by enough to survive
	// float32 rounding, so that no touched block can come out unchanged.
	s.perturb.ChangedFrac, s.perturb.MagLo = 1, s.perturb.MagHi
	blockBytes := 4 * s.perturb.BlockElems
	for seed := int64(1); seed <= 5; seed++ {
		in := generate(s, seed, 1)
		for f, base := range in.base {
			touched := 0
			for off := 0; off < len(base); off += blockBytes {
				if !bytes.Equal(base[off:off+blockBytes], in.variants[0][f][off:off+blockBytes]) {
					touched++
				}
			}
			if touched != s.touched {
				t.Errorf("seed %d field %d: %d blocks diverge, want %d", seed, f, touched, s.touched)
			}
		}
		if in.diffs[0] == 0 {
			t.Errorf("seed %d: no element beyond ε, the oracle would check nothing", seed)
		}
	}
}
