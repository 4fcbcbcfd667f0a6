package merkle

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/murmur3"
)

func (t *Tree) numNodes() int { return len(t.nodes) / murmur3.DigestSize }

// nodesEqual compares every node of two trees — root equality alone could
// mask a stale interior node whose parent was coincidentally recomputed
// from fresh siblings.
func nodesEqual(a, b *Tree) (int, bool) {
	if a.numNodes() != b.numNodes() {
		return -1, false
	}
	for i := 0; i < a.numNodes(); i++ {
		if *a.node(i) != *b.node(i) {
			return i, false
		}
	}
	return -1, true
}

// TestUpdateEquivalenceProperty drives Update against a full rebuild under
// randomized seeded dirty-leaf sets: tree sizes spanning the padding edge
// cases (powers of two ±1), dirty fractions from zero through all-dirty,
// serial and parallel executors. Equivalence is asserted on the entire
// node array, not just the root.
func TestUpdateEquivalenceProperty(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 1000, 1024, 1025}
	fracs := []float64{0, 0.01, 0.1, 0.5, 0.9, 1}
	pool := device.NewPool(4)
	defer pool.Close()
	execs := map[string]device.Executor{"serial": nil, "parallel": pool}

	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		for _, n := range sizes {
			for _, frac := range fracs {
				// Seeded random dirty set of round(frac*n) distinct leaves.
				k := int(frac*float64(n) + 0.5)
				perm := rng.Perm(n)
				updates := make([]LeafUpdate, 0, k)
				ref := leafDigests(n, nil)
				for _, c := range perm[:k] {
					d := murmur3.SumDigest([]byte{byte(c), byte(c >> 8), byte(seed), 0xD1}, murmur3.Digest{})
					updates = append(updates, LeafUpdate{Chunk: c, Digest: d})
					ref[c] = d
				}
				for name, exec := range execs {
					t.Run(fmt.Sprintf("n=%d/frac=%v/seed=%d/%s", n, frac, seed, name), func(t *testing.T) {
						tr, err := New(int64(n)*16, 16, leafDigests(n, nil))
						if err != nil {
							t.Fatal(err)
						}
						tr.Build(exec)
						base := tr.Clone()
						rehashed, err := tr.Update(updates, exec)
						if err != nil {
							t.Fatal(err)
						}
						if k == 0 && rehashed != 0 {
							t.Errorf("zero-dirty update rehashed %d nodes", rehashed)
						}

						want, err := New(int64(n)*16, 16, ref)
						if err != nil {
							t.Fatal(err)
						}
						want.Build(exec)
						if i, ok := nodesEqual(tr, want); !ok {
							t.Fatalf("node %d differs from full rebuild (n=%d k=%d)", i, n, k)
						}

						// Clone isolation: the pre-update snapshot is intact.
						fresh, err := New(int64(n)*16, 16, leafDigests(n, nil))
						if err != nil {
							t.Fatal(err)
						}
						fresh.Build(exec)
						if i, ok := nodesEqual(base, fresh); !ok {
							t.Fatalf("Update mutated the clone's source at node %d", i)
						}
					})
				}
			}
		}
	}
}

// TestUpdateAllDirtyCostsFullInterior pins the all-dirty edge: updating
// every leaf rehashes exactly the interior nodes a full Build would.
func TestUpdateAllDirtyCostsFullInterior(t *testing.T) {
	for _, n := range []int{1, 2, 5, 64, 100} {
		tr, err := New(int64(n)*16, 16, leafDigests(n, nil))
		if err != nil {
			t.Fatal(err)
		}
		tr.Build(nil)
		updates := make([]LeafUpdate, n)
		for i := range updates {
			updates[i] = LeafUpdate{Chunk: i, Digest: murmur3.SumDigest([]byte{byte(i), 0xA7}, murmur3.Digest{})}
		}
		rehashed, err := tr.Update(updates, nil)
		if err != nil {
			t.Fatal(err)
		}
		interior := tr.numNodes() - (tr.numNodes()+1)/2
		if n == 1 {
			interior = 0
		}
		if rehashed > tr.numNodes() {
			t.Errorf("n=%d: rehashed %d > total nodes %d", n, rehashed, tr.numNodes())
		}
		if n > 1 && rehashed < interior {
			// All-dirty must touch every interior node above a real leaf —
			// padding subtrees (all-padding parents) may legitimately be
			// skipped, so compare against the rebuild's interior count only
			// when the tree is exactly a power of two.
			if n&(n-1) == 0 && rehashed != interior {
				t.Errorf("n=%d: all-dirty rehashed %d interior nodes, full rebuild computes %d", n, rehashed, interior)
			}
		}
	}
}
