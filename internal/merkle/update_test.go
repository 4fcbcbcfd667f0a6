package merkle

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/murmur3"
)

func digestOf(parts ...byte) murmur3.Digest {
	return murmur3.SumDigest(parts, murmur3.Digest{})
}

func TestUpdateMatchesFullRebuild(t *testing.T) {
	const n = 100
	leaves := leafDigests(n, nil)
	tr, err := New(int64(n)*32, 32, leaves)
	if err != nil {
		t.Fatal(err)
	}
	tr.Build(nil)

	// Mutate three leaves incrementally.
	updates := []LeafUpdate{
		{Chunk: 0, Digest: digestOf(1)},
		{Chunk: 50, Digest: digestOf(2)},
		{Chunk: 99, Digest: digestOf(3)},
	}
	pool := device.NewPool(2)
	defer pool.Close()
	rehashed, err := tr.Update(updates, pool)
	if err != nil {
		t.Fatal(err)
	}
	if rehashed == 0 {
		t.Error("no interior nodes rehashed")
	}

	// Reference: full rebuild from the same mutated leaves.
	ref := leafDigests(n, nil)
	ref[0], ref[50], ref[99] = digestOf(1), digestOf(2), digestOf(3)
	want, err := New(int64(n)*32, 32, ref)
	if err != nil {
		t.Fatal(err)
	}
	want.Build(nil)

	if tr.Root() != want.Root() {
		t.Error("incremental root differs from full rebuild")
	}
	chunks, _, err := Diff(tr, want, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 0 {
		t.Errorf("incremental tree differs from rebuild at chunks %v", chunks)
	}
}

func TestUpdateCheaperThanRebuild(t *testing.T) {
	const n = 1 << 14
	tr := mustTree(t, n)
	rehashed, err := tr.Update([]LeafUpdate{{Chunk: 7, Digest: digestOf(9)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One leaf touches exactly depth interior nodes.
	if rehashed != tr.Depth() {
		t.Errorf("rehashed %d nodes, want depth=%d", rehashed, tr.Depth())
	}
}

func TestUpdateSharedPathsDeduplicated(t *testing.T) {
	tr := mustTree(t, 1024)
	// Sibling leaves share every interior ancestor.
	rehashed, err := tr.Update([]LeafUpdate{
		{Chunk: 0, Digest: digestOf(1)},
		{Chunk: 1, Digest: digestOf(2)},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rehashed != tr.Depth() {
		t.Errorf("sibling update rehashed %d, want %d (shared path)", rehashed, tr.Depth())
	}
}

func TestUpdateValidation(t *testing.T) {
	tr := mustTree(t, 16)
	if _, err := tr.Update([]LeafUpdate{{Chunk: -1}}, nil); err == nil {
		t.Error("negative chunk accepted")
	}
	if _, err := tr.Update([]LeafUpdate{{Chunk: 16}}, nil); err == nil {
		t.Error("out-of-range chunk accepted")
	}
	if n, err := tr.Update(nil, nil); err != nil || n != 0 {
		t.Errorf("empty update: %d, %v", n, err)
	}
}

func TestUpdateSingleLeafTree(t *testing.T) {
	tr, err := New(10, 32, []murmur3.Digest{digestOf(0)})
	if err != nil {
		t.Fatal(err)
	}
	tr.Build(nil)
	if _, err := tr.Update([]LeafUpdate{{Chunk: 0, Digest: digestOf(5)}}, nil); err != nil {
		t.Fatal(err)
	}
	if tr.Root() != digestOf(5) {
		t.Error("single-leaf root not updated")
	}
}

func TestQuickUpdateEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := func(nSeed, kSeed uint8) bool {
		n := int(nSeed%120) + 2
		k := int(kSeed%8) + 1
		tr, err := New(int64(n)*16, 16, leafDigests(n, nil))
		if err != nil {
			return false
		}
		tr.Build(nil)
		ref := leafDigests(n, nil)
		updates := make([]LeafUpdate, 0, k)
		for i := 0; i < k; i++ {
			c := rng.Intn(n)
			d := digestOf(byte(c), byte(i), 0xEE)
			updates = append(updates, LeafUpdate{Chunk: c, Digest: d})
			ref[c] = d
		}
		if _, err := tr.Update(updates, nil); err != nil {
			return false
		}
		want, err := New(int64(n)*16, 16, ref)
		if err != nil {
			return false
		}
		want.Build(nil)
		return tr.Root() == want.Root()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkUpdateOneLeaf16KLeaves(b *testing.B) {
	tr := mustTree(b, 1<<14)
	up := []LeafUpdate{{Chunk: 1 << 13, Digest: digestOf(1)}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Update(up, nil); err != nil {
			b.Fatal(err)
		}
	}
}
