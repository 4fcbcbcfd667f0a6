package merkle

import (
	"fmt"
	"sort"

	"repro/internal/device"
	"repro/internal/murmur3"
)

// LeafUpdate replaces the digest of one chunk.
type LeafUpdate struct {
	// Chunk is the leaf index.
	Chunk int
	// Digest is the new leaf digest.
	Digest murmur3.Digest
}

// Update applies leaf updates and recomputes exactly the interior nodes on
// the paths from the changed leaves to the root, level-synchronously and
// in parallel — the incremental variant of Build for online comparison,
// where consecutive checkpoints share most chunks and rehashing the whole
// tree would waste the very work the method is designed to avoid.
//
// It returns the number of interior nodes rehashed (≤ changed × depth,
// with shared path prefixes deduplicated).
func (t *Tree) Update(updates []LeafUpdate, exec device.Executor) (int, error) {
	if len(updates) == 0 {
		return 0, nil
	}
	if exec == nil {
		exec = device.Serial{}
	}
	// Apply leaves and collect dirty parent indices.
	dirty := make([]int32, 0, len(updates))
	seen := make(map[int32]struct{}, len(updates))
	for _, u := range updates {
		if u.Chunk < 0 || u.Chunk >= t.numLeaves {
			return 0, fmt.Errorf("merkle: leaf update chunk %d out of range [0,%d)", u.Chunk, t.numLeaves)
		}
		node := int32(t.leafBase + u.Chunk)
		*t.node(int(node)) = u.Digest
		if node == 0 {
			continue // single-leaf tree: the leaf is the root
		}
		parent := (node - 1) / 2
		if _, ok := seen[parent]; !ok {
			seen[parent] = struct{}{}
			dirty = append(dirty, parent)
		}
	}
	rehashed := 0
	level := t.depth - 1
	for len(dirty) > 0 && level >= 0 {
		// Deterministic order within the level.
		sort.Slice(dirty, func(a, b int) bool { return dirty[a] < dirty[b] })
		batch := dirty
		exec.For(len(batch), func(i int) {
			n := int(batch[i])
			*t.node(n) = murmur3.HashPair(*t.node(2*n + 1), *t.node(2*n + 2))
		})
		rehashed += len(batch)
		// Parents of this level's dirty nodes.
		next := make([]int32, 0, (len(batch)+1)/2)
		nseen := make(map[int32]struct{}, len(batch))
		for _, n := range batch {
			if n == 0 {
				continue
			}
			p := (n - 1) / 2
			if _, ok := nseen[p]; !ok {
				nseen[p] = struct{}{}
				next = append(next, p)
			}
		}
		dirty = next
		level--
	}
	return rehashed, nil
}
