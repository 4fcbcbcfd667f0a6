package merkle

import (
	"fmt"

	"repro/internal/murmur3"
)

// Proof is the authentication path of one chunk: the chunk's leaf digest
// plus the sibling digest at every level up to the root. A verifier
// holding only the tree's root digest can check that a chunk's
// error-bounded hash belongs to the tree — the integrity-verification use
// of Merkle trees the paper's related work cites (§4), applied to
// checkpoint chunks: a golden ROOT (16 bytes) is enough to audit any
// chunk of a terabyte checkpoint.
type Proof struct {
	// Chunk is the leaf index the proof authenticates.
	Chunk int
	// Leaf is the chunk's error-bounded digest.
	Leaf murmur3.Digest
	// Siblings holds the sibling digest at each level, leaf level first.
	Siblings []murmur3.Digest
}

// Prove extracts the authentication path for a chunk. The tree must be
// built.
func (t *Tree) Prove(chunk int) (Proof, error) {
	if chunk < 0 || chunk >= t.numLeaves {
		return Proof{}, fmt.Errorf("merkle: proof chunk %d out of range [0,%d)", chunk, t.numLeaves)
	}
	p := Proof{
		Chunk:    chunk,
		Leaf:     *t.node(t.leafBase + chunk),
		Siblings: make([]murmur3.Digest, 0, t.depth),
	}
	node := t.leafBase + chunk
	for node > 0 {
		var sibling int
		if node%2 == 1 { // left child: sibling is node+1
			sibling = node + 1
		} else {
			sibling = node - 1
		}
		p.Siblings = append(p.Siblings, *t.node(sibling))
		node = (node - 1) / 2
	}
	return p, nil
}

// VerifyProof recomputes the root from a proof and reports whether it
// matches the expected root digest.
func VerifyProof(root murmur3.Digest, p Proof) bool {
	depth := len(p.Siblings)
	leafBase := (1 << depth) - 1
	if p.Chunk < 0 || p.Chunk > leafBase {
		return false
	}
	node := leafBase + p.Chunk
	digest := p.Leaf
	for _, sib := range p.Siblings {
		if node%2 == 1 {
			digest = murmur3.HashPair(digest, sib)
		} else {
			digest = murmur3.HashPair(sib, digest)
		}
		node = (node - 1) / 2
	}
	return digest == root
}

// ProofSize returns the serialized size of a proof in bytes.
func (p Proof) ProofSize() int {
	return murmur3.DigestSize * (1 + len(p.Siblings))
}
