package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/ckpt"
	"repro/internal/compare"
	"repro/internal/errbound"
	"repro/internal/murmur3"
	"repro/internal/pfs"
	"repro/internal/service"
	"repro/internal/synth"
)

// haccFields is the HACC particle schema the paper captures.
var haccFields = []string{"x", "y", "z", "vx", "vy", "vz", "phi"}

// shape fixes one workload's inputs: schema, size, comparison coordinates
// and the run-to-run divergence. Everything else comes from the seed.
type shape struct {
	fields []string
	elems  int // float32 elements per field
	eps    float64
	chunk  int
	// perturb is the divergence inside a diverging block; its Seed and
	// UntouchedFrac are filled in per run and field.
	perturb synth.PerturbConfig
	// touched is how many blocks of each field diverge (0: all of them).
	// The count is fixed so that an op does the same amount of work on
	// every seed; which blocks diverge, and how, comes from the seed.
	touched int
}

func (s shape) bytesPerRun() int64 { return int64(len(s.fields)) * int64(s.elems) * 4 }

func (s shape) specs() []ckpt.FieldSpec {
	out := make([]ckpt.FieldSpec, len(s.fields))
	for i, n := range s.fields {
		out[i] = ckpt.FieldSpec{Name: n, DType: errbound.Float32, Count: int64(s.elems)}
	}
	return out
}

func (s shape) options() compare.Options {
	return compare.Options{Epsilon: s.eps, ChunkSize: s.chunk}
}

// smoke shrinks a shape to validate the runner in milliseconds: small
// fields, and blocks small enough that some still diverge.
func (s shape) smoke() shape {
	s.elems = 16 << 10
	s.perturb.BlockElems = 1024
	return s
}

var (
	sparseShape = shape{
		fields: haccFields, elems: 1 << 20, eps: 1e-5, chunk: 4 << 10,
		perturb: synth.PerturbConfig{BlockElems: 8192, MagLo: 1e-4, MagHi: 1e-2, ChangedFrac: 1.0 / 256},
		touched: 2, // 2 of 128 blocks: about 1.5 % of the 4 KiB chunks are candidates
	}
	denseShape = shape{
		fields: haccFields, elems: 1 << 19, eps: 1e-7, chunk: 64 << 10,
		perturb: synth.PerturbConfig{BlockElems: 16384, MagLo: 1e-5, MagHi: 1e-2, ChangedFrac: 1.0 / 64},
	}
	groupShape = func() shape {
		p := synth.DefaultPerturb(0)
		p.MagLo, p.MagHi = 1e-3, 1e-2
		// 27 of 32 blocks: DefaultPerturb leaves 15 % of the blocks alone.
		return shape{fields: []string{"f0", "f1", "f2"}, elems: 1 << 19, eps: 1e-7, chunk: 64 << 10, perturb: p, touched: 27}
	}()
	captureShape = shape{
		fields: haccFields, elems: 1 << 19, eps: 1e-5, chunk: 4 << 10,
		perturb: synth.PerturbConfig{BlockElems: 16384, MagLo: 1e-4, MagHi: 1e-2, ChangedFrac: 1.0 / 1024},
		touched: 16, // half of an iteration changes from the last
	}
)

// perturbField returns a copy of field in which exactly s.touched blocks
// (all, when that is 0 or more than there are) diverge.
func perturbField(field []byte, s shape, seed int64) []byte {
	cfg := s.perturb
	cfg.Seed, cfg.UntouchedFrac = seed, 0
	blockBytes := 4 * cfg.BlockElems
	nBlocks := (len(field) + blockBytes - 1) / blockBytes
	if s.touched <= 0 || s.touched >= nBlocks {
		return synth.PerturbF32(field, cfg)
	}
	out := append([]byte(nil), field...)
	for _, b := range rand.New(rand.NewSource(seed)).Perm(nBlocks)[:s.touched] {
		lo, hi := b*blockBytes, min((b+1)*blockBytes, len(field))
		cfg.Seed = seed + int64(b) + 1
		copy(out[lo:hi], synth.PerturbF32(field[lo:hi], cfg))
	}
	return out
}

// inputs is one workload's generated data: a base run and variants of it,
// with the digest that identifies them in the result file.
type inputs struct {
	shape    shape
	base     [][]byte   // per field
	variants [][][]byte // [variant][field]; each is base under a perturbation
	// diffs[v] is the oracle: elements of variant v that differ from base
	// by more than ε, counted element-wise.
	diffs  []int64
	digest murmur3.Digest
}

// generate makes the inputs of one workload from the seed alone: the same
// seed gives byte-identical data, hence the same digest.
func generate(s shape, seed int64, nVariants int) *inputs {
	in := &inputs{shape: s, base: make([][]byte, len(s.fields))}
	var seedBytes [8]byte
	binary.LittleEndian.PutUint64(seedBytes[:], uint64(seed))
	in.digest = murmur3.SumDigest(seedBytes[:], murmur3.Digest{})
	for f := range s.fields {
		in.base[f] = synth.FieldF32(s.elems, seed*1_000_003+int64(f)*7919)
		in.digest = murmur3.SumDigest(in.base[f], in.digest)
	}
	for v := 0; v < nVariants; v++ {
		fields := make([][]byte, len(s.fields))
		var diffs int64
		for f := range s.fields {
			fields[f] = perturbField(in.base[f], s, seed*1_000_003+int64(v+1)*15485863+int64(f)*104729)
			diffs += int64(synth.CountExceedingF32(in.base[f], fields[f], s.eps))
			in.digest = murmur3.SumDigest(fields[f], in.digest)
		}
		in.variants = append(in.variants, fields)
		in.diffs = append(in.diffs, diffs)
	}
	return in
}

// pool is a captured input pool: run r0 is the base, r1..rN its variants,
// each written as a checkpoint with Merkle metadata beside it.
type pool struct {
	shape  shape
	opts   compare.Options // the coordinates every comparison of the pool uses
	names  []string        // checkpoint names, names[0] the base
	runIDs []string
	diffs  []int64 // diffs[k]: oracle for names[0] vs names[k]; diffs[0] = 0
	digest murmur3.Digest
}

// capturePool writes the inputs to the store and builds their metadata
// through the session, the path an application's capture takes.
func capturePool(ctx context.Context, sess *service.Session, store *pfs.Store, in *inputs) (*pool, error) {
	p := &pool{shape: in.shape, opts: in.shape.options(), digest: in.digest, diffs: append([]int64{0}, in.diffs...)}
	runs := append([][][]byte{in.base}, in.variants...)
	for k, data := range runs {
		runID := fmt.Sprintf("r%d", k)
		meta := ckpt.Meta{RunID: runID, Fields: in.shape.specs()}
		if _, err := ckpt.WriteCheckpoint(store, meta, data); err != nil {
			return nil, fmt.Errorf("write %s: %w", runID, err)
		}
		name := ckpt.Name(runID, 0, 0)
		if _, _, err := sess.BuildAndSave(ctx, store, name, p.opts); err != nil {
			return nil, fmt.Errorf("build metadata of %s: %w", runID, err)
		}
		p.names = append(p.names, name)
		p.runIDs = append(p.runIDs, runID)
	}
	return p, nil
}
