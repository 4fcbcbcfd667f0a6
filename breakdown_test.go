package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/aio"
	"repro/internal/cas"
	"repro/internal/ckpt"
	"repro/internal/compare"
	"repro/internal/dettest"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/pfs"
	"repro/internal/shard"
)

// TestBreakdownMatchesParent holds what every comparison door charges —
// the virtual time of each Fig. 6 phase and each engine step's (kind,
// label, virtual time) — to testdata/breakdown.golden, on a sparse shape
// and on a Degrade shape whose in-flight bit flips the integrity rung
// re-reads (a charge to the read phase). The golden was written before the
// steps priced their time through one charge, so a row that moves is a
// phase or a step that charges differently, never a re-record. Every door
// also holds its step table to its breakdown: the steps' virtual time is
// the phases' sum, and a pair's WallElapsed is its steps' wall.
func TestBreakdownMatchesParent(t *testing.T) {
	var out bytes.Buffer
	for _, sh := range []dettest.Shape{
		{Name: "sparse", Elems: 64 << 10, Chunk: 4 << 10, SliceBytes: 64 << 10, Stride: 5003},
		{Name: "degrade", Elems: 48 << 10, Chunk: 4 << 10, SliceBytes: 96 << 10, Degrade: true, Stride: 3001},
	} {
		env := newBreakdownEnv(t, sh)
		for _, door := range env.doors() {
			env.store.EvictAll()
			env.diffStore.EvictAll()
			acct, err := door.run()
			if err != nil {
				t.Fatalf("%s %s: %v", sh.Name, door.name, err)
			}
			if sv, bv := acct.Steps.Total().Virtual, acct.Breakdown.Total().Virtual; sv != bv {
				t.Errorf("%s %s: steps charge %v of virtual time, the breakdown %v", sh.Name, door.name, sv, bv)
			}
			var row struct {
				Phases []time.Duration `json:"phases"`
				Steps  [][3]any        `json:"steps"`
			}
			for _, p := range metrics.Phases() {
				row.Phases = append(row.Phases, acct.Breakdown.Get(p).Virtual)
			}
			for _, s := range acct.Steps {
				row.Steps = append(row.Steps, [3]any{s.Kind, s.Label, s.Span.Virtual})
			}
			dettest.Row(t, &out, sh.Name+" "+door.name, row)
		}
	}
	dettest.Golden(t, "testdata/breakdown.golden", out.Bytes())
}

// breakdownEnv is one shape's three runs, written as containers with
// metadata on one store and differentially captured on another.
type breakdownEnv struct {
	store, diffStore *pfs.Store
	cs               *cas.Store
	names, dnames    []string
	opts             compare.Options
}

func newBreakdownEnv(t *testing.T, sh dettest.Shape) *breakdownEnv {
	t.Helper()
	ctx := context.Background()
	env := &breakdownEnv{opts: compare.Options{
		Epsilon: sh.Epsilon(), ChunkSize: sh.Chunk, SliceBytes: sh.SliceBytes,
		// One worker and a pinned start level: stage 1 and the pipeline
		// price the same on every box.
		Exec: device.Serial{}, StartLevel: 1,
	}}
	var err error
	if env.store, err = pfs.NewStore(t.TempDir(), pfs.LustreModel()); err != nil {
		t.Fatal(err)
	}
	if env.diffStore, err = pfs.NewStore(t.TempDir(), pfs.LustreModel()); err != nil {
		t.Fatal(err)
	}
	if env.cs, _, err = cas.Open(ctx, env.diffStore); err != nil {
		t.Fatal(err)
	}
	fields, data := dettest.Runs(sh)
	for ri, run := range []string{"runA", "runB", "runC"} {
		meta := ckpt.Meta{RunID: run, Iteration: 10, Rank: 0, Fields: fields}
		if _, err := ckpt.WriteCheckpoint(env.store, meta, data[ri]); err != nil {
			t.Fatal(err)
		}
		name := ckpt.Name(run, 10, 0)
		m, _, err := compare.Build(fields, data[ri], env.opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := compare.SaveMetadata(env.store, name, m); err != nil {
			t.Fatal(err)
		}
		c, err := compare.NewDiffCapturer(env.diffStore, env.cs, env.opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Capture(ctx, meta, data[ri]); err != nil {
			t.Fatal(err)
		}
		env.names, env.dnames = append(env.names, name), append(env.dnames, name)
	}
	if sh.Degrade {
		env.opts.Degrade = true
		env.opts.Backend = flipBackend{inner: aio.Default(), match: "runB", chunk: sh.Chunk}
	}
	return env
}

// door is one comparison entry point, run on the environment.
type door struct {
	name string
	run  func() (*compare.Account, error)
}

// doors lists every entry point. The direct and allclose sweeps have no
// integrity rung: they read on the clean backend.
func (e *breakdownEnv) doors() []door {
	ctx := context.Background()
	opts, clean := e.opts, e.opts
	clean.Degrade, clean.Backend = false, nil
	cfg := shard.Config{Workers: 3, SubtreeChunks: 4, Stealing: true}
	pair := func(res *compare.Result, err error) (*compare.Account, error) {
		if err != nil {
			return nil, err
		}
		if w, sw := res.WallElapsed(), res.Steps.Total().Wall; w != sw {
			return nil, fmt.Errorf("WallElapsed %v, steps' wall %v", w, sw)
		}
		return &res.Account, nil
	}
	group := func(rep *compare.GroupReport, err error) (*compare.Account, error) {
		if err != nil {
			return nil, err
		}
		return &rep.Account, nil
	}
	a, b := e.names[0], e.names[1]
	return []door{
		{"merkle", func() (*compare.Account, error) { return pair(compare.CompareMerkle(ctx, e.store, a, b, opts)) }},
		{"diff", func() (*compare.Account, error) {
			return pair(compare.CompareDiff(ctx, e.diffStore, e.cs, e.dnames[0], e.dnames[1], opts))
		}},
		{"direct", func() (*compare.Account, error) { return pair(compare.CompareDirect(ctx, e.store, a, b, clean)) }},
		{"allclose", func() (*compare.Account, error) {
			_, res, err := compare.CompareAllClose(ctx, e.store, a, b, clean)
			return pair(res, err)
		}},
		{"trees-only", func() (*compare.Account, error) { return pair(compare.CompareTreesOnly(ctx, e.store, a, b, opts)) }},
		{"group", func() (*compare.Account, error) {
			return group(compare.GroupCompare(ctx, e.store, a, e.names[1:], compare.TopologyAllPairs, opts))
		}},
		{"group-diff", func() (*compare.Account, error) {
			return group(compare.GroupCompareDiff(ctx, e.diffStore, e.cs, e.dnames[0], e.dnames[1:], compare.TopologyStar, opts))
		}},
		{"shard", func() (*compare.Account, error) {
			res, _, err := shard.Compare(ctx, e.store, a, b, cfg, opts)
			return pair(res, err)
		}},
		{"shard-group", func() (*compare.Account, error) {
			rep, _, err := shard.GroupCompare(ctx, e.store, a, e.names[1:], compare.TopologyStar, cfg, opts)
			return group(rep, err)
		}},
	}
}

// flipBackend prices through inner, and every read of a file whose name
// holds match flips bit 6 of byte 3 of each chunk it covers: bytes the
// integrity rung must re-read away.
type flipBackend struct {
	inner aio.Backend
	match string
	chunk int
}

func (b flipBackend) Name() string { return "flip" }

func (b flipBackend) Price(ctx context.Context, f *pfs.File, reqs []aio.ReadReq) (pfs.Cost, time.Duration, error) {
	if !strings.Contains(f.Name(), b.match) {
		return b.inner.Price(ctx, f, reqs)
	}
	h := &byteFlips{}
	for _, q := range reqs {
		for at := q.Off + 3; at < q.Off+int64(q.Len); at += int64(b.chunk) {
			h.at = append(h.at, at)
		}
	}
	f.Store().SetFaultHook(h)
	defer f.Store().SetFaultHook(nil)
	return b.inner.Price(ctx, f, reqs)
}

type byteFlips struct {
	faults.Nop
	at []int64
}

func (h *byteFlips) AfterRead(_ string, off int64, n int) ([]pfs.Flip, pfs.Cost) {
	var flips []pfs.Flip
	for _, t := range h.at {
		if t >= off && t < off+int64(n) {
			flips = append(flips, pfs.Flip{Off: t, Mask: 0x40})
		}
	}
	return flips, pfs.Cost{}
}
