package shard

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/cas"
	"repro/internal/ckpt"
	"repro/internal/compare"
	"repro/internal/errbound"
	"repro/internal/pfs"
	"repro/internal/synth"
)

// TestStaleMetadataRejectedOnEveryPath: a checkpoint whose fields were
// re-ordered, re-typed or re-sized after its metadata was built is the
// routine shape change of a dynamic-dataset application. Both members are
// stale the same way, so the two metadata files agree with each other and
// only binding each to what it describes can notice — every Merkle planner
// must return the explicit error, never a verdict computed at the wrong
// field offsets.
func TestStaleMetadataRejectedOnEveryPath(t *testing.T) {
	const elems = 8 << 10
	x, vx := synth.FieldF32(elems, 1), synth.FieldF32(elems, 2)
	f32 := func(name string, n int) ckpt.FieldSpec {
		return ckpt.FieldSpec{Name: name, DType: errbound.Float32, Count: int64(n)}
	}
	cases := []struct {
		name string
		// what the checkpoints hold …
		fields []ckpt.FieldSpec
		data   [][]byte
		// … and what the metadata saved under their names was built from.
		staleFields []ckpt.FieldSpec
		staleData   [][]byte
		badField    string
	}{
		{
			name:   "fields re-ordered",
			fields: []ckpt.FieldSpec{f32("x", elems), f32("vx", elems)}, data: [][]byte{x, vx},
			staleFields: []ckpt.FieldSpec{f32("vx", elems), f32("x", elems)}, staleData: [][]byte{vx, x},
			badField: `"vx"`,
		},
		{
			name:   "f32 rewritten as f64 at equal byte length",
			fields: []ckpt.FieldSpec{{Name: "x", DType: errbound.Float64, Count: elems / 2}}, data: [][]byte{x},
			staleFields: []ckpt.FieldSpec{f32("x", elems)}, staleData: [][]byte{x},
			badField: `"x"`,
		},
		{
			name:   "field grown since the metadata was built",
			fields: []ckpt.FieldSpec{f32("x", elems)}, data: [][]byte{x},
			staleFields: []ckpt.FieldSpec{f32("x", elems/2)}, staleData: [][]byte{x[:2*elems]},
			badField: `"x"`,
		},
	}
	opts := testOpts()
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
			if err != nil {
				t.Fatal(err)
			}
			cs, _, err := cas.Open(ctx, store)
			if err != nil {
				t.Fatal(err)
			}
			stale, _, err := compare.Build(tc.staleFields, tc.staleData, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Three container runs and two differentially captured ones, all
			// holding the same data under the same stale metadata.
			var names, dnames []string
			for _, runID := range []string{"runA", "runB", "runC", "diffA", "diffB"} {
				meta := ckpt.Meta{RunID: runID, Iteration: 1, Rank: 0, Fields: tc.fields}
				name := ckpt.Name(runID, 1, 0)
				if strings.HasPrefix(runID, "diff") {
					c, err := compare.NewDiffCapturer(store, cs, opts)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := c.Capture(ctx, meta, tc.data); err != nil {
						t.Fatal(err)
					}
					dnames = append(dnames, name)
				} else {
					if _, err := ckpt.WriteCheckpoint(store, meta, tc.data); err != nil {
						t.Fatal(err)
					}
					names = append(names, name)
				}
				if _, err := compare.SaveMetadata(store, name, stale); err != nil {
					t.Fatal(err)
				}
			}
			cfg := Config{Workers: 2}
			paths := map[string]func() (any, error){
				"pair": func() (any, error) {
					return compare.CompareMerkle(ctx, store, names[0], names[1], opts)
				},
				"cas-diff": func() (any, error) {
					return compare.CompareDiff(ctx, store, cs, dnames[0], dnames[1], opts)
				},
				"group star": func() (any, error) {
					return compare.GroupCompare(ctx, store, names[0], names[1:], compare.TopologyStar, opts)
				},
				"shard pair": func() (any, error) {
					res, _, err := Compare(ctx, store, names[0], names[1], cfg, opts)
					return res, err
				},
				"shard group": func() (any, error) {
					rep, _, err := GroupCompare(ctx, store, names[0], names[1:], compare.TopologyStar, cfg, opts)
					return rep, err
				},
			}
			for label, run := range paths {
				verdict, err := run()
				if !errors.Is(err, compare.ErrMetadataMismatch) {
					t.Errorf("%s: err = %v (verdict %+v), want ErrMetadataMismatch", label, err, verdict)
					continue
				}
				// The baseline is checked first, so it is the member named.
				member := names[0]
				if label == "cas-diff" {
					member = dnames[0]
				}
				if msg := err.Error(); !strings.Contains(msg, member) || !strings.Contains(msg, tc.badField) {
					t.Errorf("%s: error %q does not name member %s and field %s", label, msg, member, tc.badField)
				}
			}
		})
	}
}
