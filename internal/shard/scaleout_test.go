package shard

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/compare"
	"repro/internal/dettest"
	"repro/internal/device"
	"repro/internal/pfs"
)

// TestScaleOutMatchesBaseline holds the two scale-out tables to
// testdata/scaleout.golden, the numbers they were first recorded with.
// Skewed: one divergent element a 16 KiB chunk over the first quarter of
// field 0, block assignment at 1, 2, 4 and 8 workers, static and stealing.
// Uniform: one a 64 KiB chunk everywhere, on a store striped over four
// targets one work unit a stripe, block, placement and random assignment
// at four workers. The last line is the two claims' numbers:
// TestStealingBeatsStatic and TestPlacementBeatsRandom hold their floors.
// A one-worker executor makes the table the same at any GOMAXPROCS.
func TestScaleOutMatchesBaseline(t *testing.T) {
	ctx := context.Background()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	const elems, subtree = 1 << 20, 4
	// bump diverges one element a chunk over the first 1/part of the
	// first fields fields.
	bump := func(chunk, fields, part int) func(int, []byte) {
		return func(fi int, data []byte) {
			for i := 0; fi < fields && i < elems/part; i += chunk / 4 {
				bumpF32(data, i)
			}
		}
	}
	var skewed, uniform []Config
	for _, w := range []int{1, 2, 4, 8} {
		for _, stealing := range []bool{false, true} {
			skewed = append(skewed, Config{Workers: w, Assignment: AssignBlock, Stealing: stealing, SubtreeChunks: subtree})
		}
	}
	for _, a := range []Assignment{AssignBlock, AssignPlacement, AssignRandom} {
		uniform = append(uniform, Config{Workers: 4, Assignment: a, Seed: 7, SubtreeChunks: subtree})
	}
	var out bytes.Buffer
	makespan := map[bool]float64{} // by stealing, at 8 workers on the skewed pair
	readMs := map[string]float64{} // by assignment, on the uniform pair
	for _, sec := range []struct {
		name     string
		chunk    int
		mutate   func(int, []byte)
		striping pfs.Striping
		cfgs     []Config
	}{
		{"skewed", 16 << 10, bump(16<<10, 1, 4), pfs.Striping{}, skewed},
		{"uniform", 64 << 10, bump(64<<10, 3, 1), pfs.Striping{Targets: 4, StripeBytes: subtree * 64 << 10}, uniform},
	} {
		opts := testOpts()
		opts.ChunkSize, opts.Exec = sec.chunk, device.Serial{}
		e := newEnv(t, elems, opts, sec.mutate)
		oracle, err := compare.CompareMerkle(ctx, e.store, e.nameA, e.nameB, opts)
		if err != nil {
			t.Fatal(err)
		}
		w := map[string]any{"field_elems": elems, "fields": 3, "chunk_bytes": sec.chunk, "subtree_chunks": subtree,
			"epsilon": testEps, "oracle_diffs": oracle.DiffCount}
		if sec.striping.Enabled() {
			w["targets"], w["stripe_bytes"] = sec.striping.Targets, sec.striping.StripeBytes
		}
		dettest.Row(t, &out, sec.name+".workload", w)
		if err := e.store.SetStriping(sec.striping); err != nil {
			t.Fatal(err)
		}
		for _, cfg := range sec.cfgs {
			e.store.EvictAll()
			res, st, err := Compare(ctx, e.store, e.nameA, e.nameB, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			dettest.Row(t, &out, sec.name+".rows", map[string]any{
				"workers": st.Workers, "assignment": st.Assignment, "stealing": st.Stealing, "units": st.Units,
				"makespan_virtual_ms": ms(st.MakespanVirtual), "read_virtual_ms": ms(st.ReadVirtual),
				"total_virtual_ms": ms(st.TotalVirtual), "steals": st.Steals, "stolen_units": st.StolenUnits,
				"peak_in_flight": st.PeakInFlight, "budget_bytes": st.BudgetBytes, "diffs": res.DiffCount,
			})
			if sec.name == "skewed" {
				makespan[st.Stealing] = ms(st.MakespanVirtual)
			} else {
				readMs[st.Assignment] = ms(st.ReadVirtual)
			}
		}
	}
	dettest.Row(t, &out, "floors", map[string]any{"steal_speedup_skewed_8w": makespan[false] / makespan[true],
		"placement_read_virtual_ms": readMs["placement"], "random_read_virtual_ms": readMs["random"]})
	dettest.Golden(t, "testdata/scaleout.golden", out.Bytes())
}
