package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/compare"
	"repro/internal/dettest"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/pfs"
)

// scheduleInput is one comparison the schedule table runs: a store, what
// to compare on it (under the input's fault schedule, if it has one), and
// the chunk its metadata was built at.
type scheduleInput struct {
	name  string
	store *pfs.Store
	chunk int
	run   func(cfg Config) (*Stats, error)
}

// scheduleInputs are dettest's shapes as sharded star groups (two pairs in
// one unit pool) and the uniform and skewed pairs of shard_test.go.
func scheduleInputs(t *testing.T) []scheduleInput {
	t.Helper()
	ctx := context.Background()
	var ins []scheduleInput
	for _, sh := range dettest.Shapes() {
		e := newParityEnv(t, sh)
		opts := e.opts
		opts.Exec = device.Serial{}
		ins = append(ins, scheduleInput{
			name: sh.Name, store: e.store, chunk: sh.Chunk,
			run: func(cfg Config) (*Stats, error) {
				if e.shape.Degrade {
					e.store.SetFaultHook(faults.New(1,
						faults.Rule{Kind: faults.BitFlip, Name: e.names[1], After: 4},
						faults.Rule{Kind: faults.BitFlip, Name: e.names[1], After: 9}))
					defer e.store.SetFaultHook(nil)
				}
				_, stats, err := GroupCompare(ctx, e.store, e.names[0], e.names[1:], compare.TopologyStar, cfg, opts)
				return stats, err
			},
		})
	}
	for _, pair := range []struct {
		name   string
		mutate func(int, []byte)
	}{{"skewed", perturbSkewed}, {"uniform", perturbUniform}} {
		opts := testOpts()
		opts.Exec = device.Serial{}
		e := newEnv(t, 64<<10, opts, pair.mutate)
		ins = append(ins, scheduleInput{
			name: pair.name, store: e.store, chunk: testChunk,
			run: func(cfg Config) (*Stats, error) {
				_, stats, err := Compare(ctx, e.store, e.nameA, e.nameB, cfg, opts)
				return stats, err
			},
		})
	}
	return ins
}

// scheduleTable runs every input under workers {1, 2, 4, 8} × assignment
// {block, placement on a striped store, random on a striped store} ×
// stealing {on, off} × chaos {none, a worker killed after its first unit
// (re-stolen when stealing is on), worker 0 killed before any (the
// coordinator drains its share when stealing is off)}, each from a cold
// cache, and returns one line a row: the row's name and its Stats as JSON.
// Every Stats field is virtual time or a count, so the table is a function
// of the schedule alone: which worker ran which unit, every steal, every
// death, and the cache state each read saw.
func scheduleTable(t *testing.T, ins []scheduleInput) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, in := range ins {
		for _, m := range []int{1, 2, 4, 8} {
			for _, a := range []Assignment{AssignBlock, AssignPlacement, AssignRandom} {
				striping := pfs.Striping{}
				if a != AssignBlock {
					striping = pfs.Striping{Targets: 4, StripeBytes: int64(2 * in.chunk)}
				}
				if err := in.store.SetStriping(striping); err != nil {
					t.Fatal(err)
				}
				for _, stealing := range []bool{true, false} {
					for ci, chaos := range []Chaos{
						{},
						{Enabled: true, Worker: 1 % m, AfterUnits: 1},
						{Enabled: true, Worker: 0, AfterUnits: 0},
					} {
						row := fmt.Sprintf("%s/m%d/%s/steal=%v/chaos%d", in.name, m, a, stealing, ci)
						cfg := Config{Workers: m, Assignment: a, Stealing: stealing, Seed: 7, SubtreeChunks: 4, Chaos: chaos}
						in.store.EvictAll()
						stats, err := in.run(cfg)
						if err != nil {
							t.Fatalf("%s: %v", row, err)
						}
						js, err := json.Marshal(stats)
						if err != nil {
							t.Fatal(err)
						}
						fmt.Fprintf(&out, "%s %s\n", row, js)
					}
				}
			}
		}
	}
	return out.Bytes()
}

// TestScheduleMatchesParent holds the sharded schedule to
// testdata/schedule.golden, which the commit before the event loop wrote
// with its goroutines, baton and wire: the loop computes the same total
// order, so every row is the same bytes, at one OS thread and at four.
// A row that moves is a changed schedule, not a re-record.
func TestScheduleMatchesParent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 792 sharded comparisons twice")
	}
	ins := scheduleInputs(t)
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			dettest.Golden(t, "testdata/schedule.golden", scheduleTable(t, ins))
		})
	}
}
