package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/aio"
	"repro/internal/dettest"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/pfs"
	"repro/internal/retry"
)

// accountInput is one plan of the window-account table: a shape's runs laid
// out as files on a store, and a way to build the plan over them afresh.
type accountInput struct {
	name   string
	store  *pfs.Store
	files  []*pfs.File
	bytes  [][]byte // by source: the file's content
	slice  int
	victim string // the file the fault schedules target
	jobs   func(p *Plan)
}

// accountHeader is the bytes before a run file's first field: odd, so no
// field and no chunk starts on a page boundary and extents share pages.
const accountHeader = 100

// accountInputs lays out every shape of dettest (Shapes and CopyShapes) as
// three plans: the pair (run 0 against run 1), the star group (run 0
// against runs 1 and 2, jobs ordered field, chunk, pair as the group
// planner orders them) and the CAS plan (the same star over one pack of
// deduplicated chunks). A chunk is a candidate where its bytes differ.
func accountInputs(t *testing.T) []accountInput {
	t.Helper()
	var ins []accountInput
	for _, sh := range append(dettest.Shapes(), dettest.CopyShapes()...) {
		_, data := dettest.Runs(sh)
		store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
		if err != nil {
			t.Fatal(err)
		}
		write := func(name string, content []byte) *pfs.File {
			w, err := store.Create(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write(content); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			f, err := store.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			return f
		}
		// Run files: a header, then the fields back to back.
		var runs [][]byte
		var fieldOff []int64
		for ri := range data {
			content := bytes.Repeat([]byte{byte(ri + 1)}, accountHeader)
			for _, field := range data[ri] {
				if ri == 0 {
					fieldOff = append(fieldOff, int64(len(content)))
				}
				content = append(content, field...)
			}
			runs = append(runs, content)
		}
		files := []*pfs.File{write("run0.bin", runs[0]), write("run1.bin", runs[1]), write("run2.bin", runs[2])}
		// The pack: every distinct chunk once, in run, field, chunk order.
		var pack []byte
		at := map[string]int64{}
		loc := make([][][]int64, len(data)) // run, field, chunk
		type chunkRef struct {
			fi, c int
			off   int64 // in a run file
			n     int
		}
		var chunks []chunkRef
		for fi, field := range data[0] {
			for c := 0; c*sh.Chunk < len(field); c++ {
				n := min(sh.Chunk, len(field)-c*sh.Chunk)
				chunks = append(chunks, chunkRef{fi, c, fieldOff[fi] + int64(c*sh.Chunk), n})
			}
		}
		for ri := range data {
			loc[ri] = make([][]int64, len(data[ri]))
			for _, ch := range chunks {
				key := string(runs[ri][ch.off : ch.off+int64(ch.n)])
				off, ok := at[key]
				if !ok {
					off = int64(len(pack))
					at[key] = off
					pack = append(pack, key...)
				}
				loc[ri][ch.fi] = append(loc[ri][ch.fi], off)
			}
		}
		packFile := write("pack.bin", pack)
		differs := func(r int, ch chunkRef) bool {
			return !bytes.Equal(runs[0][ch.off:ch.off+int64(ch.n)], runs[r][ch.off:ch.off+int64(ch.n)])
		}
		ins = append(ins,
			accountInput{name: sh.Name + "/pair", store: store, files: files[:2], bytes: runs[:2], slice: sh.SliceBytes, victim: "run1.bin",
				jobs: func(p *Plan) {
					for _, ch := range chunks {
						if differs(1, ch) {
							p.Add(len(p.Jobs), 0, ch.off, 1, ch.off, ch.n)
						}
					}
				}},
			accountInput{name: sh.Name + "/star", store: store, files: files, bytes: runs, slice: sh.SliceBytes, victim: "run1.bin",
				jobs: func(p *Plan) {
					for _, ch := range chunks {
						for r := 1; r <= 2; r++ {
							if differs(r, ch) {
								p.Add(len(p.Jobs), 0, ch.off, r, ch.off, ch.n)
							}
						}
					}
				}},
			accountInput{name: sh.Name + "/cas", store: store, files: []*pfs.File{packFile}, bytes: [][]byte{pack}, slice: sh.SliceBytes, victim: "pack.bin",
				jobs: func(p *Plan) {
					for _, ch := range chunks {
						for r := 1; r <= 2; r++ {
							if a, b := loc[0][ch.fi][ch.c], loc[r][ch.fi][ch.c]; a != b {
								p.Add(len(p.Jobs), 0, a, 0, b, ch.n)
							}
						}
					}
				}},
		)
	}
	return ins
}

// accountBackend is one read engine of the table, and the hole its
// windows bridge.
type accountBackend struct {
	name   string
	make   func() aio.Backend
	maxGap int
}

// accountBackends are the table's four read engines, each new per row.
func accountBackends() []accountBackend {
	return []accountBackend{
		{"uring+coalesce", func() aio.Backend { return aio.NewUring(64) }, 16 << 10},
		{"uring", func() aio.Backend { return aio.NewUring(64) }, 0},
		{"mmap", func() aio.Backend { return aio.Mmap{} }, 0},
		{"legacy", func() aio.Backend { return serial{aio.NewUring(64)} }, 0},
	}
}

// accountSchedule is one fault schedule of the table: the store's hook for
// the row (nil runs clean) and what it asks of the plan and the config.
type accountSchedule struct {
	name  string
	hook  func(victim string) *faults.Injector
	check bool // under Degrade with the integrity rung
	// degrade runs the plan under Degrade without the integrity rung.
	degrade bool
	retry   bool
}

func accountSchedules() []accountSchedule {
	return []accountSchedule{
		{name: "clean", hook: func(string) *faults.Injector { return nil }},
		{name: "transient-retried", retry: true, hook: func(v string) *faults.Injector {
			return faults.New(1, faults.Rule{Kind: faults.TransientRead, Name: v, After: 1})
		}},
		{name: "permanent-degraded", degrade: true, hook: func(v string) *faults.Injector {
			return faults.New(2, faults.Rule{Kind: faults.PermanentRead, Name: v, After: 1, Count: 2})
		}},
		{name: "bit-flip-checked", check: true, hook: func(v string) *faults.Injector {
			return faults.New(3, faults.Rule{Kind: faults.BitFlip, Name: v, After: 2})
		}},
		{name: "latency-spike", hook: func(v string) *faults.Injector {
			return faults.New(4, faults.Rule{Kind: faults.LatencySpike, Name: v, After: 1, Count: 3, Spike: pfs.Cost{Ops: 50, Bytes: 1 << 20}})
		}},
	}
}

// accountTable runs every input under Depth 1/2/4 × backends × fault
// schedules × executors (dettest's), each from a cold cache, and returns one
// line per row but the executor, which must change nothing: the row's name,
// its Stats as JSON (Wall zeroed), the store's read operations and bytes
// over the run and the injector's Stats as JSON. Every byte a job or the
// integrity rung sees is held against the file's content.
func accountTable(t *testing.T, ins []accountInput) []byte {
	t.Helper()
	execs := dettest.Execs()
	made := make([]device.Executor, len(execs))
	for i, ex := range execs {
		exec, release := ex.Make()
		defer release()
		made[i] = exec
	}
	var out bytes.Buffer
	for _, in := range ins {
		for _, depth := range []int{1, 2, 4} {
			for _, be := range accountBackends() {
				for _, sc := range accountSchedules() {
					row := fmt.Sprintf("%s/depth%d/%s/%s", in.name, depth, be.name, sc.name)
					account := accountRow(t, row, in, made[0], depth, be, sc)
					for i, exec := range made[1:] {
						if got := accountRow(t, row, in, exec, depth, be, sc); got != account {
							t.Errorf("%s: %s charges\n%s\nwhere %s charges\n%s", row, execs[i+1].Name, got, execs[0].Name, account)
						}
					}
					fmt.Fprintf(&out, "%s %s\n", row, account)
				}
			}
		}
	}
	return out.Bytes()
}

// accountRow runs one row and returns its account.
func accountRow(t *testing.T, row string, in accountInput, exec device.Executor, depth int, be accountBackend, sc accountSchedule) string {
	t.Helper()
	plan := NewPlan(in.files...)
	in.jobs(plan)
	plan.Degrade = sc.degrade || sc.check
	extent := func(src, ext int) []byte {
		e := plan.Sources[src].Extents[ext]
		return in.bytes[src][e.Off : e.Off+int64(e.Len)]
	}
	if sc.check {
		plan.Check = func(ctx context.Context, _, src, ext int, data []byte) []byte {
			want := extent(src, ext)
			if bytes.Equal(data, want) {
				return data
			}
			own := make([]byte, len(data))
			n, _, err := plan.Sources[src].File.ReadAtCtx(ctx, own, plan.Sources[src].Extents[ext].Off)
			if err == nil && n == len(own) && bytes.Equal(own, want) {
				return own
			}
			return nil
		}
	}
	cfg := Config{Backend: be.make(), MaxGap: be.maxGap, Exec: exec, Device: device.GPUModel(), SliceBytes: in.slice, Depth: depth}
	if sc.retry {
		cfg.Retry = retry.Default()
	}
	in.store.EvictAll()
	hook := sc.hook(in.victim)
	if hook != nil {
		in.store.SetFaultHook(hook)
		defer in.store.SetFaultHook(nil)
	}
	ops0, bytes0 := in.store.ReadStats()
	stats, err := Run(context.Background(), plan, cfg, func(_ int, j Job, a, b []byte) (time.Duration, error) {
		if (a != nil && !bytes.Equal(a, extent(j.A.Src, j.A.Ext))) || (b != nil && !bytes.Equal(b, extent(j.B.Src, j.B.Ext))) {
			t.Errorf("%s: job %d sees bytes the file does not hold", row, j.Index)
		}
		return time.Duration(j.Len) + time.Duration(j.Index%7), nil
	})
	if err != nil {
		t.Fatalf("%s: %v", row, err)
	}
	ops1, bytes1 := in.store.ReadStats()
	stats.Wall = 0
	// The golden's last Stats column is a ring-fallback count that was
	// always 0 and is no longer kept: it is rendered as that constant.
	js, err := json.Marshal(struct {
		Stats
		RingFallbacks int
	}{Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	var fs faults.Stats
	if hook != nil {
		fs = hook.Stats()
	}
	fjs, err := json.Marshal(fs)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s %d %d %s", js, ops1-ops0, bytes1-bytes0, fjs)
}

// TestWindowAccountMatchesParent holds what a run charges — every Stats
// field but Wall, the store's read operations and bytes, and what the fault
// injector did — to testdata/account.golden, which the commit before reads
// moved out of the ring and onto the verify ranges wrote with its producer
// goroutine and one-worker rings (so its hook saw reads in submission
// order). A row that moves is a changed read set or price, never a
// re-record.
func TestWindowAccountMatchesParent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 10 800 plans")
	}
	dettest.Golden(t, "testdata/account.golden", accountTable(t, accountInputs(t)))
}
