package service

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/aio"
	"repro/internal/ckpt"
	"repro/internal/compare"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/pfs"
	"repro/internal/retry"
)

// TestNormalizeOptions is the table test for the one options-defaulting
// path every facade variant routes through.
func TestNormalizeOptions(t *testing.T) {
	p := testPlane(t, Config{})
	customExec := device.Serial{}
	customBackend := aio.Mmap{}

	cases := []struct {
		name  string
		in    compare.Options
		check func(t *testing.T, n compare.Options)
	}{
		{
			name: "nil exec and backend get the plane's resources",
			in:   compare.Options{Epsilon: 1e-6},
			check: func(t *testing.T, n compare.Options) {
				if n.Exec != device.Executor(p.exec) {
					t.Errorf("Exec = %T, want the plane pool", n.Exec)
				}
				if n.Backend != aio.Backend(p.Backend()) || p.Backend() != aio.Default() {
					t.Errorf("Backend = %T, want the plane ring, aio.Default()", n.Backend)
				}
			},
		},
		{
			name: "negative CoalesceMaxGap selects the bare plane ring",
			in:   compare.Options{Epsilon: 1e-6, CoalesceMaxGap: -1},
			check: func(t *testing.T, n compare.Options) {
				if n.Backend != aio.Backend(p.Backend()) || n.CoalesceMaxGap != -1 {
					t.Errorf("Backend = %T, CoalesceMaxGap = %d; want the bare plane ring, -1 kept for stage 2", n.Backend, n.CoalesceMaxGap)
				}
			},
		},
		{
			name: "caller-set exec and backend are kept as-is",
			in:   compare.Options{Epsilon: 1e-6, Exec: customExec, Backend: customBackend},
			check: func(t *testing.T, n compare.Options) {
				if n.Exec != device.Executor(customExec) {
					t.Errorf("Exec overridden: %T", n.Exec)
				}
				if n.Backend != aio.Backend(customBackend) {
					t.Errorf("Backend overridden (or wrapped): %T", n.Backend)
				}
			},
		},
		{
			name: "compare-layer defaults applied",
			in:   compare.Options{Epsilon: 1e-6},
			check: func(t *testing.T, n compare.Options) {
				if n.ChunkSize != 64<<10 || n.SliceBytes != 8<<20 || n.Depth != 2 || n.StartLevel != -1 || n.SetupVirtual != 50*time.Millisecond {
					t.Errorf("defaults: chunk=%d slice=%d depth=%d start=%d setup=%v",
						n.ChunkSize, n.SliceBytes, n.Depth, n.StartLevel, n.SetupVirtual)
				}
			},
		},
		{
			// The planners normalize what the plane normalized: a policy
			// that resolved to something else the second time (a disabled
			// one to the default) would turn retries back on.
			name: "Retry normalizes once",
			in:   compare.Options{Epsilon: 1e-6},
			check: func(t *testing.T, n compare.Options) {
				for _, pol := range []retry.Policy{{}, {MaxAttempts: -1}, {MaxAttempts: 5, BaseDelay: time.Millisecond, Multiplier: 3, Seed: 7}} {
					in := n
					in.Retry = pol
					once, err := p.NormalizeOptions(in)
					if err != nil {
						t.Fatal(err)
					}
					twice, err := p.NormalizeOptions(once)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(once, twice) {
						t.Errorf("Retry %+v normalizes to %+v, then to %+v", pol, once.Retry, twice.Retry)
					}
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, err := p.NormalizeOptions(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, n)
		})
	}

	if _, err := p.NormalizeOptions(compare.Options{}); err == nil {
		t.Fatal("missing ε accepted")
	}
	if _, err := p.NormalizeOptions(compare.Options{Epsilon: -1}); err == nil {
		t.Fatal("negative ε accepted")
	}
}

func TestPlaneMemoAndCASCaching(t *testing.T) {
	p := testPlane(t, Config{})
	if p.Memo(1e-6) != p.Memo(1e-6) {
		t.Error("memo for one ε not shared")
	}
	if p.Memo(1e-6) == p.Memo(1e-5) {
		t.Error("distinct ε share a memo")
	}

	store, err := pfs.NewStore(t.TempDir(), pfs.NVMeModel())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cs1, err := p.CAS(ctx, store)
	if err != nil {
		t.Fatal(err)
	}
	cs2, err := p.CAS(ctx, store)
	if err != nil {
		t.Fatal(err)
	}
	if cs1 != cs2 {
		t.Error("CAS handle not shared per store")
	}
}

func TestBindingImmutability(t *testing.T) {
	p := testPlane(t, Config{})
	s := p.Open("acme")
	bind := Binding{RunID: "run1", CodeRef: "abc123", Epsilon: 1e-6, ChunkSize: 4096, DatasetVersion: "v1"}
	if err := s.Register(bind); err != nil {
		t.Fatal(err)
	}
	// Identical re-registration is a no-op.
	if err := s.Register(bind); err != nil {
		t.Fatalf("identical re-register: %v", err)
	}
	// Any diverging coordinate is a conflict naming the field.
	for _, tc := range []struct {
		field string
		b     Binding
	}{
		{"codeRef", Binding{RunID: "run1", CodeRef: "def456", Epsilon: 1e-6, ChunkSize: 4096, DatasetVersion: "v1"}},
		{"epsilon", Binding{RunID: "run1", CodeRef: "abc123", Epsilon: 1e-5, ChunkSize: 4096, DatasetVersion: "v1"}},
		{"chunkSize", Binding{RunID: "run1", CodeRef: "abc123", Epsilon: 1e-6, ChunkSize: 8192, DatasetVersion: "v1"}},
		{"datasetVersion", Binding{RunID: "run1", CodeRef: "abc123", Epsilon: 1e-6, ChunkSize: 4096, DatasetVersion: "v2"}},
	} {
		var be *BindingError
		if err := s.Register(tc.b); !errors.As(err, &be) || be.Field != tc.field {
			t.Errorf("conflict on %s: got %v", tc.field, err)
		}
	}
	// The original binding survived every conflicting attempt.
	got, ok := s.Binding("run1")
	if !ok || !got.equal(bind) {
		t.Fatalf("binding mutated: %+v", got)
	}

	// Bindings are per tenant: another tenant may bind run1 differently.
	other := p.Open("rival")
	if err := other.Register(Binding{RunID: "run1", Epsilon: 1e-3}); err != nil {
		t.Fatalf("cross-tenant isolation: %v", err)
	}

	// Invalid bindings never register.
	if err := s.Register(Binding{Epsilon: 1e-6}); err == nil {
		t.Error("empty run ID accepted")
	}
	if err := s.Register(Binding{RunID: "r", Epsilon: 0}); err == nil {
		t.Error("zero ε accepted")
	}

	if got := len(s.Bindings()); got != 1 {
		t.Fatalf("tenant catalog has %d bindings, want 1", got)
	}
}

// TestBindingGatesSubmission exercises the ε/chunk validation on the
// submission path: a bound run compared at the wrong coordinates is a
// submission error before any admission or work.
func TestBindingGatesSubmission(t *testing.T) {
	p := testPlane(t, Config{})
	s := p.Open("acme")
	if err := s.Register(Binding{RunID: "runA", Epsilon: 1e-6, ChunkSize: 4096}); err != nil {
		t.Fatal(err)
	}
	store, err := pfs.NewStore(t.TempDir(), pfs.NVMeModel())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	var be *BindingError
	// Wrong ε against the bound run (checkpoint names parse to run IDs).
	_, err = s.Compare(ctx, store, "runA/iter0010.rank000.ckpt", "runB/iter0010.rank000.ckpt", compare.Options{Epsilon: 1e-5, ChunkSize: 4096})
	if !errors.As(err, &be) || be.Field != "epsilon" {
		t.Fatalf("ε mismatch: got %v", err)
	}
	// Wrong chunk size.
	_, err = s.Compare(ctx, store, "runA/iter0010.rank000.ckpt", "runB/iter0010.rank000.ckpt", compare.Options{Epsilon: 1e-6, ChunkSize: 8192})
	if !errors.As(err, &be) || be.Field != "chunkSize" {
		t.Fatalf("chunk mismatch: got %v", err)
	}
	// Unbound runs are not gated (the compare itself fails on the
	// missing checkpoint, which is not a BindingError).
	_, err = s.Compare(ctx, store, "runX/iter0010.rank000.ckpt", "runY/iter0010.rank000.ckpt", compare.Options{Epsilon: 1e-5})
	if err == nil || errors.As(err, &be) {
		t.Fatalf("unbound compare: got %v", err)
	}

	// Every rejection above was a submission error: three submissions,
	// one failed execution, two rejected, nothing completed.
	st := s.Stats()
	if st.Submitted != 3 || st.Rejected != 2 || st.Failed != 1 || st.Completed != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// blip fails the first read of one checkpoint's data region transiently
// and lets every later read through.
type blip struct {
	faults.Nop
	name string
	data int64
	mu   sync.Mutex
	seen int
}

var errBlip = errors.New("injected: one transient read failure")

func (h *blip) BeforeRead(name string, off int64, _ int) error {
	if name != h.name || off < h.data {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.seen++; h.seen == 1 {
		return retry.Mark(errBlip, retry.Transient)
	}
	return nil
}

// TestDisabledRetryMakesOneAttempt runs a comparison through a session,
// which normalizes its options before the planner normalizes them again:
// a disabled policy stays disabled through both, so one transient read
// failure fails the comparison, where the default policy retries it away.
func TestDisabledRetryMakesOneAttempt(t *testing.T) {
	e := newSvcEnv(t, 16<<10, 3)
	r, _, err := ckpt.OpenReader(e.store, e.nameB)
	if err != nil {
		t.Fatal(err)
	}
	data := r.FieldFileOffset(0)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	s := testPlane(t, Config{}).Open("acme")
	for _, tc := range []struct {
		retry retry.Policy
		fails bool
	}{{retry.Policy{MaxAttempts: -1}, true}, {retry.Policy{}, false}} {
		e.store.EvictAll()
		h := &blip{name: e.nameB, data: data}
		e.store.SetFaultHook(h)
		opts := svcOpts()
		opts.Retry = tc.retry
		_, err := s.Compare(context.Background(), e.store, e.nameA, e.nameB, opts)
		e.store.SetFaultHook(nil)
		if tc.fails != errors.Is(err, errBlip) || (!tc.fails && err != nil) || h.seen == 0 {
			t.Errorf("Retry %+v: err = %v after %d data reads, want failing %v on the one blip", tc.retry, err, h.seen, tc.fails)
		}
	}
}
