package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/aio"
	"repro/internal/compare"
	"repro/internal/device"
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
			name: "zero Retry sentinel survives normalization",
			in:   compare.Options{Epsilon: 1e-6},
			check: func(t *testing.T, n compare.Options) {
				if n.Retry != (retry.Policy{}) {
					t.Errorf("zero Retry resolved eagerly to %+v; the planners' own resolution must see the sentinel", n.Retry)
				}
			},
		},
		{
			name: "disabled Retry sentinel survives normalization",
			in:   compare.Options{Epsilon: 1e-6, Retry: retry.Policy{MaxAttempts: -1}},
			check: func(t *testing.T, n compare.Options) {
				if n.Retry.MaxAttempts != -1 {
					t.Errorf("disabled Retry became %+v", n.Retry)
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
