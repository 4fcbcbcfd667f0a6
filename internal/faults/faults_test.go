package faults

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/pfs"
	"repro/internal/retry"
)

var errInjected = errors.New("injected storage fault")

func newStore(t *testing.T) *pfs.Store {
	t.Helper()
	s, err := pfs.NewStore(t.TempDir(), pfs.NVMeModel())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func writeFile(t *testing.T, s *pfs.Store, name string, data []byte) {
	t.Helper()
	w, err := s.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// The three tests below pin the exact semantics of the old one-shot
// pfs.Store.FailReads/FailWrites hooks, now provided by this package.

func TestFailReadsFiresOnce(t *testing.T) {
	s := newStore(t)
	writeFile(t, s, "fr.dat", make([]byte, 16<<10))
	f, err := s.Open("fr.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4096)

	FailReads(s, 1, errInjected)
	if _, _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("first read should pass: %v", err)
	}
	if _, _, err := f.ReadAt(buf, 0); !errors.Is(err, errInjected) {
		t.Fatalf("second read error = %v", err)
	}
	// Fault consumed: subsequent reads succeed.
	if _, _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("post-fault read failed: %v", err)
	}
}

func TestFailWritesFiresImmediately(t *testing.T) {
	s := newStore(t)
	w, err := s.Create("fw.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	FailWrites(s, 0, errInjected)
	if _, err := w.Write([]byte("boom")); !errors.Is(err, errInjected) {
		t.Fatalf("write error = %v", err)
	}
	if _, err := w.Write([]byte("ok")); err != nil {
		t.Fatalf("post-fault write failed: %v", err)
	}
}

func TestDisarmFaults(t *testing.T) {
	s := newStore(t)
	FailReads(s, 0, errInjected)
	FailReads(s, 0, nil) // disarm
	writeFile(t, s, "dz.dat", make([]byte, 4096))
	f, err := s.Open("dz.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, _, err := f.ReadAt(make([]byte, 16), 0); err != nil {
		t.Fatalf("disarmed fault still fired: %v", err)
	}
}

func TestOneShotErrorsAreUnclassified(t *testing.T) {
	s := newStore(t)
	writeFile(t, s, "c.dat", make([]byte, 64))
	FailReads(s, 0, errInjected)
	f, err := s.Open("c.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, _, err = f.ReadAt(make([]byte, 16), 0)
	if retry.Classify(err) != retry.Permanent {
		t.Fatalf("one-shot fault should classify Permanent, got %v", retry.Classify(err))
	}
}

func TestTransientRuleIsMarked(t *testing.T) {
	s := newStore(t)
	writeFile(t, s, "t.dat", make([]byte, 64))
	s.SetFaultHook(New(1, Rule{Kind: TransientRead, Count: 2}))
	f, err := s.Open("t.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 16)
	for i := 0; i < 2; i++ {
		_, _, err := f.ReadAt(buf, 0)
		if !errors.Is(err, ErrInjectedRead) || !retry.IsTransient(err) {
			t.Fatalf("read %d: err = %v (class %v), want transient injected", i, err, retry.Classify(err))
		}
	}
	if _, _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("rule budget spent, read should pass: %v", err)
	}
}

func TestNameScopedRule(t *testing.T) {
	s := newStore(t)
	writeFile(t, s, "run1/a.dat", make([]byte, 64))
	writeFile(t, s, "run2/a.dat", make([]byte, 64))
	s.SetFaultHook(New(0, Rule{Kind: PermanentRead, Name: "run2/", Count: -1}))
	f1, err := s.Open("run1/a.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f1.Close()
	f2, err := s.Open("run2/a.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if _, _, err := f1.ReadAt(make([]byte, 8), 0); err != nil {
		t.Fatalf("run1 read should be clean: %v", err)
	}
	if _, _, err := f2.ReadAt(make([]byte, 8), 0); !errors.Is(err, ErrInjectedRead) {
		t.Fatalf("run2 read should fail: %v", err)
	}
}

// TestTornWritePersistsPrefix: a torn write keeps its prefix, and a failed
// close (a rule the writes do not fire) still closes the file and leaves
// what was written.
func TestTornWritePersistsPrefix(t *testing.T) {
	s := newStore(t)
	in := New(0, Rule{Kind: FailClose, Err: errInjected}, Rule{Kind: TornWrite, Keep: 3, Err: errInjected})
	s.SetFaultHook(in)
	w, err := s.Create("torn.dat")
	if err != nil {
		t.Fatal(err)
	}
	n, werr := w.Write([]byte("hello world"))
	if !errors.Is(werr, errInjected) || n != 3 {
		t.Fatalf("torn write: n=%d err=%v, want n=3 with injected error", n, werr)
	}
	if _, err := w.Write([]byte("!")); err != nil {
		t.Fatalf("write after torn fault failed: %v", err)
	}
	if err := w.Close(); !errors.Is(err, errInjected) {
		t.Fatalf("close: %v, want the injected error", err)
	}
	if _, err := w.Write([]byte("?")); !errors.Is(err, pfs.ErrClosed) {
		t.Fatalf("write after a failed close: %v, want pfs.ErrClosed", err)
	}
	if st := in.Stats(); st.TornWrites != 1 || st.FailedCloses != 1 || st.WriteErrs != 0 {
		t.Fatalf("stats %+v, want one torn write and one failed close", st)
	}
	data, _, err := s.ReadFileFull(context.Background(), "torn.dat", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte("hel!")) {
		t.Fatalf("torn file content %q, want %q", data, "hel!")
	}
}

func TestBitFlipCorruptsBuffer(t *testing.T) {
	s := newStore(t)
	orig := make([]byte, 4096)
	for i := range orig {
		orig[i] = byte(i)
	}
	writeFile(t, s, "bf.dat", orig)
	s.SetFaultHook(New(42, Rule{Kind: BitFlip}))
	f, err := s.Open("bf.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4096)
	if _, _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range buf {
		if buf[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("bit flip changed %d bytes, want exactly 1", diff)
	}
	// One-shot: the next read is clean.
	if _, _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, orig) {
		t.Fatal("second read should return pristine bytes")
	}
}

func TestLatencySpikeChargesCost(t *testing.T) {
	s := newStore(t)
	writeFile(t, s, "ls.dat", make([]byte, 4096))
	spike := pfs.Cost{Ops: 50}
	s.SetFaultHook(New(0, Rule{Kind: LatencySpike, Spike: spike}))
	f, err := s.Open("ls.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s.EvictAll()
	_, c1, err := f.ReadAt(make([]byte, 4096), 0)
	if err != nil {
		t.Fatal(err)
	}
	s.EvictAll()
	s.SetFaultHook(nil)
	_, c2, err := f.ReadAt(make([]byte, 4096), 0)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Ops-c2.Ops != spike.Ops {
		t.Fatalf("spike charged %d extra ops, want %d", c1.Ops-c2.Ops, spike.Ops)
	}
}

func TestProbabilisticScheduleDeterministic(t *testing.T) {
	run := func(seed uint64) Stats {
		s := newStore(t)
		writeFile(t, s, "p.dat", make([]byte, 64<<10))
		in := New(seed, Rule{Kind: TransientRead, Prob: 0.3, Count: -1})
		s.SetFaultHook(in)
		f, err := s.Open("p.dat")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		buf := make([]byte, 4096)
		for i := 0; i < 100; i++ {
			_, _, _ = f.ReadAt(buf, int64(i%16)*4096) // faults expected
		}
		return in.Stats()
	}
	a, b := run(7), run(7)
	if a != b {
		t.Fatalf("same seed produced different stats: %+v vs %+v", a, b)
	}
	if a.ReadErrs == 0 || a.ReadErrs == a.ReadOps {
		t.Fatalf("prob 0.3 over %d ops injected %d errors — schedule not probabilistic", a.ReadOps, a.ReadErrs)
	}
}

func TestAfterDelaysFiring(t *testing.T) {
	in := New(0, Rule{Kind: PermanentRead, After: 2})
	for i := 0; i < 2; i++ {
		if err := in.BeforeRead("x", 0, 8); err != nil {
			t.Fatalf("op %d should pass: %v", i, err)
		}
	}
	if err := in.BeforeRead("x", 0, 8); err == nil {
		t.Fatal("third op should fail")
	}
	if err := in.BeforeRead("x", 0, 8); err != nil {
		t.Fatalf("one-shot spent, fourth op should pass: %v", err)
	}
	st := in.Stats()
	if st.ReadOps != 4 || st.ReadErrs != 1 {
		t.Fatalf("stats = %+v, want 4 ops / 1 err", st)
	}
}
