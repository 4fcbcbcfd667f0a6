package chaos

// Kill-and-restart chaos over the crash-durable job journal
// (internal/wal) wired through the service plane. The journal wedges on
// its first append failure, so a one-shot write fault at append k
// leaves exactly the log prefix a kill -9 at that write would leave:
// the prefix before the fault is durable, nothing after it reaches the
// store in that life. The trials sweep the kill across every journal
// write point and three failure shapes (clean cut, torn frame, and a
// close that fails after the whole frame was written) and assert the
// recovery invariants: no accepted job is lost, no verdict is emitted
// twice, and the replayed chain verifies.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/compare"
	"repro/internal/faults"
	"repro/internal/service"
	"repro/internal/wal"
)

// walTrialJobs is the fixed submission schedule for one life: a
// divergent pair (exit 2) bracketed by two self-comparisons (exit 0).
// Three jobs x three appends (accepted, started, verdict) = nine
// deterministic journal write points per clean life.
const walWritesPerLife = 9

func walTrialSpecs(env pairEnv, opts compare.Options) ([]service.JobSpec, []int) {
	specs := []service.JobSpec{
		{Kind: service.JobCompare, A: env.nameA, B: env.nameB, Options: opts},
		{Kind: service.JobCompare, A: env.nameA, B: env.nameA, Options: opts},
		{Kind: service.JobCompare, A: env.nameB, B: env.nameB, Options: opts},
	}
	wantExit := []int{2, 0, 0}
	return specs, wantExit
}

// TestChaosWALKillRestart kills the daemon's journal at every write
// point — clean cuts and torn frames — then recovers on a fresh plane
// and checks exactly-once end to end: every job the client saw accepted
// is either served from the ledger or re-admitted (never both, never
// neither), re-run jobs reach their expected verdicts, and the final
// chain passes wal.Verify with no pending jobs.
func TestChaosWALKillRestart(t *testing.T) {
	shapes := []struct {
		name string
		kind faults.Kind
		keep int
	}{
		{"clean-cut", faults.PermanentWrite, 0},
		{"torn-frame", faults.TornWrite, 7},
		{"failed-close", faults.FailClose, 0},
	}
	for _, shape := range shapes {
		// killAt == walWritesPerLife is the fault-free control life.
		for killAt := 0; killAt <= walWritesPerLife; killAt++ {
			t.Run(fmt.Sprintf("%s/append-%d", shape.name, killAt), func(t *testing.T) {
				t.Parallel()
				runWALKillTrial(t, shape.kind, shape.keep, killAt)
			})
		}
	}
}

func runWALKillTrial(t *testing.T, kind faults.Kind, keep, killAt int) {
	ctx := context.Background()
	opts := compare.Options{Epsilon: 1e-5, ChunkSize: 4 << 10}
	env := seedPair(t, 4<<10, 23, opts)
	specs, wantExit := walTrialSpecs(env, opts)

	// Life 1: the journal dies at append killAt. Count -1 keeps the rule
	// armed, but the wedge means only the first firing ever sees disk.
	p1 := service.New(service.Config{MaxInFlight: 1})
	if _, err := p1.Recover(ctx, env.store, ""); err != nil {
		t.Fatalf("life 1 recover: %v", err)
	}
	env.store.SetFaultHook(faults.New(uint64(killAt), faults.Rule{
		Kind: kind, Name: "journal", After: killAt, Count: -1, Keep: keep,
	}))
	sess := p1.Open("victim")
	accepted := map[uint64]int{} // job ID -> index into specs/wantExit
	// A submission whose accepted record failed its close saw an error, but
	// the whole frame is on disk: the next life may re-admit that one job.
	inDoubt := 0
	for i, spec := range specs {
		job, err := sess.Submit(env.store, spec)
		if err != nil {
			// Rejected before durability: the client saw the error.
			if kind == faults.FailClose && !errors.Is(err, wal.ErrWedged) {
				inDoubt++
			}
			continue
		}
		accepted[job.ID()] = i
		<-job.Done()
	}
	env.store.SetFaultHook(nil)
	if wedged := p1.Journal().Wedged() != nil; wedged != (killAt < walWritesPerLife) {
		t.Errorf("life 1 journal wedged %v after a fault at append %d", wedged, killAt)
	}
	if err := p1.Close(); err != nil {
		t.Fatalf("life 1 close: %v", err)
	}

	// Life 2: fresh plane, same store. Recovery must account for every
	// accepted job exactly once — a durable verdict in the ledger, or a
	// re-admitted run, never both and never neither.
	p2 := service.New(service.Config{MaxInFlight: 1})
	rec, err := p2.Recover(ctx, env.store, "")
	if err != nil {
		t.Fatalf("life 2 recover: %v", err)
	}
	resumed := map[uint64]bool{}
	stray := 0
	for _, j := range rec.Resumed {
		if _, ok := accepted[j.ID()]; !ok {
			if stray++; stray > inDoubt {
				t.Errorf("job %d re-admitted but was never accepted by a client", j.ID())
			}
		}
		resumed[j.ID()] = true
	}
	for id := range rec.Ledger {
		if _, ok := accepted[id]; !ok {
			t.Errorf("ledger verdict for job %d, which was never accepted", id)
		}
	}
	for id := range accepted {
		if _, inLedger := rec.Ledger[id]; inLedger == resumed[id] {
			t.Errorf("job %d: inLedger=%v resumed=%v, want exactly one", id, inLedger, resumed[id])
		}
	}
	for _, j := range rec.Resumed {
		<-j.Done()
	}
	if err := p2.Close(); err != nil {
		t.Fatalf("life 2 close: %v", err)
	}

	// The surviving chain must verify clean: nothing pending, no
	// duplicate or orphan verdicts, and each accepted job's one verdict
	// carries the exit code its inputs dictate.
	vrep, err := wal.Verify(ctx, env.store, "")
	if err != nil {
		t.Fatalf("verify after recovery: %v", err)
	}
	if len(vrep.PendingJobs) != 0 {
		t.Errorf("jobs still pending after recovery: %v", vrep.PendingJobs)
	}
	_, rep, err := wal.Open(ctx, env.store, "")
	if err != nil {
		t.Fatalf("reopen after recovery: %v", err)
	}
	cls := wal.Classify(rep.Records)
	if len(cls.Verdicts) != len(accepted)+stray {
		t.Errorf("chain has %d verdicts for %d accepted and %d in-doubt jobs", len(cls.Verdicts), len(accepted), stray)
	}
	for id, i := range accepted {
		v, ok := cls.Verdicts[id]
		if !ok {
			t.Errorf("job %d: no verdict in the recovered chain", id)
			continue
		}
		if v.Exit != wantExit[i] {
			t.Errorf("job %d: exit %d, want %d", id, v.Exit, wantExit[i])
		}
	}
}

// TestChaosWALTamper flips one byte inside an early record of a
// service-written journal and demands loud failure: wal.Open and
// wal.Verify must return ErrTampered, never a shortened-but-clean
// chain. A read-side bit flip (faults.BitFlip) must likewise never
// yield the full chain silently.
func TestChaosWALTamper(t *testing.T) {
	ctx := context.Background()
	opts := compare.Options{Epsilon: 1e-5, ChunkSize: 4 << 10}
	env := seedPair(t, 4<<10, 29, opts)
	specs, _ := walTrialSpecs(env, opts)

	p := service.New(service.Config{MaxInFlight: 1})
	if _, err := p.Recover(ctx, env.store, ""); err != nil {
		t.Fatal(err)
	}
	sess := p.Open("auditor")
	for _, spec := range specs {
		job, err := sess.Submit(env.store, spec)
		if err != nil {
			t.Fatal(err)
		}
		<-job.Done()
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := wal.Open(ctx, env.store, ""); err != nil {
		t.Fatalf("pristine journal must open clean: %v", err)
	}

	// Recompute a fresh CRC over a flipped payload byte so the frame
	// still parses: the hash chain, not the per-frame checksum, is what
	// must catch a deliberate edit. A plain flip (stale CRC) is caught
	// too, but as damage, and damage to the final record is the known
	// blind spot — so tamper an early record and keep the frame valid.
	path := filepath.Join(env.store.Root(), wal.DefaultName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := flipInsideFrame(t, raw)
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	env.store.EvictAll()
	if _, _, err := wal.Open(ctx, env.store, ""); !errorsIsTampered(err) {
		t.Fatalf("open of tampered journal: got %v, want ErrTampered", err)
	}
	if _, err := wal.Verify(ctx, env.store, ""); !errorsIsTampered(err) {
		t.Fatalf("verify of tampered journal: got %v, want ErrTampered", err)
	}

	// Restore the pristine bytes, then corrupt on the read path instead:
	// a bit flip anywhere in the journal must never replay as the full
	// clean chain.
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	env.store.EvictAll()
	_, pristine, err := wal.Open(ctx, env.store, "")
	if err != nil {
		t.Fatal(err)
	}
	// The seed picks which bit flips; sweep it so the corruption lands in
	// different records (and record regions) across trials.
	for trial := uint64(0); trial < 8; trial++ {
		env.store.SetFaultHook(faults.New(trial, faults.Rule{
			Kind: faults.BitFlip, Name: "journal", Count: -1,
		}))
		_, rep, err := wal.Open(ctx, env.store, "")
		env.store.SetFaultHook(nil)
		env.store.EvictAll()
		if err != nil {
			continue // refused loudly: acceptable
		}
		if len(rep.Records) == len(pristine.Records) && rep.Holes == 0 && rep.TornTailBytes == 0 {
			t.Fatalf("trial %d: bit-flipped journal replayed as the full clean chain", trial)
		}
	}
}

// Journal frame layout, duplicated here so the tamper is authored from
// an attacker's seat, not through wal's own codec: magic u32 | stored
// offset u64 | payload length u32 | payload | CRC32-IEEE over
// offset..payload.
const (
	tamperMagic  = 0x4c41574a // "JWAL" little-endian
	tamperHeader = 4 + 8 + 4
)

// flipInsideFrame flips one payload byte of the second record and
// rewrites that frame's CRC so the tampering survives framing and must
// be caught by the chain check.
func flipInsideFrame(t *testing.T, raw []byte) []byte {
	t.Helper()
	out := append([]byte(nil), raw...)
	// Walk to the second frame: a mid-chain record, past the blind spot
	// at the tail.
	off := 0
	for frame := 0; frame < 1; frame++ {
		if off+tamperHeader > len(out) || binary.LittleEndian.Uint32(out[off:]) != tamperMagic {
			t.Fatalf("no frame at offset %d", off)
		}
		off += tamperHeader + int(binary.LittleEndian.Uint32(out[off+12:])) + 4
	}
	if off+tamperHeader >= len(out) || binary.LittleEndian.Uint32(out[off:]) != tamperMagic {
		t.Fatalf("journal has no second frame to tamper (len %d)", len(out))
	}
	n := int(binary.LittleEndian.Uint32(out[off+12:]))
	out[off+tamperHeader+n/2] ^= 0x01
	crc := crc32.ChecksumIEEE(out[off+4 : off+tamperHeader+n])
	binary.LittleEndian.PutUint32(out[off+tamperHeader+n:], crc)
	return out
}

func errorsIsTampered(err error) bool {
	return errors.Is(err, wal.ErrTampered)
}
