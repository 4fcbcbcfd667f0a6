// Package faults is the deterministic fault-injection layer for pfs
// stores. It implements pfs.FaultHook with a scriptable schedule of rules
// — transient/permanent read and write errors, torn writes, failed
// closes, bit flips in landed bytes, and virtual-clock latency spikes —
// replacing the old one-shot Store.FailReads/FailWrites hooks (kept here
// as helpers).
//
// Determinism: every probabilistic decision is drawn from a splitmix64
// stream keyed by the injector's seed, and deterministic rules fire on
// exact operation counts. Read decisions are made when a read is priced
// (pfs.File.Price); stage 2 prices a window's reads on one goroutine, in
// extent order, so its faults land on the same operations every run.
// Under a concurrent workload (comparisons in parallel, integrity re-reads
// from several ranges) the *assignment* of faults to specific operations
// follows arrival order, but the fault stream itself is a pure function of
// the seed, so a chaos schedule is reproducible in aggregate: same seed,
// same rule mix, same counts.
//
// Classification: transient rules wrap their error with
// retry.Mark(err, retry.Transient) so the retry layer backs off and
// re-issues; permanent rules leave the error unclassified (the retry
// default), so it propagates — exactly like the pre-existing one-shot
// hooks that failure tests rely on.
package faults

import (
	"errors"
	"strings"
	"sync"

	"repro/internal/pfs"
	"repro/internal/retry"
)

// Errors injected when a rule carries no explicit Err.
var (
	ErrInjectedRead  = errors.New("faults: injected read error")
	ErrInjectedWrite = errors.New("faults: injected write error")
)

// Kind selects what a Rule does when it fires.
type Kind int

const (
	// TransientRead fails a read with a Transient-classified error.
	TransientRead Kind = iota
	// PermanentRead fails a read with an unclassified (Permanent) error.
	PermanentRead
	// TransientWrite fails a write with a Transient-classified error.
	TransientWrite
	// PermanentWrite fails a write with an unclassified error.
	PermanentWrite
	// TornWrite fails a write after persisting the first Keep bytes.
	TornWrite
	// BitFlip XORs one seeded-random bit of a successful read's buffer.
	BitFlip
	// LatencySpike adds Spike to a successful read's cost, pricing a
	// storage stall on the virtual clock without touching wall time.
	LatencySpike
	// FailClose fails a writer's Close after every byte it wrote landed:
	// the file is closed, but its content is not known to be durable.
	FailClose
)

func (k Kind) String() string {
	switch k {
	case TransientRead:
		return "transient-read"
	case PermanentRead:
		return "permanent-read"
	case TransientWrite:
		return "transient-write"
	case PermanentWrite:
		return "permanent-write"
	case TornWrite:
		return "torn-write"
	case BitFlip:
		return "bit-flip"
	case LatencySpike:
		return "latency-spike"
	case FailClose:
		return "fail-close"
	default:
		return "unknown"
	}
}

// reads reports whether the kind applies to read operations.
func (k Kind) reads() bool {
	switch k {
	case TransientRead, PermanentRead, BitFlip, LatencySpike:
		return true
	}
	return false
}

// Rule is one line of a fault schedule.
type Rule struct {
	Kind Kind
	// Name restricts the rule to files whose store-relative name contains
	// this substring; empty matches every file.
	Name string
	// After skips that many matching operations before the rule may fire.
	After int
	// Count bounds how often the rule fires: 0 means once (the one-shot
	// default), -1 means unlimited, n > 0 means n times.
	Count int
	// Prob, when > 0, makes the rule probabilistic: each matching
	// operation past After fires with probability Prob, decided by the
	// injector's seeded stream. Count still bounds total firings.
	Prob float64
	// Err overrides the injected error for the error kinds.
	Err error
	// Keep is the byte prefix a TornWrite persists before failing.
	Keep int
	// Spike is the extra cost a LatencySpike charges.
	Spike pfs.Cost
}

// err returns the rule's error, classified per its kind.
func (r *Rule) err(isRead bool) error {
	e := r.Err
	if e == nil {
		if isRead {
			e = ErrInjectedRead
		} else {
			e = ErrInjectedWrite
		}
	}
	switch r.Kind {
	case TransientRead, TransientWrite:
		return retry.Mark(e, retry.Transient)
	}
	return e
}

// Stats counts what the injector actually did, for chaos-harness asserts.
type Stats struct {
	ReadOps, WriteOps                   int64 // operations observed
	ReadErrs, WriteErrs                 int64 // errors injected
	TornWrites, BitFlips, LatencySpikes int64
	// FailedCloses is omitted from JSON when zero, so tables recorded
	// before a close could fail still match.
	FailedCloses int64 `json:",omitempty"`
}

// rule tracks a Rule's live countdown state.
type rule struct {
	Rule
	seen  int // matching ops observed so far
	fired int // times fired
}

// Injector implements pfs.FaultHook by evaluating a schedule of rules
// against the operation stream. Safe for concurrent use.
type Injector struct {
	mu    sync.Mutex
	rng   uint64
	rules []*rule
	stats Stats
}

// New builds an injector with the given seed and schedule.
func New(seed uint64, schedule ...Rule) *Injector {
	in := &Injector{rng: seed}
	for _, r := range schedule {
		rc := r
		in.rules = append(in.rules, &rule{Rule: rc})
	}
	return in
}

var _ pfs.FaultHook = (*Injector)(nil)

// Stats returns a snapshot of the injector's counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// next draws from the seeded stream. Caller holds in.mu.
func (in *Injector) next() uint64 {
	in.rng += 0x9e3779b97f4a7c15
	x := in.rng
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fires advances r's counters for one matching op and reports whether the
// rule fires on it. Caller holds in.mu.
func (in *Injector) fires(r *rule) bool {
	budget := r.Count
	if budget == 0 {
		budget = 1 // the one-shot default
	}
	if budget > 0 && r.fired >= budget {
		return false
	}
	r.seen++
	if r.seen <= r.After {
		return false
	}
	if r.Prob > 0 {
		// 53-bit uniform in [0,1).
		u := float64(in.next()>>11) / (1 << 53)
		if u >= r.Prob {
			return false
		}
	}
	r.fired++
	return true
}

// match reports whether the rule applies to this op type and file.
func (r *rule) match(isRead bool, name string) bool {
	if r.Kind.reads() != isRead {
		return false
	}
	return r.Name == "" || strings.Contains(name, r.Name)
}

// BeforeRead implements pfs.FaultHook.
func (in *Injector) BeforeRead(name string, off int64, n int) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.ReadOps++
	for _, r := range in.rules {
		if r.Kind != TransientRead && r.Kind != PermanentRead {
			continue
		}
		if !r.match(true, name) {
			continue
		}
		if in.fires(r) {
			in.stats.ReadErrs++
			return r.err(true)
		}
	}
	return nil
}

// AfterRead implements pfs.FaultHook: a bit flip picks one bit of the n
// bytes read, a latency spike returns extra cost. Multiple firing rules
// compose.
func (in *Injector) AfterRead(name string, off int64, n int) ([]pfs.Flip, pfs.Cost) {
	in.mu.Lock()
	defer in.mu.Unlock()
	var flips []pfs.Flip
	var extra pfs.Cost
	for _, r := range in.rules {
		if r.Kind != BitFlip && r.Kind != LatencySpike {
			continue
		}
		if !r.match(true, name) {
			continue
		}
		if !in.fires(r) {
			continue
		}
		switch r.Kind {
		case BitFlip:
			if n > 0 {
				d := in.next()
				flips = append(flips, pfs.Flip{Off: off + int64(d%uint64(n)), Mask: 1 << ((d >> 32) % 8)})
				in.stats.BitFlips++
			}
		case LatencySpike:
			extra.Add(r.Spike)
			in.stats.LatencySpikes++
		}
	}
	return flips, extra
}

// BeforeWrite implements pfs.FaultHook.
func (in *Injector) BeforeWrite(name string, off int64, n int) (int, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.WriteOps++
	for _, r := range in.rules {
		if r.Kind == FailClose || !r.match(false, name) {
			continue
		}
		if !in.fires(r) {
			continue
		}
		if r.Kind == TornWrite {
			in.stats.TornWrites++
			keep := r.Keep
			if keep > n {
				keep = n
			}
			err := r.Err
			if err == nil {
				err = ErrInjectedWrite
			}
			return keep, err
		}
		in.stats.WriteErrs++
		return 0, r.err(false)
	}
	return 0, nil
}

// BeforeClose implements pfs.FaultHook: a FailClose rule fails the close.
func (in *Injector) BeforeClose(name string) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range in.rules {
		if r.Kind == FailClose && r.match(false, name) && in.fires(r) {
			in.stats.FailedCloses++
			return r.err(false)
		}
	}
	return nil
}

// Nop is a fault hook that injects nothing. A test's own hook embeds it
// and overrides only the decisions it makes.
type Nop struct{}

func (Nop) BeforeRead(string, int64, int) error                 { return nil }
func (Nop) AfterRead(string, int64, int) ([]pfs.Flip, pfs.Cost) { return nil, pfs.Cost{} }
func (Nop) BeforeWrite(string, int64, int) (int, error)         { return 0, nil }
func (Nop) BeforeClose(string) error                            { return nil }

// FailReads arms a one-shot read fault on the store with the semantics of
// the old pfs.Store.FailReads: the (after+1)-th subsequent read operation
// fails once with err, unclassified so it propagates through retry. A nil
// err disarms fault injection entirely.
func FailReads(s *pfs.Store, after int, err error) {
	if err == nil {
		s.SetFaultHook(nil)
		return
	}
	s.SetFaultHook(New(0, Rule{Kind: PermanentRead, After: after, Err: err}))
}

// FailWrites is FailReads for write operations.
func FailWrites(s *pfs.Store, after int, err error) {
	if err == nil {
		s.SetFaultHook(nil)
		return
	}
	s.SetFaultHook(New(0, Rule{Kind: PermanentWrite, After: after, Err: err}))
}
