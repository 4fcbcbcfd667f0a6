package compare

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cas"
	"repro/internal/engine"
	"repro/internal/murmur3"
	"repro/internal/pfs"
)

// Topology selects which checkpoint pairs an N-run group comparison
// covers.
type Topology int

// Group-comparison topologies.
const (
	// TopologyStar compares every run against the baseline (N-1 pairs):
	// the reproducibility question "which runs diverge from the
	// reference?".
	TopologyStar Topology = iota + 1
	// TopologyAllPairs compares every run against every other
	// (N·(N-1)/2 pairs): the ensemble question "which runs diverge from
	// each other?".
	TopologyAllPairs
)

// String returns the topology's report name.
func (t Topology) String() string {
	switch t {
	case TopologyStar:
		return "star"
	case TopologyAllPairs:
		return "all-pairs"
	default:
		return fmt.Sprintf("Topology(%d)", int(t))
	}
}

// pairList enumerates the member-index pairs of a topology over n members
// (member 0 is the baseline).
func (t Topology) pairList(n int) ([][2]int, error) {
	var out [][2]int
	switch t {
	case TopologyStar:
		for i := 1; i < n; i++ {
			out = append(out, [2]int{0, i})
		}
	case TopologyAllPairs:
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				out = append(out, [2]int{i, j})
			}
		}
	default:
		return nil, fmt.Errorf("compare: unknown topology %d", int(t))
	}
	return out, nil
}

// ParseTopology returns the topology a report names (Topology.String);
// "" is the star.
func ParseTopology(name string) (Topology, error) {
	for _, t := range []Topology{TopologyStar, TopologyAllPairs} {
		if name == t.String() {
			return t, nil
		}
	}
	if name == "" {
		return TopologyStar, nil
	}
	return 0, fmt.Errorf("compare: unknown topology %q", name)
}

// MarshalText names the topology in JSON reports.
func (t Topology) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

// GroupPairReport is one pair's outcome within a group comparison.
type GroupPairReport struct {
	// A and B index GroupReport.Members.
	A int `json:"a"`
	B int `json:"b"`
	// NameA and NameB are the compared checkpoint names.
	NameA string `json:"nameA"`
	NameB string `json:"nameB"`
	// Result is the pair's comparison outcome (method "merkle-group").
	Result *Result `json:"result"`
}

// GroupReport is the outcome of one N-run group comparison. Its Account's
// verdict and chunk counts are the sums over its pairs (Degraded: any
// pair's); its byte counts, retries and times are the group plan's own.
type GroupReport struct {
	// Members lists the compared checkpoints; index 0 is the baseline.
	Members []string `json:"members"`
	// Topology is the pair coverage.
	Topology Topology `json:"topology"`
	// Pairs holds one report per compared pair, in topology order.
	Pairs []GroupPairReport `json:"pairs"`
	// ReadOps and ReadBytes are the store-level PFS read operations and
	// bytes the whole group comparison issued (metadata + shared candidate
	// reads, after coalescing) — the quantity GroupCompare minimizes
	// versus sequential pairwise comparison.
	ReadOps   int64 `json:"readOps"`
	ReadBytes int64 `json:"readBytes"`
	// PipelineVirtual is the overlapped virtual time of the shared
	// stage-2 read+verify pipeline.
	PipelineVirtual time.Duration `json:"pipelineVirtual"`
	// MemberRoots holds each member's combined Merkle root
	// (Metadata.CombinedRoot), in Members order, for the verdict ledger.
	MemberRoots []murmur3.Digest `json:"memberRoots"`

	Account
}

// Reproducible reports whether every compared pair cleanly matched within
// ε. A degraded pair (unread or unverifiable chunks) is never a clean
// match, so a degraded group is never reproducible.
func (g *GroupReport) Reproducible() bool {
	for i := range g.Pairs {
		if !g.Pairs[i].Result.Identical() {
			return false
		}
	}
	return true
}

// GroupCompare compares N runs' checkpoints as one group: each member's
// metadata is loaded once, the tree diffs of every pair (by topology) run
// from those in-memory trees, and the candidate chunks of all pairs become
// ONE stage-2 plan with a source per member, in which a chunk several pairs
// need from a shared member is one extent, read once — so an N-run
// comparison issues strictly fewer PFS read operations and bytes than N-1
// (star) or N·(N-1)/2 (all-pairs) sequential pairwise comparisons, which
// re-read shared members per pair. Member 0 of the group is the baseline;
// topology selects star (baseline vs each run) or all-pairs coverage. Every
// member must have Merkle metadata at the options' ε and chunk size.
func GroupCompare(ctx context.Context, store *pfs.Store, baseline string, runs []string, topology Topology, opts Options) (*GroupReport, error) {
	return groupCompare(ctx, store, nil, baseline, runs, topology, opts)
}

// GroupCompareDiff compares N differentially captured runs as one group.
// It composes the two read-reduction layers: the group plan already lists a
// chunk several pairs need once, and the CAS collapses that further — every
// needed chunk is an extent of ONE shared pack, the plan's single source,
// so chunks deduplicated across members (the common case for runs of the
// same simulation) are the same extent and are fetched once for the whole
// group. CAS pruning (extent equality and memoized digest-pair verdicts)
// removes candidates from stage 2 before the plan is even assembled; pruned
// chunks are never reported Unverified — their verdict is proven, not
// skipped. Member 0 is the baseline. Every member must have been captured
// into cs with its manifest and metadata on the store at the options' ε.
func GroupCompareDiff(ctx context.Context, store *pfs.Store, cs *cas.Store, baseline string, runs []string, topology Topology, opts Options) (*GroupReport, error) {
	return groupCompare(ctx, store, cs, baseline, runs, topology, opts)
}

// groupCompare is the group planner, container-backed (cs nil) or
// differential: the stage 1 and stage 2 every Merkle planner runs, over N
// members and the topology's pairs.
func groupCompare(ctx context.Context, store *pfs.Store, cs *cas.Store, baseline string, runs []string, topology Topology, opts Options) (*GroupReport, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	method, open := "merkle-group", "open-members"
	if cs != nil {
		method, open = "merkle-cas-group", "open-manifests"
	}
	ms, err := NewGroupSet(store, cs, baseline, runs, topology, opts, method)
	if err != nil {
		return nil, err
	}
	st := &stage2{ms: ms, wrap: "group verification", degrade: opts.Degrade}
	var p engine.Plan
	ms.Stage1(&p, open)
	st.appendTo(&p, "plan-candidates", st.stepPlanCandidates)
	if err := ms.Execute(ctx, &p); err != nil {
		return nil, err
	}
	return ms.Rep, nil
}
