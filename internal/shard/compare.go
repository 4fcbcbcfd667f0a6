package shard

import (
	"context"

	"repro/internal/compare"
	"repro/internal/pfs"
)

// Compare runs the two-stage Merkle comparison of one checkpoint pair
// sharded across cfg.Workers simulated workers. A sharded pair is the
// sharded group of two — baseline A, one run B, the single pair (0, 1):
// the same stage 1 on the coordinator, the same unit pool, partition,
// execution and fold — reported as a pair Result (method "merkle-shard")
// carrying the group's account. The Result is bit-identical — diffs,
// verdicts, chunk accounting — to CompareMerkle over the same inputs;
// Stats reports the scale-out execution itself.
func Compare(ctx context.Context, store *pfs.Store, nameA, nameB string, cfg Config, opts compare.Options) (*compare.Result, *Stats, error) {
	rep, stats, err := groupCompare(ctx, store, nameA, []string{nameB}, compare.TopologyStar, cfg, opts,
		"merkle-shard", "open-checkpoints")
	if err != nil {
		return nil, nil, err
	}
	res := rep.Pairs[0].Result
	res.RootA, res.RootB = rep.MemberRoots[0], rep.MemberRoots[1]
	res.Account = rep.Account
	return res, stats, nil
}
