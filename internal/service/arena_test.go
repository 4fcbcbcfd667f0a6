package service

import (
	"context"
	"sync"
	"testing"

	"repro/internal/compare"
)

// TestArenaBoundedAcrossSessions drives 200 comparisons of mixed size
// (pair, direct sweep, group; small and large slices) from four concurrent
// sessions through one plane: the stage-2 arena never retains more than
// its stated bound, steady traffic stops missing, every buffer set is back
// when the sessions go quiet, and Close releases the lot.
func TestArenaBoundedAcrossSessions(t *testing.T) {
	small := newSvcEnv(t, 16<<10, 31)
	large := newSvcEnv(t, 192<<10, 32)
	cfg := Config{Workers: 4, MaxInFlight: 3, TenantPending: 8}
	p := New(cfg)
	bound := arenaLimit(cfg.withDefaults())
	if got := p.ArenaStats().Limit; got != bound {
		t.Fatalf("arena limit %d, want MaxInFlight × (window + metadata) × set = %d", got, bound)
	}

	ctx := context.Background()
	const sessions, perSession = 4, 50
	var wg sync.WaitGroup
	for si := 0; si < sessions; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			sess := p.Open("tenant")
			for i := 0; i < perSession; i++ {
				env := small
				if (si+i)%3 == 0 {
					env = large
				}
				opts := svcOpts()
				if i%4 == 1 {
					opts.SliceBytes = 64 << 10
				}
				var err error
				switch i % 5 {
				case 0:
					_, err = sess.CompareDirect(ctx, env.store, env.nameA, env.nameB, opts)
				case 1:
					_, err = sess.GroupCompare(ctx, env.store, env.nameA, []string{env.nameB}, compare.TopologyStar, opts)
				default:
					_, err = sess.Compare(ctx, env.store, env.nameA, env.nameB, opts)
				}
				if err != nil {
					t.Errorf("session %d op %d: %v", si, i, err)
					return
				}
				if st := p.ArenaStats(); st.Bytes > bound {
					t.Errorf("arena retains %d bytes, bound %d", st.Bytes, bound)
				}
			}
		}(si)
	}
	wg.Wait()

	st := p.ArenaStats()
	if st.Outstanding != 0 {
		t.Errorf("%d buffer sets still checked out with every session idle", st.Outstanding)
	}
	if st.Bytes == 0 || st.Bytes > bound {
		t.Errorf("arena retains %d bytes after 200 comparisons, want within (0, %d]", st.Bytes, bound)
	}
	// 200 comparisons at ≤ 3 in flight need a handful of sets and
	// scratches, not one per comparison.
	if st.Misses > 40 {
		t.Errorf("%d checkouts allocated over 200 comparisons: the arena is not recycling", st.Misses)
	}

	// A warm plane serves a repeat comparison without a single miss.
	sess := p.Open("tenant")
	if _, err := sess.Compare(ctx, large.store, large.nameA, large.nameB, svcOpts()); err != nil {
		t.Fatal(err)
	}
	if after := p.ArenaStats(); after.Misses != st.Misses {
		t.Errorf("warm comparison missed the arena %d times", after.Misses-st.Misses)
	}

	if err := p.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if st := p.ArenaStats(); st.Bytes != 0 || st.Sets != 0 {
		t.Errorf("arena retains %d bytes in %d sets after Close", st.Bytes, st.Sets)
	}
}
