package vpim_test

import (
	"reflect"
	"testing"

	"repro/internal/conformance"
)

// TestChaosClusterReplayable runs each cluster chaos seed twice and
// asserts the outcomes — the step log, merged counter snapshot and routing
// statistics — are identical: the seed is a complete one-line reproduction
// of shard deaths, failovers, rebalances and cross-shard restores.
func TestChaosClusterReplayable(t *testing.T) {
	seeds := []int64{5, 17, 41, 89}
	if testing.Short() || raceEnabled {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		first, err := conformance.RunClusterChaos(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		second, err := conformance.RunClusterChaos(seed)
		if err != nil {
			t.Fatalf("seed %d replay: %v", seed, err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("seed %d is not replayable:\n first: %+v\nsecond: %+v", seed, first, second)
		}
		t.Logf("seed %d: %d steps logged, placements=%d rebalances=%d failovers=%d deaths=%d",
			seed, len(first.Log), first.Stats.Placements, first.Stats.Rebalances,
			first.Stats.Failovers, first.Stats.ShardDeaths)
	}
}
