package bench

import (
	"os"
	"testing"

	"github.com/routerplugins/eisr/internal/aiu"
)

// TestBenchSmokeHashFlood is the hash-flood guard (EISR_BENCH_SMOKE=1):
// 64k keys built to collide under an unkeyed src^dst fold must cost no
// more than 1.5x uniform keys per lookup, and no lookup of either set
// may compare more keys than a bucket holds.
func TestBenchSmokeHashFlood(t *testing.T) {
	if os.Getenv("EISR_BENCH_SMOKE") == "" {
		t.Skip("set EISR_BENCH_SMOKE=1 to run")
	}
	rows := RunHashFlood(HashFloodOptions{Seed: 1})
	t.Logf("\n%s", HashFloodTable(rows))
	uniform, flood := rows[0], rows[1]
	if r := flood.NsPerLookup / uniform.NsPerLookup; r > 1.5 {
		t.Errorf("adversarial keys cost %.2fx uniform per lookup, want <= 1.5", r)
	}
	for _, r := range rows {
		if r.MaxKeys > aiu.FlowBucketSlots {
			t.Errorf("%s: a lookup compared %d keys, want <= %d", r.Keys, r.MaxKeys, aiu.FlowBucketSlots)
		}
	}
}

// TestHashFloodSpreads runs the experiment small, in every build: the
// adversarial set must spread over shards and workers as evenly as
// uniform keys do, within a loose bound.
func TestHashFloodSpreads(t *testing.T) {
	rows := RunHashFlood(HashFloodOptions{Keys: 4096, Passes: 1, Seed: 1})
	for _, r := range rows {
		if r.ShardSkew > 1.5 || r.WorkerSkew > 1.5 || r.MaxKeys > aiu.FlowBucketSlots {
			t.Errorf("%s: shard skew %.2f, worker skew %.2f, max keys %d", r.Keys, r.ShardSkew, r.WorkerSkew, r.MaxKeys)
		}
	}
}
