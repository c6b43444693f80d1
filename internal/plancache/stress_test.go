package plancache

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestShardedCacheConcurrentStress hammers one store from GOMAXPROCS
// goroutines with the full mix of lookup outcomes — counters-equal hits,
// drift hits, cold misses, and stale misses on regime changes — and then
// cross-checks the statistics against the ground-truth operation counts.
// Run under -race (the CI race step covers this package) it is the
// regression net for the store's locking.
func TestShardedCacheConcurrentStress(t *testing.T) {
	c := New[int](Policy{})
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const (
		iters = 4000
		nkeys = 48
	)
	keys := make([]Key, nkeys)
	for i := range keys {
		keys[i] = Key{Sig: fmt.Sprintf("sig-%d", i)}
	}

	var lookups, stores atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := uint64(w)*0x9e3779b97f4a7c15 + 1
			next := func() uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng
			}
			for i := 0; i < iters; i++ {
				k := keys[next()%nkeys]
				// Phase-shifted cardinalities: within a phase counters and
				// cards repeat (counters-equal hits); across phases cards
				// drift a little (drift hits) or past the threshold (stale
				// misses).
				phase := i / 500
				var cards [2]int
				var counters [2]uint64
				switch next() % 4 {
				case 0: // unchanged world: exact counter match
					cards = [2]int{100, 200}
					counters = [2]uint64{uint64(phase), uint64(phase)}
				case 1: // small in-band drift with fresh counters
					cards = [2]int{100 + int(next()%40), 200}
					counters = [2]uint64{next(), next()}
				case 2: // regime change: doubled cardinality
					cards = [2]int{100 << (phase%3 + 1), 200}
					counters = [2]uint64{next(), next()}
				case 3: // blowup past the 0.5 drift threshold
					cards = [2]int{100, 200 + int(next()%200)}
					counters = [2]uint64{next(), next()}
				}
				lookups.Add(1)
				if _, ok, _ := c.Lookup(k, counters[:], cards[:]); !ok {
					stores.Add(1)
					c.Store(k, counters[:], cards[:], int(next()))
				}
			}
		}()
	}
	wg.Wait()

	s := c.Stats()
	gotLookups := s.Hits + s.ColdMisses + s.BandMisses + s.StaleDrops
	if gotLookups != lookups.Load() {
		t.Fatalf("stats lost lookups under contention: %d accounted, %d performed", gotLookups, lookups.Load())
	}
	if s.Stores != stores.Load() {
		t.Fatalf("stats lost stores under contention: %d accounted, %d performed", s.Stores, stores.Load())
	}
	// The mix must actually have exercised every outcome, or the stress is
	// not covering the code paths it claims to.
	if s.Hits == 0 || s.ColdMisses == 0 || s.StaleDrops == 0 {
		t.Fatalf("stress mix degenerate: %+v", s)
	}
	if c.store.Len() == 0 {
		t.Fatal("cache empty after stress")
	}
}
