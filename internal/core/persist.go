// Persistent-cache wiring: Options.CacheDir binds the Program-lifetime unit
// store to an on-disk, content-addressed cache directory (doc.go §Persistent
// cache). The persister is created on the first Run (or Serve) that names a
// directory, loads once for the Program's life, and flushes after every
// successful shared Run and on every serve epoch publication.
package core

import (
	"fmt"

	"carac/internal/jit"
	"carac/internal/plancache"
	"carac/internal/stats"
)

// engineVersion mirrors the root package's Version constant (doc.go), which
// core cannot import without a cycle through the root test files. Bump both
// together.
const engineVersion = "0.1.0"

// cacheTag versions every byte layout a cache file depends on: engine
// version plus the snapshot codec layout (compiled units persist as
// recompile hints, with no layout of their own). Any mismatch invalidates
// the whole directory — files written under another tag load as silent
// misses and are overwritten on the next flush.
func cacheTag() string {
	return fmt.Sprintf("carac-%s snap%d", engineVersion, stats.SnapshotCodecVersion)
}

// ensurePersistLocked creates the persister and performs the one-time load
// into the shared store. Callers hold runMu. The first CacheDir a Program
// sees wins for its lifetime.
func (p *Program) ensurePersistLocked(opts Options) {
	if opts.CacheDir == "" || p.persist != nil {
		return
	}
	codecs := map[plancache.Class]plancache.EntryCodec{plancache.ClassUnits: jit.UnitCodec()}
	p.persist = plancache.NewPersister(opts.CacheDir, cacheTag(), codecs)
	p.persist.Load(p.PlanStore())
}

// flushPersistLocked writes the store and profile snapshot to disk. Disk
// failures are advisory — they must never fail a query or a publish.
func (p *Program) flushPersistLocked(store *plancache.Store, snap *stats.Snapshot) {
	if p.persist == nil || store == nil {
		return
	}
	_ = p.persist.Flush(store, snap)
}

// DiskStats reports the persistent cache's traffic; ok is false when no
// CacheDir has been configured.
func (p *Program) DiskStats() (plancache.DiskStats, bool) {
	if p.persist == nil {
		return plancache.DiskStats{}, false
	}
	return p.persist.Stats(), true
}

// CachedProfile returns the statistics snapshot loaded from the cache
// directory (the world the persisted units were compiled against), or nil.
// Callers can hand it to Options.JIT.Optimizer sources or inspect it to
// re-optimize incrementally instead of from zero.
func (p *Program) CachedProfile() *stats.Snapshot {
	if p.persist == nil {
		return nil
	}
	return p.persist.Profile()
}
