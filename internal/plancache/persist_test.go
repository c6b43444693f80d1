package plancache

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"carac/internal/stats"
	"carac/internal/wire"
)

// strCodec persists string values verbatim; the value "hint" becomes a
// recompile hint (persisted without an artifact), and values prefixed
// "skip:" are not persisted at all — the failure-marker convention.
func strCodec() EntryCodec {
	return EntryCodec{
		Encode: func(v any) ([]byte, bool) {
			s, ok := v.(string)
			if !ok || strings.HasPrefix(s, "skip:") {
				return nil, false
			}
			if s == "hint" {
				return nil, true
			}
			return []byte(s), true
		},
		Decode: func(p []byte) (any, error) { return string(p), nil },
	}
}

func testCodecs() map[Class]EntryCodec {
	return map[Class]EntryCodec{ClassPlans: strCodec(), ClassUnits: strCodec()}
}

func planView(s *Store) *Cache[string] {
	return View[string](s, ViewConfig{Class: ClassPlans})
}

func TestPersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1 := NewStore(0)
	v1 := planView(s1)
	cards := []int{16, 4}
	counters := []uint64{7, 9}
	v1.Store(Key{Sig: "alpha"}, counters, cards, "plan-alpha")
	v1.Store(Key{Sig: "alpha"}, []uint64{8, 9}, []int{1024, 4}, "plan-alpha-big") // second regime, same file
	v1.Store(Key{Sig: "beta"}, counters, []int{1024, 2}, "plan-beta")
	snap := &stats.Snapshot{CapturedEpoch: 3}

	p1 := NewPersister(dir, "tag-1", testCodecs())
	if err := p1.Flush(s1, snap); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if st := p1.Stats(); st.Flushes != 3 {
		t.Fatalf("flushes = %d, want 3: %+v", st.Flushes, st)
	}

	s2 := NewStore(0)
	p2 := NewPersister(dir, "tag-1", testCodecs())
	p2.Load(s2)
	st := p2.Stats()
	if st.Hits != 3 || st.Invalidations != 0 || st.Misses != 0 {
		t.Fatalf("load stats %+v, want 3 hits", st)
	}
	if prof := p2.Profile(); prof == nil || prof.CapturedEpoch != 3 {
		t.Fatalf("profile snapshot not restored: %+v", prof)
	}
	// Identical freshness vectors must hit on the fast (counters-equal)
	// path; the entry must read as cross-run (generation predates this
	// store's first).
	got, ok, _ := planView(s2).Lookup(Key{Sig: "alpha"}, counters, cards)
	if !ok || got != "plan-alpha" {
		t.Fatalf("lookup after load: ok=%v val=%q", ok, got)
	}
	cs := s2.ClassStats(ClassPlans)
	if cs.CrossRunHits != 1 {
		t.Fatalf("loaded entry did not count as cross-run: %+v", cs)
	}
	// Drifted-but-fresh counters (cards within policy) must also hit.
	if _, ok, _ := planView(s2).Lookup(Key{Sig: "alpha"}, []uint64{8, 10}, cards); !ok {
		t.Fatal("drift-gate lookup after load missed")
	}
	if got, ok, _ := planView(s2).Lookup(Key{Sig: "alpha"}, []uint64{9, 11}, []int{1000, 4}); !ok || got != "plan-alpha-big" {
		t.Fatalf("second regime after load: ok=%v val=%q", ok, got)
	}
}

func TestPersistHintsLoadAsMisses(t *testing.T) {
	dir := t.TempDir()
	s1 := NewStore(0)
	v1 := planView(s1)
	v1.Store(Key{Sig: "real"}, []uint64{1}, []int{8}, "artifact")
	v1.Store(Key{Sig: "lambda-unit"}, []uint64{1}, []int{8}, "hint")
	v1.Store(Key{Sig: "failed"}, []uint64{1}, []int{8}, "skip:failure-marker")
	p1 := NewPersister(dir, "t", testCodecs())
	if err := p1.Flush(s1, nil); err != nil {
		t.Fatal(err)
	}
	if st := p1.Stats(); st.Flushes != 2 {
		t.Fatalf("flushes = %d, want 2 (hint persists, failure marker does not)", st.Flushes)
	}

	s2 := NewStore(0)
	p2 := NewPersister(dir, "t", testCodecs())
	p2.Load(s2)
	st := p2.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Invalidations != 0 {
		t.Fatalf("load stats %+v, want 1 hit + 1 hint miss", st)
	}
	if _, ok, _ := planView(s2).Lookup(Key{Sig: "lambda-unit"}, []uint64{1}, []int{8}); ok {
		t.Fatal("hint entry must not be served as an artifact")
	}
	if _, ok, _ := planView(s2).Lookup(Key{Sig: "failed"}, []uint64{1}, []int{8}); ok {
		t.Fatal("failure marker must not be persisted")
	}
}

// TestPersistCorruptionIsSilentMiss mangles every cache file a different way
// — truncation, garbage, bit flip, wrong magic, wrong version tag — and
// requires each to load as a counted invalidation with zero entries
// installed, then get overwritten by the next flush.
func TestPersistCorruptionIsSilentMiss(t *testing.T) {
	corruptions := []struct {
		name string
		mut  func(b []byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"empty", func([]byte) []byte { return nil }},
		{"garbage", func(b []byte) []byte { return []byte(strings.Repeat("x", len(b))) }},
		{"bitflip", func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b }},
		{"badmagic", func(b []byte) []byte { b[0] = 'X'; return b }},
	}
	for _, c := range corruptions {
		c := c
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s1 := NewStore(0)
			planView(s1).Store(Key{Sig: "k"}, []uint64{1}, []int{8}, "v")
			p1 := NewPersister(dir, "t", testCodecs())
			if err := p1.Flush(s1, &stats.Snapshot{CapturedEpoch: 1}); err != nil {
				t.Fatal(err)
			}
			files, err := os.ReadDir(dir)
			if err != nil || len(files) == 0 {
				t.Fatalf("no cache files written: %v", err)
			}
			for _, f := range files {
				path := filepath.Join(dir, f.Name())
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, c.mut(b), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			s2 := NewStore(0)
			p2 := NewPersister(dir, "t", testCodecs())
			p2.Load(s2)
			st := p2.Stats()
			if st.Hits != 0 || st.Invalidations == 0 {
				t.Fatalf("corrupt files must be silent misses: %+v", st)
			}
			if p2.Profile() != nil {
				t.Fatal("corrupt profile must not decode")
			}
			if s2.Len() != 0 {
				t.Fatalf("corrupt load installed %d entries", s2.Len())
			}
			// The cold path rebuilds; the next flush overwrites the corpse.
			planView(s2).Store(Key{Sig: "k"}, []uint64{2}, []int{8}, "v2")
			if err := p2.Flush(s2, &stats.Snapshot{CapturedEpoch: 2}); err != nil {
				t.Fatal(err)
			}
			s3 := NewStore(0)
			p3 := NewPersister(dir, "t", testCodecs())
			p3.Load(s3)
			if st := p3.Stats(); st.Hits != 1 || st.Invalidations != 0 {
				t.Fatalf("re-flush did not repair the directory: %+v", st)
			}
			if got, ok, _ := planView(s3).Lookup(Key{Sig: "k"}, []uint64{2}, []int{8}); !ok || got != "v2" {
				t.Fatalf("repaired entry: ok=%v val=%q", ok, got)
			}
		})
	}
}

// TestPersistVersionMismatch writes under one tag and loads under another:
// every file (entries and profile) must invalidate, and a flush under the
// new tag must repair the directory in place.
func TestPersistVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	s1 := NewStore(0)
	planView(s1).Store(Key{Sig: "k"}, []uint64{1}, []int{4}, "old-layout")
	old := NewPersister(dir, "engine-0.0.9", testCodecs())
	if err := old.Flush(s1, &stats.Snapshot{}); err != nil {
		t.Fatal(err)
	}

	s2 := NewStore(0)
	neu := NewPersister(dir, "engine-0.1.0", testCodecs())
	neu.Load(s2)
	if st := neu.Stats(); st.Hits != 0 || st.Invalidations != 2 {
		t.Fatalf("version mismatch stats %+v, want 2 invalidations (entry + profile)", st)
	}
	planView(s2).Store(Key{Sig: "k"}, []uint64{1}, []int{4}, "new-layout")
	if err := neu.Flush(s2, nil); err != nil {
		t.Fatal(err)
	}
	// A file in the previous container layout (version 1, whose entries
	// carried a band-widening byte) under the current tag is rejected by its
	// version and swept.
	b := append([]byte(nil), entryMagic[:]...)
	b = wire.AppendU32(b, persistFormatVersion-1)
	b = wire.AppendString(b, "engine-0.1.0")
	b = wire.AppendU8(b, uint8(ClassPlans))
	b = wire.AppendString(b, "v1")
	b = wire.AppendU8(b, 0) // widen
	b = wire.AppendU32(b, 0)
	if err := os.WriteFile(filepath.Join(dir, entryFileName(ClassPlans, Key{Sig: "v1"})), seal(b), 0o644); err != nil {
		t.Fatal(err)
	}
	s3 := NewStore(0)
	p3 := NewPersister(dir, "engine-0.1.0", testCodecs())
	p3.Load(s3)
	if got, ok, _ := planView(s3).Lookup(Key{Sig: "k"}, []uint64{1}, []int{4}); !ok || got != "new-layout" {
		t.Fatalf("tag-repaired entry: ok=%v val=%q", ok, got)
	}
	if st := p3.Stats(); st.Hits != 1 || st.Invalidations != 1 || st.Swept != 1 {
		t.Fatalf("load stats %+v, want 1 hit and the version-1 file invalidated and swept", st)
	}
}

// TestPersistRefusedThenReloaded pins the disk-outlives-the-limit contract:
// a flushed entry that a full store refuses at load (and which a subsequent
// flush therefore does NOT contain) still reloads from its surviving file
// in the next process.
func TestPersistRefusedThenReloaded(t *testing.T) {
	dir := t.TempDir()
	s1 := NewStore(0)
	planView(s1).Store(Key{Sig: "precious"}, []uint64{1}, []int{8}, "kept-on-disk")
	p1 := NewPersister(dir, "t", testCodecs())
	if err := p1.Flush(s1, nil); err != nil {
		t.Fatal(err)
	}

	// A small second store, full before the load: the loaded entry is
	// refused, and the follow-up flush writes only the fillers.
	const limit = 8
	s2 := NewStore(limit)
	v2 := planView(s2)
	for i := 0; i < limit; i++ {
		v2.Store(Key{Sig: fmt.Sprintf("filler-%d", i)}, []uint64{1}, []int{8}, "f")
	}
	p2 := NewPersister(dir, "t", testCodecs())
	p2.Load(s2)
	if st := p2.Stats(); st.Hits != 0 {
		t.Fatalf("a full store installed a loaded entry: %+v", st)
	}
	if _, ok, _ := v2.Lookup(Key{Sig: "precious"}, []uint64{1}, []int{8}); ok {
		t.Fatal("a full store served the loaded entry")
	}
	if err := p2.Flush(s2, nil); err != nil {
		t.Fatal(err)
	}

	s3 := NewStore(0)
	p3 := NewPersister(dir, "t", testCodecs())
	p3.Load(s3)
	got, ok, _ := planView(s3).Lookup(Key{Sig: "precious"}, []uint64{1}, []int{8})
	if !ok || got != "kept-on-disk" {
		t.Fatalf("refused entry lost from disk: ok=%v val=%q", ok, got)
	}
	if st := p3.Stats(); st.Hits != limit+1 {
		t.Fatalf("reload stats %+v, want %d hits", st, limit+1)
	}
}

// TestPersistConcurrentFlush has several goroutines flushing overlapping
// stores into one directory (the two-processes-one-cache-dir scenario; run
// under -race in CI). Whatever interleaving wins, every file must remain a
// complete, valid entry — atomic rename permits no torn state.
func TestPersistConcurrentFlush(t *testing.T) {
	dir := t.TempDir()
	const flushers = 4
	var wg sync.WaitGroup
	for g := 0; g < flushers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := NewStore(0)
			v := planView(s)
			for i := 0; i < 16; i++ {
				v.Store(Key{Sig: fmt.Sprintf("shared-%d", i)}, []uint64{uint64(g)}, []int{8}, fmt.Sprintf("from-%d", g))
			}
			p := NewPersister(dir, "t", testCodecs())
			for r := 0; r < 8; r++ {
				if err := p.Flush(s, &stats.Snapshot{CapturedEpoch: uint64(g)}); err != nil {
					t.Errorf("flusher %d: %v", g, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	s := NewStore(0)
	p := NewPersister(dir, "t", testCodecs())
	p.Load(s)
	st := p.Stats()
	if st.Invalidations != 0 {
		t.Fatalf("concurrent flushes tore %d files: %+v", st.Invalidations, st)
	}
	if st.Hits != 16 {
		t.Fatalf("loaded %d entries, want 16", st.Hits)
	}
	for i := 0; i < 16; i++ {
		if _, ok := planView(s).Peek(Key{Sig: fmt.Sprintf("shared-%d", i)}, []int{8}); !ok {
			t.Fatalf("entry shared-%d unreadable after concurrent flush", i)
		}
	}
	// No temp-file debris left behind.
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasPrefix(f.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", f.Name())
		}
	}
}

// TestLoadSweepsPollutedDirectory: Load garbage-collects a polluted cache
// directory — aged temp-file orphans from crashed flushes and permanently
// invalid entry files (garbage bytes, stale version tags) — while keeping
// valid entries, fresh temp files a concurrent flusher may still own, and
// foreign files it does not understand.
func TestLoadSweepsPollutedDirectory(t *testing.T) {
	dir := t.TempDir()
	s1 := NewStore(0)
	planView(s1).Store(Key{Sig: "good"}, []uint64{1}, []int{8}, "keep-me")
	p1 := NewPersister(dir, "tag", testCodecs())
	if err := p1.Flush(s1, &stats.Snapshot{CapturedEpoch: 1}); err != nil {
		t.Fatal(err)
	}

	// Pollution 1: an entry flushed under a stale version tag — the classic
	// leftover after an engine upgrade changes the layout.
	sStale := NewStore(0)
	planView(sStale).Store(Key{Sig: "stale"}, []uint64{1}, []int{8}, "old-world")
	pStale := NewPersister(dir, "old-tag", testCodecs())
	if err := pStale.Flush(sStale, nil); err != nil {
		t.Fatal(err)
	}
	// Pollution 2: an aged temp file from a crashed flush.
	orphan := filepath.Join(dir, ".tmp-crashed123")
	if err := os.WriteFile(orphan, []byte("partial flush"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * tmpOrphanAge)
	if err := os.Chtimes(orphan, old, old); err != nil {
		t.Fatal(err)
	}
	// Not pollution: a fresh temp file (a live flusher could own it) and a
	// file the cache never wrote.
	fresh := filepath.Join(dir, ".tmp-live456")
	if err := os.WriteFile(fresh, []byte("in flight"), 0o644); err != nil {
		t.Fatal(err)
	}
	foreign := filepath.Join(dir, "README.txt")
	if err := os.WriteFile(foreign, []byte("notes"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Pollution 3: garbage bytes under the entry extension.
	garbage := filepath.Join(dir, "c0-deadbeef"+entryExt)
	if err := os.WriteFile(garbage, []byte("not a cache entry"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := NewStore(0)
	p2 := NewPersister(dir, "tag", testCodecs())
	p2.Load(s2)
	st := p2.Stats()
	if st.Hits != 1 || st.Invalidations != 2 {
		t.Fatalf("load stats %+v, want 1 hit + 2 invalidations (garbage, stale tag)", st)
	}
	if st.Swept != 3 {
		t.Fatalf("swept %d files, want 3 (aged orphan, garbage, stale tag)", st.Swept)
	}
	if got, ok, _ := planView(s2).Lookup(Key{Sig: "good"}, []uint64{1}, []int{8}); !ok || got != "keep-me" {
		t.Fatalf("valid entry lost to the sweep: ok=%v val=%q", ok, got)
	}
	for _, gone := range []string{orphan, garbage} {
		if _, err := os.Stat(gone); !os.IsNotExist(err) {
			t.Fatalf("%s survived the sweep (err=%v)", filepath.Base(gone), err)
		}
	}
	for _, kept := range []string{fresh, foreign} {
		if _, err := os.Stat(kept); err != nil {
			t.Fatalf("%s should have been left alone: %v", filepath.Base(kept), err)
		}
	}

	// The directory self-healed: a second load sees only valid state.
	s3 := NewStore(0)
	p3 := NewPersister(dir, "tag", testCodecs())
	p3.Load(s3)
	if st := p3.Stats(); st.Hits != 1 || st.Invalidations != 0 || st.Swept != 0 {
		t.Fatalf("reload after sweep %+v, want a clean 1-hit load", st)
	}
	if prof := p3.Profile(); prof == nil || prof.CapturedEpoch != 1 {
		t.Fatalf("profile lost during sweep: %+v", prof)
	}
}

// TestExportInject round-trips entries through the in-memory half of the
// persistence path, including a key's entries for two regimes.
func TestExportInject(t *testing.T) {
	s1 := NewStore(0)
	v1 := planView(s1)
	v1.Store(Key{Sig: "a"}, []uint64{1}, []int{4, 4}, "va")
	v1.Store(Key{Sig: "a"}, []uint64{2}, []int{512, 4}, "va-big") // second regime, same key
	v1.Store(Key{Sig: "b"}, []uint64{3}, []int{16}, "vb")
	if ents := s1.Export(ClassUnits); len(ents) != 0 {
		t.Fatalf("exported %d entries of an empty class", len(ents))
	}
	ents := s1.Export(ClassPlans)
	if len(ents) != 3 {
		t.Fatalf("exported %d entries, want 3", len(ents))
	}

	s2 := NewStore(0)
	for _, e := range ents {
		if !s2.Inject(e) {
			t.Fatalf("inject %q rejected", e.Key.Sig)
		}
	}
	// Re-injecting an entry at the same cardinalities must be refused (the
	// live entry wins).
	if s2.Inject(ents[0]) {
		t.Fatal("duplicate inject accepted")
	}
	if got, ok, _ := planView(s2).Lookup(Key{Sig: "a"}, []uint64{1}, []int{4, 4}); !ok || got != "va" {
		t.Fatalf("regime 1: ok=%v val=%q", ok, got)
	}
	if got, ok, _ := planView(s2).Lookup(Key{Sig: "a"}, []uint64{2}, []int{512, 4}); !ok || got != "va-big" {
		t.Fatalf("regime 2: ok=%v val=%q", ok, got)
	}
	if s2.Len() != 3 {
		t.Fatalf("store len %d, want 3", s2.Len())
	}
	// A full store refuses an injected entry.
	s3 := NewStore(2)
	for i, e := range ents {
		if got, want := s3.Inject(e), i < 2; got != want {
			t.Fatalf("inject %d into a store of limit 2: %v, want %v", i, got, want)
		}
	}
}
