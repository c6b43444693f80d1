// Persistent, content-addressed cache: the on-disk extension of the
// Program-lifetime store. No engine path uses it (core's CacheDir holds a
// fixpoint checkpoint); it stays only because perf/'s plancache.flush_ms,
// load_ms, disk_hits and disk_bytes probes call it, until the benchmark
// retires them. Structural fingerprints are already content-addressed, so
// each (class, key) pair maps to exactly one file in the cache directory —
// named by the SHA-256 of the fingerprint signature — holding every entry of
// that key. The profile-statistics snapshot the entries were built against
// rides along in its own file, so a restarted process can re-optimize
// incrementally instead of from zero.
//
// Robustness contract: a cache file is advisory. Truncated, garbage, or
// version-mismatched files load as silent misses (counted in
// DiskStats.Invalidations) and are overwritten on the next flush — never an
// error, never a partial entry. Writes go through a temp file in the same
// directory plus os.Rename, so a reader or a concurrently flushing second
// process only ever observes a complete old file or a complete new one.
// Flush never deletes files: an entry a full store refused survives on disk
// and reloads on the next open. Directory hygiene happens at Load instead:
// files that fail validation are removed (they could never load again — the
// next flush would just orphan them under a new tag), and temp files old
// enough that no live flusher can still own them are swept.
package plancache

import (
	"crypto/sha256"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"carac/internal/stats"
	"carac/internal/wire"
)

// persistFormatVersion tags the container layout below; bump on any change.
// Payload layouts are additionally guarded by the tag string callers build
// from the engine version and per-codec versions.
const persistFormatVersion = 2

const (
	entryExt    = ".cce" // cache container entry
	profileName = "profile.ccs"
)

var (
	entryMagic   = [4]byte{'C', 'R', 'P', 'C'}
	profileMagic = [4]byte{'C', 'R', 'P', 'S'}
)

// Entry is one store entry in exportable form: its class and fingerprint
// key, and the freshness vectors (build-time cardinalities, last-seen drift
// counters) the lookup gate needs to decide whether the live world still
// matches.
type Entry struct {
	Class    Class
	Key      Key
	Counters []uint64
	Cards    []int
	Val      any
}

// Export snapshots every entry of the given classes.
func (s *Store) Export(classes ...Class) []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Entry
	for vk, list := range s.entries {
		if !slices.Contains(classes, vk.class) {
			continue
		}
		for _, e := range list {
			out = append(out, Entry{Class: vk.class, Key: vk.key, Counters: slices.Clone(e.counters), Cards: slices.Clone(e.cards), Val: e.val})
		}
	}
	return out
}

// Inject inserts a loaded entry under the store's limit. The entry's
// generation is set to zero — strictly before any generation a live run can
// observe — so its first hit counts as a cross-run hit, same as an entry
// surviving from a previous Run. An entry already compiled at the same
// cardinalities (the process built its own first) wins over the disk copy;
// Inject reports whether the entry was installed. Statistics counters are
// untouched: disk traffic is accounted in DiskStats, not in the store's
// hit/miss ledger.
func (s *Store) Inject(e Entry) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	vk := viewKey{class: e.Class, key: e.Key}
	if s.indexOf(vk, e.Cards) >= 0 {
		return false
	}
	return s.add(vk, entry{val: e.Val, cards: slices.Clone(e.Cards), counters: slices.Clone(e.Counters)})
}

// EntryCodec translates one class's cached values to and from persistable
// payloads. Encode reports persist=false to skip an entry entirely (e.g. a
// failed-compile marker); persist=true with a nil payload records a
// "recompile hint" — the entry existed, but its artifact is not serializable
// (compiled JIT units), so a restarted process knows to recompile rather
// than finding a false artifact. Decode errors are treated as invalid files,
// never surfaced to the caller.
type EntryCodec struct {
	Encode func(v any) (payload []byte, persist bool)
	Decode func(payload []byte) (any, error)
}

// DiskStats counts the persistence layer's traffic, surfaced next to the
// in-memory store statistics: Hits = entries restored from disk at load,
// Misses = recompile hints seen at load (the entry must be rebuilt),
// Invalidations = files or payloads rejected (wrong magic, version or tag
// mismatch, truncation, checksum or decode failure), Flushes = entries
// written to disk, Swept = files Load removed from the directory (rejected
// entry/profile files plus aged-out temp files from crashed flushes).
type DiskStats struct {
	Hits          int64
	Misses        int64
	Invalidations int64
	Flushes       int64
	Swept         int64
}

// Persister binds a Store to a cache directory under a version tag. Callers
// build the tag from the engine version plus every payload-codec version, so
// any layout change invalidates the whole directory at once.
type Persister struct {
	dir    string
	tag    string
	codecs map[Class]EntryCodec

	mu      sync.Mutex
	stats   DiskStats
	profile *stats.Snapshot
}

// NewPersister creates a persister for dir (created on first flush if
// missing). codecs maps each persistable class to its payload codec; classes
// without a codec are neither flushed nor loaded.
func NewPersister(dir, tag string, codecs map[Class]EntryCodec) *Persister {
	return &Persister{dir: dir, tag: tag, codecs: codecs}
}

// Stats returns a copy of the disk-traffic counters.
func (p *Persister) Stats() DiskStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Profile returns the statistics snapshot loaded from the cache directory,
// or nil if none was present or it failed validation. It describes the
// world the persisted plans were built against.
func (p *Persister) Profile() *stats.Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.profile
}

func entryFileName(class Class, key Key) string {
	sum := sha256.Sum256([]byte(key.Sig))
	return fmt.Sprintf("c%d-%x%s", class, sum, entryExt)
}

// tmpOrphanAge is how old a flush temp file must be before Load treats it
// as an orphan of a crashed process and sweeps it. A live flusher holds its
// temp file for milliseconds, so an hour leaves no realistic race with a
// concurrent process sharing the directory.
const tmpOrphanAge = time.Hour

// Load reads every valid cache file in the directory into the store. It
// never fails: a missing directory is an empty cache, and every unreadable
// or invalid file is a silent miss counted in Invalidations. Load also
// garbage-collects the directory: entry and profile files that fail
// validation (wrong magic, version or tag mismatch, truncation, checksum or
// decode failure) are removed — they could never load again, and the next
// flush would not necessarily overwrite them — as are temp files from
// crashed flushes once they are older than tmpOrphanAge. Removals are
// counted in DiskStats.Swept.
func (p *Persister) Load(s *Store) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ents, err := os.ReadDir(p.dir)
	if err != nil {
		return
	}
	for _, de := range ents {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		path := filepath.Join(p.dir, name)
		if strings.HasPrefix(name, ".tmp-") {
			if fi, err := de.Info(); err == nil && time.Since(fi.ModTime()) >= tmpOrphanAge {
				p.sweepLocked(path)
			}
			continue
		}
		if name == profileName {
			if p.loadProfileLocked(path) {
				p.sweepLocked(path)
			}
			continue
		}
		if !strings.HasSuffix(name, entryExt) {
			continue
		}
		if p.loadEntryFileLocked(s, path) {
			p.sweepLocked(path)
		}
	}
}

func (p *Persister) sweepLocked(path string) {
	if os.Remove(path) == nil {
		p.stats.Swept++
	}
}

// checkEnvelope validates length, trailing CRC-32, magic, format version,
// and tag, returning the inner payload reader positioned after the header.
func (p *Persister) checkEnvelope(b []byte, magic [4]byte) (*wire.Reader, bool) {
	if len(b) < len(magic)+8 {
		return nil, false
	}
	body, sum := b[:len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(body) != wire.NewReader(sum).U32() {
		return nil, false
	}
	if string(body[:4]) != string(magic[:]) {
		return nil, false
	}
	r := wire.NewReader(body[4:])
	if r.U32() != persistFormatVersion {
		return nil, false
	}
	if r.String() != p.tag {
		return nil, false
	}
	return r, r.Err() == nil
}

// loadEntryFileLocked reads one entry file into the store and reports
// whether the file is permanently invalid and should be removed. Transient
// conditions — a read error, or a class this process has no codec for —
// count as invalidations but keep the file.
func (p *Persister) loadEntryFileLocked(s *Store, path string) (drop bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		p.stats.Invalidations++
		return false
	}
	r, ok := p.checkEnvelope(b, entryMagic)
	if !ok {
		p.stats.Invalidations++
		return true
	}
	class := Class(r.U8())
	codec, hasCodec := p.codecs[class]
	sig := r.String()
	n := r.Count(1)
	if r.Err() != nil || n < 0 {
		p.stats.Invalidations++
		return true
	}
	if !hasCodec {
		p.stats.Invalidations++
		return false
	}
	var hits, misses int64
	for i := 0; i < n; i++ {
		hasArtifact := r.U8() != 0
		var counters []uint64
		if m := r.Count(8); m > 0 {
			counters = make([]uint64, m)
			for j := range counters {
				counters[j] = r.U64()
			}
		}
		var cards []int
		if m := r.Count(8); m > 0 {
			cards = make([]int, m)
			for j := range cards {
				cards[j] = int(int64(r.U64()))
			}
		}
		payload := r.Bytes()
		if r.Err() != nil {
			p.stats.Invalidations++
			return true
		}
		if !hasArtifact {
			// Recompile hint: the previous process had this entry on a
			// non-serializable backend. Nothing to install.
			misses++
			continue
		}
		val, err := codec.Decode(payload)
		if err != nil {
			p.stats.Invalidations++
			return true
		}
		if s.Inject(Entry{Class: class, Key: Key{Sig: sig}, Counters: counters, Cards: cards, Val: val}) {
			hits++
		}
	}
	p.stats.Hits += hits
	p.stats.Misses += misses
	return false
}

// loadProfileLocked reads the profile snapshot and reports whether the file
// failed validation and should be removed.
func (p *Persister) loadProfileLocked(path string) (drop bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		p.stats.Invalidations++
		return false
	}
	r, ok := p.checkEnvelope(b, profileMagic)
	if !ok {
		p.stats.Invalidations++
		return true
	}
	snap, err := stats.DecodeSnapshot(r.Rest())
	if err != nil {
		p.stats.Invalidations++
		return true
	}
	p.profile = snap
	return false
}

func (p *Persister) envelope(magic [4]byte) []byte {
	b := append([]byte(nil), magic[:]...)
	b = wire.AppendU32(b, persistFormatVersion)
	return wire.AppendString(b, p.tag)
}

func seal(b []byte) []byte { return wire.AppendU32(b, crc32.ChecksumIEEE(b)) }

// Flush writes every persistable entry of the store's codec-bearing classes
// to the cache directory, one file per (class, key), plus the profile
// snapshot when non-nil. Existing files are replaced atomically; files for
// keys not in the store are left in place (a full store refuses entries,
// the disk keeps them). The returned error reports only directory-level
// failures; callers treat it as advisory.
func (p *Persister) Flush(s *Store, snap *stats.Snapshot) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return err
	}
	classes := make([]Class, 0, len(p.codecs))
	for c := range p.codecs {
		classes = append(classes, c)
	}
	groups := make(map[viewKey][]Entry)
	for _, e := range s.Export(classes...) {
		vk := viewKey{class: e.Class, key: e.Key}
		groups[vk] = append(groups[vk], e)
	}
	var firstErr error
	for vk, ents := range groups {
		codec := p.codecs[vk.class]
		b := p.envelope(entryMagic)
		b = wire.AppendU8(b, uint8(vk.class))
		b = wire.AppendString(b, vk.key.Sig)
		countAt := len(b)
		b = wire.AppendU32(b, 0)
		written := 0
		for _, e := range ents {
			payload, persist := codec.Encode(e.Val)
			if !persist {
				continue
			}
			hasArtifact := uint8(0)
			if payload != nil {
				hasArtifact = 1
			}
			b = wire.AppendU8(b, hasArtifact)
			b = wire.AppendInt(b, len(e.Counters))
			for _, c := range e.Counters {
				b = wire.AppendU64(b, c)
			}
			b = wire.AppendInt(b, len(e.Cards))
			for _, c := range e.Cards {
				b = wire.AppendU64(b, uint64(int64(c)))
			}
			b = wire.AppendBytes(b, payload)
			written++
		}
		if written == 0 {
			continue
		}
		copy(b[countAt:], wire.AppendU32(nil, uint32(written)))
		if err := wire.WriteFileAtomic(p.dir, entryFileName(vk.class, vk.key), seal(b)); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		p.stats.Flushes += int64(written)
	}
	if snap != nil {
		b := stats.AppendSnapshot(p.envelope(profileMagic), snap)
		if err := wire.WriteFileAtomic(p.dir, profileName, seal(b)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
