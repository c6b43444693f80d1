// Checkpoints (doc.go §Checkpoints): a materializing Serve writes each epoch
// fixpoint a query derives to CacheDir, and a later Serve may adopt it.
package core

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"carac/internal/ast"
	"carac/internal/stats"
	"carac/internal/storage"
	"carac/internal/wire"
)

// engineVersion mirrors the root package's Version constant (doc.go), which
// core cannot import without a cycle through the root test files. Bump both
// together.
const engineVersion = "0.1.0"

const checkpointName, checkpointVersion = "fixpoint.ckpt", 1 // bump on any layout change

// checkpointTag names the engine and snapshot codec that wrote a file.
var checkpointMagic, checkpointTag = []byte("CRCK"), fmt.Sprintf("carac-%s snap%d", engineVersion, stats.SnapshotCodecVersion)

// checkpoint is a checkpoint file's content. rows holds each predicate's
// fixpoint rows beyond its ground prefix, flattened; a negative value -(i+1)
// names symbols[i], so the file means the same under any symbol numbering.
// A miss reason (ServeStats.RestoreMiss) says why a file was not adopted.
type checkpoint struct {
	program uint64   // programDigest
	facts   []uint64 // per predicate, factsDigest of its ground rows
	symbols []string
	rows    [][]storage.Value
	snap    *stats.Snapshot // the materialization's statistics
}

// append encodes c onto b, sealed by a CRC32 of everything before it.
func (c *checkpoint) append(b []byte) []byte {
	b = append(b, checkpointMagic...)
	b = wire.AppendU32(b, checkpointVersion)
	b = wire.AppendString(b, checkpointTag)
	b = wire.AppendU64(b, c.program)
	b = wire.AppendInt(b, len(c.symbols))
	for _, s := range c.symbols {
		b = wire.AppendString(b, s)
	}
	b = wire.AppendInt(b, len(c.rows))
	for i, rows := range c.rows {
		b = wire.AppendU64(b, c.facts[i])
		b = wire.AppendInt(b, len(rows))
		for _, v := range rows {
			b = wire.AppendI32(b, v)
		}
	}
	b = wire.AppendBytes(b, stats.AppendSnapshot(nil, c.snap))
	return wire.AppendU32(b, crc32.ChecksumIEEE(b))
}

// decodeCheckpoint accepts exactly what append writes, byte for byte;
// anything else is a miss with its reason.
func decodeCheckpoint(b []byte) (*checkpoint, string) {
	body := len(b) - 4
	if body < 4 || !bytes.Equal(b[:4], checkpointMagic) ||
		crc32.ChecksumIEEE(b[:body]) != wire.NewReader(b[body:]).U32() {
		return nil, "corrupt"
	}
	r, c := wire.NewReader(b[4:body]), &checkpoint{}
	if r.U32() != checkpointVersion || r.String() != checkpointTag {
		return nil, "version"
	}
	c.program = r.U64()
	c.symbols = make([]string, max(r.Count(4), 0))
	for i := range c.symbols {
		c.symbols[i] = r.String()
	}
	for n, i := r.Count(12), 0; i < n; i++ {
		c.facts = append(c.facts, r.U64())
		rows := make([]storage.Value, max(r.Count(4), 0))
		for j := range rows {
			if rows[j] = r.I32(); int(rows[j]) < -len(c.symbols) {
				return nil, "corrupt"
			}
		}
		c.rows = append(c.rows, rows)
	}
	snap := r.Bytes()
	var err error
	if r.Err() != nil || r.Len() != 0 {
		return nil, "corrupt"
	} else if c.snap, err = stats.DecodeSnapshot(snap); err != nil || !bytes.Equal(stats.AppendSnapshot(nil, c.snap), snap) {
		return nil, "corrupt"
	}
	return c, ""
}

// digest is a 64-bit running hash, stable across processes.
type digest uint64

func (d *digest) word(x uint64) {
	h := (uint64(*d) ^ x) * 0x9E3779B97F4A7C15
	*d = digest(h ^ h>>29)
}

func (d *digest) str(s string) {
	for i := 0; i < len(s); i++ {
		d.word(uint64(s[i]))
	}
	d.word(uint64(len(s)))
}

// value feeds v, a symbol by its name alone.
func (d *digest) value(syms *storage.SymbolTable, v storage.Value) {
	if v >= 0 {
		d.word(uint64(v))
		return
	}
	d.word(1 << 63)
	d.str(syms.Name(v))
}

// programDigest identifies a rewritten rule program: predicate names and
// arities in id order (the ids checkpoint rows and statistics keys use),
// then every rule, constants by name.
func programDigest(prog *ast.Program) uint64 {
	var d digest
	for _, pd := range prog.Catalog.Preds() {
		d.str(pd.Name)
		d.word(uint64(pd.Arity))
	}
	for _, r := range prog.Rules {
		d.word(uint64(r.Agg.Kind)<<48 | uint64(r.Agg.HeadPos)<<24 | uint64(r.Agg.OverVar))
		d.word(uint64(len(r.Body)))
		for _, a := range append([]ast.Atom{r.Head}, r.Body...) {
			d.word(uint64(a.Kind)<<48 | uint64(a.Pred)<<8 | uint64(a.Builtin))
			d.word(uint64(len(a.Terms)))
			for _, t := range a.Terms {
				if d.word(uint64(t.Kind)<<32 | uint64(t.Var)); t.Kind == ast.TermConst {
					d.value(prog.Catalog.Symbols, t.Val)
				}
			}
		}
	}
	return uint64(d)
}

// factsDigest identifies a predicate's ground rows as a set: row hashes
// (symbols by name) are hashed again in sorted order, so neither load order
// nor symbol numbering moves it.
func factsDigest(syms *storage.SymbolTable, rows storage.EpochRows) uint64 {
	hs := make([]uint64, 0, rows.Len())
	rows.Each(func(row []storage.Value) bool {
		var d digest
		for _, v := range row {
			d.value(syms, v)
		}
		hs = append(hs, uint64(d))
		return true
	})
	slices.Sort(hs)
	var d digest
	for _, h := range hs {
		d.word(h)
	}
	return uint64(d)
}

// writeCheckpoint writes m, epoch e's materialization, unless this server
// wrote e's generation or a newer one. A disk error is dropped.
func (s *Server) writeCheckpoint(e *Epoch, m *epochMat) {
	s.ckMu.Lock()
	defer s.ckMu.Unlock()
	if e.gen <= s.ckGen {
		return
	}
	syms := s.p.cat.Symbols
	c := &checkpoint{program: s.progDigest, snap: m.stats}
	local, size := map[storage.Value]storage.Value{}, 1<<12
	for i, mr := range m.rows {
		c.facts = append(c.facts, factsDigest(syms, e.rows[i]))
		rows := make([]storage.Value, 0, (mr.Len()-e.rows[i].Len())*e.arities[i])
		for j := e.rows[i].Len(); j < mr.Len(); j++ {
			rows = append(rows, mr.Row(j)...)
		}
		for j, v := range rows {
			if v >= 0 {
				continue
			}
			if _, ok := local[v]; !ok {
				c.symbols = append(c.symbols, syms.Name(v))
				local[v] = storage.Value(-len(c.symbols))
			}
			rows[j] = local[v]
		}
		c.rows = append(c.rows, rows)
		size += 4 * len(rows)
	}
	if os.MkdirAll(s.opts.CacheDir, 0o755) == nil &&
		wire.WriteFileAtomic(s.opts.CacheDir, checkpointName, c.append(make([]byte, 0, size))) == nil {
		s.ckGen = e.gen
	}
}

// restoredMat builds e's materialization from the checkpoint if it was
// written for this rule program and exactly e's ground facts: e's ground rows
// first (the prefix a session's rewind keeps), then the checkpoint's rows
// with symbols renumbered; otherwise it returns the miss reason. Adopting
// the checkpoint sweeps the temp files older than it (sweepTemps).
func (s *Server) restoredMat(e *Epoch) (*epochMat, string) {
	f, err := os.Open(filepath.Join(s.opts.CacheDir, checkpointName))
	if err != nil {
		return nil, "absent"
	}
	fi, err := f.Stat()
	var b []byte
	if err == nil {
		b, err = io.ReadAll(f)
	}
	f.Close()
	if err != nil {
		return nil, "absent"
	}
	c, miss := decodeCheckpoint(b)
	if miss != "" {
		return nil, miss
	} else if c.program != s.progDigest || len(c.rows) != len(e.rows) {
		return nil, "program"
	}
	syms := s.p.cat.Symbols
	for i := range e.rows {
		if c.facts[i] != factsDigest(syms, e.rows[i]) {
			return nil, "facts"
		} else if len(c.rows[i])%e.arities[i] != 0 {
			return nil, "corrupt"
		}
	}
	ids := make([]storage.Value, len(c.symbols))
	for i, name := range c.symbols {
		var ok bool
		if ids[i], ok = syms.Lookup(name); !ok {
			return nil, "symbols"
		}
	}
	c.snap.CapturedEpoch = e.gen
	m := &epochMat{rows: make([]storage.EpochRows, len(e.rows)), stats: c.snap}
	for i, ground := range e.rows {
		arity, rows := e.arities[i], c.rows[i]
		rel := storage.NewRelation(e.names[i], arity)
		rel.Reserve(ground.Len() + len(rows)/arity)
		ground.Each(func(row []storage.Value) bool {
			rel.AppendDistinct(row)
			return true
		})
		for j, v := range rows {
			if v < 0 {
				rows[j] = ids[-v-1]
			}
		}
		for off := 0; off < len(rows); off += arity {
			rel.AppendDistinct(rows[off : off+arity])
		}
		if s.p.loadHook != nil {
			s.p.loadHook(rel)
		}
		m.rows[i] = rel.PinRows()
		m.total += m.rows[i].Len()
	}
	sweepTemps(s.opts.CacheDir, fi.ModTime())
	return m, ""
}

// sweepTemps removes the temp files in dir (wire.WriteFileAtomic's ".tmp-*")
// last written before the adopted checkpoint was: each is what a writer
// that crashed between write and rename left behind. A newer one may belong
// to a live writer, and stays. A file that cannot be read or removed is left
// for the next restart.
func sweepTemps(dir string, adopted time.Time) {
	tmps, _ := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	for _, name := range tmps {
		if fi, err := os.Stat(name); err == nil && fi.ModTime().Before(adopted) {
			os.Remove(name)
		}
	}
}
