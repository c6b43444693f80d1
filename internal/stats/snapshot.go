package stats

import (
	"carac/internal/ir"
	"carac/internal/storage"
)

// Snapshot is a deep, immutable capture of every statistic the optimizer
// consumes — cardinalities, per-column distinct counts, and per-column
// value-distribution histograms — taken at an epoch boundary. Unlike the
// live Catalog source, whose reads chase counters that the single writer
// keeps mutating (and whose histogram buckets a baseline rewind rebuilds
// mid-iteration), a Snapshot is consistent by construction: all values
// describe the same instant, and nothing that happens to the catalog
// afterwards — inserts, truncations, the ensureBaseline rewind between fact
// batches — can change what it reports. Serving sessions plan against the
// Snapshot of their pinned epoch.
//
// It implements Source, DistinctSource, and HistogramSource, so it can stand
// anywhere a live Catalog source does (AOT staging, histogram-overlap
// ordering).
type Snapshot struct {
	// CapturedEpoch is the catalog epoch generation at capture time.
	CapturedEpoch uint64

	cards    map[[2]int32]int
	distinct map[[3]int32]int
	hists    map[[3]int32]storage.Histogram
}

// srcRel resolves the relation whose distinct counts and histograms stand
// for (pred, src): Old, a row bound on Derived, has Derived's.
func srcRel(p *storage.PredicateDB, src ir.Source) *storage.Relation {
	if src == ir.SrcDelta {
		return p.DeltaKnown
	}
	return p.Derived
}

// CaptureSnapshot deep-copies the catalog's current statistics: the
// cardinality of every relation, the distinct count of every indexed column,
// and a copy of every registered histogram, for both the Derived and the
// DeltaKnown database of every predicate. The histograms are value copies
// (storage.Histogram is copy-safe by design), so the snapshot shares no
// mutable state with the catalog. Old reads as Derived: a snapshot is taken
// between fixpoints, where Old is an estimate at best.
func CaptureSnapshot(cat *storage.Catalog) *Snapshot {
	return CaptureSnapshotAt(cat, cat.Epoch())
}

// CaptureSnapshotAt is CaptureSnapshot with an explicit epoch stamp. The
// serving layer uses it for post-fixpoint snapshots: a materialization is
// computed on a session's private catalog (whose own epoch counter never
// advances), but the statistics it captures describe the serving epoch the
// materialization belongs to, so the stamp must come from the server.
func CaptureSnapshotAt(cat *storage.Catalog, epoch uint64) *Snapshot {
	s := &Snapshot{
		CapturedEpoch: epoch,
		cards:         make(map[[2]int32]int, 2*cat.NumPreds()),
		distinct:      make(map[[3]int32]int),
		hists:         make(map[[3]int32]storage.Histogram),
	}
	for _, pd := range cat.Preds() {
		for _, src := range []ir.Source{ir.SrcDerived, ir.SrcDelta} {
			rel := srcRel(pd, src)
			s.cards[[2]int32{int32(pd.ID), int32(src)}] = rel.Len()
			for _, col := range rel.IndexedColumns() {
				k := [3]int32{int32(pd.ID), int32(src), int32(col)}
				s.distinct[k] = rel.DistinctCount(col)
			}
			for _, col := range rel.HistogramColumns() {
				if h, ok := rel.HistogramOf(col); ok {
					s.hists[[3]int32{int32(pd.ID), int32(src), int32(col)}] = h
				}
			}
		}
	}
	return s
}

// Card implements Source; unknown pairs read as 0.
func (s *Snapshot) Card(pred storage.PredID, src ir.Source) int {
	return s.cards[[2]int32{int32(pred), int32(statSrc(src))}]
}

// Distinct implements DistinctSource; columns without a captured index read
// as -1, matching the live source's "unindexed" answer.
func (s *Snapshot) Distinct(pred storage.PredID, src ir.Source, col int) int {
	if d, ok := s.distinct[[3]int32{int32(pred), int32(statSrc(src)), int32(col)}]; ok {
		return d
	}
	return -1
}

// Histogram implements HistogramSource; ok is false for columns that carried
// no histogram at capture time.
func (s *Snapshot) Histogram(pred storage.PredID, src ir.Source, col int) (storage.Histogram, bool) {
	h, ok := s.hists[[3]int32{int32(pred), int32(statSrc(src)), int32(col)}]
	return h, ok
}

// statSrc is the source whose captured statistics stand for src: Old has
// Derived's.
func statSrc(src ir.Source) ir.Source {
	if src == ir.SrcOld {
		return ir.SrcDerived
	}
	return src
}
