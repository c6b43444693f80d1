// Package stats is Carac's unified statistics subsystem: every statistic the
// runtime optimizer and the JIT freshness test consume —
// live cardinalities, per-column distinct counts, and monotone drift
// counters — flows through the interfaces defined here and is maintained
// incrementally inside the storage mutation paths, never re-derived ad hoc.
//
// The paper (§IV) feeds the reordering decision with "concrete instances of
// relations plugged directly into the reordering algorithm at the last
// possible moment"; this package is the single place those concrete
// observations are read from. Statistic sources:
//
//   - Catalog — the production source, reading counts straight from the
//     incrementally maintained storage catalog (O(1) per read);
//   - Frozen — an immutable point-in-time snapshot, safe to hand to an
//     asynchronous compile thread;
//   - Profile — an offline profiling capture (Soufflé-auto-tuner style);
//   - Unit — the rules-only source (cardinality 1 everywhere), used when
//     facts are not yet loaded.
package stats

import (
	"math"

	"carac/internal/ir"
	"carac/internal/storage"
)

// Source supplies live relation cardinalities, the primary input of the
// paper's join-order decision. Tests inject synthetic ones.
type Source interface {
	Card(pred storage.PredID, src ir.Source) int
}

// DistinctSource optionally supplies per-column distinct-value counts (from
// incremental indexes — the cheap "online statistics" the paper contrasts
// with its constant selectivity heuristic, §IV). Implementations return -1
// when the column is unindexed.
type DistinctSource interface {
	Distinct(pred storage.PredID, src ir.Source, col int) int
}

// HistogramSource optionally supplies per-column value-distribution
// histograms (incrementally maintained in the storage mutation paths, see
// storage.Relation.BuildHistogram). The optimizer's join-size estimate reads
// them to replace the constant join-key selectivity with the measured
// histogram overlap of the two join columns. Implementations report ok=false
// when the column carries no histogram.
type HistogramSource interface {
	Histogram(pred storage.PredID, src ir.Source, col int) (storage.Histogram, bool)
}

// Catalog reads statistics straight from the storage catalog. All of its
// reads are O(1): cardinalities and Derived's distinct counts are maintained
// incrementally by the storage mutation paths, and drift counters are bumped
// on every insert, swap, and truncate.
type Catalog struct {
	Cat *storage.Catalog
}

// Card returns the current tuple count of the relation (pred, src) resolves
// to; Old's is the Derived rows below its bound
// (storage.PredicateDB.OldBound): |Derived| − |δ| where δ is a view of
// Derived's newest rows, |Derived| otherwise.
func (s Catalog) Card(pred storage.PredID, src ir.Source) int {
	p := s.Cat.Pred(pred)
	switch src {
	case ir.SrcDelta:
		return p.DeltaKnown.Len()
	case ir.SrcOld:
		return min(p.OldBound(), p.Derived.Len())
	}
	return p.Derived.Len()
}

// Distinct returns the observed distinct count of a column, or -1 when the
// column carries no index or, on a delta, one not yet ensured for a probe
// (storage.Relation.EnsureIndex). Old reads Derived's.
func (s Catalog) Distinct(pred storage.PredID, src ir.Source, col int) int {
	return srcRel(s.Cat.Pred(pred), src).DistinctCount(col)
}

// DriftCounter returns the predicate's monotone mutation counter (see
// storage.PredicateDB.DriftCounter): equal counters guarantee the
// predicate's relations are unchanged, so any artifact built against them is
// still exact.
func (s Catalog) DriftCounter(pred storage.PredID) uint64 {
	return s.Cat.Pred(pred).DriftCounter()
}

// Histogram returns the value-distribution histogram of a column of the
// relation (pred, src) resolves to, or ok=false when none is registered.
// Like every Catalog read it is O(1) modulo the fixed bucket count: the
// counts are maintained incrementally by the storage mutation paths. Old
// reads Derived's.
func (s Catalog) Histogram(pred storage.PredID, src ir.Source, col int) (storage.Histogram, bool) {
	return srcRel(s.Cat.Pred(pred), src).HistogramOf(col)
}

// Unit reports cardinality 1 for every relation: the rules-only source
// (only selectivity differentiates atoms, §VI-C's macro staging without
// fact knowledge).
type Unit struct{}

// Card implements Source.
func (Unit) Card(storage.PredID, ir.Source) int { return 1 }

// Frozen is an immutable point-in-time cardinality snapshot keyed by
// (pred, src). It is safe to share with an asynchronous compile thread while
// the interpreter keeps mutating the live catalog.
type Frozen map[[2]int32]int

// Card implements Source; unknown pairs read as 0.
func (f Frozen) Card(pred storage.PredID, src ir.Source) int {
	return f[[2]int32{int32(pred), int32(src)}]
}

// Set records a snapshot entry (test helper and incremental builder).
func (f Frozen) Set(pred storage.PredID, src ir.Source, n int) {
	f[[2]int32{int32(pred), int32(src)}] = n
}

// Freeze snapshots the cardinality of every relational atom beneath op from
// src, producing an immutable Source for asynchronous consumers.
func Freeze(op ir.Op, src Source) Frozen {
	f := Frozen{}
	ir.Walk(op, func(o ir.Op) {
		spj, ok := o.(*ir.SPJOp)
		if !ok {
			return
		}
		for _, a := range spj.Atoms {
			if a.IsRelational() {
				k := [2]int32{int32(a.Pred), int32(a.Src)}
				if _, seen := f[k]; !seen {
					f[k] = src.Card(a.Pred, a.Src)
				}
			}
		}
	})
	return f
}

// Profile is a captured offline profile: fixpoint cardinalities for derived
// relations and fixpoint-size/iterations as the per-iteration delta
// estimate — the statistics Soufflé's profile-guided auto-tuner fixes join
// orders with.
type Profile struct {
	derived map[storage.PredID]int
	delta   map[storage.PredID]int
}

// Card implements Source from the profile; Old reads as the fixpoint size.
func (p Profile) Card(pred storage.PredID, src ir.Source) int {
	if src == ir.SrcDelta {
		return p.delta[pred]
	}
	return p.derived[pred]
}

// CaptureProfile snapshots a finished run's catalog into a Profile,
// estimating per-iteration delta cardinality as fixpoint size / iterations.
func CaptureProfile(cat *storage.Catalog, iterations int64) Profile {
	if iterations < 1 {
		iterations = 1
	}
	p := Profile{
		derived: make(map[storage.PredID]int, cat.NumPreds()),
		delta:   make(map[storage.PredID]int, cat.NumPreds()),
	}
	for _, pd := range cat.Preds() {
		n := pd.Derived.Len()
		p.derived[pd.ID] = n
		p.delta[pd.ID] = n / int(iterations)
	}
	return p
}

// CardVector snapshots the cardinalities of every relational atom of the
// subquery — the state the freshness test compares against (paper §V-B2).
func CardVector(spj *ir.SPJOp, src Source) []int {
	var dst []int
	for _, a := range spj.Atoms {
		if a.IsRelational() {
			dst = append(dst, src.Card(a.Pred, a.Src))
		}
	}
	return dst
}

// CounterVector snapshots the drift counters of every relational atom of the
// subquery. Equal vectors guarantee the relations the subquery reads are
// byte-for-byte unchanged — a cheaper freshness pre-test than cardinality
// drift, requiring no threshold.
func CounterVector(spj *ir.SPJOp, cat *storage.Catalog) []uint64 {
	return AppendCounterVector(nil, spj, cat)
}

// AppendCounterVector is CounterVector into a caller-reused buffer.
func AppendCounterVector(dst []uint64, spj *ir.SPJOp, cat *storage.Catalog) []uint64 {
	for _, a := range spj.Atoms {
		if a.IsRelational() {
			dst = append(dst, cat.Pred(a.Pred).DriftCounter())
		}
	}
	return dst
}

// CountersEqual reports whether two counter vectors are identical.
func CountersEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Drift returns the maximum relative cardinality change between two card
// vectors: max_i |new_i - old_i| / max(1, old_i). Vectors of different
// lengths drift infinitely (the subquery changed shape).
func Drift(old, new []int) float64 {
	if len(old) != len(new) {
		return math.Inf(1)
	}
	d := 0.0
	for i := range old {
		den := float64(old[i])
		if den < 1 {
			den = 1
		}
		rel := math.Abs(float64(new[i]-old[i])) / den
		if rel > d {
			d = rel
		}
	}
	return d
}
