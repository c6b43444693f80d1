package storage

// This file implements incrementally maintained per-column value-distribution
// histograms — the skew statistic behind histogram-overlap join-size
// estimation (internal/optimizer). A histogram is registered per column like a hash index
// (BuildHistogram / PredicateDB.BuildHistograms) and maintained in the same
// mutation paths that maintain cardinality and drift counters: Insert
// increments the inserted value's bucket, Clear/ClearRetain/TruncateTo reset
// or rebuild, and the layout transitions of physshard.go carry the
// registration with the relation.
//
// Two invariants:
//
//   - Total always equals the relation's Len() (per registered column), in
//     both layouts and across every transition — the property
//     TestHistogramInvariants pins.
//   - Histogram maintenance never touches a mutation counter. Like index
//     registration, building or updating histograms leaves Mutations()
//     byte-identical to a histogram-free run, so the drift
//     totals the unit cache's freshness policy observes are unperturbed
//     (asserted by the differential harness's drift-increment comparison).
//
// The bucketing is a fixed-width hash histogram: HistBuckets counters
// indexed by an avalanche mix of the value (the same mix ShardOf uses, with
// an independent bucket count so histogram buckets do not alias shard
// buckets). Equi-depth boundaries would need periodic re-binning — a hash
// histogram is maintainable in O(1) per insert and overlap between two hash
// histograms is computed bucket-wise, which is all the join-size estimate
// needs.

// HistBuckets is the fixed bucket count of every column histogram. 64 keeps
// a histogram copy at 260 bytes (stack-friendly for readers) while giving
// the overlap estimate enough resolution to separate disjoint and skewed
// join-key domains.
const HistBuckets = 64

// Histogram is one column's value-distribution summary: Counts[b] tuples
// whose column value hashes to bucket b, Total their sum. Readers receive
// copies (HistogramOf), so the type is safe to pass by value.
type Histogram struct {
	Counts [HistBuckets]uint32
	Total  uint64
}

// HistBucketOf returns the histogram bucket of value v: the 32-bit avalanche
// mix of ShardOf reduced mod HistBuckets, so consecutive integer keys spread
// evenly.
func HistBucketOf(v Value) int {
	x := uint32(v)
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return int(x % HistBuckets)
}

// add counts one inserted value.
func (h *Histogram) add(v Value) {
	h.Counts[HistBucketOf(v)]++
	h.Total++
}

// Overlap returns the fraction of h's rows whose bucket is non-empty in
// other — the histogram-overlap join selectivity: scanning h's relation
// first, only that fraction of its rows can find any join partner in other's
// column. 0 when h is empty (nothing to scan) and 1 when every populated
// bucket of h is also populated in other.
func (h Histogram) Overlap(other Histogram) float64 {
	if h.Total == 0 {
		return 0
	}
	var hit uint64
	for b, c := range h.Counts {
		if other.Counts[b] > 0 {
			hit += uint64(c)
		}
	}
	return float64(hit) / float64(h.Total)
}

// BuildHistogram registers (and backfills) a value-distribution histogram on
// column col. Like BuildIndex the registration survives Clear (counts are
// reset, the histogram stays) and is propagated through every shard-layout
// transition; on a physically sharded relation the counts live per bucket
// sub-relation and the parent keeps an empty registration so HasHistogram
// and mode transitions keep answering.
func (r *Relation) BuildHistogram(col int) {
	if col < 0 || col >= r.arity {
		panic("storage: histogram column out of range")
	}
	if r.histograms == nil {
		r.histograms = make(map[int]*Histogram)
	}
	if _, ok := r.histograms[col]; ok {
		return
	}
	if r.subs != nil {
		for _, s := range r.subs {
			s.BuildHistogram(col)
		}
		r.histograms[col] = &Histogram{}
		return
	}
	h := &Histogram{}
	n := int32(r.Len())
	for row := int32(0); row < n; row++ {
		h.add(r.Row(row)[col])
	}
	r.histograms[col] = h
}

// HasHistogram reports whether a histogram is registered on column col.
func (r *Relation) HasHistogram(col int) bool {
	_, ok := r.histograms[col]
	return ok
}

// HistogramOf returns a copy of column col's histogram, or ok=false when
// none is registered. On a physically sharded relation it sums the per-bucket
// histograms, so Total equals Len() in every layout.
func (r *Relation) HistogramOf(col int) (Histogram, bool) {
	if _, ok := r.histograms[col]; !ok {
		return Histogram{}, false
	}
	if r.subs != nil {
		var sum Histogram
		for _, s := range r.subs {
			if sh, ok := s.histograms[col]; ok {
				for b, c := range sh.Counts {
					sum.Counts[b] += c
				}
				sum.Total += sh.Total
			}
		}
		return sum, true
	}
	return *r.histograms[col], true
}

// histInsert counts a freshly inserted tuple in every registered histogram.
// Callers own the counter accounting — this never touches muts.
func (r *Relation) histInsert(t []Value) {
	for col, h := range r.histograms {
		h.add(t[col])
	}
}

// histReset zeroes every registered histogram in place (registrations kept).
func (r *Relation) histReset() {
	for _, h := range r.histograms {
		*h = Histogram{}
	}
}

// BuildHistograms registers histograms on the given columns across all three
// relations, so the optimizer's overlap estimate works regardless of which
// database an atom reads (mirroring BuildIndexes).
func (p *PredicateDB) BuildHistograms(cols []int) {
	for _, c := range cols {
		p.Derived.BuildHistogram(c)
		p.DeltaKnown.BuildHistogram(c)
		p.DeltaNew.BuildHistogram(c)
	}
}
