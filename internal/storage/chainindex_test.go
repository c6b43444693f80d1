package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// chainRows reads a probe's chain out as a row-id list, for the tests that
// assert on whole results.
func chainRows(c Chain) (rows []int32) {
	for row := c.First(); row >= 0; row = c.Next(row) {
		rows = append(rows, row)
	}
	return rows
}

func probeRows(r *Relation, col int, v Value) ([]int32, bool) {
	c, ok := r.Probe(col, v)
	return chainRows(c), ok
}

func probeCompositeRows(r *Relation, cols []int, vals []Value) ([]int32, bool) {
	c, ok := r.ProbeComposite(cols, vals)
	return chainRows(c), ok
}

func project(row []Value, cols []int) []Value {
	out := make([]Value, len(cols))
	for i, c := range cols {
		out[i] = row[c]
	}
	return out
}

// buildIndex registers an index chosen by b over whatever the relation holds:
// one column, or a column set handed over in descending order (registration
// sorts it).
func (m *tableModel) buildIndex(b int) {
	cols := []int{(b / 2) % m.arity}
	if b%2 == 1 && m.arity > 1 {
		cols = cols[:0]
		for c := 0; c < m.arity; c++ {
			if (b/2)>>c&1 == 1 {
				cols = append(cols, c)
			}
		}
		if len(cols) < 2 {
			cols = []int{0, m.arity - 1}
		}
		desc := slices.Clone(cols)
		slices.Reverse(desc)
		m.r.BuildCompositeIndex(desc)
	} else {
		m.r.BuildIndex(cols[0])
	}
	if !slices.ContainsFunc(m.sets, func(s []int) bool { return slices.Equal(s, cols) }) {
		m.sets = append(m.sets, cols)
	}
}

// checkIndexes holds every registered index to the model: the registrations
// themselves, and per index the exact chain of every key, misses, the
// distinct count and the structure's own invariants.
func (m *tableModel) checkIndexes() {
	if m.sets == nil {
		return
	}
	m.t.Helper()
	r := m.r
	var single []int
	var multi [][]int
	for _, cols := range m.sets {
		if len(cols) == 1 {
			single = append(single, cols[0])
		} else {
			multi = append(multi, cols)
		}
	}
	slices.Sort(single)
	if got := r.IndexedColumns(); !slices.Equal(got, single) {
		m.fail("IndexedColumns = %v, want %v", got, single)
	}
	for c := 0; c < m.arity; c++ {
		if has := r.indexOn([]int{c}) != nil; has != slices.Contains(single, c) {
			m.fail("index on %d registered: %v", c, has)
		}
		if !slices.Contains(single, c) {
			if _, ok := r.Probe(c, 0); ok || r.DistinctCount(c) != -1 {
				m.fail("unindexed column %d answers a probe or a distinct count", c)
			}
		}
	}
	for _, cols := range m.sets {
		if r.indexOn(cols) == nil {
			m.fail("no index over %v", cols)
		}
		m.checkIndex(r, cols, m.rows)
	}
	// The read surface under a random row range: the rows a brute-force
	// filter of the relation's own order admits.
	rng := rand.New(rand.NewSource(int64(m.step)))
	for _, cols := range m.sets {
		for _, probe := range m.rows[:min(len(m.rows), 6)] {
			m.checkRead(rng, cols, project(probe, cols))
		}
	}
	m.checkRead(rng, nil, nil)
}

// checkRead holds one Scan (cols nil) or ScanKey of the model's relation,
// over a random row range [from, to) — a morsel, Old's [0, bound) or all
// rows — to a brute-force filter of the expected rows.
func (m *tableModel) checkRead(rng *rand.Rand, cols []int, vals []Value) {
	m.t.Helper()
	r := m.r
	from, to := 0, AllRows
	if rng.Intn(3) > 0 {
		to = rng.Intn(len(m.rows) + 2)
	}
	if rng.Intn(2) > 0 {
		from = rng.Intn(len(m.rows) + 2)
	}
	var want, got [][]Value
	for i, row := range m.rows {
		if i >= from && i < to && coversKey(row, cols, vals) {
			want = append(want, row)
		}
	}
	visit := func(row []Value) bool {
		got = append(got, slices.Clone(row))
		return true
	}
	if cols == nil {
		r.Scan(from, to, visit)
	} else {
		r.ScanKey(from, to, cols, vals, visit)
	}
	if !reflect.DeepEqual(got, want) {
		m.fail("read of %v = %v over rows [%d, %d) = %v, want %v", cols, vals, from, to, got, want)
	}
}

// checkIndex holds the index over cols of r to rows, the content r must
// have in order.
func (m *tableModel) checkIndex(r *Relation, cols []int, rows [][]Value) {
	m.t.Helper()
	oracle := map[string][]int32{}
	var keys [][]Value
	for i, row := range rows {
		k := project(row, cols)
		if _, seen := oracle[key(k)]; !seen {
			keys = append(keys, k)
		}
		oracle[key(k)] = append(oracle[key(k)], int32(i))
	}
	for _, k := range keys {
		got, ok := probeCompositeRows(r, cols, k)
		if !ok || !slices.Equal(got, oracle[key(k)]) {
			m.fail("%s: ProbeComposite(%v, %v) = %v,%v, want %v", r.name, cols, k, got, ok, oracle[key(k)])
		}
		if len(cols) == 1 {
			if got, ok := probeRows(r, cols[0], k[0]); !ok || !slices.Equal(got, oracle[key(k)]) {
				m.fail("%s: Probe(%d, %v) = %v,%v, want %v", r.name, cols[0], k[0], got, ok, oracle[key(k)])
			}
		}
		// A near miss: the key with one column moved out of the domain.
		miss := slices.Clone(k)
		miss[len(miss)-1] ^= 1 << 20
		if _, stored := oracle[key(miss)]; !stored {
			if c, ok := r.ProbeComposite(cols, miss); !ok || c.First() != -1 {
				m.fail("%s: ProbeComposite(%v, %v) hit row %d", r.name, cols, miss, c.First())
			}
		}
	}
	if len(cols) == 1 {
		if got := r.DistinctCount(cols[0]); got != len(oracle) {
			m.fail("%s: DistinctCount(%d) = %d, want %d", r.name, cols[0], got, len(oracle))
		}
	}
	ix := r.indexOn(cols)
	occupied := 0
	for _, s := range ix.slots {
		if s.first != 0 {
			occupied++
		}
	}
	if occupied != len(oracle) || ix.used != len(oracle) || len(ix.next) != len(rows) {
		m.fail("%s: index %v has %d occupied slots, used=%d, %d links for %d keys, %d rows",
			r.name, cols, occupied, ix.used, len(ix.next), len(oracle), len(rows))
	}
	if len(oracle)*8 > len(ix.slots)*5 {
		m.fail("%s: index %v holds %d keys in %d slots, over the 5/8 load limit", r.name, cols, len(oracle), len(ix.slots))
	}
}

// driveChainIndex is the row-table driver with the index model switched on:
// the same Insert / IncRef / Clear / ClearRetain / TruncateTo / DeleteRows /
// AssertAt / morsel-read sequences, plus BuildIndex and BuildCompositeIndex
// over loaded content, every index checked after every operation.
func driveChainIndex(t *testing.T, arity int, counted bool, data []byte) {
	t.Helper()
	driveRowTable(t, arity, counted, data, true)
}

// driveOnDemand holds a predicate's deltas, whose indexes link rows only when
// EnsureIndex asks, to an eager twin predicate whose deltas link every row as
// it arrives. Both take the same operations, decoded from data: appends
// (AppendDistinct as δ′ and retraction write, Insert into a delta that is a
// set), ensures of one index or all, probes, Clear, ClearRetain and the
// SwapDeltas rotation. After each one the deltas hold the same rows and
// mutation counts; an index ensured since its relation's last append has the
// twin's chains per key, in insertion order, and its distinct count; one that
// is not panics on a probe of a row it lacks and reads as unobserved (-1).
func driveOnDemand(t *testing.T, arity int, data []byte) {
	t.Helper()
	sets := [][]int{{0}}
	if arity > 1 {
		sets = append(sets, []int{0, arity - 1})
	}
	c := NewCatalog()
	lazy, eager := c.Pred(c.Declare("lazy", arity)), c.Pred(c.Declare("eager", arity))
	eager.DeltaKnown.lazy, eager.DeltaNew.lazy = false, false
	for _, p := range []*PredicateDB{lazy, eager} {
		p.BuildIndexes(sets[0])
		p.BuildCompositeIndexes(sets[1:])
	}
	// Per lazy delta: the rows it holds, whether it was written as a list
	// since its last clear, and per index a row appended since its last
	// ensure (nil when the index is current). Keyed by the relation, so the
	// state travels with it through SwapDeltas.
	held := map[*Relation]map[string]bool{lazy.DeltaKnown: {}, lazy.DeltaNew: {}}
	list := map[*Relation]bool{}
	unlinked := map[*Relation][][]Value{lazy.DeltaKnown: make([][]Value, len(sets)), lazy.DeltaNew: make([][]Value, len(sets))}
	step := 0
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d (arity %d): %s", step, arity, fmt.Sprintf(format, args...))
	}
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	dom := []int{0, 60, 12, 6, 4, 3}[arity]
	tuple := func() []Value {
		tp := make([]Value, arity)
		for i := range tp {
			tp[i] = Value(next() % dom)
		}
		return tp
	}
	pair := func(b int) (*Relation, *Relation) {
		if b%2 == 0 {
			return lazy.DeltaNew, eager.DeltaNew
		}
		return lazy.DeltaKnown, eager.DeltaKnown
	}
	cleared := func(r *Relation) {
		held[r], list[r] = map[string]bool{}, false
		clear(unlinked[r])
	}
	write := func(r, tw *Relation, tp []Value, insert bool) {
		if insert && !list[r] {
			if got, want := r.Insert(tp), tw.Insert(tp); got != want {
				fail("%s: Insert(%v) = %v, twin %v", r.name, tp, got, want)
			}
		} else if !held[r][key(tp)] {
			r.AppendDistinct(tp)
			tw.AppendDistinct(tp)
			list[r] = true
		} else {
			return
		}
		if !held[r][key(tp)] {
			held[r][key(tp)] = true
			for si := range sets {
				if unlinked[r][si] == nil {
					unlinked[r][si] = tp
				}
			}
		}
	}
	check := func(r, tw *Relation) {
		t.Helper()
		if sa, sb := r.Snapshot(), tw.Snapshot(); !reflect.DeepEqual(sa, sb) {
			fail("%s rows %v, twin %v", r.name, sa, sb)
		}
		if r.Mutations() != tw.Mutations() {
			fail("%s: Mutations = %d, twin %d", r.name, r.Mutations(), tw.Mutations())
		}
		for si, cols := range sets {
			if w := unlinked[r][si]; w != nil {
				vals := project(w, cols)
				if !panics(func() { r.ScanKey(0, AllRows, cols, vals, func([]Value) bool { return true }) }) {
					fail("%s: a probe of %v on %v before EnsureIndex did not panic", r.name, vals, cols)
				}
				if len(cols) == 1 && r.DistinctCount(cols[0]) != -1 {
					fail("%s: DistinctCount(%d) = %d before EnsureIndex, want -1", r.name, cols[0], r.DistinctCount(cols[0]))
				}
				continue
			}
			if len(cols) == 1 && r.DistinctCount(cols[0]) != tw.DistinctCount(cols[0]) {
				fail("%s: DistinctCount(%d) = %d, twin %d", r.name, cols[0], r.DistinctCount(cols[0]), tw.DistinctCount(cols[0]))
			}
			keys := append(tw.Snapshot(), make([]Value, arity))
			keys[len(keys)-1][0] = -5 // a miss
			for _, k := range keys {
				vals := project(k, cols)
				var got, want [][]Value
				r.ScanKey(0, AllRows, cols, vals, func(row []Value) bool { got = append(got, slices.Clone(row)); return true })
				tw.ScanKey(0, AllRows, cols, vals, func(row []Value) bool { want = append(want, slices.Clone(row)); return true })
				if !reflect.DeepEqual(got, want) {
					fail("%s: ScanKey(%v, %v) = %v, twin %v", r.name, cols, vals, got, want)
				}
				a, _ := probeCompositeRows(r, cols, vals)
				b, _ := probeCompositeRows(tw, cols, vals)
				if !slices.Equal(a, b) {
					fail("%s: chain of %v on %v = %v, twin %v", r.name, vals, cols, a, b)
				}
			}
		}
	}
	for pos < len(data) {
		step++
		b := next()
		r, tw := pair(b / 8)
		switch b % 8 {
		case 0, 1:
			write(r, tw, tuple(), b%16 < 8)
		case 2:
			// A run of fresh keys: pushes the index through its growth steps
			// at the next ensure.
			tp := tuple()
			for j := 0; j < 30; j++ {
				tp[0] = Value(100 + 30*next() + j)
				write(r, tw, slices.Clone(tp), false)
			}
		case 3:
			if si := next() % (len(sets) + 1); si == len(sets) {
				r.EnsureIndexes()
				clear(unlinked[r])
			} else {
				r.EnsureIndex(sets[si])
				unlinked[r][si] = nil
			}
		case 4:
			r.Clear()
			tw.Clear()
			cleared(r)
		case 5:
			r.ClearRetain()
			tw.ClearRetain()
			cleared(r)
		case 6, 7:
			lazy.SwapDeltas()
			eager.SwapDeltas()
			cleared(lazy.DeltaNew)
		}
		check(lazy.DeltaKnown, eager.DeltaKnown)
		check(lazy.DeltaNew, eager.DeltaNew)
	}
}

// TestChainIndexModel drives random operation sequences against the
// map[string][]int32 oracle for arity 1-5, counted and uncounted, comparing
// probe results including order; and a predicate's on-demand deltas against
// an eager twin (driveOnDemand).
func TestChainIndexModel(t *testing.T) {
	for arity := 1; arity <= 5; arity++ {
		for seed := 0; seed < 2; seed++ {
			for _, counted := range []bool{false, true} {
				rng := rand.New(rand.NewSource(int64(1000 + 100*arity + 10*seed + len(fmt.Sprint(counted)))))
				data := make([]byte, 1200)
				rng.Read(data)
				driveChainIndex(t, arity, counted, data)
			}
			rng := rand.New(rand.NewSource(int64(2000 + 100*arity + 10*seed)))
			data := make([]byte, 600)
			rng.Read(data)
			driveOnDemand(t, arity, data)
		}
	}
}

// FuzzChainIndex is TestChainIndexModel over fuzzer-chosen sequences, each
// driven through both models. Short-fuzz CI job: go test -fuzz=FuzzChainIndex
// -fuzztime=20s ./internal/storage/
func FuzzChainIndex(f *testing.F) {
	f.Add(uint8(2), true, []byte{5, 0, 0, 1, 2, 0, 1, 3, 5, 3, 0, 1, 2, 12, 2, 1, 1, 3, 3, 0, 13, 3, 5, 0, 0, 9, 0, 1, 1})
	f.Add(uint8(3), false, []byte{8, 1, 2, 3, 4, 5, 5, 11, 8, 9, 10, 11, 14, 1, 11, 7, 10, 0, 1, 2, 3, 5, 2})
	f.Add(uint8(1), true, []byte{5, 0, 8, 8, 8, 8, 10, 8, 250, 240, 7, 1, 7, 1, 12, 3, 1, 1, 1, 2, 14, 2})
	f.Add(uint8(5), false, []byte{0, 233, 234, 235, 236, 237, 5, 31, 0, 233, 234, 235, 236, 238, 11, 1, 5, 4, 0, 1, 2, 3, 4, 5})
	f.Add(uint8(2), false, []byte{0, 1, 2, 8, 3, 4, 9, 5, 6, 2, 7, 3, 11, 14, 0, 6, 3, 2, 1, 0, 7, 16, 1, 2, 19, 3, 4, 11, 0})
	f.Fuzz(func(t *testing.T, arity uint8, counted bool, data []byte) {
		driveChainIndex(t, 1+int(arity)%5, counted, data)
		driveOnDemand(t, 1+int(arity)%5, data)
	})
}

// TestConcurrentProbeFrozen: probing only loads, so any number of goroutines
// may probe a relation nobody mutates — the parallel executor's workers
// joining against the iteration-frozen Derived and DeltaKnown, each over its
// own morsel or all rows. Meaningful under -race.
func TestConcurrentProbeFrozen(t *testing.T) {
	r := NewRelation("frozen", 3)
	r.BuildIndex(0)
	r.BuildCompositeIndex([]int{0, 1})
	const rows, keys = 6000, 97
	for i := 0; i < rows; i++ {
		r.Insert([]Value{Value(i % keys), Value(i % 3), Value(i)})
	}
	var wg sync.WaitGroup
	bad := make([]int, 4)
	found := make([]int, len(bad))
	for g := range bad {
		wg.Add(1)
		go func() {
			defer wg.Done()
			from, to := Morsel(rows, g, g+1, len(bad))
			for k := 0; k < 2*keys; k++ {
				n := 0
				r.ScanKey(0, AllRows, []int{0}, []Value{Value(k)}, func(row []Value) bool { n++; return row[0] == Value(k) })
				want := 0
				if k < keys {
					want = (rows - k + keys - 1) / keys
				}
				if n != want {
					bad[g]++
				}
				r.ScanKey(from, to, []int{0}, []Value{Value(k)}, func(row []Value) bool {
					found[g]++
					return row[0] == Value(k)
				})
				n = 0
				r.ScanKey(0, AllRows, []int{0, 1}, []Value{Value(k), Value(k % 3)}, func([]Value) bool { n++; return true })
				if (n > 0) != (k < keys) {
					bad[g]++
				}
				if c, ok := r.Probe(0, Value(k)); !ok || (c.First() >= 0) != (k < keys) {
					bad[g]++
				}
			}
		}()
	}
	wg.Wait()
	for g, n := range bad {
		if n != 0 {
			t.Fatalf("goroutine %d saw %d wrong answers", g, n)
		}
	}
	if total := found[0] + found[1] + found[2] + found[3]; total != rows {
		t.Fatalf("the morsels' key reads found %d rows, want each of %d once", total, rows)
	}
}

// TestChainIndexAllocations guards what the index exists for: once warm, an
// indexed insert allocates nothing — no posting list, and no key for the
// composite — and neither does a refill after ClearRetain or TruncateTo, a
// delta's refill-ensure-ClearRetain cycle or, its slabs coming back from the
// scratch pool, its refill-ensure-Clear cycle, nor any probe.
func TestChainIndexAllocations(t *testing.T) {
	const rows = 1000
	r := NewRelation("warm", 3)
	r.BuildIndex(1)
	r.BuildCompositeIndex([]int{0, 2})
	tp := make([]Value, 3)
	fill := func(from int) {
		for i := from; i < rows; i++ {
			tp[0], tp[1], tp[2] = Value(i%31), Value(i%7), Value(i)
			r.Insert(tp)
		}
	}
	fill(0)
	r.ClearRetain()
	if a := testing.AllocsPerRun(10, func() { fill(0); r.ClearRetain() }); a != 0 {
		t.Errorf("refill after ClearRetain allocates %.0f times, want 0", a)
	}
	fill(0)
	if a := testing.AllocsPerRun(10, func() { r.TruncateTo(10); fill(10) }); a != 0 {
		t.Errorf("refill after TruncateTo allocates %.0f times, want 0", a)
	}
	r.ClearRetain()
	i := 0
	if a := testing.AllocsPerRun(rows-1, func() {
		tp[0], tp[1], tp[2] = Value(i%31), Value(i%7), Value(i)
		r.Insert(tp)
		i++
	}); a != 0 {
		t.Errorf("indexed Insert allocates %.2f times per row, want 0", a)
	}
	// A delta's warm cycle: refill, ensure, ClearRetain.
	d := NewRelation("warmδ", 3)
	d.lazy = true
	d.BuildIndex(1)
	d.BuildCompositeIndex([]int{0, 2})
	refill := func() {
		for i := 0; i < rows; i++ {
			tp[0], tp[1], tp[2] = Value(i%31), Value(i%7), Value(i)
			d.AppendDistinct(tp)
		}
		d.EnsureIndexes()
		d.EnsureIndex([]int{1}) // already current
		d.ClearRetain()
	}
	refill()
	if a := testing.AllocsPerRun(10, refill); a != 0 {
		t.Errorf("a warm delta's refill, ensure and ClearRetain allocate %.0f times, want 0", a)
	}
	// Its Run-to-Run cycle: refill, ensure, and Clear, which gives the arena,
	// links and slots to the scratch pool for the next refill to take.
	checkPooledAllocs(t, "a delta's refill, ensure and Clear", func() {
		for i := 0; i < rows; i++ {
			tp[0], tp[1], tp[2] = Value(i%31), Value(i%7), Value(i)
			d.AppendDistinct(tp)
		}
		d.EnsureIndexes()
		d.Clear()
	})
	hits := 0
	count := func([]Value) bool { hits++; return true }
	cols, vals := []int{0, 2}, []Value{3, 3}
	col, val := []int{1}, []Value{3}
	if a := testing.AllocsPerRun(100, func() {
		r.Probe(1, 3)
		r.ProbeComposite(cols, vals)
		r.ScanKey(0, AllRows, col, val, count)
		r.ScanKey(0, AllRows, cols, vals, count)
	}); a != 0 || hits == 0 {
		t.Errorf("probing allocates %.2f times (%d hits), want 0", a, hits)
	}
}

// TestChainIndexCapacityRule pins which operations keep an index's memory and
// which give it back: on Derived, ClearRetain and TruncateTo keep it for the
// refill and Clear releases it; on a delta, EnsureIndex sizes its links to a
// scratch class, SwapClear keeps δ′'s while the predicate still produces
// facts, and Clear — both deltas' once an iteration produced none — leaves
// no word behind.
func TestChainIndexCapacityRule(t *testing.T) {
	held := func(r *Relation) int { return cap(r.indexes[0].next) + len(r.indexes[0].slots) - len(noSlots) }
	fill := func(r *Relation, n int) {
		for i := 0; i < n; i++ {
			r.Insert([]Value{Value(i % 50), Value(i)})
		}
	}
	r := NewRelation("r", 2)
	r.BuildIndex(0)
	fill(r, 1000)
	before := held(r)
	r.ClearRetain()
	if held(r) != before {
		t.Fatalf("ClearRetain changed the index capacity %d -> %d", before, held(r))
	}
	fill(r, 1000)
	r.TruncateTo(10)
	if held(r) != before {
		t.Fatalf("TruncateTo changed the index capacity %d -> %d", before, held(r))
	}
	r.Clear()
	if held(r) != 0 {
		t.Fatalf("Clear left %d index words", held(r))
	}
	fill(r, 10)
	if rows, _ := probeRows(r, 0, 3); !slices.Equal(rows, []int32{3}) {
		t.Fatalf("index unusable after Clear: %v", rows)
	}

	// A delta links nothing as it fills; what ClearRetain keeps is what the
	// last EnsureIndex sized, and convergence gives it back.
	c := NewCatalog()
	p := c.Pred(c.Declare("p", 2))
	p.BuildIndexes([]int{0})
	appendRows := func(r *Relation, n int) {
		for i := 0; i < n; i++ {
			r.AppendDistinct([]Value{Value(i % 50), Value(i)})
		}
	}
	appendRows(p.DeltaNew, 1000)
	if held(p.DeltaNew) != 0 {
		t.Fatalf("δ′ grew %d index words as it filled", held(p.DeltaNew))
	}
	p.SwapClear() // δ = 1000 rows, δ′ empty
	p.DeltaKnown.EnsureIndexes()
	sized := held(p.DeltaKnown)
	if links := cap(p.DeltaKnown.indexes[0].next); links < 1024 || links >= 2048 {
		t.Fatalf("EnsureIndex sized %d links for 1000 rows, want 1000's scratch class: [1024, 2048)", links)
	}
	appendRows(p.DeltaNew, 500)
	p.SwapClear() // δ = 500 unlinked rows; δ′ is the relation ensured at 1000
	if held(p.DeltaNew) != sized || held(p.DeltaKnown) != 0 {
		t.Fatalf("mid-fixpoint δ′ holds %d index words, want the %d its ensure sized; δ holds %d", held(p.DeltaNew), sized, held(p.DeltaKnown))
	}
	p.DeltaKnown.EnsureIndexes()
	appendRows(p.DeltaNew, 800)
	p.SwapClear() // δ = 800 rows in the relation ensured at 1000
	p.DeltaKnown.EnsureIndexes()
	if held(p.DeltaKnown) != sized {
		t.Fatalf("ensuring 800 rows where 1000 were sized moved the index from %d to %d words", sized, held(p.DeltaKnown))
	}
	p.SwapClear() // nothing new: converged
	if held(p.DeltaNew) != 0 || held(p.DeltaKnown) != 0 {
		t.Fatalf("converged deltas still hold %d and %d index words", held(p.DeltaKnown), held(p.DeltaNew))
	}
	if cap(p.DeltaNew.arena) != 0 || cap(p.DeltaKnown.arena) != 0 {
		t.Fatalf("converged deltas still hold %d and %d arena words", cap(p.DeltaKnown.arena), cap(p.DeltaNew.arena))
	}
}
