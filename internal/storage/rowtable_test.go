package storage

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// tableModel is the oracle of the row-table tests: a map from a tuple's
// printed form to its assertion count (presence = key present), the expected
// row order, and the expected mutation total. It knows nothing of hashing,
// slots or layouts, so every operation of the Relation is checked against
// plain map and slice semantics.
type tableModel struct {
	t       *testing.T
	r       *Relation
	arity   int
	counted bool
	cnt     map[string]uint32
	rows    [][]Value // expected Snapshot(); trusted only while orderKnown
	muts    uint64
	// orderKnown is false from a transition into or out of the physical
	// layout until the next check, which adopts the relation's bucket-major
	// order after comparing contents as sets.
	orderKnown bool
	step       int
	// sets lists the column sets the index model registered (chainindex_test.go);
	// nil in the row-table tests, whose indexes are only carried along.
	sets [][]int
}

func key(t []Value) string { return fmt.Sprint(t) }

func (m *tableModel) physical() bool { return m.r.PhysSubs() != nil }

func (m *tableModel) fail(format string, args ...any) {
	m.t.Helper()
	shards, col := m.r.ShardConfig()
	m.t.Fatalf("step %d (arity %d counted %v shards %d/%d physical %v): %s",
		m.step, m.arity, m.counted, shards, col, m.physical(), fmt.Sprintf(format, args...))
}

// position returns t's index in the expected order, or -1.
func (m *tableModel) position(t []Value) int {
	for i, row := range m.rows {
		if reflect.DeepEqual(row, t) {
			return i
		}
	}
	return -1
}

func (m *tableModel) appendRow(t []Value, count uint32) {
	m.rows = append(m.rows, append([]Value(nil), t...))
	m.cnt[key(t)] = count
}

// checkTable asserts the white-box invariants of one single-slab relation's
// table: it holds one slot per arena row and stays under the load limit.
func (m *tableModel) checkTable(r *Relation) {
	m.t.Helper()
	occupied := 0
	for _, tag := range r.tab.tags {
		if tag != 0 {
			occupied++
		}
	}
	n := len(r.arena) / r.arity
	if occupied != n || r.tab.used != n {
		m.fail("%s: %d occupied slots, used=%d, %d arena rows", r.name, occupied, r.tab.used, n)
	}
	if n*8 > len(r.tab.tags)*5 {
		m.fail("%s: %d rows in %d slots exceeds the 5/8 load limit", r.name, n, len(r.tab.tags))
	}
}

// check compares the relation with the model after every operation.
func (m *tableModel) check() {
	m.t.Helper()
	r := m.r
	if r.Len() != len(m.cnt) || len(m.rows) != len(m.cnt) {
		m.fail("Len = %d, model has %d tuples (%d ordered)", r.Len(), len(m.cnt), len(m.rows))
	}
	if r.Empty() != (len(m.cnt) == 0) {
		m.fail("Empty = %v with %d tuples", r.Empty(), len(m.cnt))
	}
	snap := r.Snapshot()
	if m.physical() || !m.orderKnown {
		seen := map[string]bool{}
		for _, row := range snap {
			k := key(row)
			if _, ok := m.cnt[k]; !ok || seen[k] {
				m.fail("row %v is a phantom or a duplicate", row)
			}
			seen[k] = true
		}
		if len(seen) != len(m.cnt) {
			m.fail("%d distinct rows, model has %d", len(seen), len(m.cnt))
		}
		m.rows, m.orderKnown = snap, true
	} else if len(snap) != len(m.rows) || (len(snap) > 0 && !reflect.DeepEqual(snap, m.rows)) {
		m.fail("rows = %v\nwant   %v", snap, m.rows)
	}
	for i, row := range m.rows {
		if !r.Contains(row) {
			m.fail("Contains(%v) = false for a stored row", row)
		}
		if !m.counted {
			continue
		}
		if got, want := r.Count(row), m.cnt[key(row)]; got != want {
			m.fail("Count(%v) = %d, want %d", row, got, want)
		}
		if id, ok := r.RowOf(row); ok != !m.physical() || (ok && int(id) != i) {
			m.fail("RowOf(%v) = %d,%v, want %d", row, id, ok, i)
		}
	}
	if got := r.Mutations(); got != m.muts {
		m.fail("Mutations = %d, want %d", got, m.muts)
	}
	if subs := r.PhysSubs(); subs != nil {
		for _, sub := range subs {
			m.checkTable(sub)
		}
		if len(r.arena) != 0 || r.tab.used != 0 {
			m.fail("physical parent holds %d values, %d table entries", len(r.arena), r.tab.used)
		}
	} else {
		m.checkTable(r)
	}
	m.checkIndexes()
}

func (m *tableModel) insert(t []Value) {
	_, has := m.cnt[key(t)]
	if got := m.r.Insert(t); got == has {
		m.fail("Insert(%v) = %v, present = %v", t, got, has)
	}
	if !has {
		m.appendRow(t, 1)
		m.muts++
	}
}

func (m *tableModel) incRef(t []Value) {
	c, has := m.cnt[key(t)]
	if got := m.r.IncRef(t); got == has {
		m.fail("IncRef(%v) = %v, present = %v", t, got, has)
	}
	if has {
		m.cnt[key(t)] = c + 1
		return
	}
	m.appendRow(t, 1)
	m.muts++
}

func (m *tableModel) decRef(t []Value) {
	c, has := m.cnt[key(t)]
	if has && c > 0 {
		c--
		m.cnt[key(t)] = c
	}
	if rem, ok := m.r.DecRef(t); ok != has || rem != c {
		m.fail("DecRef(%v) = %d,%v, want %d,%v", t, rem, ok, c, has)
	}
}

func (m *tableModel) clear(retain bool) {
	if retain {
		m.r.ClearRetain()
	} else {
		m.r.Clear()
	}
	if len(m.cnt) > 0 {
		m.muts++
	}
	m.cnt, m.rows = map[string]uint32{}, nil
}

func (m *tableModel) truncate(n int) {
	if m.physical() {
		return // undefined there: panics by contract
	}
	m.r.TruncateTo(n)
	if n < 0 || n >= len(m.rows) {
		return
	}
	for _, row := range m.rows[n:] {
		delete(m.cnt, key(row))
	}
	m.rows = m.rows[:n]
	m.muts++
}

func (m *tableModel) deleteRows(batch [][]Value, boundary int) {
	doomed := map[string]bool{}
	below := 0
	for _, t := range batch {
		if _, has := m.cnt[key(t)]; has && !doomed[key(t)] {
			doomed[key(t)] = true
			if !m.physical() && m.position(t) < boundary {
				below++
			}
		}
	}
	removed, removedBelow := m.r.DeleteRows(batch, boundary)
	if removed != len(doomed) || removedBelow != below {
		m.fail("DeleteRows(%v, %d) = %d,%d, want %d,%d", batch, boundary, removed, removedBelow, len(doomed), below)
	}
	if removed == 0 {
		return
	}
	var kept [][]Value
	for _, row := range m.rows {
		if doomed[key(row)] {
			delete(m.cnt, key(row))
		} else {
			kept = append(kept, row)
		}
	}
	m.rows = kept
	m.muts++
}

func (m *tableModel) assertAt(batch [][]Value, boundary int) {
	if len(batch) == 0 {
		return
	}
	boundary = min(boundary, len(m.rows))
	// Fold the batch: distinct tuples in first-occurrence order.
	var distinct [][]Value
	mult := map[string]uint32{}
	for _, t := range batch {
		if mult[key(t)] == 0 {
			distinct = append(distinct, t)
		}
		mult[key(t)]++
	}
	var wantAdded, mid [][]Value
	promoted := map[string]bool{}
	for _, t := range distinct {
		k := key(t)
		c, has := m.cnt[k]
		switch {
		case m.physical() && has:
			m.cnt[k] = c + mult[k]
		case m.physical():
			wantAdded = append(wantAdded, t)
			m.appendRow(t, mult[k])
			m.muts++ // routed per bucket as plain inserts: one bump a tuple
		case has && m.position(t) < boundary:
			m.cnt[k] = c + mult[k]
		case has:
			promoted[k] = true
			mid = append(mid, t)
			m.cnt[k] = mult[k]
		default:
			wantAdded = append(wantAdded, t)
			mid = append(mid, t)
			m.cnt[k] = mult[k]
		}
	}
	added, nPromoted := m.r.AssertAt(batch, boundary)
	if len(added) != len(wantAdded) || (len(added) > 0 && !reflect.DeepEqual(added, wantAdded)) || nPromoted != len(promoted) {
		m.fail("AssertAt(%v, %d) = %v,%d, want %v,%d", batch, boundary, added, nPromoted, wantAdded, len(promoted))
	}
	if m.physical() || len(mid) == 0 {
		return
	}
	if len(wantAdded) > 0 {
		m.muts++ // one logical content change per batch
	}
	rows := append([][]Value(nil), m.rows[:boundary]...)
	for _, t := range mid {
		rows = append(rows, append([]Value(nil), t...))
	}
	for _, row := range m.rows[boundary:] {
		if !promoted[key(row)] {
			rows = append(rows, row)
		}
	}
	m.rows = rows
}

func (m *tableModel) relayout(kind, shards, col int) {
	wasPhysical := m.physical()
	switch kind {
	case 0:
		m.r.SetShardKey(0, 0)
	case 1:
		m.r.SetShardKey(shards, col)
	default:
		m.r.SetShardKeyPhysical(shards, col)
	}
	if wasPhysical || m.physical() {
		m.orderKnown = false
	}
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// emptyLike returns an empty relation with r's index, histogram and count
// registrations and its layout.
func emptyLike(r *Relation) *Relation {
	tw := NewRelation(r.name+"~twin", r.arity)
	for i := range r.indexes {
		tw.buildIndex(r.indexes[i].cols)
	}
	for c := range r.histograms {
		tw.BuildHistogram(c)
	}
	if r.countsOn {
		tw.EnableCounts()
	}
	if shards, col := r.ShardConfig(); r.subs != nil {
		tw.SetShardKeyPhysical(shards, col)
	} else {
		tw.SetShardKey(shards, col)
	}
	return tw
}

// sameStructure fails unless a and b hold the same rows in the same order
// with the same index chains, bucket views and histograms.
func (m *tableModel) sameStructure(a, b *Relation) {
	m.t.Helper()
	if sa, sb := a.Snapshot(), b.Snapshot(); !reflect.DeepEqual(sa, sb) {
		m.fail("%s rows %v\n%s rows %v", a.name, sa, b.name, sb)
	}
	for c := range a.histograms {
		ha, _ := a.HistogramOf(c)
		hb, _ := b.HistogramOf(c)
		if ha != hb {
			m.fail("%s and %s disagree on the histogram of column %d", a.name, b.name, c)
		}
	}
	// A view partition's bucket lists name row ids; a physical one's rows
	// live in the sub-relations compared below.
	bucketRows := func(r *Relation, s int) []int32 {
		if r.subs != nil {
			return nil
		}
		return r.shardRows[s]
	}
	shards, _ := a.ShardConfig()
	for s := 0; s < shards; s++ {
		if a.ShardLen(s) != b.ShardLen(s) || !slices.Equal(bucketRows(a, s), bucketRows(b, s)) {
			m.fail("bucket %d: %s rows %v, %s rows %v", s, a.name, bucketRows(a, s), b.name, bucketRows(b, s))
		}
	}
	slabsA, slabsB := []*Relation{a}, []*Relation{b}
	if a.subs != nil {
		slabsA, slabsB = a.subs, b.subs
	}
	for i, x := range slabsA {
		for ix := range x.indexes {
			cols := x.indexes[ix].cols
			x.Each(func(row []Value) bool {
				k := project(row, cols)
				ca, _ := probeCompositeRows(x, cols, k)
				cb, _ := probeCompositeRows(slabsB[i], cols, k)
				if !slices.Equal(ca, cb) {
					m.fail("%s index %v chain of %v = %v, %s has %v", x.name, cols, k, ca, slabsB[i].name, cb)
				}
				return true
			})
		}
	}
}

// stageBatch stages batch the way PredicateDB.Emit stages in Derived. Until
// the batch is published its rows answer Contains and deduplicate later
// stages — through any growth of the row table — and nothing else sees them:
// not Len, Each, Row, the bucket views, the probes, a pinned view or the
// mutation counter, and Insert, RowOf, TruncateTo and Clear refuse to run.
// Publishing must leave the relation exactly as Inserting the batch leaves a
// twin; unstaging, exactly as it was.
func (m *tableModel) stageBatch(batch [][]Value, publish bool) {
	m.t.Helper()
	r := m.r
	if m.physical() {
		if len(batch) > 0 && !panics(func() { r.stage(batch[0]) }) {
			m.fail("stage on a physical relation did not panic")
		}
		return
	}
	tw := emptyLike(r)
	r.Each(func(row []Value) bool {
		tw.Insert(row)
		return true
	})
	muts, twMuts := r.Mutations(), tw.Mutations()
	n, snap, pin := r.Len(), r.Snapshot(), r.PinRows()
	var staged [][]Value
	seen := map[string]bool{}
	for _, t := range batch {
		_, had := m.cnt[key(t)]
		fresh := !had && !seen[key(t)]
		if got := r.stage(t); got != fresh {
			m.fail("stage(%v) = %v, want %v", t, got, fresh)
		}
		tw.Insert(t)
		if fresh {
			seen[key(t)] = true
			staged = append(staged, append([]Value(nil), t...))
		}
	}
	if r.staged != len(staged) || r.tab.used != n+len(staged) {
		m.fail("%d staged, table holds %d, want %d staged over %d rows", r.staged, r.tab.used, len(staged), n)
	}
	ext := r.arena[:(n+len(staged))*r.arity]
	for i, t := range staged {
		if id, _ := r.tab.find(ext, t, hashRow(t)); int(id) != n+i || !r.Contains(t) || r.stage(t) {
			m.fail("staged %v: row id %d (want %d), Contains %v, staged again", t, id, n+i, r.Contains(t))
		}
	}
	visible := 0
	r.EachShardRange(0, max(1, r.shardCount), func([]Value) bool {
		visible++
		return true
	})
	if r.Len() != n || visible != n || pin.Len() != n || r.Mutations() != muts || !reflect.DeepEqual(r.Snapshot(), snap) {
		m.fail("staged rows leaked: Len %d, bucket scan %d, pinned %d, want %d; mutations %d, want %d", r.Len(), visible, pin.Len(), n, r.Mutations(), muts)
	}
	for i := range r.indexes {
		cols := r.indexes[i].cols
		for _, t := range staged {
			ids, _ := probeCompositeRows(r, cols, project(t, cols))
			for _, id := range ids {
				if int(id) >= n {
					m.fail("index %v probe for staged %v returned row %d of %d", cols, t, id, n)
				}
			}
		}
	}
	if len(staged) > 0 {
		t := staged[0]
		ops := map[string]func(){
			"Row":         func() { r.Row(int32(n)) },
			"Insert":      func() { r.Insert(t) },
			"TruncateTo":  func() { r.TruncateTo(0) },
			"Clear":       r.Clear,
			"ClearRetain": r.ClearRetain,
		}
		if m.counted {
			ops["RowOf"] = func() { r.RowOf(t) }
		}
		for name, op := range ops {
			if !panics(op) {
				m.fail("%s with %d rows staged did not panic", name, len(staged))
			}
		}
	}
	if !publish {
		r.unstage()
		return
	}
	r.publish()
	for _, t := range staged {
		m.appendRow(t, 1)
		m.muts++
	}
	if r.Mutations()-muts != tw.Mutations()-twMuts {
		m.fail("publish advanced Mutations by %d, Insert by %d", r.Mutations()-muts, tw.Mutations()-twMuts)
	}
	m.sameStructure(r, tw)
	got := make([][]Value, 0, pin.Len())
	pin.Each(func(row []Value) bool {
		got = append(got, append([]Value(nil), row...))
		return true
	})
	if len(got) != len(snap) || (len(got) > 0 && !reflect.DeepEqual(got, snap)) {
		m.fail("publish rewrote the pinned rows: %v, want %v", got, snap)
	}
}

// appendList appends batch's distinct tuples to an empty relation of the
// model's registrations and layout the way δ′ is written (appendRow) and
// holds it to a twin fed by Insert. The list's row table covers none of its
// rows, so Insert, Contains, RowOf and TruncateTo refuse to run on it until
// a Clear makes it a set again.
func (m *tableModel) appendList(batch [][]Value) {
	m.t.Helper()
	list, tw := emptyLike(m.r), emptyLike(m.r)
	seen := map[string]bool{}
	for _, t := range batch {
		if !seen[key(t)] {
			seen[key(t)] = true
			list.appendRow(t)
			tw.Insert(t)
		}
	}
	if list.Mutations() != tw.Mutations() {
		m.fail("appendRow counted %d mutations, Insert %d", list.Mutations(), tw.Mutations())
	}
	m.sameStructure(list, tw)
	if len(seen) == 0 {
		return
	}
	t := batch[0]
	ops := map[string]func(){
		"Insert":   func() { list.Insert(t) },
		"Contains": func() { list.Contains(t) },
	}
	if !m.physical() {
		ops["TruncateTo"] = func() { list.TruncateTo(0) }
		if m.counted {
			ops["RowOf"] = func() { list.RowOf(t) }
		}
	}
	for name, op := range ops {
		if !panics(op) {
			m.fail("%s on a list did not panic", name)
		}
	}
	list.ClearRetain()
	if !list.Insert(t) || !list.Contains(t) {
		m.fail("a cleared list is not a set again")
	}
}

// driveRowTable decodes data into an operation sequence over one relation
// and checks it against the model after every operation. layout picks the
// starting layout (0 flat, 1 view, 2 physical); later operations move the
// relation between all three with content loaded. With midStream the relation
// starts without indexes, an extra operation registers them over loaded
// content, and every check also holds each index to the model
// (driveChainIndex).
func driveRowTable(t *testing.T, arity int, counted bool, layout int, data []byte, midStream bool) {
	t.Helper()
	r := NewRelation("model", arity)
	r.BuildHistogram(arity - 1)
	if !midStream {
		r.BuildIndex(0)
		if arity > 1 {
			r.BuildCompositeIndex([]int{0, arity - 1})
		}
	}
	if counted {
		r.EnableCounts()
	}
	m := &tableModel{t: t, r: r, arity: arity, counted: counted, cnt: map[string]uint32{}, orderKnown: true}
	if midStream {
		m.sets = [][]int{}
	}
	m.relayout(layout%3, 4, 0)

	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	// A small per-arity domain makes duplicates and hits common; the tail of
	// the byte range maps to the boundaries of Value.
	dom := []int{0, 200, 24, 8, 5, 4}[arity]
	edge := []Value{-1, math.MinInt32, math.MaxInt32, 1 << 16}
	value := func() Value {
		if b := next(); b < 232 {
			return Value(b % dom)
		} else {
			return edge[b%len(edge)]
		}
	}
	tuple := func() []Value {
		tp := make([]Value, arity)
		for i := range tp {
			tp[i] = value()
		}
		return tp
	}
	// stored favours tuples the relation holds, so deletions and count
	// operations mostly hit.
	stored := func() []Value {
		if b := next(); b%4 != 0 && len(m.rows) > 0 {
			return append([]Value(nil), m.rows[b%len(m.rows)]...)
		}
		return tuple()
	}
	batch := func() [][]Value {
		out := make([][]Value, next()%7)
		for i := range out {
			out[i] = stored()
		}
		return out
	}

	for pos < len(data) {
		m.step++
		switch op := next() % 18; op {
		case 5:
			if midStream {
				m.buildIndex(next())
			} else {
				m.insert(tuple())
			}
		case 6:
			if counted {
				m.incRef(stored())
			} else {
				m.insert(stored())
			}
		case 7:
			if counted {
				m.decRef(stored())
			} else if tp := tuple(); r.Contains(tp) != (m.position(tp) >= 0) {
				m.fail("Contains(%v) = %v", tp, r.Contains(tp))
			}
		case 8:
			// A run of fresh keys: pushes the table through its growth steps.
			tp := tuple()
			for j := 0; j < 40; j++ {
				tp[0] = Value(1000 + 40*next() + j)
				m.insert(tp)
			}
		case 9:
			m.clear(false)
		case 10:
			m.clear(true)
		case 11:
			m.truncate(next() % (len(m.rows) + 1))
		case 12:
			m.deleteRows(batch(), next()%(len(m.rows)+1))
		case 13:
			if counted {
				m.assertAt(batch(), next()%(len(m.rows)+2))
			} else {
				m.deleteRows(batch(), 0)
			}
		case 14:
			b := next()
			m.relayout(b%3, 2+b%5, b%arity)
		case 15:
			for i := 0; i < 8; i++ {
				if tp := tuple(); r.Contains(tp) != (m.position(tp) >= 0) {
					m.fail("Contains(%v) = %v", tp, r.Contains(tp))
				}
			}
		case 16:
			// A batch of stored and fresh tuples, or a run of fresh keys
			// long enough to grow the table while rows are staged.
			b := next()
			tuples := append(batch(), tuple(), tuple())
			if b%3 == 0 {
				for j := 0; j < 40; j++ {
					tp := tuple()
					tp[0] = Value(2000 + 40*next() + j)
					tuples = append(tuples, tp)
				}
			}
			m.stageBatch(tuples, b%5 != 0)
		case 17:
			m.appendList(append(batch(), tuple(), tuple()))
		default:
			m.insert(tuple())
		}
		m.check()
	}
}

// TestRowTableModel drives random operation sequences — Insert, Contains,
// IncRef, DecRef, Clear, ClearRetain, TruncateTo, DeleteRows, AssertAt, the
// layout transitions, staged batches published or dropped, and appended
// lists — against the map oracle for arity 1-5, counted and uncounted,
// starting from each of the three layouts.
func TestRowTableModel(t *testing.T) {
	for arity := 1; arity <= 5; arity++ {
		for _, counted := range []bool{false, true} {
			for layout := 0; layout < 3; layout++ {
				rng := rand.New(rand.NewSource(int64(100*arity + 10*layout + len(fmt.Sprint(counted)))))
				data := make([]byte, 1500)
				rng.Read(data)
				driveRowTable(t, arity, counted, layout, data, false)
			}
		}
	}
}

// FuzzRowTable is TestRowTableModel over fuzzer-chosen sequences. Short-fuzz
// CI job: go test -fuzz=FuzzRowTable -fuzztime=20s ./internal/storage/
func FuzzRowTable(f *testing.F) {
	f.Add(uint8(2), true, uint8(0), []byte{0, 1, 2, 0, 1, 2, 6, 1, 12, 2, 1, 1, 3, 3, 0, 13, 3, 5, 0, 0, 9, 9})
	f.Add(uint8(3), false, uint8(2), []byte{8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 14, 1, 11, 7, 10, 0, 1, 2, 3})
	f.Add(uint8(1), true, uint8(1), []byte{8, 8, 8, 8, 9, 8, 250, 240, 7, 1, 7, 1, 12, 3, 1, 1, 1, 2, 14, 2})
	f.Add(uint8(5), true, uint8(0), []byte{0, 233, 234, 235, 236, 237, 0, 233, 234, 235, 236, 238, 13, 2, 1, 1, 1, 0})
	f.Fuzz(func(t *testing.T, arity uint8, counted bool, layout uint8, data []byte) {
		driveRowTable(t, 1+int(arity)%5, counted, int(layout), data, false)
	})
}

// TestConcurrentContainsFrozen: any number of goroutines may probe a relation
// nobody mutates, in every layout — the parallel executor's set difference
// against the iteration-frozen Derived. Meaningful under -race.
func TestConcurrentContainsFrozen(t *testing.T) {
	for _, arity := range []int{2, 3} {
		for layout := 0; layout < 3; layout++ {
			r := NewRelation("frozen", arity)
			switch layout {
			case 1:
				r.SetShardKey(4, 0)
			case 2:
				r.SetShardKeyPhysical(4, 0)
			}
			const rows = 5000
			tp := make([]Value, arity)
			for i := 0; i < rows; i++ {
				tp[0], tp[arity-1] = Value(i%97), Value(i)
				r.Insert(tp)
			}
			var wg sync.WaitGroup
			bad := make([]int, 4)
			for g := range bad {
				wg.Add(1)
				go func() {
					defer wg.Done()
					tp := make([]Value, arity)
					for i := 0; i < 2*rows; i++ {
						tp[0], tp[arity-1] = Value(i%97), Value(i)
						if r.Contains(tp) != (i < rows) {
							bad[g]++
						}
					}
				}()
			}
			wg.Wait()
			for g, n := range bad {
				if n != 0 {
					t.Fatalf("arity %d layout %d: goroutine %d saw %d wrong answers", arity, layout, g, n)
				}
			}
		}
	}
}

// TestRowTableAllocations guards what the table exists for: once a relation
// is warm, refilling it after Clear or ClearRetain allocates nothing, and
// inserting a wide row allocates no key.
func TestRowTableAllocations(t *testing.T) {
	const rows = 1000
	for _, arity := range []int{2, 3} {
		r := NewRelation("warm", arity)
		tp := make([]Value, arity)
		fill := func() {
			for i := 0; i < rows; i++ {
				tp[0], tp[arity-1] = Value(i%31), Value(i)
				r.Insert(tp)
			}
		}
		fill()
		for name, clear := range map[string]func(){"Clear": r.Clear, "ClearRetain": r.ClearRetain} {
			clear()
			if a := testing.AllocsPerRun(10, func() { fill(); clear() }); a != 0 {
				t.Errorf("arity %d: refill after %s allocates %.0f times, want 0", arity, name, a)
			}
		}
		// Single inserts, new and duplicate, into warm capacity.
		i := 0
		if a := testing.AllocsPerRun(rows/2, func() {
			tp[0], tp[arity-1] = Value(i%31), Value(i)
			r.Insert(tp)
			r.Insert(tp)
			i++
		}); a != 0 {
			t.Errorf("arity %d: Insert allocates %.2f times per row, want 0", arity, a)
		}
		if a := testing.AllocsPerRun(100, func() { r.Contains(tp) }); a != 0 {
			t.Errorf("arity %d: Contains allocates %.2f times, want 0", arity, a)
		}

		// A fixpoint's refill of Derived — staged and published iteration by
		// iteration over a ground prefix, rewound by TruncateTo — and of δ′,
		// appended and rotated by ClearRetain: warm, neither allocates.
		derived, delta := NewRelation("derived", arity), NewRelation("delta", arity)
		derived.BuildIndex(0)
		delta.BuildIndex(0)
		for i := 0; i < 10; i++ {
			tp[0], tp[arity-1] = Value(i%31), Value(-i)
			derived.Insert(tp)
		}
		refill := func() {
			for it := 0; it < 4; it++ {
				for i := it * rows / 4; i < (it+1)*rows/4; i++ {
					tp[0], tp[arity-1] = Value(i%31), Value(i)
					if derived.stage(tp) {
						delta.appendRow(tp)
					}
					derived.stage(tp)
				}
				derived.publish()
				delta.ClearRetain()
			}
			derived.TruncateTo(10)
		}
		refill()
		if a := testing.AllocsPerRun(10, refill); a != 0 {
			t.Errorf("arity %d: a warm stage/publish/append refill allocates %.0f times, want 0", arity, a)
		}
	}
}

// TestRowTableHysteresis pins the capacity policy: a steady refill keeps its
// slots, TruncateTo keeps them for the regrowth that follows a baseline
// rewind, and a relation whose fills collapse gives capacity back one halving
// per reset, down to nothing.
func TestRowTableHysteresis(t *testing.T) {
	r := NewRelation("h", 2)
	fill := func(n int) {
		for i := 0; i < n; i++ {
			r.Insert([]Value{Value(i), Value(i)})
		}
	}
	fill(10000)
	slots := len(r.tab.tags)
	if slots != 16384 {
		t.Fatalf("10000 rows sit in %d slots, want 16384", slots)
	}
	r.TruncateTo(10)
	if len(r.tab.tags) != slots {
		t.Fatalf("TruncateTo changed capacity %d -> %d", slots, len(r.tab.tags))
	}
	fill(10000)
	for i := 0; i < 3; i++ {
		r.Clear()
		fill(slots / 8) // exactly the fill that still holds the capacity
		if len(r.tab.tags) != slots {
			t.Fatalf("refill %d: capacity %d -> %d", i, slots, len(r.tab.tags))
		}
	}
	r.Clear()
	fill(1)
	for want := slots / 2; want >= minTableSize; want /= 2 {
		r.Clear()
		fill(1)
		if len(r.tab.tags) != want {
			t.Fatalf("capacity %d, want %d", len(r.tab.tags), want)
		}
	}
	r.Clear()
	r.Clear()
	if len(r.tab.rows) != 0 {
		t.Fatalf("an emptied relation still owns %d slots", len(r.tab.rows))
	}
	if !r.Insert([]Value{1, 2}) || !r.Contains([]Value{1, 2}) || r.Contains([]Value{2, 1}) {
		t.Fatal("relation unusable after releasing its table")
	}
}
