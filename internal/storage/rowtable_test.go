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
// row order, and the expected mutation total. It knows nothing of hashing
// or slots, so every operation of the Relation is checked against
// plain map and slice semantics.
type tableModel struct {
	t       *testing.T
	r       *Relation
	arity   int
	counted bool
	cnt     map[string]uint32
	rows    [][]Value // expected Snapshot(); trusted only while orderKnown
	muts    uint64
	step    int
	// sets lists the column sets the index model registered (chainindex_test.go);
	// nil in the row-table tests, whose indexes are only carried along.
	sets [][]int
}

func key(t []Value) string { return fmt.Sprint(t) }

func (m *tableModel) fail(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("step %d (arity %d counted %v): %s", m.step, m.arity, m.counted, fmt.Sprintf(format, args...))
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
// table: it holds one slot per arena row, each packing a row id that names a
// distinct row under that row's hash tag, and stays under the load limit.
func (m *tableModel) checkTable(r *Relation) {
	m.t.Helper()
	n := len(r.arena) / r.arity
	named := make([]bool, n)
	occupied := 0
	for i, s := range r.tab.slots {
		if s == 0 {
			continue
		}
		occupied++
		row := slotRow(s)
		if int(row) >= n || named[row] {
			m.fail("%s: slot %d names row %d of %d, or names it twice", r.name, i, row, n)
		}
		named[row] = true
		if want := packSlot(tagOf(hashRow(r.Row(row))), row); s != want {
			m.fail("%s: slot %d holds %#x, row %d packs as %#x", r.name, i, uint32(s), row, uint32(want))
		}
	}
	if occupied != n || r.tab.used != n {
		m.fail("%s: %d occupied slots, used=%d, %d arena rows", r.name, occupied, r.tab.used, n)
	}
	if n*8 > len(r.tab.slots)*5 {
		m.fail("%s: %d rows in %d slots exceeds the 5/8 load limit", r.name, n, len(r.tab.slots))
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
	if snap := r.Snapshot(); len(snap) != len(m.rows) || (len(snap) > 0 && !reflect.DeepEqual(snap, m.rows)) {
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
		if id, ok := r.RowOf(row); !ok || int(id) != i {
			m.fail("RowOf(%v) = %d,%v, want %d", row, id, ok, i)
		}
	}
	if got := r.Mutations(); got != m.muts {
		m.fail("Mutations = %d, want %d", got, m.muts)
	}
	m.checkTable(r)
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
			if m.position(t) < boundary {
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
	if len(mid) == 0 {
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

// morsels reads the relation as n morsel tasks would (Morsel): the tasks'
// Scans, concatenated in task order, are every row exactly once, in order.
func (m *tableModel) morsels(n int) {
	m.t.Helper()
	var got [][]Value
	for i := range n {
		from, to := Morsel(m.r.Len(), i, i+1, n)
		m.r.Scan(from, to, func(row []Value) bool {
			got = append(got, slices.Clone(row))
			return true
		})
	}
	if len(got) != len(m.rows) || (len(got) > 0 && !reflect.DeepEqual(got, m.rows)) {
		m.fail("%d morsels read %v, want %v", n, got, m.rows)
	}
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// emptyLike returns an empty relation with r's index, histogram and count
// registrations.
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
	return tw
}

// sameStructure fails unless a and b hold the same rows in the same order
// with the same index chains and histograms.
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
	for ix := range a.indexes {
		cols := a.indexes[ix].cols
		a.Each(func(row []Value) bool {
			k := project(row, cols)
			ca, _ := probeCompositeRows(a, cols, k)
			cb, _ := probeCompositeRows(b, cols, k)
			if !slices.Equal(ca, cb) {
				m.fail("%s index %v chain of %v = %v, %s has %v", a.name, cols, k, ca, b.name, cb)
			}
			return true
		})
	}
}

// stageBatch stages batch the way PredicateDB.Emit stages in Derived. Until
// the batch is published its rows answer Contains and deduplicate later
// stages — through any growth of the row table — and nothing else sees them:
// not Len, Each, Row, the probes, a pinned view or the
// mutation counter, and Insert, RowOf, TruncateTo and Clear refuse to run.
// Publishing must leave the relation exactly as Inserting the batch leaves a
// twin; unstaging, exactly as it was.
func (m *tableModel) stageBatch(batch [][]Value, publish bool) {
	m.t.Helper()
	r := m.r
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
	if r.Len() != n || pin.Len() != n || r.Mutations() != muts || !reflect.DeepEqual(r.Snapshot(), snap) {
		m.fail("staged rows leaked: Len %d, pinned %d, want %d; mutations %d, want %d", r.Len(), pin.Len(), n, r.Mutations(), muts)
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
			"Seal":        r.Seal,
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
// model's registrations the way δ′ and a retraction frontier are
// written (AppendDistinct) and holds it to a twin fed by Insert. The list's
// row table covers none of its rows, so Insert, Contains, RowOf and
// TruncateTo refuse to run on it until Seal or a Clear makes it a set. It
// then runs a frontier's cycle — seal, ClearRetain, append again, seal —
// holding the list to the twin after each step.
func (m *tableModel) appendList(batch [][]Value) {
	m.t.Helper()
	list, tw := emptyLike(m.r), emptyLike(m.r)
	fill := func(batch [][]Value) {
		seen := map[string]bool{}
		for _, t := range batch {
			if !seen[key(t)] {
				seen[key(t)] = true
				list.AppendDistinct(t)
				tw.Insert(t)
			}
		}
		if list.Mutations() != tw.Mutations() {
			m.fail("AppendDistinct counted %d mutations, Insert %d", list.Mutations(), tw.Mutations())
		}
		m.sameStructure(list, tw)
	}
	fill(batch)
	if len(batch) == 0 {
		return
	}
	t := batch[0]
	ops := map[string]func(){
		"Insert":   func() { list.Insert(t) },
		"Contains": func() { list.Contains(t) },
	}
	ops["TruncateTo"] = func() { list.TruncateTo(0) }
	if m.counted {
		ops["RowOf"] = func() { list.RowOf(t) }
	}
	for name, op := range ops {
		if !panics(op) {
			m.fail("%s on a list did not panic", name)
		}
	}
	m.sealed(list, tw)
	list.ClearRetain()
	tw.ClearRetain()
	fill(batch[len(batch)/2:])
	m.sealed(list, tw)
	list.ClearRetain()
	if !list.Insert(t) || !list.Contains(t) {
		m.fail("a cleared list is not a set again")
	}
}

// sealed seals list and holds it to its Insert-fed twin as a set: the same
// rows, chains and histograms, tables covering exactly its rows, every row a
// member (under its row id, when counted), the same answer for a miss, and
// no mutation for the seal.
func (m *tableModel) sealed(list, tw *Relation) {
	m.t.Helper()
	muts := list.Mutations()
	list.Seal()
	if list.Mutations() != muts {
		m.fail("Seal advanced Mutations by %d", list.Mutations()-muts)
	}
	m.sameStructure(list, tw)
	m.checkTable(list)
	var i int32
	tw.Each(func(row []Value) bool {
		if !list.Contains(row) {
			m.fail("sealed list: Contains(%v) = false", row)
		}
		if id, ok := list.RowOf(row); m.counted && (!ok || id != i) {
			m.fail("sealed list: RowOf(%v) = %d,%v, want %d", row, id, ok, i)
		}
		i++
		return true
	})
	miss := make([]Value, list.arity)
	miss[0] = -7
	if list.Contains(miss) != tw.Contains(miss) {
		m.fail("sealed list: Contains(%v) = %v", miss, list.Contains(miss))
	}
}

// bulkLoad empties the relation and loads batch's distinct tuples the way
// retraction stages its candidates: Reserve for their number, AppendDistinct
// each, Seal. The relation must come out as a twin fed by Insert does — rows
// in order, chains per key, histograms, mutation count; check adds Contains
// and the table — and the model carries on from it as from any other set.
func (m *tableModel) bulkLoad(batch [][]Value, retain bool) {
	m.t.Helper()
	m.clear(retain)
	r, tw := m.r, emptyLike(m.r)
	var rows [][]Value
	seen := map[string]bool{}
	for _, t := range batch {
		if !seen[key(t)] {
			seen[key(t)] = true
			rows = append(rows, t)
		}
	}
	muts := r.Mutations()
	r.Reserve(len(rows))
	for _, t := range rows {
		r.AppendDistinct(t)
		tw.Insert(t)
		m.appendRow(t, 1)
		m.muts++
	}
	r.Seal()
	if r.Mutations()-muts != tw.Mutations() {
		m.fail("bulk load advanced Mutations by %d, Insert by %d", r.Mutations()-muts, tw.Mutations())
	}
	m.sameStructure(r, tw)
}

// driveRowTable decodes data into an operation sequence over one relation
// and checks it against the model after every operation. With midStream the relation
// starts without indexes, an extra operation registers them over loaded
// content, and every check also holds each index to the model
// (driveChainIndex).
func driveRowTable(t *testing.T, arity int, counted bool, data []byte, midStream bool) {
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
	m := &tableModel{t: t, r: r, arity: arity, counted: counted, cnt: map[string]uint32{}}
	if midStream {
		m.sets = [][]int{}
	}

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
		switch op := next() % 19; op {
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
			m.morsels(1 + next()%9)
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
		case 18:
			// A bulk load large enough, now and then, to size the table past
			// its first growth steps.
			b := next()
			tuples := append(batch(), tuple())
			for j := 0; j < b%3*20; j++ {
				tp := tuple()
				tp[0] = Value(3000 + 40*next() + j)
				tuples = append(tuples, tp)
			}
			m.bulkLoad(tuples, b%2 == 0)
		default:
			m.insert(tuple())
		}
		m.check()
	}
}

// TestRowTableModel drives random operation sequences — Insert, Contains,
// IncRef, DecRef, Clear, ClearRetain, TruncateTo, DeleteRows, AssertAt,
// morsel reads, staged batches published or dropped, appended lists through
// their seal / ClearRetain cycle, and bulk loads — against the map oracle
// for arity 1-5, counted and uncounted.
func TestRowTableModel(t *testing.T) {
	for arity := 1; arity <= 5; arity++ {
		for _, counted := range []bool{false, true} {
			for seed := 0; seed < 2; seed++ {
				rng := rand.New(rand.NewSource(int64(100*arity + 10*seed + len(fmt.Sprint(counted)))))
				data := make([]byte, 1500)
				rng.Read(data)
				driveRowTable(t, arity, counted, data, false)
			}
		}
	}
}

// FuzzRowTable is TestRowTableModel over fuzzer-chosen sequences. Short-fuzz
// CI job: go test -fuzz=FuzzRowTable -fuzztime=20s ./internal/storage/
func FuzzRowTable(f *testing.F) {
	f.Add(uint8(2), true, []byte{0, 1, 2, 0, 1, 2, 6, 1, 12, 2, 1, 1, 3, 3, 0, 13, 3, 5, 0, 0, 9, 9})
	f.Add(uint8(3), false, []byte{8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 14, 1, 11, 7, 10, 0, 1, 2, 3})
	f.Add(uint8(1), true, []byte{8, 8, 8, 8, 9, 8, 250, 240, 7, 1, 7, 1, 12, 3, 1, 1, 1, 2, 14, 2})
	f.Add(uint8(5), true, []byte{0, 233, 234, 235, 236, 237, 0, 233, 234, 235, 236, 238, 13, 2, 1, 1, 1, 0})
	f.Fuzz(func(t *testing.T, arity uint8, counted bool, data []byte) {
		driveRowTable(t, 1+int(arity)%5, counted, data, false)
	})
}

// TestConcurrentContainsFrozen: any number of goroutines may probe a relation
// nobody mutates — the parallel executor's set difference against the
// iteration-frozen Derived. Meaningful under -race.
func TestConcurrentContainsFrozen(t *testing.T) {
	for _, arity := range []int{2, 3} {
		r := NewRelation("frozen", arity)
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
				t.Fatalf("arity %d: goroutine %d saw %d wrong answers", arity, g, n)
			}
		}
	}
}

// TestRowTableAllocations guards what the table exists for: once a relation
// is warm, refilling it after ClearRetain allocates nothing — Clear gives the
// table back instead, on a delta to the scratch pool, whence its next seal
// takes it without allocating — and inserting a wide row allocates no key.
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
		r.ClearRetain()
		if a := testing.AllocsPerRun(10, func() { fill(); r.ClearRetain() }); a != 0 {
			t.Errorf("arity %d: refill after ClearRetain allocates %.0f times, want 0", arity, a)
		}
		fill()
		r.Clear()
		if len(r.tab.slots) > len(noRowSlots) {
			t.Errorf("arity %d: Clear left %d slots behind", arity, len(r.tab.slots))
		}
		fill()
		r.ClearRetain()
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
						delta.AppendDistinct(tp)
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

		// A retraction frontier's cycle: appended, sealed for a membership
		// test, emptied by ClearRetain at the rotation. Warm, it allocates
		// nothing either.
		frontier := func() {
			for i := 0; i < rows; i++ {
				tp[0], tp[arity-1] = Value(i%31), Value(i)
				delta.AppendDistinct(tp)
			}
			delta.Seal()
			delta.Contains(tp)
			delta.ClearRetain()
		}
		frontier()
		if a := testing.AllocsPerRun(10, frontier); a != 0 {
			t.Errorf("arity %d: a warm append/seal/ClearRetain cycle allocates %.0f times, want 0", arity, a)
		}
		// The candidates' cycle, on a delta: appended, sealed, and given back
		// to the scratch pool by Clear at the end of the Apply; the next
		// Apply's seal takes the table back.
		cands := NewRelation("candidatesδ", arity)
		cands.lazy = true
		checkPooledAllocs(t, fmt.Sprintf("arity %d: a delta's append/seal/Clear cycle", arity), func() {
			for i := 0; i < rows; i++ {
				tp[0], tp[arity-1] = Value(i%31), Value(i)
				cands.AppendDistinct(tp)
			}
			cands.Seal()
			cands.Contains(tp)
			cands.Clear()
		})
	}
}

// TestRowSlotPacking pins the packed slot at its helpers: a 7-bit tag that
// is never 0 over a 25-bit row id, both read back, and the row-id limit —
// checked without a table of 2^25 rows.
func TestRowSlotPacking(t *testing.T) {
	for _, h := range []uint64{0, 1 << 32, 0x7f << 32, ^uint64(0), hashRow([]Value{3, 4})} {
		tag := tagOf(h)
		if tag == 0 || tag&slotRowMask != 0 || tag>>slotRowBits > 0x7f {
			t.Fatalf("tagOf(%#x) = %#x: want a nonzero 7-bit tag above the row bits", h, tag)
		}
		for _, row := range []int32{0, 1, 12345, maxTableRows - 1} {
			s := packSlot(tag, row)
			if s == 0 || slotRow(s) != row || uint32(s)^tag >= maxTableRows {
				t.Fatalf("packSlot(%#x, %d) = %#x reads back row %d", tag, row, uint32(s), slotRow(s))
			}
		}
	}
	if tagOf(0) != tagOf(1<<32) {
		t.Fatal("tag bits 0 and 1 should share the tag 1")
	}
	for _, row := range []int32{maxTableRows, maxTableRows + 1, math.MaxInt32} {
		if !panics(func() { packSlot(tagOf(7), row) }) {
			t.Fatalf("packSlot accepted row id %d past the 25-bit limit", row)
		}
	}
}

// TestRowTableHysteresis pins the capacity policy: a steady refill after
// ClearRetain keeps its slots, TruncateTo keeps them for the regrowth that
// follows a baseline rewind, a relation whose fills collapse gives capacity
// back one halving per ClearRetain, down to nothing, and Clear gives it all
// back at once.
func TestRowTableHysteresis(t *testing.T) {
	r := NewRelation("h", 2)
	fill := func(n int) {
		for i := 0; i < n; i++ {
			r.Insert([]Value{Value(i), Value(i)})
		}
	}
	fill(10000)
	slots := len(r.tab.slots)
	if slots != 16384 {
		t.Fatalf("10000 rows sit in %d slots, want 16384", slots)
	}
	r.TruncateTo(10)
	if len(r.tab.slots) != slots {
		t.Fatalf("TruncateTo changed capacity %d -> %d", slots, len(r.tab.slots))
	}
	fill(10000)
	for i := 0; i < 3; i++ {
		r.ClearRetain()
		fill(slots / 8) // exactly the fill that still holds the capacity
		if len(r.tab.slots) != slots {
			t.Fatalf("refill %d: capacity %d -> %d", i, slots, len(r.tab.slots))
		}
	}
	r.ClearRetain()
	fill(1)
	for want := slots / 2; want >= minTableSize; want /= 2 {
		r.ClearRetain()
		fill(1)
		if len(r.tab.slots) != want {
			t.Fatalf("capacity %d, want %d", len(r.tab.slots), want)
		}
	}
	r.ClearRetain()
	r.ClearRetain()
	if len(r.tab.slots) > len(noRowSlots) {
		t.Fatalf("an emptied relation still owns %d slots", len(r.tab.slots))
	}
	fill(10000)
	r.Clear()
	if len(r.tab.slots) > len(noRowSlots) {
		t.Fatalf("Clear left %d slots behind", len(r.tab.slots))
	}
	if !r.Insert([]Value{1, 2}) || !r.Contains([]Value{1, 2}) || r.Contains([]Value{2, 1}) {
		t.Fatal("relation unusable after releasing its table")
	}
}
