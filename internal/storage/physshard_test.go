package storage

import (
	"fmt"
	"math/rand"
	"testing"
)

// snapshotSet canonicalizes a relation's content for order-insensitive
// comparison (physical mode iterates bucket-major, not insertion order).
func snapshotSet(r *Relation) map[string]bool {
	out := make(map[string]bool, r.Len())
	r.Each(func(row []Value) bool {
		out[fmt.Sprint(row)] = true
		return true
	})
	return out
}

func sameContent(t *testing.T, step string, a, b *Relation) {
	t.Helper()
	sa, sb := snapshotSet(a), snapshotSet(b)
	if len(sa) != len(sb) {
		t.Fatalf("%s: %d vs %d tuples", step, len(sa), len(sb))
	}
	for k := range sa {
		if !sb[k] {
			t.Fatalf("%s: tuple %s missing", step, k)
		}
	}
}

// TestPhysicalShardEquivalence drives an identical randomized operation
// sequence through a flat and a physically sharded relation: content, Len, Contains answers, and — the invariant the
// plan cache's freshness policy rides on — the relation-level mutation
// counter must agree at every step.
func TestPhysicalShardEquivalence(t *testing.T) {
	flat := NewRelation("p", 2)
	phys := NewRelation("p", 2)
	phys.SetShardKeyPhysical(4, 0)
	for _, r := range []*Relation{flat, phys} {
		r.BuildIndex(0)
		r.BuildIndex(1)
	}
	all := []*Relation{flat, phys}

	rng := rand.New(rand.NewSource(99))
	check := func(step string) {
		t.Helper()
		for _, r := range all[1:] {
			sameContent(t, step, flat, r)
			if r.Mutations() != flat.Mutations() {
				t.Fatalf("%s: mutation counter %d, flat %d", step, r.Mutations(), flat.Mutations())
			}
			if r.Len() != flat.Len() {
				t.Fatalf("%s: len %d, flat %d", step, r.Len(), flat.Len())
			}
		}
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 200; i++ {
			tpl := []Value{Value(rng.Intn(40)), Value(rng.Intn(40))}
			want := flat.Insert(tpl)
			for _, r := range all[1:] {
				if got := r.Insert(tpl); got != want {
					t.Fatalf("insert %v: new=%v, flat=%v", tpl, got, want)
				}
			}
			probe := []Value{Value(rng.Intn(50)), Value(rng.Intn(50))}
			want2 := flat.Contains(probe)
			for _, r := range all[1:] {
				if got := r.Contains(probe); got != want2 {
					t.Fatalf("contains %v: %v, flat %v", probe, got, want2)
				}
			}
		}
		check(fmt.Sprintf("round %d inserts", round))
		// Per-bucket membership: every bucket's tuples re-Contains and the
		// bucket lengths cover the relation exactly.
		n := 0
		for s := 0; s < 4; s++ {
			n += phys.ShardLen(s)
			phys.Scan(s, s+1, AllRows, func(row []Value) bool {
				if ShardOf(row[0], 4) != s {
					t.Fatalf("bucket %d holds misrouted row %v", s, row)
				}
				return true
			})
		}
		if n != flat.Len() {
			t.Fatalf("bucket lengths sum to %d, want %d", n, flat.Len())
		}
		if round < 2 {
			for _, r := range all {
				r.Clear()
			}
			check(fmt.Sprintf("round %d clear", round))
		}
	}
}

// TestPhysicalShardModeTransitions cycles one relation through both layouts
// and several partitions with content loaded: content and the mutation
// total must survive each hop exactly.
func TestPhysicalShardModeTransitions(t *testing.T) {
	r := NewRelation("t", 2)
	r.BuildIndex(0)
	oracle := NewRelation("t", 2)
	oracle.BuildIndex(0)
	rng := rand.New(rand.NewSource(7))
	insert := func(n int) {
		for i := 0; i < n; i++ {
			tpl := []Value{Value(rng.Intn(30)), Value(rng.Intn(30))}
			a, b := r.Insert(tpl), oracle.Insert(tpl)
			if a != b {
				t.Fatalf("insert divergence on %v", tpl)
			}
		}
	}
	steps := []struct {
		name  string
		apply func()
	}{
		{"phys4", func() { r.SetShardKeyPhysical(4, 0) }},
		{"phys8", func() { r.SetShardKeyPhysical(8, 0) }},
		{"phys8col1", func() { r.SetShardKeyPhysical(8, 1) }},
		{"off", func() { r.SetShardKeyPhysical(0, 0) }},
		{"phys4b", func() { r.SetShardKeyPhysical(4, 0) }},
		{"off2", func() { r.SetShardKeyPhysical(1, 0) }},
		{"phys4c", func() { r.SetShardKeyPhysical(4, 0) }},
	}
	insert(50)
	for _, st := range steps {
		before := r.Mutations()
		st.apply()
		if got := r.Mutations(); got != before {
			t.Fatalf("%s: transition moved the counter %d -> %d", st.name, before, got)
		}
		if got, want := r.Mutations(), oracle.Mutations(); got != want {
			t.Fatalf("%s: counter %d, oracle %d", st.name, got, want)
		}
		sameContent(t, st.name, oracle, r)
		insert(25)
		sameContent(t, st.name+"+inserts", oracle, r)
		if got, want := r.Mutations(), oracle.Mutations(); got != want {
			t.Fatalf("%s+inserts: counter %d, oracle %d", st.name, got, want)
		}
		// Probe equivalence through whatever index surface the mode offers.
		for v := Value(0); v < 30; v++ {
			want := 0
			oracle.Each(func(row []Value) bool {
				if row[0] == v {
					want++
				}
				return true
			})
			got := 0
			if subs := r.subs; subs != nil {
				for _, sub := range subs {
					rows, ok := probeRows(sub, 0, v)
					if !ok {
						t.Fatalf("%s: sub lost index", st.name)
					}
					got += len(rows)
				}
			} else if rows, ok := probeRows(r, 0, v); ok {
				got = len(rows)
			} else {
				t.Fatalf("%s: index lost", st.name)
			}
			if got != want {
				t.Fatalf("%s: probe(%d) = %d rows, want %d", st.name, v, got, want)
			}
		}
	}
}

// TestPhysicalSubIdentityStable pins the identity guarantee of the physical
// layout (Relation.subs): within one physical configuration, the per-bucket
// sub-relations are emptied or kept in place — never reallocated — by
// Clear, ClearRetain, the predicate-level SwapClear rotation, and the
// idempotent re-registration every Run performs; only an actually changed
// layout rebuilds them.
func TestPhysicalSubIdentityStable(t *testing.T) {
	p := newPredicateDB(0, "p", 2)
	p.SetShardsPhysical(4, 0)
	for i := Value(0); i < 32; i++ {
		p.DeltaNew.Insert([]Value{i, i * 3})
	}
	snap := func(r *Relation) []*Relation {
		return append([]*Relation(nil), r.subs...)
	}
	same := func(a, b []*Relation) bool {
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
	newSubs := snap(p.DeltaNew)
	knownSubs := snap(p.DeltaKnown)
	if len(newSubs) != 4 {
		t.Fatalf("expected 4 sub-relations, got %d", len(newSubs))
	}

	p.DeltaNew.ClearRetain()
	if !same(snap(p.DeltaNew), newSubs) {
		t.Fatal("ClearRetain reallocated sub-relations")
	}
	p.DeltaNew.Clear()
	if !same(snap(p.DeltaNew), newSubs) {
		t.Fatal("Clear reallocated sub-relations")
	}

	// SwapClear exchanges the relation structs; each struct keeps its subs.
	p.SwapClear()
	if !same(snap(p.DeltaKnown), newSubs) || !same(snap(p.DeltaNew), knownSubs) {
		t.Fatal("SwapClear did not carry sub-relations with the structs")
	}

	// Idempotent re-registration (the per-Run ConfigureShardsPhysical path).
	p.SetShardsPhysical(4, 0)
	if !same(snap(p.DeltaKnown), newSubs) || !same(snap(p.DeltaNew), knownSubs) {
		t.Fatal("idempotent re-registration rebuilt sub-relations")
	}

	// A genuinely changed layout must rebuild.
	p.SetShardsPhysical(8, 0)
	if got := p.DeltaNew.subs; len(got) != 8 {
		t.Fatalf("re-partition to 8 buckets yielded %d subs", len(got))
	}
	if same(snap(p.DeltaKnown)[:4], newSubs) {
		t.Fatal("changed layout served the old sub-relations")
	}
}
