package storage

import (
	"fmt"
	"reflect"
	"testing"
)

// checkShardPartition asserts the shard-routing soundness property of a
// physical relation: its buckets are a disjoint, exact cover of the flat
// twin — unioning them reproduces the twin's content with no dropped and no
// duplicated tuples, every tuple sits in the bucket its key hashes to, the
// per-bucket cardinalities aggregate to the relation's total, and the
// relation-level mutation counter equals the twin's.
func checkShardPartition(t *testing.T, r, twin *Relation) {
	t.Helper()
	shards, col := r.ShardConfig()
	subs := r.subs
	if shards == 0 || len(subs) != shards {
		t.Fatalf("relation is not physical: config %d, %d buckets", shards, len(subs))
	}
	seen := make(map[string]int)
	total := 0
	for s, sub := range subs {
		n := 0
		sub.Each(func(row []Value) bool {
			if got := ShardOf(row[col], shards); got != s {
				t.Fatalf("tuple %v in bucket %d, hashes to %d", row, s, got)
			}
			seen[fmt.Sprint(row)]++
			n++
			return true
		})
		if n != r.ShardLen(s) {
			t.Fatalf("bucket %d iterated %d rows, ShardLen says %d", s, n, r.ShardLen(s))
		}
		total += n
	}
	if total != r.Len() || total != twin.Len() {
		t.Fatalf("buckets hold %d rows, relation holds %d, twin %d", total, r.Len(), twin.Len())
	}
	for _, row := range twin.Snapshot() {
		key := fmt.Sprint(row)
		switch seen[key] {
		case 1:
			delete(seen, key)
		case 0:
			t.Fatalf("tuple %s dropped from every bucket", key)
		default:
			t.Fatalf("tuple %s appears in %d buckets", key, seen[key])
		}
	}
	for key := range seen {
		t.Fatalf("bucket tuple %s not in relation", key)
	}
	if r.Mutations() != twin.Mutations() {
		t.Fatalf("mutation counter %d, flat twin %d", r.Mutations(), twin.Mutations())
	}
}

// checkShardReads holds the read surface of a physical relation and its flat
// twin to a brute-force filter of the twin's rows, under a bucket span and a
// row bound picked by lo, width and bound: Scan and ScanKey (on each column,
// and on both) visit the rows of buckets [lo, hi) of the physical relation,
// which has no row bound, and the rows below the bound of the flat twin,
// which has no buckets. Keys come from a stored row or miss.
func checkShardReads(t *testing.T, r, twin *Relation, lo, width, bound byte) {
	t.Helper()
	shards, col := r.ShardConfig()
	rows := twin.Snapshot()
	l, h, n := int(lo)%(shards+2), AllBuckets, AllRows
	if width%4 != 0 {
		h = l + int(width)%(shards+2)
	}
	if bound%4 != 0 {
		n = int(bound) % (len(rows) + 2)
	}
	key := []Value{Value(lo), Value(width)}
	if len(rows) > 0 {
		key = rows[int(bound)%len(rows)]
	}
	for _, cols := range [][]int{nil, {0}, {1}, {0, 1}} {
		vals := project(key, cols)
		read := func(x *Relation) map[string]int {
			got := map[string]int{}
			visit := func(row []Value) bool {
				got[fmt.Sprint(row)]++
				return true
			}
			if cols == nil {
				x.Scan(l, h, n, visit)
			} else {
				x.ScanKey(l, h, n, cols, vals, visit)
			}
			return got
		}
		wantPhys, wantFlat := map[string]int{}, map[string]int{}
		for i, row := range rows {
			if !coversKey(row, cols, vals) {
				continue
			}
			if b := ShardOf(row[col], shards); b >= l && b < h {
				wantPhys[fmt.Sprint(row)]++
			}
			if i < n {
				wantFlat[fmt.Sprint(row)]++
			}
		}
		if got := read(r); !reflect.DeepEqual(got, wantPhys) {
			t.Fatalf("physical read of %v = %v over buckets [%d, %d): %v, want %v", cols, vals, l, h, got, wantPhys)
		}
		if got := read(twin); !reflect.DeepEqual(got, wantFlat) {
			t.Fatalf("flat read of %v = %v below row %d: %v, want %v", cols, vals, n, got, wantFlat)
		}
	}
}

// shardOps applies one decoded operation to a physical relation and its flat
// twin: insert, a run of consecutive keys, Clear, ClearRetain, DeleteRows of
// a batch, or dissolving the partition and registering another.
type shardOps struct {
	r, twin *Relation
}

func (o shardOps) both(f func(x *Relation)) { f(o.r); f(o.twin) }

func (o shardOps) apply(t *testing.T, op, arg byte) {
	t.Helper()
	switch {
	case op >= 200 && op < 205:
		// Delete every row whose first column is at most the operand, plus
		// one absent tuple.
		var doomed [][]Value
		o.twin.Each(func(row []Value) bool {
			if row[0] <= Value(arg%64) {
				doomed = append(doomed, append([]Value(nil), row...))
			}
			return true
		})
		doomed = append(doomed, []Value{-1, -1})
		got, _ := o.r.DeleteRows(doomed, 0)
		if want, _ := o.twin.DeleteRows(doomed, 0); got != want {
			t.Fatalf("DeleteRows removed %d rows, flat twin %d", got, want)
		}
	case op >= 205 && op < 210:
		// Dissolve, then repartition on the operand's layout.
		shards, col := 2+int(arg)%15, int(arg>>4)%2
		o.r.SetShardKeyPhysical(0, 0)
		o.r.SetShardKeyPhysical(shards, col)
	case op >= 210 && op < 213:
		o.both((*Relation).Clear)
	case op >= 213 && op < 215:
		o.both((*Relation).ClearRetain)
	case op >= 215 && op < 220:
		// Incremental batch: a run of consecutive keys (the dense-id
		// pattern incremental fact loads produce).
		for j := Value(0); j < 8; j++ {
			tp := []Value{Value(arg) + j, Value(op)}
			o.both(func(x *Relation) { x.Insert(tp) })
		}
	default:
		tp := []Value{Value(op), Value(arg)}
		o.both(func(x *Relation) { x.Insert(tp) })
	}
}

// FuzzShardRouting drives a physical relation through arbitrary insert /
// clear / delete / repartition sequences decoded from the fuzz input and
// checks the partition-exactness property and the read surface
// (checkShardReads) after every operation. Run the
// short-fuzz CI job with:
// go test -fuzz=FuzzShardRouting -fuzztime=20s ./internal/storage/
func FuzzShardRouting(f *testing.F) {
	f.Add(uint8(4), uint8(0), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(2), uint8(1), []byte{0, 0, 0, 1, 255, 9, 200, 1, 1, 2})
	f.Add(uint8(7), uint8(0), []byte{220, 5, 5, 200, 0, 5, 6, 5, 7, 207, 33, 9, 9})
	f.Add(uint8(16), uint8(1), []byte{9, 9, 9, 9, 9, 9, 210, 2, 3, 4, 213, 0, 216, 40})
	f.Fuzz(func(t *testing.T, nshards, keyCol uint8, data []byte) {
		shards := 2 + int(nshards)%15
		col := int(keyCol) % 2
		o := shardOps{r: NewRelation("fuzz", 2), twin: NewRelation("twin", 2)}
		o.r.SetShardKeyPhysical(shards, col)
		o.both(func(x *Relation) { x.BuildIndex(0) }) // indexes and shards must stay consistent together
		for i := 0; i+1 < len(data); i += 2 {
			o.apply(t, data[i], data[i+1])
			checkShardPartition(t, o.r, o.twin)
			checkShardReads(t, o.r, o.twin, data[i], data[i+1], nshards^data[i+1])
		}
	})
}

// TestShardRoutingProperty is the deterministic slice of the fuzz property:
// pseudo-random operation sequences over several starting layouts.
func TestShardRoutingProperty(t *testing.T) {
	for _, cfg := range []struct{ shards, col int }{{2, 0}, {5, 1}, {16, 0}} {
		o := shardOps{r: NewRelation("prop", 2), twin: NewRelation("twin", 2)}
		o.r.SetShardKeyPhysical(cfg.shards, cfg.col)
		rng := uint64(0x9e3779b97f4a7c15)
		next := func() byte {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return byte(rng)
		}
		for step := 0; step < 400; step++ {
			op := next()
			if op >= 200 && next()%4 != 0 {
				op %= 200 // keep inserts the common case
			}
			o.apply(t, op, next())
			checkShardPartition(t, o.r, o.twin)
			checkShardReads(t, o.r, o.twin, next(), next(), next())
		}
	}
}
