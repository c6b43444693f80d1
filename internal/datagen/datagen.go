// Package datagen provides the seeded synthetic fact generators that stand
// in for the paper's proprietary datasets:
//
//   - CSPAGraph / CSDAGraph replace the Graspan httpd extractions (~1.5M
//     facts in the paper). The generators produce program-shaped edge sets —
//     assignment chains with cross-links and dereference maps — tuned so the
//     delta×derived cartesian product that §IV's worked example describes
//     actually dominates under the "unoptimized" atom orders.
//   - SListLib replaces the TASTy-extracted facts of the paper's 200-line
//     Scala linked-list library: Andersen-style points-to facts plus call
//     and inverse facts containing the serialize/deserialize round-trip the
//     Inverse-Functions analysis must find.
//
// All generators are deterministic in (size, seed).
package datagen

import "math/rand"

// Edge is one binary fact.
type Edge struct{ Src, Dst int32 }

// CSPAFacts is the input of the context-sensitive pointer analysis: Assign
// (value assignments between program variables) and Derefr (dereference
// edges from pointer variables to memory objects).
type CSPAFacts struct {
	Assign []Edge
	Derefr []Edge
	NumVar int32
}

// CSPAGraph generates a CSPA input of roughly n facts. The structure mixes
// assignment chains (long value-flow paths → many fixpoint iterations),
// cross-links between chains (fan-in/fan-out → quadratic VAlias growth), and
// a dereference layer mapping a subset of variables onto shared memory
// objects (→ MAlias join fan-out). The 60/40 Assign/Derefr split mirrors the
// shape of Graspan's httpd extraction.
func CSPAGraph(n int, seed int64) *CSPAFacts {
	rng := rand.New(rand.NewSource(seed))
	f := &CSPAFacts{}

	nAssign := n * 6 / 10
	nDeref := n - nAssign

	const chainLen = 24
	chains := nAssign * 3 / 4 / chainLen
	if chains < 1 {
		chains = 1
	}
	var next int32
	newVar := func() int32 { next++; return next - 1 }

	chainHeads := make([]int32, 0, chains)
	chainVars := make([]int32, 0, chains*chainLen)
	for c := 0; c < chains; c++ {
		prev := newVar()
		chainHeads = append(chainHeads, prev)
		chainVars = append(chainVars, prev)
		for i := 1; i < chainLen && len(f.Assign) < nAssign; i++ {
			v := newVar()
			// Assign(v1, v3) means v1 := v3 (value flows v3 -> v1).
			f.Assign = append(f.Assign, Edge{Src: v, Dst: prev})
			chainVars = append(chainVars, v)
			prev = v
		}
	}
	// Cross-links: connect random chain positions, creating fan-in hubs.
	for len(f.Assign) < nAssign {
		a := chainVars[rng.Intn(len(chainVars))]
		b := chainVars[rng.Intn(len(chainVars))]
		if a == b {
			continue
		}
		f.Assign = append(f.Assign, Edge{Src: a, Dst: b})
	}

	// Dereference layer: group variables onto shared memory objects so that
	// MAlias/VAlias fan out. A skewed pick (small object pool) concentrates
	// aliases the way heap allocation sites do.
	objects := int32(nDeref / 6)
	if objects < 2 {
		objects = 2
	}
	for i := 0; i < nDeref; i++ {
		v := chainVars[rng.Intn(len(chainVars))]
		o := next + rng.Int31n(objects)
		f.Derefr = append(f.Derefr, Edge{Src: v, Dst: o})
	}
	f.NumVar = next + objects
	return f
}

// CSDAFacts is the input of the context-sensitive dataflow analysis:
// NullEdge seeds (expressions that may be null) and FlowEdge transfer edges.
type CSDAFacts struct {
	NullEdge []Edge
	FlowEdge []Edge
}

// CSDAGraph generates a CSDA input of roughly n facts: a layered transfer
// graph (DAG with branching, so NullFlow grows by reachability) with ~10%
// null seeds at the sources. Only 2-way joins arise from this analysis,
// matching the paper's note that CSDA gains come purely from build/probe
// side selection.
func CSDAGraph(n int, seed int64) *CSDAFacts {
	rng := rand.New(rand.NewSource(seed))
	f := &CSDAFacts{}
	nNull := n / 10
	nFlow := n - nNull

	const width = 48
	layers := nFlow / width
	if layers < 2 {
		layers = 2
	}
	id := func(layer, pos int) int32 { return int32(layer*width + pos) }
	for len(f.FlowEdge) < nFlow {
		l := rng.Intn(layers - 1)
		a := id(l, rng.Intn(width))
		b := id(l+1, rng.Intn(width))
		f.FlowEdge = append(f.FlowEdge, Edge{Src: a, Dst: b})
	}
	for i := 0; i < nNull; i++ {
		// Null values originate near the sources and flow down the DAG.
		l := rng.Intn(2)
		f.NullEdge = append(f.NullEdge, Edge{Src: id(l, rng.Intn(width)), Dst: id(l+1, rng.Intn(width))})
	}
	return f
}

// PointsToFacts is the Andersen/Inverse-Functions input: alloc, move, load,
// store edges over variables and heap objects, call facts (ret = fn(arg)),
// and inverse(g, f) declarations.
type PointsToFacts struct {
	Alloc []Edge // var -> heap object
	Move  []Edge // dst := src
	Load  []Edge // dst = *src
	Store []Edge // *dst = src

	// Call (Ret = Fn(Arg)); Fn is a symbol id index into FnNames.
	Call    []Call
	Inverse [][2]string
	FnNames []string
}

// Call is ret = fn(arg).
type Call struct {
	Ret int32
	Fn  string
	Arg int32
}

// SListLib generates the facts of the paper's SListLib scenario: a linked
// list library with serialize/deserialize functions, an entry point that
// builds a list, operates on it, serializes, computes, deserializes, and
// returns — i.e. a round-trip of inverse functions over aliased values that
// the Inverse-Functions analysis must flag as wasted work. scale multiplies
// the library body (1 ≈ the paper's ~200-line program).
func SListLib(scale int, seed int64) *PointsToFacts {
	if scale < 1 {
		scale = 1
	}
	rng := rand.New(rand.NewSource(seed))
	f := &PointsToFacts{
		Inverse: [][2]string{{"deserialize", "serialize"}, {"from_json", "to_json"}},
		FnNames: []string{"serialize", "deserialize", "to_json", "from_json", "map", "fold", "cons", "head", "tail"},
	}
	var next int32
	newVar := func() int32 { next++; return next - 1 }
	var heap int32 = 1 << 20 // heap object ids live in their own range

	for s := 0; s < scale; s++ {
		// The list cells: a chain of cons allocations.
		cells := make([]int32, 0, 24)
		for i := 0; i < 24; i++ {
			v := newVar()
			f.Alloc = append(f.Alloc, Edge{Src: v, Dst: heap})
			heap++
			cells = append(cells, v)
			if i > 0 {
				// next pointers: *cells[i] = cells[i-1]
				f.Store = append(f.Store, Edge{Src: cells[i], Dst: cells[i-1]})
			}
		}
		// Library operations: moves and loads over the cells.
		for i := 0; i < 40; i++ {
			a := cells[rng.Intn(len(cells))]
			v := newVar()
			if i%2 == 0 {
				f.Move = append(f.Move, Edge{Src: v, Dst: a})
			} else {
				f.Load = append(f.Load, Edge{Src: v, Dst: a})
			}
		}
		// The entry point's round trip:
		//   list := cons(...)          (aliases the cells)
		//   blob := serialize(list)
		//   tmp  := blob               (some computation)
		//   list2 := deserialize(tmp)
		//   use(list2)
		list := newVar()
		f.Move = append(f.Move, Edge{Src: list, Dst: cells[len(cells)-1]})
		blob := newVar()
		f.Call = append(f.Call, Call{Ret: blob, Fn: "serialize", Arg: list})
		f.Alloc = append(f.Alloc, Edge{Src: blob, Dst: heap})
		heap++
		tmp := newVar()
		f.Move = append(f.Move, Edge{Src: tmp, Dst: blob})
		list2 := newVar()
		f.Call = append(f.Call, Call{Ret: list2, Fn: "deserialize", Arg: tmp})
		f.Move = append(f.Move, Edge{Src: list2, Dst: cells[len(cells)-1]}) // deserialized list aliases the original cells
		use := newVar()
		f.Move = append(f.Move, Edge{Src: use, Dst: list2}) // the result is consumed
		// A harmless non-inverse call pair for contrast.
		j := newVar()
		f.Call = append(f.Call, Call{Ret: j, Fn: "to_json", Arg: list})
		m := newVar()
		f.Call = append(f.Call, Call{Ret: m, Fn: "map", Arg: j})
	}
	return f
}
