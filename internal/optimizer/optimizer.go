// Package optimizer implements Carac's runtime join-order optimization
// (paper §IV): given the live cardinalities of the concrete relation
// instances a subquery is about to join, it reorders the subquery's atoms so
// that cheap, highly constrained relations come first, avoiding intermediate
// cardinality blow-ups without any multi-iteration cardinality estimation.
//
// Three inputs feed the decision, exactly as in the paper: input relation
// cardinality (read at optimization time), index selection (indexes exist on
// every join/filter column), and a constant selectivity reduction factor per
// additional constraint, assuming condition independence.
//
// Two algorithms are provided: AlgoSort — the paper's lightweight stable
// sort of atoms by weight (Timsort in Carac; Go's stable sort here, which is
// likewise near-linear on presorted input, the property §VI-C relies on for
// combining offline and online sorting) — and AlgoGreedy, a bound-aware
// greedy variant used by the ablation benchmarks.
package optimizer

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"carac/internal/ast"
	"carac/internal/ir"
	"carac/internal/stats"
	"carac/internal/storage"
)

// Algo selects the reordering algorithm.
type Algo uint8

const (
	// AlgoSort is the paper's algorithm: stable-sort atoms by
	// cardinality × selectivity^constraints.
	AlgoSort Algo = iota
	// AlgoGreedy picks atoms one at a time, discounting constraints that are
	// bound by already-placed atoms and penalizing cartesian products; the
	// ablation comparator.
	AlgoGreedy
)

func (a Algo) String() string {
	if a == AlgoGreedy {
		return "greedy"
	}
	return "sort"
}

// Options tunes the optimizer.
type Options struct {
	// Selectivity is the constant reduction factor applied per additional
	// constraint (paper §IV). Must be in (0, 1].
	Selectivity float64
	// Algo selects sort (default, paper) or greedy ordering.
	Algo Algo
	// CrossPenalty multiplies the effective cost of a greedy candidate that
	// shares no bound variable (cartesian product). Ignored by AlgoSort.
	CrossPenalty float64
	// UseDistinctStats replaces the constant selectivity factor with
	// 1/distinct(column) wherever the stats source can observe distinct
	// counts (index cardinalities) — the "more detailed statistics"
	// alternative §IV mentions. Columns without observations fall back to
	// the constant factor.
	UseDistinctStats bool
	// UseHistograms replaces the constant join-key selectivity with the
	// measured histogram overlap of the two join columns wherever the stats
	// source supplies histograms (stats.HistogramSource): an atom whose
	// join-key values barely land in the partner column's populated buckets
	// is cheap to scan first regardless of its raw cardinality — the skew
	// and domain-disjointness signal a cardinality sort cannot see. Columns
	// without histograms fall back to the distinct/constant factor.
	UseHistograms bool
}

// DefaultOptions returns the paper-faithful configuration.
func DefaultOptions() Options {
	return Options{Selectivity: 0.5, Algo: AlgoSort, CrossPenalty: 1e6}
}

func (o Options) withDefaults() Options {
	if o.Selectivity <= 0 || o.Selectivity > 1 {
		o.Selectivity = 0.5
	}
	if o.CrossPenalty <= 1 {
		o.CrossPenalty = 1e6
	}
	return o
}

// Reorder mutates spj.Atoms into the chosen order, maintains spj.DeltaIdx,
// and reports whether the order changed. Guard atoms (builtins, negation)
// are re-placed at the earliest position where their bindings are available,
// so the resulting order is always legal; if no legal placement exists the
// original order is restored and an error returned (cannot happen for rules
// that passed ast.CheckRule).
func Reorder(spj *ir.SPJOp, st stats.Source, opts Options) (changed bool, err error) {
	opts = opts.withDefaults()
	orig := append([]ir.Atom(nil), spj.Atoms...)
	origDelta := spj.DeltaIdx

	var relIdx, guardIdx []int
	for i, a := range spj.Atoms {
		if a.Kind == ast.AtomRelation {
			relIdx = append(relIdx, i)
		} else {
			guardIdx = append(guardIdx, i)
		}
	}
	if len(relIdx) <= 1 && len(guardIdx) == 0 {
		return false, nil
	}

	var order []int
	switch opts.Algo {
	case AlgoGreedy:
		order = greedyOrder(spj, relIdx, st, opts)
	default:
		order = sortOrder(spj, relIdx, st, opts)
	}

	perm, ok := placeGuards(spj, order, guardIdx)
	if !ok {
		return false, fmt.Errorf("optimizer: no legal guard placement for subquery of rule %d", spj.RuleIdx)
	}

	same := true
	for i, p := range perm {
		if p != i {
			same = false
			break
		}
	}
	if same {
		return false, nil
	}
	newAtoms := make([]ir.Atom, len(perm))
	newDelta := -1
	for ni, oi := range perm {
		newAtoms[ni] = orig[oi]
		if oi == origDelta {
			newDelta = ni
		}
	}
	spj.Atoms = newAtoms
	spj.DeltaIdx = newDelta
	return true, nil
}

// Weight computes the sort key of one relational atom: live cardinality
// multiplied by a reduction per additional constraint, where a constraint is
// a constant term, an intra-atom repeated variable, or a variable shared
// with another atom of the body (a join key). The reduction is the constant
// Selectivity factor, or 1/distinct(column) when UseDistinctStats is set and
// the stats source observes the column; for join-key columns with
// UseHistograms set the reduction is the measured histogram overlap against
// the sharing atom's matching column (the estimated fraction of this atom's
// rows that can find any join partner) — the weight then approximates the
// atom's join-output contribution rather than its raw size.
func Weight(spj *ir.SPJOp, atomIdx int, st stats.Source, opts Options) float64 {
	opts = opts.withDefaults()
	a := spj.Atoms[atomIdx]
	card := float64(st.Card(a.Pred, a.Src))
	ds, haveDS := st.(stats.DistinctSource)
	useDS := opts.UseDistinctStats && haveDS
	hs, haveHS := st.(stats.HistogramSource)
	useHS := opts.UseHistograms && haveHS

	factor := func(col int) float64 {
		if useDS {
			if d := ds.Distinct(a.Pred, a.Src, col); d > 0 {
				return 1 / float64(d)
			}
		}
		return opts.Selectivity
	}
	w := card
	seen := map[ast.VarID]bool{}
	for col, t := range a.Terms {
		switch t.Kind {
		case ast.TermConst:
			w *= factor(col)
		case ast.TermVar:
			if seen[t.Var] {
				w *= factor(col) // repeated within the atom
				continue
			}
			seen[t.Var] = true
			pj, pcol, shared := sharedPartner(spj, atomIdx, t.Var)
			if !shared {
				continue
			}
			if useHS && pj >= 0 {
				if sel, ok := overlapSelectivity(hs, a, col, spj.Atoms[pj], pcol); ok {
					w *= sel
					continue
				}
			}
			w *= factor(col)
		}
	}
	return w
}

// sharedPartner reports whether variable v of atom atomIdx occurs in any
// other atom of the body, and identifies the first *relational* sharing atom
// and its matching column (part = -1 when v is shared only with guards) —
// the partner whose column histogram the overlap estimate reads.
func sharedPartner(spj *ir.SPJOp, atomIdx int, v ast.VarID) (part, partCol int, shared bool) {
	part = -1
	for j, b := range spj.Atoms {
		if j == atomIdx {
			continue
		}
		for c, t := range b.Terms {
			if t.Kind == ast.TermVar && t.Var == v {
				shared = true
				if part < 0 && b.Kind == ast.AtomRelation {
					part, partCol = j, c
				}
			}
		}
	}
	return
}

// overlapSelectivity reads both join columns' histograms and returns the
// fraction of atom a's rows whose join-key bucket is populated in the
// partner column — ok=false (fall back to the constant/distinct factor) when
// either histogram is unavailable or a's is empty (an empty input carries no
// distribution signal; its cardinality term already makes it cheapest).
func overlapSelectivity(hs stats.HistogramSource, a ir.Atom, col int, partner ir.Atom, partnerCol int) (float64, bool) {
	own, ok := hs.Histogram(a.Pred, a.Src, col)
	if !ok || own.Total == 0 {
		return 0, false
	}
	other, ok := hs.Histogram(partner.Pred, partner.Src, partnerCol)
	if !ok {
		return 0, false
	}
	return own.Overlap(other), true
}

// EstimateRows estimates the subquery's join-output cardinality as the
// product of its relational atoms' weights — each weight is the atom's
// cardinality discounted per join/filter constraint (under UseHistograms,
// join-key constraints use the measured overlap), so the product is the
// standard independence estimate of the join size. The interpreter records
// it on the access plan (Plan.EstRows) at build time; rebinds copy the plan
// struct, so the estimate travels with shared-plan reuse.
func EstimateRows(spj *ir.SPJOp, st stats.Source, opts Options) float64 {
	est := 1.0
	rel := false
	for i, a := range spj.Atoms {
		if a.Kind != ast.AtomRelation {
			continue
		}
		est *= Weight(spj, i, st, opts)
		rel = true
	}
	if !rel {
		return 0
	}
	return est
}

// sortOrder is the paper's algorithm: a stable sort of the relational atoms
// by weight. Stability preserves the input order among ties, so presorted
// (e.g. offline-optimized) inputs are kept and the sort is near-linear.
func sortOrder(spj *ir.SPJOp, relIdx []int, st stats.Source, opts Options) []int {
	order := append([]int(nil), relIdx...)
	weights := make(map[int]float64, len(relIdx))
	for _, i := range relIdx {
		weights[i] = Weight(spj, i, st, opts)
	}
	sort.SliceStable(order, func(x, y int) bool {
		return weights[order[x]] < weights[order[y]]
	})
	return order
}

// greedyOrder places relational atoms one at a time: each step picks the
// candidate with the lowest effective cost given the variables bound so far
// (constraints on bound variables earn the selectivity discount; candidates
// sharing no bound variable pay the cartesian-product penalty).
func greedyOrder(spj *ir.SPJOp, relIdx []int, st stats.Source, opts Options) []int {
	remaining := append([]int(nil), relIdx...)
	bound := map[ast.VarID]bool{}
	var order []int
	for len(remaining) > 0 {
		bestPos, bestCost := -1, math.Inf(1)
		for pos, i := range remaining {
			a := spj.Atoms[i]
			card := float64(st.Card(a.Pred, a.Src))
			k := 0
			shares := false
			seen := map[ast.VarID]bool{}
			for _, t := range a.Terms {
				switch t.Kind {
				case ast.TermConst:
					k++
				case ast.TermVar:
					if seen[t.Var] {
						k++
						continue
					}
					seen[t.Var] = true
					if bound[t.Var] {
						k++
						shares = true
					}
				}
			}
			cost := card * math.Pow(opts.Selectivity, float64(k))
			if len(order) > 0 && !shares {
				cost *= opts.CrossPenalty
			}
			if cost < bestCost {
				bestCost, bestPos = cost, pos
			}
		}
		i := remaining[bestPos]
		remaining = append(remaining[:bestPos], remaining[bestPos+1:]...)
		order = append(order, i)
		for _, t := range spj.Atoms[i].Terms {
			if t.Kind == ast.TermVar {
				bound[t.Var] = true
			}
		}
	}
	return order
}

// placeGuards interleaves guard atoms (builtins, negations) into the
// relational order at the earliest position where they are evaluable,
// returning the full permutation over the original atom indices.
func placeGuards(spj *ir.SPJOp, relOrder []int, guardIdx []int) ([]int, bool) {
	bound := make([]bool, spj.NumVars)
	pending := append([]int(nil), guardIdx...)
	var perm []int

	evaluable := func(i int) bool {
		a := spj.Atoms[i]
		if a.Kind == ast.AtomNegated {
			for _, t := range a.Terms {
				if t.Kind == ast.TermVar && !bound[t.Var] {
					return false
				}
			}
			return true
		}
		_, ok := ast.BuiltinBindable(ast.Atom{Kind: a.Kind, Builtin: a.Builtin, Terms: a.Terms},
			func(v ast.VarID) bool { return bound[v] })
		return ok
	}
	bindGuard := func(i int) {
		a := spj.Atoms[i]
		if a.Kind != ast.AtomBuiltin {
			return
		}
		outs, ok := ast.BuiltinBindable(ast.Atom{Kind: a.Kind, Builtin: a.Builtin, Terms: a.Terms},
			func(v ast.VarID) bool { return bound[v] })
		if !ok {
			return
		}
		for _, o := range outs {
			if t := a.Terms[o]; t.Kind == ast.TermVar {
				bound[t.Var] = true
			}
		}
	}
	flush := func() {
		for progress := true; progress; {
			progress = false
			for pi := 0; pi < len(pending); pi++ {
				if evaluable(pending[pi]) {
					bindGuard(pending[pi])
					perm = append(perm, pending[pi])
					pending = append(pending[:pi], pending[pi+1:]...)
					progress = true
					pi--
				}
			}
		}
	}

	flush() // const-only guards can run before any relation
	for _, ri := range relOrder {
		perm = append(perm, ri)
		for _, t := range spj.Atoms[ri].Terms {
			if t.Kind == ast.TermVar {
				bound[t.Var] = true
			}
		}
		flush()
	}
	if len(pending) > 0 {
		return nil, false
	}
	return perm, true
}

// Explain renders the order decision for diagnostics: atom names with their
// weights under stats.
func Explain(spj *ir.SPJOp, cat *storage.Catalog, st stats.Source, opts Options) string {
	var sb strings.Builder
	for i, a := range spj.Atoms {
		if i > 0 {
			sb.WriteString(", ")
		}
		if a.Kind == ast.AtomRelation {
			fmt.Fprintf(&sb, "%s%v(w=%.1f)", cat.Pred(a.Pred).Name, a.Src, Weight(spj, i, st, opts))
		} else if a.Kind == ast.AtomNegated {
			fmt.Fprintf(&sb, "!%s", cat.Pred(a.Pred).Name)
		} else {
			fmt.Fprintf(&sb, "%v", a.Builtin)
		}
	}
	return sb.String()
}
