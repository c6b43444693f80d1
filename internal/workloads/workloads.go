// Package workloads defines the paper's microbenchmarks (§VI-A): bounded
// Ackermann, Fibonacci, and prime-sieve programs expressed as recursive
// Datalog over arithmetic builtins. They are deliberately short-running —
// their role in the evaluation is to find the point where online
// optimization overhead stops paying off (§VI-B).
//
// Like the macro analyses, each program exists in a HandOptimized and an
// Unoptimized formulation (adversarial but legal atom orders).
package workloads

import (
	"carac/internal/analysis"
	"carac/internal/core"
)

// Fibonacci builds fib(i, v) for i in 0..n via
//
//	fib(0,0). fib(1,1).
//	fib(j,s) :- fib(i,a), j = i+2, j <= n, k = j-1, fib(k,b), s = a+b.
func Fibonacci(form analysis.Formulation, n int) *analysis.Built {
	p := core.NewProgram()
	fib := p.Relation("fib", 2)
	lim := p.Relation("lim", 1)
	i, j, k, a, b, s, m := core.NewVar("i"), core.NewVar("j"), core.NewVar("k"),
		core.NewVar("a"), core.NewVar("b"), core.NewVar("s"), core.NewVar("m")

	if form == analysis.HandOptimized {
		p.MustRule(fib.A(j, s),
			fib.A(i, a), core.Add(i, 2, j), lim.A(m), core.Le(j, m),
			core.Sub(j, 1, k), fib.A(k, b), core.Add(a, b, s))
	} else {
		// fib × fib cartesian product first, arithmetic filters last.
		p.MustRule(fib.A(j, s),
			fib.A(i, a), fib.A(k, b), core.Add(i, 1, k), core.Add(i, 2, j),
			lim.A(m), core.Le(j, m), core.Add(a, b, s))
	}
	fib.MustFact(0, 0)
	fib.MustFact(1, 1)
	lim.MustFact(n)
	return &analysis.Built{P: p, Output: fib}
}

// Ackermann builds the bounded Ackermann relation ack(m, n, r):
//
//	ack(0,n,r)   :- nat(n), r = n+1.
//	ack(m1,0,r)  :- ack(m,1,r), m1 = m+1, m1 <= maxm.
//	ack(m1,n1,r) :- ack(m1,n,k), m = m1-1, ack(m,k,r), n1 = n+1, n1 <= maxn.
//
// Values escaping the nat domain simply do not derive, keeping the fixpoint
// finite; maxm/maxn bound the explored arguments.
func Ackermann(form analysis.Formulation, maxM, maxN int) *analysis.Built {
	p := core.NewProgram()
	nat := p.Relation("nat", 1)
	maxm := p.Relation("maxm", 1)
	maxn := p.Relation("maxn", 1)
	ack := p.Relation("ack", 3)
	n, r, m, m1, n1, k, mm, nn := core.NewVar("n"), core.NewVar("r"), core.NewVar("m"),
		core.NewVar("m1"), core.NewVar("n1"), core.NewVar("k"), core.NewVar("mm"), core.NewVar("nn")

	p.MustRule(ack.A(0, n, r), nat.A(n), core.Add(n, 1, r))
	if form == analysis.HandOptimized {
		p.MustRule(ack.A(m1, 0, r),
			ack.A(m, 1, r), core.Add(m, 1, m1), maxm.A(mm), core.Le(m1, mm))
		p.MustRule(ack.A(m1, n1, r),
			ack.A(m1, n, k), core.Sub(m1, 1, m), ack.A(m, k, r),
			core.Add(n, 1, n1), maxn.A(nn), core.Le(n1, nn))
	} else {
		p.MustRule(ack.A(m1, 0, r),
			maxm.A(mm), ack.A(m, 1, r), core.Add(m, 1, m1), core.Le(m1, mm))
		// Scan the whole ack relation twice joining only on k, guards last.
		p.MustRule(ack.A(m1, n1, r),
			ack.A(m, k, r), ack.A(m1, n, k), core.Sub(m1, 1, m),
			maxn.A(nn), core.Add(n, 1, n1), core.Le(n1, nn))
	}
	for i := 0; i <= maxN*16+16; i++ {
		nat.MustFact(i)
	}
	maxm.MustFact(maxM)
	maxn.MustFact(maxN)
	return &analysis.Built{P: p, Output: ack}
}

// Primes builds the sieve via stratified negation:
//
//	composite(c) :- num(a), num(b), c = a*b, num(c).
//	prime(p)     :- num(p), !composite(p).
func Primes(form analysis.Formulation, n int) *analysis.Built {
	p := core.NewProgram()
	num := p.Relation("num", 1)
	comp := p.Relation("composite", 1)
	prime := p.Relation("prime", 1)
	a, b, c, q := core.NewVar("a"), core.NewVar("b"), core.NewVar("c"), core.NewVar("q")

	if form == analysis.HandOptimized {
		p.MustRule(comp.A(c), num.A(a), num.A(b), core.Mul(a, b, c), num.A(c))
	} else {
		// The full num³ cube filtered afterwards.
		p.MustRule(comp.A(c), num.A(a), num.A(b), num.A(c), core.Mul(a, b, c))
	}
	p.MustRule(prime.A(q), num.A(q), Not(comp.A(q)))
	for i := 2; i <= n; i++ {
		num.MustFact(i)
	}
	return &analysis.Built{P: p, Output: prime}
}

// TransitiveClosure builds the canonical single-recursive-rule workload —
// reachability over a pseudo-random graph:
//
//	tc(x,y) :- edge(x,y).
//	tc(x,y) :- tc(x,z), edge(z,y).
//
// One large rule dominates the fixpoint, so rule-granular parallelism cannot
// help it (the iteration serializes on the one rule); it is the shape the
// sharded fan-out exists for. The Unoptimized formulation leads with the
// non-delta edge scan (adversarial but legal).
func TransitiveClosure(form analysis.Formulation, nodes, edges, seed int) *analysis.Built {
	p := core.NewProgram()
	edge := p.Relation("edge", 2)
	tc := p.Relation("tc", 2)
	x, y, z := core.NewVar("x"), core.NewVar("y"), core.NewVar("z")

	p.MustRule(tc.A(x, y), edge.A(x, y))
	if form == analysis.HandOptimized {
		p.MustRule(tc.A(x, y), tc.A(x, z), edge.A(z, y))
	} else {
		p.MustRule(tc.A(x, y), edge.A(z, y), tc.A(x, z))
	}
	// Deterministic splitmix64 edge generator: self-loops dropped, duplicates
	// deduped by storage.
	s := uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := 0; i < edges; i++ {
		a := int(next() % uint64(nodes))
		b := int(next() % uint64(nodes))
		if a == b {
			continue
		}
		edge.MustFact(a, b)
	}
	return &analysis.Built{P: p, Output: tc}
}

// SkewedGraph builds the transitive-closure rules over a deliberately skewed
// graph: hubs form a small ring, every other node points a spoke at one hub
// (node i → hub i%hubs), and a power-law background of extra edges piles onto
// the low-numbered nodes. The derived tc facts concentrate on the hubs, so
// the δ rows joining through a hub cost far more than the others, and a task
// whose morsel holds more of them makes the iteration wait on a straggler.
// BenchmarkSkewedSpeedup measures the pooled fan-out's crossover on it.
func SkewedGraph(form analysis.Formulation, nodes, edges, hubs, seed int) *analysis.Built {
	p := core.NewProgram()
	edge := p.Relation("edge", 2)
	tc := p.Relation("tc", 2)
	x, y, z := core.NewVar("x"), core.NewVar("y"), core.NewVar("z")

	p.MustRule(tc.A(x, y), edge.A(x, y))
	if form == analysis.HandOptimized {
		p.MustRule(tc.A(x, y), tc.A(x, z), edge.A(z, y))
	} else {
		p.MustRule(tc.A(x, y), edge.A(z, y), tc.A(x, z))
	}
	if hubs < 1 {
		hubs = 1
	}
	if nodes <= hubs {
		nodes = hubs + 1
	}
	// Hub ring: keeps the hubs mutually reachable so the hubs' delta rows
	// renew every iteration instead of draining after one.
	for h := 0; h < hubs; h++ {
		edge.MustFact(h, (h+1)%hubs)
	}
	// Spokes: every non-hub node feeds one hub.
	for i := hubs; i < nodes; i++ {
		edge.MustFact(i, i%hubs)
	}
	// Power-law background: deterministic splitmix64 targets, right-shifted
	// by a random 0..7 bits so low-numbered nodes absorb most extra edges.
	s := uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := 0; i < edges; i++ {
		a := int(next() % uint64(nodes))
		b := int((next() % uint64(nodes)) >> (next() % 8))
		if a == b {
			continue
		}
		edge.MustFact(a, b)
	}
	return &analysis.Built{P: p, Output: tc}
}

// Not re-exports core.Not for readability inside this package.
func Not(a core.Atom) core.Atom { return core.Not(a) }
