package bytecode

import (
	"reflect"
	"testing"

	"carac/internal/ast"
	"carac/internal/interp"
	"carac/internal/ir"
	"carac/internal/storage"
)

// fullProgram populates every constant pool, including an aggregation plan
// riding the chained interp codec, so the round trip covers the entire
// artifact a disk-warm restart must reconstruct.
func fullProgram() *Program {
	return &Program{
		Code: []Instr{
			{Op: OpInitScan, A: 0, B: 1, C: -1, D: 2},
			{Op: OpEmit, A: 0, B: 3},
		},
		NumVars:  4,
		NumLevel: 2,
		rels:     []relRef{{pred: 1, src: ir.SrcDelta}, {pred: 2, src: ir.SrcDerived}, {pred: 2, src: ir.SrcOld}},
		preds:    [][]storage.PredID{{1, 2}, nil, {7}},
		probes:   []probeSpec{{col: 1, key: interp.TmplElem{Var: 2}}},
		nprobes: []probeNSpec{{
			cols: []int{0, 2},
			keys: []interp.TmplElem{{Var: 0}, {IsConst: true, Const: 5}},
		}},
		tmpls: [][]interp.TmplElem{{{Var: 1}, {IsConst: true, Const: -3}}},
		builtins: []builtinSpec{{
			b:    ast.BLt,
			args: []interp.TmplElem{{Var: 0}, {IsConst: true, Const: 9}},
			out:  -1, outVar: 0,
		}},
		heads: []headSpec{{tmpl: []interp.TmplElem{{Var: 3}}, sink: 7}},
		plans: []*interp.Plan{
			{Sink: 7, NumVars: 2, Head: []ir.ProjElem{{Var: 0}},
				Agg: ast.AggSpec{Kind: ast.AggMin, HeadPos: 0, OverVar: 1}},
			{Sink: 8, NumVars: 1, Head: []ir.ProjElem{{IsConst: true, Const: 4}}},
		},
	}
}

func TestProgramCodecRoundTrip(t *testing.T) {
	want := fullProgram()
	got, err := DecodeProgram(EncodeProgram(want))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	// The sync.Pool is per-process scratch, zero on both sides, so whole-
	// struct DeepEqual compares exactly the serialized state.
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip diverged:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestProgramCodecTruncation: every proper prefix must error, never panic or
// silently yield a partial program.
func TestProgramCodecTruncation(t *testing.T) {
	b := EncodeProgram(fullProgram())
	for n := 0; n < len(b); n++ {
		if _, err := DecodeProgram(b[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(b))
		}
	}
}

// TestProgramCodecRejectsUnknownSource: a relation whose source byte names
// no ir.Source is a corrupt entry, not a read of Derived.
func TestProgramCodecRejectsUnknownSource(t *testing.T) {
	b := EncodeProgram(fullProgram())
	p := fullProgram()
	p.rels[0].src = ir.SrcOld
	at := -1 // the first relation's source byte: the one byte the two encodings differ in
	for i, c := range EncodeProgram(p) {
		if c != b[i] {
			at = i
			break
		}
	}
	b[at] = 0x7f
	if _, err := DecodeProgram(b); err == nil {
		t.Fatal("a program reading source 0x7f decoded without error")
	}
}
