package stats

import (
	"fmt"
	"sort"

	"carac/internal/storage"
	"carac/internal/wire"
)

// SnapshotCodecVersion tags the layout below; bump on any change so stale
// cache files invalidate instead of misdecoding.
const SnapshotCodecVersion = 1

func appendKey2(b []byte, k [2]int32) []byte {
	b = wire.AppendI32(b, k[0])
	return wire.AppendI32(b, k[1])
}

func appendKey3(b []byte, k [3]int32) []byte {
	b = wire.AppendI32(b, k[0])
	b = wire.AppendI32(b, k[1])
	return wire.AppendI32(b, k[2])
}

func less3(a, b [3]int32) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	if a[1] != b[1] {
		return a[1] < b[1]
	}
	return a[2] < b[2]
}

// AppendSnapshot serializes s onto b for a serving checkpoint, the statistics
// its restored epoch carries. Map entries are emitted in sorted key order so
// identical snapshots produce identical bytes.
func AppendSnapshot(b []byte, s *Snapshot) []byte {
	b = wire.AppendU64(b, s.CapturedEpoch)

	ck := make([][2]int32, 0, len(s.cards))
	for k := range s.cards {
		ck = append(ck, k)
	}
	sort.Slice(ck, func(i, j int) bool {
		if ck[i][0] != ck[j][0] {
			return ck[i][0] < ck[j][0]
		}
		return ck[i][1] < ck[j][1]
	})
	b = wire.AppendInt(b, len(ck))
	for _, k := range ck {
		b = appendKey2(b, k)
		b = wire.AppendU64(b, uint64(s.cards[k]))
	}

	dk := make([][3]int32, 0, len(s.distinct))
	for k := range s.distinct {
		dk = append(dk, k)
	}
	sort.Slice(dk, func(i, j int) bool { return less3(dk[i], dk[j]) })
	b = wire.AppendInt(b, len(dk))
	for _, k := range dk {
		b = appendKey3(b, k)
		b = wire.AppendU64(b, uint64(int64(s.distinct[k])))
	}

	hk := make([][3]int32, 0, len(s.hists))
	for k := range s.hists {
		hk = append(hk, k)
	}
	sort.Slice(hk, func(i, j int) bool { return less3(hk[i], hk[j]) })
	b = wire.AppendInt(b, len(hk))
	for _, k := range hk {
		b = appendKey3(b, k)
		h := s.hists[k]
		for _, c := range h.Counts {
			b = wire.AppendU32(b, c)
		}
		b = wire.AppendU64(b, h.Total)
	}
	return b
}

// DecodeSnapshot reconstructs a Snapshot from AppendSnapshot output.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	r := wire.NewReader(b)
	s := &Snapshot{
		CapturedEpoch: r.U64(),
		cards:         make(map[[2]int32]int),
		distinct:      make(map[[3]int32]int),
		hists:         make(map[[3]int32]storage.Histogram),
	}
	n := r.Count(16)
	for i := 0; i < n; i++ {
		k := [2]int32{r.I32(), r.I32()}
		s.cards[k] = int(r.U64())
	}
	n = r.Count(20)
	for i := 0; i < n; i++ {
		k := [3]int32{r.I32(), r.I32(), r.I32()}
		s.distinct[k] = int(int64(r.U64()))
	}
	n = r.Count(12 + 4*storage.HistBuckets + 8)
	for i := 0; i < n; i++ {
		k := [3]int32{r.I32(), r.I32(), r.I32()}
		var h storage.Histogram
		for j := range h.Counts {
			h.Counts[j] = r.U32()
		}
		h.Total = r.U64()
		s.hists[k] = h
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("snapshot decode: %w", err)
	}
	return s, nil
}
