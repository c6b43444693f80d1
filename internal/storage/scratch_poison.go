//go:build scratchpoison

package storage

// poisonScratch makes every give fill its slab with the pool's sentinel, so a
// reader that keeps a view of delta memory past the Clear that gave it back
// derives wrong rows instead of silently right ones: go test -tags
// scratchpoison.
const poisonScratch = true
