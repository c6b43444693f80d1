//go:build !scratchpoison

package storage

// poisonScratch is off outside the scratchpoison build (scratch_poison.go).
const poisonScratch = false
