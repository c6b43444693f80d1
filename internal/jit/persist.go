package jit

import (
	"errors"

	"carac/internal/plancache"
)

// UnitCodec is the persistence codec for the shared store's unit class.
// Compiled units are closures, so every unit — sequential or
// morsel-parameterized — persists as a recompile hint: the entry's existence
// and freshness vectors survive the restart, the artifact is rebuilt on
// first use. Failure markers are process-local and never persisted: the next
// process should retry the compile against its own world. Kept only
// because perf/'s plancache probes flush and load units through it.
func UnitCodec() plancache.EntryCodec {
	return plancache.EntryCodec{
		Encode: func(v any) ([]byte, bool) {
			switch cu := v.(type) {
			case *compiledUnit:
				return nil, !cu.failed
			case *compiledShardUnit:
				return nil, !cu.failed
			}
			return nil, false
		},
		// Only a file this codec did not write holds a unit artifact.
		Decode: func([]byte) (any, error) {
			return nil, errors.New("jit: compiled units persist as recompile hints, not artifacts")
		},
	}
}
