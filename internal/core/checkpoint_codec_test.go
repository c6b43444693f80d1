package core

import (
	"bytes"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"carac/internal/wire"
)

// writtenCheckpoint serves a symbol-valued TC program from a fresh checkpoint
// directory, derives its first epoch, and returns the directory and the
// checkpoint's bytes.
func writtenCheckpoint(t testing.TB) (dir string, b []byte) {
	dir = t.TempDir()
	srv, err := symbolTC().Serve(Options{Indexed: true, Materialize: true, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Query(); err != nil {
		t.Fatal(err)
	}
	if b, err = os.ReadFile(filepath.Join(dir, checkpointName)); err != nil {
		t.Fatal(err)
	}
	return dir, b
}

func symbolTC() *Program {
	p := NewProgram()
	edge, tc := p.Relation("edge", 2), p.Relation("tc", 2)
	x, y, z := NewVar("x"), NewVar("y"), NewVar("z")
	p.MustRule(tc.A(x, y), edge.A(x, y))
	p.MustRule(tc.A(x, y), tc.A(x, z), edge.A(z, y))
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "b"}} {
		edge.MustFact(e[0], e[1])
	}
	return p
}

// TestCheckpointVersionAndSymbolMisses: a checkpoint of another format
// version is a "version" miss, and one whose rows name a symbol the Program
// never interned is a "symbols" miss; both derive cold.
func TestCheckpointVersionAndSymbolMisses(t *testing.T) {
	dir, b := writtenCheckpoint(t)
	c, miss := decodeCheckpoint(b)
	if miss != "" || !bytes.Equal(c.append(nil), b) {
		t.Fatalf("the written checkpoint decodes as a %q miss", miss)
	}
	renamed := *c
	renamed.symbols = append([]string{"never interned"}, c.symbols[1:]...)
	for _, tc := range []struct {
		miss string
		file []byte
	}{
		{"version", func() []byte {
			v := bytes.Clone(b[:len(b)-4])
			v[4]++ // the format version
			return wire.AppendU32(v, crc32.ChecksumIEEE(v))
		}()},
		{"symbols", renamed.append(nil)},
	} {
		if err := os.WriteFile(filepath.Join(dir, checkpointName), tc.file, 0o644); err != nil {
			t.Fatal(err)
		}
		srv, err := symbolTC().Serve(Options{Indexed: true, Materialize: true, CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if st := srv.Stats(); st.Restored != 0 || st.RestoreMiss != tc.miss {
			t.Fatalf("%+v, want a %q miss", st, tc.miss)
		}
	}
}

// FuzzCheckpoint: the decoder never panics on arbitrary bytes, sealed with a
// valid CRC or not, and a file it accepts re-encodes byte for byte.
func FuzzCheckpoint(f *testing.F) {
	_, b := writtenCheckpoint(f)
	f.Add(b)
	f.Add(b[:len(b)-4])
	f.Add([]byte("CRCK"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, wire.AppendU32(bytes.Clone(data), crc32.ChecksumIEEE(data))} {
			c, miss := decodeCheckpoint(in)
			if miss != "" {
				continue
			}
			if out := c.append(nil); !bytes.Equal(out, in) {
				t.Fatalf("accepted %d bytes re-encode to %d different ones", len(in), len(out))
			}
		}
	})
}
