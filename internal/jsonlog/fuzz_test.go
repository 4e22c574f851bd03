package jsonlog

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzRecover is the log-recovery fuzz gate registered in CI's fuzz-smoke.
// For arbitrary file bytes Recover must not panic. With a valid header it
// must keep a prefix of whole lines, accept exactly the records on them,
// and leave the file ready for an append that a second Recover reads back;
// without one it must leave the file untouched.
func FuzzRecover(f *testing.F) {
	var log bytes.Buffer
	for _, r := range []any{header{Format: testFormat, Version: testVersion}, record{1, "a"}, record{22, "b c"}} {
		line, err := Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		log.Write(line)
	}
	valid := log.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(append(slices.Clone(valid), "not json\n{\"n\":5}\n"...))
	f.Add(append(slices.Clone(valid), `{"n":5}`...))
	f.Add([]byte(`{"format":"some-other-log","version":1}` + "\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		file, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer file.Close()
		ok, got := recoverRecords(t, file)
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if !bytes.Equal(kept, data) {
				t.Fatalf("Recover without a valid header changed the file from %q to %q", data, kept)
			}
			return
		}
		if !bytes.HasPrefix(data, kept) || !bytes.HasSuffix(kept, []byte{'\n'}) {
			t.Fatalf("Recover kept %q, not a whole-line prefix of %q", kept, data)
		}
		if lines := bytes.Count(kept, []byte{'\n'}); lines != 1+len(got) {
			t.Fatalf("Recover kept %d lines for a header and %d records", lines, len(got))
		}
		extra := record{4444, "appended"}
		appendRecord(t, file, extra)
		ok, again := recoverRecords(t, file)
		if want := append(got, extra); !ok || !slices.Equal(again, want) {
			t.Fatalf("after append, Recover = %v, %v; want true, %v", ok, again, want)
		}
	})
}
