package jsonlog

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/testutil"
)

const (
	testFormat  = "jsonlog-test"
	testVersion = 2
)

type record struct {
	N int    `json:"n"`
	S string `json:"s"`
}

// recoverRecords runs Recover on f, decoding every accepted line.
func recoverRecords(t *testing.T, f *os.File) (bool, []record) {
	t.Helper()
	var got []record
	ok, err := Recover(f, testFormat, testVersion, func(line []byte) bool {
		var r record
		if json.Unmarshal(line, &r) != nil {
			return false
		}
		got = append(got, r)
		return true
	})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return ok, got
}

func appendRecord(t *testing.T, f *os.File, r record) {
	t.Helper()
	line, err := Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(line); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverTornWriteAtEveryOffset writes a header and three records,
// then cuts a copy of the file at every byte offset: Recover must accept
// exactly the complete lines before the cut, truncate the file to them,
// and leave it ready for an append that a second Recover reads back.
func TestRecoverTornWriteAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.log")
	f, err := os.Create(full)
	if err != nil {
		t.Fatal(err)
	}
	if err := Reset(f, testFormat, testVersion); err != nil {
		t.Fatal(err)
	}
	records := []record{{1, "a"}, {22, "line with spaces"}, {333, `quote " and \ backslash`}}
	for _, r := range records {
		appendRecord(t, f, r)
	}
	f.Close()
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	headerEnd := bytes.IndexByte(data, '\n') + 1
	extra := record{4444, "appended"}
	path := filepath.Join(dir, "cut.log")
	testutil.TornWrites(t, data, len(records), path, func(cut, complete int) {
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		ok, got := recoverRecords(t, f)
		if ok != (cut >= headerEnd) {
			t.Fatalf("cut %d: headerOK = %v, want %v", cut, ok, cut >= headerEnd)
		}
		var want []record
		if ok {
			want = records[:complete]
			if !slices.Equal(got, want) {
				t.Fatalf("cut %d: accepted %v, want %v", cut, got, want)
			}
			// The valid prefix ends at the last newline before the cut.
			valid := int64(bytes.LastIndexByte(data[:cut], '\n') + 1)
			if st, _ := f.Stat(); st.Size() != valid {
				t.Fatalf("cut %d: file size %d after Recover, want %d", cut, st.Size(), valid)
			}
		} else if err := Reset(f, testFormat, testVersion); err != nil {
			t.Fatalf("cut %d: Reset: %v", cut, err)
		}

		appendRecord(t, f, extra)
		ok, got = recoverRecords(t, f)
		if want = append(slices.Clone(want), extra); !ok || !slices.Equal(got, want) {
			t.Fatalf("cut %d: after append, Recover = %v, %v; want true, %v", cut, ok, got, want)
		}
	})
}

// TestRecoverRejectsForeignHeaders checks that a foreign format and a
// future version both report headerOK=false and leave the file alone.
func TestRecoverRejectsForeignHeaders(t *testing.T) {
	cases := []struct {
		name    string
		format  string
		version int
	}{
		{"foreign format", "some-other-log", testVersion},
		{"future version", testFormat, testVersion + 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f, err := os.Create(filepath.Join(t.TempDir(), "log"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if err := Reset(f, c.format, c.version); err != nil {
				t.Fatal(err)
			}
			appendRecord(t, f, record{1, "a"})
			before, _ := f.Stat()
			ok, got := recoverRecords(t, f)
			if ok || len(got) != 0 {
				t.Fatalf("Recover = %v, %v; want false and no records", ok, got)
			}
			if after, _ := f.Stat(); after.Size() != before.Size() {
				t.Fatalf("Recover changed the file size from %d to %d", before.Size(), after.Size())
			}
		})
	}
}

// TestRecoverLinesLongerThanBuffer: lines past Recover's 64 KiB read
// buffer are assembled whole, between ordinary lines, and an unterminated
// long tail is still a crashed append that Recover truncates away.
func TestRecoverLinesLongerThanBuffer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := Reset(f, testFormat, testVersion); err != nil {
		t.Fatal(err)
	}
	want := []record{
		{1, strings.Repeat("x", 200<<10)},
		{2, "short"},
		{3, strings.Repeat("y", 64<<10)},
		{4, strings.Repeat("z", 130<<10)},
	}
	for _, r := range want {
		appendRecord(t, f, r)
	}
	good, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"n":5,"s":"` + strings.Repeat("w", 100<<10)); err != nil {
		t.Fatal(err)
	}
	ok, got := recoverRecords(t, f)
	if !ok || !slices.Equal(got, want) {
		t.Fatalf("Recover = %v with %d records, want true with the %d complete ones", ok, len(got), len(want))
	}
	if st, _ := f.Stat(); st.Size() != good {
		t.Fatalf("Recover kept %d bytes, want the %d of the complete lines", st.Size(), good)
	}
}
