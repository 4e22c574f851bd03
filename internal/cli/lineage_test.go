package cli

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/testutil"
)

func lineageRecord(cell string, version int) LineageRecord {
	return LineageRecord{
		Cell: cell, ModelVersion: version, LogVersion: int64(version * 10),
		Model: cell + ".v1.json", LiveQueries: 7, At: time.Unix(1700000000, 0).UTC(),
	}
}

// TestLineageRoundTrip: appended records survive a close/reopen and
// Latest returns the newest record per cell.
func TestLineageRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mon", "lineage.jsonl")
	lin, err := OpenLineage(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []LineageRecord{
		lineageRecord("tcp", 1), lineageRecord("google", 1), lineageRecord("tcp", 2),
	} {
		if err := lin.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := lin.Close(); err != nil {
		t.Fatal(err)
	}

	lin, err = OpenLineage(path)
	if err != nil {
		t.Fatal(err)
	}
	defer lin.Close()
	if got := lin.Records(); len(got) != 3 {
		t.Fatalf("recovered %d records, want 3", len(got))
	}
	latest, ok := lin.Latest("tcp")
	if !ok || latest.ModelVersion != 2 {
		t.Fatalf("Latest(tcp) = %+v, %v; want version 2", latest, ok)
	}
	if _, ok := lin.Latest("quiche"); ok {
		t.Fatal("Latest(quiche) found a record in an unrelated journal")
	}
}

// TestLineageDiscardsCorruptTail mirrors the query store's crash
// contract: a journal whose tail was mangled mid-append recovers every
// complete record before the damage and keeps appending — for each of
// the ways a crash can mangle the tail.
func TestLineageDiscardsCorruptTail(t *testing.T) {
	for _, tc := range []struct {
		name string
		tail string
	}{
		{"truncated json", `{"cell":"tcp","model_ver`},
		{"garbage line", "\x00\x00not json at all\n"},
		{"valid json, wrong shape", `{"cell":"","model_version":0}` + "\n"},
		{"unterminated valid record", `{"cell":"tcp","model_version":3,"log_version":30,"at":"2023-11-14T22:13:20Z"}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "lineage.jsonl")
			lin, err := OpenLineage(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := lin.Append(lineageRecord("tcp", 1)); err != nil {
				t.Fatal(err)
			}
			if err := lin.Append(lineageRecord("tcp", 2)); err != nil {
				t.Fatal(err)
			}
			if err := lin.Close(); err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			f.WriteString(tc.tail)
			f.Close()

			lin, err = OpenLineage(path)
			if err != nil {
				t.Fatal(err)
			}
			recs := lin.Records()
			if len(recs) != 2 || recs[1].ModelVersion != 2 {
				t.Fatalf("recovered %+v, want the 2 intact records", recs)
			}
			// The journal stays appendable after the repair.
			if err := lin.Append(lineageRecord("tcp", 3)); err != nil {
				t.Fatal(err)
			}
			if err := lin.Close(); err != nil {
				t.Fatal(err)
			}
			lin, err = OpenLineage(path)
			if err != nil {
				t.Fatal(err)
			}
			defer lin.Close()
			if latest, _ := lin.Latest("tcp"); latest.ModelVersion != 3 {
				t.Fatalf("after repair+append, Latest = %+v, want version 3", latest)
			}
		})
	}
}

// TestLineageTornWriteAtEveryOffset cuts a journal at every byte:
// OpenLineage must recover exactly the records complete before the cut,
// and a fresh append must read back after a reopen.
func TestLineageTornWriteAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	recs := []LineageRecord{lineageRecord("tcp", 1), lineageRecord("google", 1), lineageRecord("tcp", 2)}
	recs[1].Drift, recs[1].Confirmed, recs[1].Witness = true, true, []string{"INITIAL(?,?)[CRYPTO]", `a"b`}
	full := filepath.Join(dir, "full.jsonl")
	lin, err := OpenLineage(full)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := lin.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := lin.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	open := func(cut int, path string) *Lineage {
		t.Helper()
		lin, err := OpenLineage(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		return lin
	}
	fresh := lineageRecord("quiche", 1)
	path := filepath.Join(dir, "cut.jsonl")
	testutil.TornWrites(t, data, len(recs), path, func(cut, complete int) {
		lin := open(cut, path)
		if got := lin.Records(); len(got) != complete || (complete > 0 && !reflect.DeepEqual(got, recs[:complete])) {
			t.Fatalf("cut %d: recovered %+v, want the %d complete records", cut, got, complete)
		}
		if err := lin.Append(fresh); err != nil {
			t.Fatal(err)
		}
		if err := lin.Close(); err != nil {
			t.Fatal(err)
		}
		lin = open(cut, path)
		defer lin.Close()
		if got, want := lin.Records(), append(append([]LineageRecord(nil), recs[:complete]...), fresh); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: after an append and a reopen, recovered %+v, want %+v", cut, got, want)
		}
	})
}

// TestLineageResetsForeignFile: a journal carrying a foreign format or a
// future version is reset empty rather than misread — same policy as the
// query store.
func TestLineageResetsForeignFile(t *testing.T) {
	for _, header := range []string{
		`{"format":"some-other-log","version":1}`,
		`{"format":"prognosisd-lineage","version":99}`,
		`not even json`,
	} {
		path := filepath.Join(t.TempDir(), "lineage.jsonl")
		content := header + "\n" + `{"cell":"tcp","model_version":1,"log_version":1,"at":"2023-11-14T22:13:20Z"}` + "\n"
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		lin, err := OpenLineage(path)
		if err != nil {
			t.Fatalf("header %q: %v", header, err)
		}
		if got := lin.Records(); len(got) != 0 {
			t.Fatalf("header %q: foreign journal yielded records %+v", header, got)
		}
		if err := lin.Append(lineageRecord("tcp", 1)); err != nil {
			t.Fatal(err)
		}
		lin.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), lineageFormat) || strings.Contains(string(data), "some-other-log") {
			t.Fatalf("header %q: reset journal still carries the foreign header:\n%s", header, data)
		}
	}
}
