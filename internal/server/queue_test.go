package server

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/testutil"
)

func learnSpec(target string) Spec {
	s := Spec{Kind: KindLearn, Target: target}
	s.Config.Learner = "ttt"
	s.Config.Seed = 13
	s.Config.Workers = 1
	return s
}

// TestFSBackendRoundTrip: records append and load back in order, across
// a close/reopen.
func TestFSBackendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenFSBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := learnSpec("tcp")
	recs := []Record{
		{ID: "j0001", State: StatePending, Spec: &spec, At: time.Now()},
		{ID: "j0001", State: StateRunning, At: time.Now()},
		{ID: "j0001", State: StateDone, Summary: &Summary{States: 4}, At: time.Now()},
	}
	for _, r := range recs {
		if err := b.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	b, err = OpenFSBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got, err := b.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("loaded %d records, want 3", len(got))
	}
	for i, r := range got {
		if r.ID != "j0001" || r.State != recs[i].State {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	if got[0].Spec == nil || got[0].Spec.Target != "tcp" {
		t.Fatalf("birth record lost its spec: %+v", got[0])
	}
	if got[2].Summary == nil || got[2].Summary.States != 4 {
		t.Fatalf("terminal record lost its summary: %+v", got[2])
	}
}

// TestFSBackendSurvivesTruncatedTail: a daemon killed mid-append leaves a
// partial line; recovery keeps the complete prefix and appends continue.
func TestFSBackendSurvivesTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenFSBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := learnSpec("tcp")
	if err := b.Append(Record{ID: "j0001", State: StatePending, Spec: &spec, At: time.Now()}); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash: a half-written record at the tail.
	path := filepath.Join(dir, "queue.log")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"j0002","state":"run`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	b, err = OpenFSBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got, err := b.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != "j0001" {
		t.Fatalf("recovered %+v, want the single complete record", got)
	}
	// The journal keeps working after recovery.
	if err := b.Append(Record{ID: "j0002", State: StatePending, Spec: &spec, At: time.Now()}); err != nil {
		t.Fatal(err)
	}
	got, err = b.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].ID != "j0002" {
		t.Fatalf("post-recovery append lost: %+v", got)
	}
}

// TestFSBackendTornWriteAtEveryOffset cuts a journal at every byte:
// OpenFSBackend and Load must recover exactly the records complete before
// the cut, and a fresh append must read back after a reopen.
func TestFSBackendTornWriteAtEveryOffset(t *testing.T) {
	full, cutDir := t.TempDir(), t.TempDir()
	at := time.Unix(1700000000, 0).UTC()
	spec := learnSpec("tcp")
	recs := []Record{
		{ID: "j0001", State: StatePending, Spec: &spec, At: at},
		{ID: "j0001", State: StateRunning, At: at},
		{ID: "j0002", State: StatePending, Spec: &spec, At: at},
		{ID: "j0001", State: StateDone, Summary: &Summary{States: 4}, At: at},
		{ID: "j0002", State: StateFailed, Error: `bad "target"`, At: at},
	}
	b, err := OpenFSBackend(full)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := b.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(full, "queue.log"))
	if err != nil {
		t.Fatal(err)
	}
	load := func(cut int) ([]Record, *FSBackend) {
		t.Helper()
		b, err := OpenFSBackend(cutDir)
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		got, err := b.Load()
		if err != nil {
			t.Fatalf("cut %d: load: %v", cut, err)
		}
		return got, b
	}
	fresh := Record{ID: "j0003", State: StatePending, Spec: &spec, At: at}
	testutil.TornWrites(t, data, len(recs), filepath.Join(cutDir, "queue.log"), func(cut, complete int) {
		got, b := load(cut)
		if len(got) != complete || (complete > 0 && !reflect.DeepEqual(got, recs[:complete])) {
			t.Fatalf("cut %d: loaded %+v, want the %d complete records", cut, got, complete)
		}
		if err := b.Append(fresh); err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		got, b = load(cut)
		b.Close()
		if want := append(append([]Record(nil), recs[:complete]...), fresh); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: after an append and a reopen, loaded %+v, want %+v", cut, got, want)
		}
	})
}

// TestFSBackendResetsForeignJournal: an unrecognized header means some
// other tool's file — start fresh rather than misread it.
func TestFSBackendResetsForeignJournal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "queue.log")
	if err := os.WriteFile(path, []byte("not a queue journal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := OpenFSBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got, err := b.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("foreign journal yielded records: %+v", got)
	}
}
