package testutil

import (
	"bytes"
	"os"
	"testing"
)

// TornWrites is the every-byte torn-write harness of the line logs. data
// is a complete log: a header line, then records record lines. For every
// cut from 0 to len(data) it writes data[:cut] to path, as a writer killed
// mid-append leaves it, and calls check with the cut and the number of
// record lines wholly before it, which the log's open path must recover.
func TornWrites(tb testing.TB, data []byte, records int, path string, check func(cut, complete int)) {
	tb.Helper()
	if bytes.Count(data, []byte("\n")) != 1+records || !bytes.HasSuffix(data, []byte("\n")) {
		tb.Fatalf("log of %d bytes is not a header and %d newline-terminated records", len(data), records)
	}
	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			tb.Fatal(err)
		}
		check(cut, max(bytes.Count(data[:cut], []byte("\n"))-1, 0))
	}
}
