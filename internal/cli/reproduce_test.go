package cli

import (
	"context"
	"os"
	"strings"
	"testing"
)

// TestReproduceGolden pins the paper table `prognosis reproduce` prints at
// its default flags: every learned model size, query count, trace-space
// count, issue verdict and synthesized register, byte for byte.
func TestReproduceGolden(t *testing.T) {
	rep, err := RunReproduce(context.Background(), ReproduceOptions{Seed: 13, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/reproduce.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := rep.Report()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("report differs from testdata/reproduce.txt at line %d:\n got: %q\nwant: %q\nfull report:\n%s", i+1, g, w, got)
		}
	}
}
