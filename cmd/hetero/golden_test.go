package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden artifact files")

// goldenCases are the fully deterministic artifacts whose exact text is
// pinned under testdata/. Randomized studies (variance, predictors, …) are
// excluded — their seeds are fixed but their renders carry CI intervals
// whose wording may legitimately evolve.
var goldenCases = []struct {
	name string
	args []string
}{
	{"table2", []string{"table2"}},
	{"table3", []string{"table3"}},
	{"table4", []string{"table4"}},
	{"fig1", []string{"fig1"}},
	{"fig4", []string{"fig4"}},
	{"counterexample", []string{"counterexample"}},
	{"protocols", []string{"protocols", "-profile", "1,0.6,0.35,0.2", "-L", "1000"}},
	{"sensitivity", []string{"sensitivity", "-profile", "1,0.5,0.25"}},
	{"hecr", []string{"hecr", "-profile", "1,0.5,0.25"}},
}

func TestGoldenArtifacts(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			var b strings.Builder
			if err := run(tc.args, &b); err != nil {
				t.Fatal(err)
			}
			got := b.String()
			path := filepath.Join("testdata", tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run `go test ./cmd/hetero -run Golden -update`): %v", err)
			}
			if got != string(want) {
				t.Fatalf("artifact %s drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", tc.name, got, want)
			}
		})
	}
}

// TestAllArtifacts pins the committed all_artifacts.txt to what `hetero
// all` prints: every study runs on fixed seeds, so the file is exactly
// reproducible. Regenerate it with `go test ./cmd/hetero -run
// AllArtifacts -update`.
func TestAllArtifacts(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"all"}, &b); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "..", "all_artifacts.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("all_artifacts.txt drifted from `hetero all` at line %d (run `go test ./cmd/hetero -run AllArtifacts -update`):\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}
