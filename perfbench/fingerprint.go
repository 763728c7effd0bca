package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// streamDigestLen is how many leading requests the stream digest covers.
const streamDigestLen = 48

// streamDigest fingerprints a workload's request stream for a seed: the
// method, target and body of its first requests. The same seed must
// always give the same digest.
func streamDigest(w *workload, seed uint64) string {
	h := sha256.New()
	for i := 0; i < streamDigestLen; i++ {
		r := w.gen(seed, i)
		fmt.Fprintf(h, "%s %s %d\n", r.method, r.target, len(r.body))
		h.Write(r.body)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// commitOf returns the git commit of root, or "unknown" outside a git
// checkout; treeDigest identifies the code either way.
func commitOf(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// treeDigest hashes every Go source and module file under root, skipping
// build output, so two runs of identical code share a digest.
func treeDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries do not identify the code
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// copyDir copies the regular files of the flat directory src into dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
