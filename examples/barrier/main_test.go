package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestOutput runs the example and diffs its standard output against
// testdata/stdout.golden.
func TestOutput(t *testing.T) {
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	defer func() { os.Stdout = stdout }()
	main()
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("output differs from testdata/stdout.golden:\n got:\n%s\n want:\n%s", got, want)
	}
}
