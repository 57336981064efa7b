package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestFlagParity(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-h"}, &out, &errb); code != 0 {
		t.Errorf("-h: exit %d, want 0", code)
	}
	errb.Reset()
	if code := run([]string{"-nonsense"}, &out, &errb); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	errb.Reset()
	if code := run([]string{"-nodes", "many"}, &out, &errb); code != 2 {
		t.Errorf("bad value: exit %d, want 2", code)
	}
}

// TestRunRejectsOutOfRangeFlags: a cluster size or horizon the trace
// generator cannot build exits 2 with an error naming the flag — never
// a panic, an exhausted heap, or a -days that wraps a time.Duration
// around to a short trace.
func TestRunRejectsOutOfRangeFlags(t *testing.T) {
	cases := []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-nodes", "0"}, "-nodes"},
		{[]string{"-nodes", "99999999999"}, "-nodes"},
		{[]string{"-days", "0"}, "-days"},
		{[]string{"-days", "-1"}, "-days"},
		{[]string{"-days", "213504"}, "-days"},
	}
	for _, tc := range cases {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(errb.String(), tc.wantErr) || strings.Contains(errb.String(), "panic:") {
			t.Errorf("%v: stderr %q does not name %s (or reports a panic)", tc.args, errb.String(), tc.wantErr)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed results despite the error:\n%s", tc.args, out.String())
		}
	}
}

func TestRunAndTraceOut(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a full trace and job stream (skipped under -short)")
	}
	path := filepath.Join(t.TempDir(), "day.csv")
	var out, errb bytes.Buffer
	if code := run([]string{"-nodes", "32", "-days", "1", "-seed", "3", "-trace-out", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"Fig 1a", "Fig 2", "trace written to"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q", want)
		}
	}
	// The dumped trace must read back.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := workload.ReadCSV(f)
	if err != nil {
		t.Fatalf("dumped trace does not parse: %v", err)
	}
	if tr.Nodes != 32 {
		t.Errorf("dumped trace has %d nodes, want 32", tr.Nodes)
	}
}

func TestTraceOutError(t *testing.T) {
	var out, errb bytes.Buffer
	path := filepath.Join(t.TempDir(), "no-such-dir", "day.csv")
	if code := run([]string{"-nodes", "8", "-days", "1", "-trace-out", path}, &out, &errb); code != 1 {
		t.Errorf("unwritable -trace-out: exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "trace-out:") {
		t.Errorf("stderr %q lacks the trace-out error prefix", errb.String())
	}
}
