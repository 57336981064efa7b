package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
	if code := run([]string{"-days", "seven"}, &out, &errb); code != 2 {
		t.Errorf("bad value: exit %d, want 2", code)
	}
}

func TestTraceErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-trace", filepath.Join(t.TempDir(), "missing.csv")}, &out, &errb); code != 1 {
		t.Errorf("missing trace: exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "trace:") {
		t.Errorf("stderr %q lacks the trace error prefix", errb.String())
	}

	bad := filepath.Join(t.TempDir(), "bad.csv")
	if err := os.WriteFile(bad, []byte("not,a,trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	errb.Reset()
	if code := run([]string{"-trace", bad}, &out, &errb); code != 1 {
		t.Errorf("malformed trace: exit %d, want 1", code)
	}

	// NaN parses as a float and passes a "<= 0" check; it must still
	// be an error naming the horizon, not a trace that panics the
	// coverage simulation.
	nan := filepath.Join(t.TempDir(), "nan.csv")
	if err := os.WriteFile(nan, []byte("#4,NaN\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	errb.Reset()
	if code := run([]string{"-trace", nan}, &out, &errb); code != 1 {
		t.Errorf("NaN horizon: exit %d, want 1", code)
	}
	if msg := errb.String(); !strings.Contains(msg, "trace:") || !strings.Contains(msg, "horizon") || strings.Contains(msg, "panic:") {
		t.Errorf("NaN horizon: stderr %q, want a trace error naming the horizon", msg)
	}
}

func TestSmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table I simulation (skipped under -short)")
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-nodes", "32", "-days", "1", "-seed", "3"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Table I") {
		t.Errorf("output lacks the Table I header:\n%s", out.String())
	}
}
