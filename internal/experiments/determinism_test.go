package experiments

import (
	"bytes"
	"testing"
)

// TestRunDayByteIdentical guards the package doc's "reproducible
// bit-for-bit" claim at full scale: two same-seed fib-day runs in one
// process must render byte-identical tables and per-minute series.
// This is what the dist.Split stream design buys — every component
// draws from its own forked stream, so no scheduling detail can
// reorder draws between runs — and it also catches state that leaks
// from one run into the next (pooled invocations, messages, events).
// The first run is the golden tests' shared day; the second is fresh.
func TestRunDayByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale experiment (skipped under -short for the CI race gate)")
	}
	a := sharedDays.get(FibDay(2)).out
	b := renderDay(FibDay(2)).out
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed RunDayCtx(FibDay(2)) runs rendered differently:\nfirst %d bytes vs second %d bytes",
			len(a), len(b))
	}
}
