package stats

import (
	"testing"
	"time"
)

func TestGoodputShare(t *testing.T) {
	var w WorkCounters
	if got := w.GoodputShare(); got != 0 {
		t.Fatalf("empty share = %f, want 0", got)
	}
	w = WorkCounters{Goodput: 3 * time.Second, Wasted: time.Second, Lost: 0,
		CheckpointTime: time.Hour, RestoreTime: time.Hour} // overheads excluded
	if got := w.GoodputShare(); got != 0.75 {
		t.Fatalf("share = %f, want 0.75", got)
	}
}
