package faasload

import (
	"testing"
	"time"

	"repro/internal/dist"
)

func TestBuildShape(t *testing.T) {
	w := DefaultSpec(200, 1).Build()
	if len(w.Functions) != 200 {
		t.Fatalf("functions = %d", len(w.Functions))
	}
	names := map[string]bool{}
	for _, f := range w.Functions {
		if names[f.Action.Name] {
			t.Fatalf("duplicate name %s", f.Action.Name)
		}
		names[f.Action.Name] = true
		if f.Weight <= 0 {
			t.Fatalf("non-positive weight for %s", f.Action.Name)
		}
		if f.Action.MemoryMB < 128 || f.Action.MemoryMB > 2048 {
			t.Fatalf("memory %d out of range", f.Action.MemoryMB)
		}
	}
}

// TestAzureCalibration checks the [2] quantiles: ≈50% of functions have
// medians under 3 s, ≈90% under a minute.
func TestAzureCalibration(t *testing.T) {
	w := DefaultSpec(4000, 2).Build()
	under3, under60 := 0, 0
	for _, f := range w.Functions {
		if f.Median <= 3*time.Second {
			under3++
		}
		if f.Median <= time.Minute {
			under60++
		}
	}
	n := float64(len(w.Functions))
	if f := float64(under3) / n; f < 0.45 || f > 0.56 {
		t.Errorf("share under 3s = %.3f, want ≈0.50", f)
	}
	if f := float64(under60) / n; f < 0.85 || f > 0.95 {
		t.Errorf("share under 60s = %.3f, want ≈0.90", f)
	}
}

func TestClassification(t *testing.T) {
	cases := map[time.Duration]Class{
		time.Second:      ClassShort,
		3 * time.Second:  ClassShort,
		10 * time.Second: ClassMedium,
		time.Minute:      ClassLong,
	}
	for d, want := range cases {
		if got := Classify(d); got != want {
			t.Errorf("Classify(%v) = %v, want %v", d, got, want)
		}
	}
}

func TestLongFunctionsNotInterruptible(t *testing.T) {
	w := DefaultSpec(2000, 3).Build()
	for _, f := range w.Functions {
		if f.Class == ClassLong && f.Action.Interruptible {
			t.Fatalf("long function %s is interruptible", f.Action.Name)
		}
		if f.Class == ClassShort && !f.Action.Interruptible {
			t.Fatalf("short function %s is not interruptible", f.Action.Name)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	w := DefaultSpec(100, 4).Build()
	weights := w.Weights()
	var top10, total float64
	for i, wt := range weights {
		total += wt
		if i < 10 {
			top10 += wt
		}
	}
	if share := top10 / total; share < 0.6 {
		t.Errorf("top-10 weight share = %.3f, want heavy skew", share)
	}
	// Weights strictly decreasing with rank.
	for i := 1; i < len(weights); i++ {
		if weights[i] >= weights[i-1] {
			t.Fatal("weights not decreasing with rank")
		}
	}
}

func TestExecModelRespectsCap(t *testing.T) {
	spec := DefaultSpec(50, 5)
	spec.MaxExec = 10 * time.Second
	w := spec.Build()
	r := dist.NewRand(6)
	for _, f := range w.Functions {
		for i := 0; i < 50; i++ {
			if d := f.Action.Exec(r); d > 10*time.Second {
				t.Fatalf("%s exec %v above cap", f.Action.Name, d)
			}
		}
	}
}

func TestClassOfAndShares(t *testing.T) {
	w := DefaultSpec(500, 7).Build()
	first := w.Functions[0]
	if got := w.ClassOf(first.Action.Name); got != first.Class {
		t.Errorf("ClassOf = %v, want %v", got, first.Class)
	}
	if w.ClassOf("nope") != "" {
		t.Error("unknown name should map to empty class")
	}
}

func TestDeterminism(t *testing.T) {
	a := DefaultSpec(100, 42).Build()
	b := DefaultSpec(100, 42).Build()
	for i := range a.Functions {
		if a.Functions[i].Median != b.Functions[i].Median ||
			a.Functions[i].Action.Name != b.Functions[i].Action.Name {
			t.Fatal("same seed produced different workloads")
		}
	}
}

func TestNamesAligned(t *testing.T) {
	w := DefaultSpec(10, 8).Build()
	names := w.Names()
	for i, f := range w.Functions {
		if names[i] != f.Action.Name {
			t.Fatal("names misaligned")
		}
	}
}
