package workload

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestTraceCSVRoundTripStrict pins the write→read contract joblen-opt
// and idle-analysis rely on, beyond the smoke round trip in
// workload_test.go: every period field must survive at the 1 ms
// resolution of the %.3f serialization over a full-day trace, and
// re-serializing the parsed trace must be byte-identical (so dump →
// share → re-dump workflows are stable).
func TestTraceCSVRoundTripStrict(t *testing.T) {
	tr := DefaultIdleProcess(64, 24*time.Hour, 7).Generate()
	if len(tr.Periods) == 0 {
		t.Fatal("generated trace has no periods")
	}

	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	if got.Nodes != tr.Nodes {
		t.Errorf("nodes %d, want %d", got.Nodes, tr.Nodes)
	}
	if d := got.Horizon - tr.Horizon; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("horizon %v, want %v", got.Horizon, tr.Horizon)
	}
	if len(got.Periods) != len(tr.Periods) {
		t.Fatalf("%d periods, want %d", len(got.Periods), len(tr.Periods))
	}
	// WriteCSV preserves order and ReadCSV re-sorts; the source trace
	// is already sorted, so periods align positionally. Compare by
	// rounding to the millisecond, matching %.3f's rounding.
	ms := func(d time.Duration) int64 { return int64(math.Round(float64(d) / float64(time.Millisecond))) }
	for i, p := range got.Periods {
		want := tr.Periods[i]
		if p.Node != want.Node || ms(p.Start) != ms(want.Start) ||
			ms(p.End) != ms(want.End) || ms(p.DeclaredEnd) != ms(want.DeclaredEnd) {
			t.Fatalf("period %d = %+v, want %+v (at ms resolution)", i, p, want)
		}
	}

	// A second write must be byte-identical: serialization is pure.
	var buf2 bytes.Buffer
	if err := got.WriteCSV(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("re-serializing the parsed trace changed the bytes")
	}
}

// TestReadCSVRejectsMalformed pins the strict-parsing contract: every
// malformed shape fails with an error quoting the offending line, and
// nothing is silently ignored.
func TestReadCSVRejectsMalformed(t *testing.T) {
	const header = "#4,86400.000\n"
	cases := []struct {
		name, in, wantErr string
	}{
		{"empty", "", "empty trace stream"},
		{"no-header", "0,1.0,2.0,2.0\n", "bad trace header"},
		{"header-fields", "#4\n", "want 2 fields"},
		{"header-nodes", "#four,86400\n", "node count"},
		{"header-zero-nodes", "#0,86400\n", "node count"},
		{"header-horizon", "#4,soon\n", "horizon"},
		{"header-many-nodes", "#99999999999,86400\n", "node count"},
		{"header-horizon-nan", "#4,NaN\n", `horizon "NaN": not a finite number`},
		{"header-horizon-inf", "#4,Inf\n", `horizon "Inf": not a finite number`},
		{"header-horizon-huge", "#4,1e300\n", `horizon "1e300": beyond`},
		{"header-horizon-overflow", "#4,1e10\n", `horizon "1e10": beyond`},
		{"header-horizon-zero", "#4,0\n", `horizon "0": not positive`},
		{"header-horizon-submillisecond", "#4,0.0001\n", `horizon "0.0001": not positive`},
		{"row-fields", header + "0,1.0,2.0\n", "want node,start_s"},
		{"row-extra-field", header + "0,1.0,2.0,2.0,9\n", "want node,start_s"},
		{"row-node", header + "zero,1.0,2.0,2.0\n", "node \"zero\""},
		{"row-node-range", header + "7,1.0,2.0,2.0\n", "outside cluster"},
		{"row-negative-node", header + "-1,1.0,2.0,2.0\n", "outside cluster"},
		{"row-number", header + "0,1.0,soon,2.0\n", "field \"soon\""},
		{"row-trailing-garbage", header + "0,1.0,2.0,2.0junk\n", "field \"2.0junk\""},
		{"row-start-nan", header + "0,NaN,2.0,2.0\n", `start_s field "NaN": not a finite number`},
		{"row-end-inf", header + "0,1.0,Inf,2.0\n", `end_s field "Inf": not a finite number`},
		{"row-declared-overflow", header + "0,1.0,2.0,1e10\n", `declared_end_s field "1e10": beyond`},
		{"row-start-huge", header + "0,-1e300,2.0,2.0\n", `start_s field "-1e300": beyond`},
		{"row-reversed-period", header + "0,50.0,10.0,10.0\n", "bad bounds"},
		{"row-empty-period", header + "0,10.0,10.0,10.0\n", "bad bounds"},
		{"row-past-horizon", header + "0,1.0,90000.0,90000.0\n", "bad bounds"},
		{"rows-overlap", header + "0,1.0,20.0,20.0\n0,10.0,30.0,30.0\n", "overlap"},
		{"row-declared-before-start", header + "0,10.0,20.0,-5.0\n", "declares end"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadCSV(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("ReadCSV(%q) succeeded, want error containing %q", tc.in, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q lacks %q", err, tc.wantErr)
			}
		})
	}
}

// FuzzReadCSV feeds arbitrary bytes to ReadCSV (the checked-in corpus
// under testdata/fuzz replays in every test run). Each input must come
// back as an error, or as a trace with a positive horizon that passes
// Validate and reads back from its own WriteCSV unchanged.
func FuzzReadCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		if tr.Horizon <= 0 {
			t.Fatalf("accepted a trace with horizon %v", tr.Horizon)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted a trace that fails Validate: %v", err)
		}
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("the trace's own CSV does not read back: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", back, tr)
		}
	})
}

// TestReadCSVSortsAndSkipsBlankLines documents the two permissive
// behaviors: blank lines are skipped, and out-of-order rows are
// re-sorted into the canonical start order.
func TestReadCSVSortsAndSkipsBlankLines(t *testing.T) {
	in := "#2,100.000\n\n1,50.000,60.000,60.000\n\n0,1.000,2.000,2.000\n"
	tr, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Periods) != 2 {
		t.Fatalf("%d periods, want 2", len(tr.Periods))
	}
	if tr.Periods[0].Node != 0 || tr.Periods[1].Node != 1 {
		t.Errorf("periods not re-sorted by start: %+v", tr.Periods)
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("parsed trace fails Validate: %v", err)
	}
}
