package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// tiny is a fast configuration for exercising every experiment in tests.
func tiny() RunConfig { return RunConfig{Scale: 0.02, Seed: 7} }

func TestRegistryComplete(t *testing.T) {
	want := []string{"ablations", "acc", "dist", "examples", "fig1", "fig2a",
		"fig2b", "fig2c", "fig2d", "fig3a", "fig3b", "fig4a", "fig4b", "fig4c",
		"fig4d", "fig5", "ooo"}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	if ByID("fig5") == nil || ByID("nope") != nil {
		t.Error("ByID lookup broken")
	}
}

// TestAllExperimentsRunAndRender executes every experiment at tiny scale
// and checks the tables are well-formed.
func TestAllExperimentsRunAndRender(t *testing.T) {
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables := e.Run(tiny())
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range tables {
				if len(tb.Columns) == 0 || len(tb.Rows) == 0 {
					t.Fatalf("table %s empty: %+v", tb.ID, tb)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Columns) {
						t.Fatalf("table %s: row width %d != %d columns", tb.ID, len(row), len(tb.Columns))
					}
				}
				var buf bytes.Buffer
				tb.Render(&buf)
				if !strings.Contains(buf.String(), tb.ID) {
					t.Errorf("render of %s lacks its ID", tb.ID)
				}
			}
		})
	}
}

// TestFig1RelativeDecayColumnsEqual verifies the fig1 table's two
// query-time columns coincide (Lemma 1), directly from the rendered rows.
func TestFig1RelativeDecayColumnsEqual(t *testing.T) {
	tables := ByID("fig1").Run(tiny())
	fig1 := tables[0]
	for _, row := range fig1.Rows {
		if row[1] != row[2] || row[1] != row[3] {
			t.Errorf("relative decay violated in row %v", row)
		}
	}
	// The backward contrast table must NOT have equal columns everywhere.
	contrast := tables[1]
	same := true
	for _, row := range contrast.Rows {
		if row[1] != row[2] {
			same = false
		}
	}
	if same {
		t.Error("backward decay table should show drifting weights")
	}
}

// TestExamplesGolden checks the worked-example experiment reproduces the
// paper's numbers exactly.
func TestExamplesGolden(t *testing.T) {
	tables := ByID("examples").Run(tiny())
	if got := tables[0].Rows[0][1]; got != "0.25" {
		t.Errorf("example1 first weight = %s", got)
	}
	wantW := []string{"0.25", "0.49", "0.09", "0.64", "0.16"}
	for i, row := range tables[0].Rows {
		if row[1] != wantW[i] {
			t.Errorf("example1 weight %d = %s, want %s", i, row[1], wantW[i])
		}
	}
	r2 := tables[1].Rows
	if r2[0][1] != "1.63" || r2[1][1] != "9.67" || r2[2][1] != "5.93" {
		t.Errorf("example2 = %v", r2)
	}
	// Example 3: exactly items 6, 8, 4 (decreasing decayed count).
	r3 := tables[2].Rows
	if len(r3) != 3 || r3[0][0] != "6" || r3[1][0] != "8" || r3[2][0] != "4" {
		t.Errorf("example3 = %v", r3)
	}
}

// TestFig2dSpaceGap verifies the headline space result: EH per-group state
// is at least two orders of magnitude above the 8-byte forward-decay state.
func TestFig2dSpaceGap(t *testing.T) {
	tb := ByID("fig2d").Run(tiny())[0]
	for _, row := range tb.Rows {
		if row[1] != "4 B" || row[2] != "8 B" {
			t.Errorf("constant columns wrong: %v", row)
		}
		if !strings.Contains(row[3], "KB") && !strings.Contains(row[3], "MB") {
			t.Errorf("EH state %q should be kilobytes+", row[3])
		}
	}
}

// TestFig4cSpaceOrdering verifies the sliding-window structure dwarfs the
// forward-decay summaries at every ε.
func TestFig4cSpaceOrdering(t *testing.T) {
	tb := ByID("fig4c").Run(tiny())[0]
	for _, row := range tb.Rows {
		sw := parseBytes(t, row[4])
		fwd := parseBytes(t, row[2])
		if sw < 10*fwd {
			t.Errorf("ε=%s: sliding window %s not ≫ forward %s", row[0], row[4], row[2])
		}
	}
}

func parseBytes(t *testing.T, s string) float64 {
	t.Helper()
	fields := strings.Fields(s)
	if len(fields) != 2 {
		t.Fatalf("bad byte string %q", s)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		t.Fatalf("bad byte string %q: %v", s, err)
	}
	switch fields[1] {
	case "B":
		return v
	case "KB":
		return v * 1024
	case "MB":
		return v * 1024 * 1024
	default:
		t.Fatalf("bad unit in %q", s)
		return 0
	}
}

// TestCPULoadModel sanity-checks the load arithmetic and formatting.
func TestCPULoadModel(t *testing.T) {
	if got := CPULoad(100_000, 1000); got != 10 {
		t.Errorf("100k pkt/s at 1µs/pkt = %v%%, want 10", got)
	}
	if got := fmtLoad(123); !strings.Contains(got, "drops") {
		t.Errorf("overload should flag drops: %q", got)
	}
	if fmtBytes(512) != "512 B" || fmtBytes(2048) != "2.0 KB" || fmtBytes(3<<20) != "3.0 MB" {
		t.Error("fmtBytes wrong")
	}
	if fmtRate(50_000) != "50k" || fmtRate(500) != "500" {
		t.Error("fmtRate wrong")
	}
}
