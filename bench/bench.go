// Package bench is the experiment harness that regenerates every table and
// figure of the forward-decay paper's evaluation (Section VIII) on the
// synthetic substrate: each experiment builds its workload with netgen,
// runs the competing methods (forward decay, undecayed, and the
// backward-decay baselines), and reports paper-style tables.
//
// CPU load is modelled as measured cost × offered rate: a method that
// spends c ns per packet at an offered rate of r packets/s would occupy
// c·r/10⁷ percent of one core; above 100% the system drops tuples, which
// the tables mark. Space figures are exact data-structure accounting.
// Absolute numbers differ from the paper's 2009-era Xeon, but the orderings
// and crossovers — which methods saturate, and where — are the
// reproduction targets (see EXPERIMENTS.md).
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"
)

// RunConfig scales the experiments. Scale 1 reproduces the full workloads;
// tests use small fractions.
type RunConfig struct {
	// Scale multiplies workload sizes (packet counts); 1.0 is the full run.
	Scale float64
	// Seed makes every experiment deterministic.
	Seed uint64
}

// packets returns n scaled by the config, with a floor to keep tiny scales
// meaningful.
func (c RunConfig) packets(n int) int {
	m := int(float64(n) * c.Scale)
	if m < 2000 {
		m = 2000
	}
	return m
}

// Table is one rendered result table (one per figure panel).
type Table struct {
	// ID is the experiment identifier, e.g. "fig2a".
	ID string
	// Title describes the experiment.
	Title string
	// Columns are the header cells.
	Columns []string
	// Rows are the data cells, already formatted.
	Rows [][]string
	// Notes are appended under the table.
	Notes []string
}

// Render writes the table in aligned plain text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Experiment is one registered, runnable experiment.
type Experiment struct {
	// ID is the figure identifier ("fig1", "fig2a", … "examples").
	ID string
	// Title summarizes the experiment.
	Title string
	// Run executes the experiment and returns its tables.
	Run func(cfg RunConfig) []Table
}

// registry holds all experiments, populated by init functions.
var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// Experiments returns all registered experiments sorted by ID.
func Experiments() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns the experiment with the given ID, or nil.
func ByID(id string) *Experiment {
	for i := range registry {
		if registry[i].ID == id {
			return &registry[i]
		}
	}
	return nil
}

// MeasureNsPerOp times fn over n operations and returns nanoseconds per
// operation. fn is the per-item work; setup cost must be excluded by the
// caller. A garbage collection runs before the timer starts (as testing.B
// does), so allocation debt from previous experiments does not bleed into
// this measurement.
func MeasureNsPerOp(n int, fn func(i int)) float64 {
	runtime.GC()
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// CPULoad converts a per-packet cost into percent of one core at the given
// offered rate.
func CPULoad(ratePktPerSec, nsPerPkt float64) float64 {
	return ratePktPerSec * nsPerPkt / 1e7
}

// fmtLoad renders a CPU load, flagging saturation (tuple drops) past 100%.
func fmtLoad(pct float64) string {
	if pct > 100 {
		return fmt.Sprintf("%.1f (drops)", pct)
	}
	return fmt.Sprintf("%.1f", pct)
}

// fmtBytes renders a byte count compactly.
func fmtBytes(b int) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// fmtRate renders a packet rate.
func fmtRate(r float64) string {
	if r >= 1000 {
		return fmt.Sprintf("%.0fk", r/1000)
	}
	return fmt.Sprintf("%.0f", r)
}
