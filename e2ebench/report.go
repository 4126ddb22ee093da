package e2ebench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"text/tabwriter"
)

// Metric is one measured value. Spread is the inter-quartile range of the
// laps behind it as a share of their median (0 when the value is not a
// median of laps); Samples is how many laps, rows or repetitions it rests on.
type Metric struct {
	Name     string  `json:"name"`
	Unit     string  `json:"unit"`
	Workload string  `json:"workload"`
	Value    float64 `json:"value"`
	Spread   float64 `json:"spread"`
	Samples  int     `json:"samples"`
}

// Result is one run of one workload.
type Result struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Metrics   []Metric `json:"metrics"`
	Notes     []string `json:"notes,omitempty"`
	// EmitClosures and LateShare qualify the emit_* metrics of an untraced
	// run: how many bucket closures the samples came from, and the share of
	// paced frames the generator sent more than 1 ms late.
	EmitClosures int     `json:"emit_closures,omitempty"`
	LateShare    float64 `json:"late_share,omitempty"`
}

func newResult(h *harness, c *check) *Result {
	return &Result{
		Workload: h.w.Name, Seed: h.o.Seed, Traced: h.o.Trace,
		Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Notes: c.notes,
	}
}

// add appends a measured metric; its unit comes from the metric's
// definition, so a name that is not part of the benchmark cannot be printed.
func (r *Result) add(name string, value, spread float64, samples int) {
	def, ok := metricDefs[name]
	if !ok {
		panic("e2ebench: metric " + name + " is not defined in metrics.go")
	}
	r.Metrics = append(r.Metrics, Metric{name, def.Unit, r.Workload, value, spread, samples})
}

// Metric returns the named metric's value (0 when absent).
func (r *Result) Metric(name string) float64 {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// DriverLine renders the result the way the benchmark driver reads it: one
// JSON object with exactly the keys correct, attempted, failed and metrics.
func (r *Result) DriverLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for _, m := range r.Metrics {
		out.Metrics[m.Name] = mv{m.Value, m.Unit}
	}
	b, _ := json.Marshal(out) // plain numbers, strings and bools cannot fail to marshal
	return string(b)
}

// Environment records where a set of numbers was measured.
type Environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	StateDir   string `json:"state_dir"`
	StateFS    string `json:"state_dir_fs"`
	Seed       uint64 `json:"seed"`
	GitCommit  string `json:"git_commit"`
}

// Document is the -out file: everything one invocation measured. It claims
// no gain, so it ends with "claim": null.
type Document struct {
	Environment Environment `json:"environment"`
	Results     []*Result   `json:"results"`
	Claim       *string     `json:"claim"`
}

// NewEnvironment describes the current process and its state directory.
func NewEnvironment(stateDir string, seed uint64) Environment {
	env := Environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", StateDir: stateDir, StateFS: "unknown", Seed: seed, GitCommit: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	var fs syscall.Statfs_t
	if os.MkdirAll(stateDir, 0o755) == nil && syscall.Statfs(stateDir, &fs) == nil {
		switch uint32(fs.Type) {
		case 0x01021994:
			env.StateFS = "tmpfs"
		case 0xEF53:
			env.StateFS = "ext"
		case 0x794c7630:
			env.StateFS = "overlay"
		default:
			env.StateFS = fmt.Sprintf("0x%x", uint32(fs.Type))
		}
	}
	// The driver's checkout is not a git repository; then the commit stays unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitCommit = strings.TrimSpace(string(out))
	}
	return env
}

// WriteTable prints the human-readable table of a set of results.
func WriteTable(w io.Writer, rs []*Result) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tvalue\tunit\tspread\tsamples")
	for _, r := range rs {
		for _, m := range r.Metrics {
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%.1f%%\t%d\n", m.Workload, m.Name, m.Value, m.Unit, 100*m.Spread, m.Samples)
		}
	}
	tw.Flush()
	for _, r := range rs {
		kind := "untraced"
		if r.Traced {
			kind = "traced"
		}
		fmt.Fprintf(w, "%s (%s, seed %d): correct=%v attempted=%d failed=%d", r.Workload, kind, r.Seed, r.Correct, r.Attempted, r.Failed)
		if !r.Traced {
			fmt.Fprintf(w, " emit_closures=%d late_share=%.4f", r.EmitClosures, r.LateShare)
		}
		fmt.Fprintln(w)
		for _, n := range r.Notes {
			fmt.Fprintf(w, "  ! %s\n", n)
		}
	}
}

// Compare sets two runs of the whole benchmark side by side: for every
// end-to-end metric of every workload present in both, the relative
// difference against the metric's own bound. It prints the table and
// reports whether every difference is within bounds — the noise floor,
// stated per metric.
func Compare(w io.Writer, a, b []*Result) bool {
	ok := true
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tfirst\tsecond\tdiff\tbound\t")
	for _, ra := range a {
		if ra.Traced {
			continue
		}
		for _, rb := range b {
			if rb.Traced || rb.Workload != ra.Workload {
				continue
			}
			for _, d := range EndToEnd {
				va, vb := ra.Metric(d.Name), rb.Metric(d.Name)
				diff := 0.0
				if va != 0 {
					diff = (vb - va) / va
				}
				verdict := ""
				if diff > d.Bound || diff < -d.Bound {
					verdict, ok = "OUTSIDE", false
				}
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%s\n", ra.Workload, d.Name, va, vb, 100*diff, 100*d.Bound, verdict)
			}
		}
	}
	tw.Flush()
	return ok
}
