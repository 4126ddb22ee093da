// Command fde2e runs the end-to-end, layer-attributed benchmark.
//
//	go run -C e2ebench forwarddecay/e2ebench/cmd/fde2e -seed 1             # every workload, untraced then traced
//	go run -C e2ebench forwarddecay/e2ebench/cmd/fde2e -workload serve_io -trace 0
//	go run -C e2ebench forwarddecay/e2ebench/cmd/fde2e -repeat 2           # the noise floor: two sets must agree within bounds
//	go run -C e2ebench forwarddecay/e2ebench/cmd/fde2e -compare a.json b.json
//
// With one workload and -trace 0 or 1 the run happens in this process and
// the last line of standard output is the driver's JSON object. Anything
// larger runs each (workload, mode) pair in a child process of its own —
// a closed server.Service is never collected, so runs sharing a process
// would hand each other a dirtier heap — and prints one table at the end.
// The exit code is non-zero when any output was wrong, any guard was
// breached, or -repeat/-compare found a difference outside a metric's bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"

	"forwarddecay/e2ebench"
)

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Uint64("seed", 1, "tape seed")
	seconds := flag.Float64("seconds", e2ebench.DefaultSeconds, "measuring budget of one run")
	laps := flag.Int("laps", 0, "laps per phase (0 = as many fixed-work laps as fit -seconds)")
	trace := flag.String("trace", "both", "0 = untraced run (end-to-end metrics), 1 = traced run (per-layer metrics), both")
	stateDir := flag.String("state-dir", ".state", "directory for service state and sockets (tmpfs takes the disk out of the numbers)")
	out := flag.String("out", "", "write the JSON document here")
	traceOut := flag.String("trace-out", "", "write the traced runs' spans here as JSONL")
	repeat := flag.Int("repeat", 1, "run the whole set this many times and fail if end-to-end metrics differ by more than their bounds")
	compare := flag.Bool("compare", false, "compare two -out documents given as arguments instead of running")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two files"))
		}
		a, b := readDoc(flag.Arg(0)), readDoc(flag.Arg(1))
		if !e2ebench.Compare(os.Stdout, a.Results, b.Results) {
			os.Exit(1)
		}
		return
	}

	var ws []*e2ebench.Workload
	for _, w := range e2ebench.Workloads {
		if *workload == "all" || *workload == w.Name {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 {
		fatal(fmt.Errorf("no workload %q", *workload))
	}
	var modes []bool
	switch *trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		fatal(fmt.Errorf("-trace must be 0, 1 or both"))
	}
	if *traceOut != "" { // truncate once: every traced run appends
		if err := os.WriteFile(*traceOut, nil, 0o644); err != nil {
			fatal(err)
		}
	}

	doc := e2ebench.Document{Environment: e2ebench.NewEnvironment(*stateDir, *seed)}
	if len(ws)*len(modes)**repeat == 1 {
		r, err := e2ebench.Run(ws[0], e2ebench.Options{
			Seed: *seed, Seconds: *seconds, Laps: *laps, Trace: modes[0], StateDir: *stateDir, TraceOut: *traceOut,
		})
		if err != nil {
			fatal(fmt.Errorf("%s: %w", ws[0].Name, err))
		}
		doc.Results = append(doc.Results, r)
		e2ebench.WriteTable(os.Stdout, doc.Results)
		writeDoc(*out, &doc)
		fmt.Println(r.DriverLine())
		if !r.Correct {
			os.Exit(1)
		}
		return
	}

	ok := true
	var sets [][]*e2ebench.Result
	for rep := 0; rep < *repeat; rep++ {
		var set []*e2ebench.Result
		for _, traced := range modes {
			for _, w := range ws {
				r, err := runChild(w.Name, traced)
				if err != nil {
					fatal(fmt.Errorf("%s: %w", w.Name, err))
				}
				ok = ok && r.Correct
				set = append(set, r)
			}
		}
		e2ebench.WriteTable(os.Stdout, set)
		sets = append(sets, set)
		doc.Results = append(doc.Results, set...)
	}
	for _, set := range sets[1:] {
		ok = e2ebench.Compare(os.Stdout, sets[0], set) && ok
	}
	writeDoc(*out, &doc)
	if !ok {
		os.Exit(1)
	}
}

// runChild runs one workload in one mode in a fresh process: this binary
// again, with the same settings, writing its document to a temporary file.
func runChild(workload string, traced bool) (*e2ebench.Result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp("", "fde2e-*.json")
	if err != nil {
		return nil, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	args := []string{"-workload", workload, "-trace", "0", "-out", tmp.Name()}
	if traced {
		args[3] = "1"
	}
	// Settings the user gave are passed on as given; -out is the child's own.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed", "seconds", "laps", "state-dir", "trace-out":
			args = append(args, "-"+f.Name, f.Value.String())
		}
	})
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		// A child that measured but found a wrong output exits non-zero
		// after writing its document; only a missing document is fatal.
		if _, statErr := os.Stat(tmp.Name()); statErr != nil {
			return nil, err
		}
	}
	d := readDoc(tmp.Name())
	if len(d.Results) != 1 {
		return nil, fmt.Errorf("child wrote %d results", len(d.Results))
	}
	return d.Results[0], nil
}

func writeDoc(path string, doc *e2ebench.Document) {
	if path == "" {
		return
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		fatal(err)
	}
}

func readDoc(path string) *e2ebench.Document {
	b, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var d e2ebench.Document
	if err := json.Unmarshal(b, &d); err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	return &d
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fde2e:", err)
	os.Exit(1)
}
