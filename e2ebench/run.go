// Package e2ebench is the repository's end-to-end, layer-attributed
// benchmark: it drives the built system from outside — an in-process
// server.Service fed by a real ingest.Dialer over a unix socket and read by
// server.Client subscribers, plus the in-process gsql engine with the decayed
// UDAFs — checks every output against an oracle, and attributes the time to
// layers by timing calls into their public functions and by differential
// runs. See README.md for the workloads, the metric glossary and the
// measurement hygiene.
package e2ebench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"forwarddecay/netgen"
)

// Options parameterise one run of one workload.
type Options struct {
	// Seed generates the tape; the program under test sees only the tape.
	Seed uint64
	// Seconds is the measuring budget: capShare of it for the closed-loop
	// (cap) phase, the rest for the open-loop (paced) phase. Laps always do
	// fixed work; the budget decides how many are run.
	Seconds float64
	// Laps, when positive, fixes the repetitions of every phase instead:
	// that many set-ups, cap laps and paced laps.
	Laps int
	// Trace selects the traced run: harness spans on, per-layer metrics out.
	Trace bool
	// StateDir holds the service state directories and sockets.
	StateDir string
	// TraceOut, when set, receives the traced run's spans as JSONL.
	TraceOut string

	// tapeScale shrinks the frozen lap sizes (the smoke test's tiny laps).
	tapeScale float64
}

// DefaultSeconds is the measuring budget of one run; BENCHMARK.json's
// run_seconds is the same number.
const DefaultSeconds = 18

const (
	capShare     = 0.4 // of Seconds; emit latency needs the closures of a longer paced phase
	minLaps      = 3
	minSetups    = 5
	maxSetups    = 1000
	setupBudget  = 50 * time.Millisecond // keep repeating cheap set-ups this long
	lateAfter    = time.Millisecond      // a paced frame sent later than this is late
	deliveryWait = 20 * time.Second      // bound on waiting for subscribers to catch up
	tracedLaps   = 2                     // traced/untraced cap lap pairs of a traced run
)

// frameSpan is the harness-side span of one frame of a traced lap; times
// are nanoseconds since the run started, dueNs -1 when the lap is not paced.
type frameSpan struct {
	frame, lap            int
	dueNs, startNs, endNs int64
}

// tracer is what a traced run's streams share: the switch that turns row
// spans on for the traced laps, and the time origin. The zero value is the
// untraced run's.
type tracer struct {
	on *atomic.Bool
	t0 time.Time
}

// lapStat is what one send session measured.
type lapStat struct {
	tuples  int
	frames  int
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	inSend  time.Duration // traced laps only
	late    int           // paced sessions only
}

type harness struct {
	w       *Workload
	o       Options
	tape    *tape
	qs      []query
	buf     []netgen.Packet
	session uint64
	tracing atomic.Bool // harness spans on (traced laps of a traced run)
	spans   []frameSpan
	t0      time.Time
}

// target is a pipe plus how many laps of the tape it has been sent: each lap
// is shifted one lap further in event time, so a pipe's stream time only
// moves forward.
type target struct {
	pipe
	laps int
}

// Run executes one workload once and returns its metrics: the end-to-end
// set for an untraced run, the per-layer set for a traced one.
func Run(w *Workload, o Options) (*Result, error) {
	if o.tapeScale == 0 {
		o.tapeScale = 1
	}
	if o.StateDir == "" {
		o.StateDir = ".state"
	}
	if err := os.MkdirAll(o.StateDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.StateDir, w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer func() {
		os.RemoveAll(dir)
		os.Remove(o.StateDir) // only if this run emptied it
	}()

	h := &harness{w: w, o: o, t0: time.Now()}
	h.tape = newTape(w, o.Seed, int(float64(w.LapTuples)*o.tapeScale))
	if h.qs, err = w.catalog(h.tape); err != nil {
		return nil, err
	}
	if o.Trace {
		return h.runTraced(dir)
	}
	return h.runUntraced(dir)
}

// setUp builds the pipe under test.
func (h *harness) setUp(dir string, qs []query) (pipe, error) {
	var tr tracer
	if h.o.Trace {
		tr = tracer{&h.tracing, h.t0}
	}
	if h.w.Serve {
		return newServePipe(h.w, dir, qs, tr)
	}
	return newEnginePipe(qs, tr)
}

// timedSetUps sets the system up several times, closing all but the last,
// and returns that one with all the times: setup_s is their median, so one
// slow fsync does not decide it. A service takes only a dozen repetitions: a
// closed server.Service stays reachable for good (about 100 KB for four
// queries, 23 MB for the 1000-query catalog), and hundreds of them showed up
// as 25 MB in the live-heap reading and slowed the laps that followed.
func (h *harness) timedSetUps(dir string) (*target, []float64, error) {
	var times []float64
	for i, begin := 0, time.Now(); ; i++ {
		start := time.Now()
		p, err := h.setUp(filepath.Join(dir, fmt.Sprintf("s%d", i)), h.qs)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		done := len(times) >= maxSetups || (len(times) >= minSetups && time.Since(begin) >= setupBudget)
		if h.o.Laps > 0 {
			done = len(times) >= h.o.Laps
		}
		if done {
			return &target{pipe: p}, times, nil
		}
		if err := p.close(); err != nil {
			return nil, nil, fmt.Errorf("set-up: closing: %w", err)
		}
	}
}

// drive sends laps laps of the tape through p as one session. rate > 0 paces
// the frames on a fixed schedule (tuples per second) and times each from
// when it was due; rate == 0 is the closed loop, throttled only by the
// pipe's own backpressure.
func (h *harness) drive(p *target, laps int, rate float64) (lapStat, error) {
	t := h.tape
	lap0 := p.laps
	p.laps += laps
	tracing := h.tracing.Load()
	st := lapStat{tuples: laps * len(t.pkts), frames: laps * t.frames()}
	var interval time.Duration
	var start time.Time
	if rate > 0 {
		interval = time.Duration(float64(t.batch) / rate * float64(time.Second))
		start = time.Now().Add(2 * time.Millisecond)
		p.setPlan(t.plan(lap0, laps, start, interval))
		defer p.setPlan(nil)
	}
	h.session++
	m0, c0, w0 := mallocs(), cpuTime(), time.Now()
	if err := p.begin(h.session); err != nil {
		return st, err
	}
	for l := 0; l < laps; l++ {
		for f := 0; f < t.frames(); f++ {
			g := (lap0+l)*t.frames() + f // global frame index: the trace's identifier
			var due, now time.Time
			if rate > 0 {
				due = start.Add(time.Duration(l*t.frames()+f) * interval)
				now = time.Now()
				if d := due.Sub(now); d > 0 {
					// Plain sleep, no spinning: a sender that never idles
					// starves the runtime's network poller on a two-core box
					// and inflates the very latencies being measured. The
					// price is the timer's overshoot (most of a millisecond
					// here), which the due-time accounting includes.
					time.Sleep(d)
					now = time.Now()
				}
				if now.Sub(due) > lateAfter {
					st.late++
				}
			} else if tracing {
				now = time.Now()
			}
			h.buf = t.shifted(h.buf, f, lap0+l)
			if err := p.send(h.buf, due, g); err != nil {
				return st, fmt.Errorf("send frame %d: %w", g, err)
			}
			if tracing {
				end := time.Now()
				st.inSend += end.Sub(now)
				dueNs := int64(-1)
				if rate > 0 {
					dueNs = int64(due.Sub(h.t0))
				}
				h.spans = append(h.spans, frameSpan{g, lap0 + l, dueNs, int64(now.Sub(h.t0)), int64(end.Sub(h.t0))})
			}
		}
	}
	if err := p.end(); err != nil {
		return st, fmt.Errorf("closing session: %w", err)
	}
	st.wall, st.cpu, st.mallocs = time.Since(w0), cpuTime()-c0, mallocs()-m0
	return st, nil
}

// capLaps runs closed-loop laps until the budget is spent (at least
// minLaps), or exactly o.Laps of them. It also reads the live heap between
// laps, after each of the first minLaps: always the same amount of work into
// the run, however many laps the budget then allows, and averaged so that a
// ring reallocation landing just before or after one reading does not decide
// the figure.
func (h *harness) capLaps(p *target, budget time.Duration) (out []lapStat, heap float64, err error) {
	var heaps float64
	for start := time.Now(); ; {
		st, err := h.drive(p, 1, 0)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, st)
		if len(out) <= minLaps {
			gc := time.Now()
			heaps += float64(liveHeap())
			heap = heaps / float64(len(out))
			start = start.Add(time.Since(gc)) // the collections are not the phase's work
		}
		if h.o.Laps > 0 {
			if len(out) >= h.o.Laps {
				return out, heap, nil
			}
		} else if len(out) >= minLaps && time.Since(start) >= budget {
			return out, heap, nil
		}
	}
}

// pacedLaps is how many laps of the tape the paced phase replays.
func (h *harness) pacedLaps(budget time.Duration) int {
	if h.o.Laps > 0 {
		return h.o.Laps
	}
	lap := float64(len(h.tape.pkts)) / h.w.PacedRate
	if n := int(budget.Seconds() / lap); n > 1 {
		return n
	}
	return 1
}

func (h *harness) runUntraced(dir string) (*Result, error) {
	p, setups, err := h.timedSetUps(dir)
	if err != nil {
		return nil, err
	}
	defer p.close() // error paths; verify closes it on the way through
	// Read before any tuple flows: the tape, the harness and the idle service
	// are the baseline that live_heap_mb subtracts.
	base := liveHeap()

	// One untimed warm-up lap fills group tables, rings and pools; the
	// collection after it keeps set-up garbage out of the timed laps.
	if _, err := h.drive(p, 1, 0); err != nil {
		return nil, err
	}
	runtime.GC()
	budget := time.Duration(h.o.Seconds * float64(time.Second))
	capBudget := time.Duration(capShare * float64(budget))
	laps, heap, err := h.capLaps(p, capBudget)
	if err != nil {
		return nil, err
	}
	paced, err := h.drive(p, h.pacedLaps(budget-capBudget), h.w.PacedRate)
	if err != nil {
		return nil, err
	}
	chk := h.verify(p)

	r := newResult(h, chk)
	var tps, cpu, allocs []float64
	for _, st := range laps {
		n := float64(st.tuples)
		tps = append(tps, n/st.wall.Seconds())
		cpu = append(cpu, float64(st.cpu)/n)
		allocs = append(allocs, float64(st.mallocs)/n)
	}
	lat, closures := emitSamples(p.streams())
	r.add("tuples_per_s", median(tps), spread(tps), len(tps))
	r.add("cpu_ns_per_tuple", median(cpu), spread(cpu), len(cpu))
	r.add("allocs_per_tuple", median(allocs), spread(allocs), len(allocs))
	r.add("emit_p50_ms", quantile(lat, 0.5), 0, len(lat))
	r.add("live_heap_mb", max(heap-float64(base), 0)/(1<<20), 0, minLaps)
	r.add("setup_s", median(setups), spread(setups), len(setups))
	r.EmitClosures = closures
	r.LateShare = float64(paced.late) / float64(paced.frames)
	if sched := float64(paced.tuples) / h.w.PacedRate; paced.wall.Seconds() > 1.05*sched {
		r.Notes = append(r.Notes, fmt.Sprintf("paced phase unsustainable: %.2fs of schedule took %.2fs, the backlog grew; emit_* are not valid",
			sched, paced.wall.Seconds()))
	}
	return r, nil
}

// emitSamples pools the paced-phase emit latencies of the compared streams
// and counts the closures they came from.
func emitSamples(ss []*stream) (lat []float64, closures int) {
	for _, s := range ss {
		if s.kind != subBlock {
			continue
		}
		lat = append(lat, s.lat...)
		for _, c := range s.closures {
			if !c.due.IsZero() {
				closures++
			}
		}
	}
	return lat, closures
}
