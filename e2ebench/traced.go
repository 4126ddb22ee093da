package e2ebench

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runTraced is the separate run that yields the per-layer numbers: the same
// pipe as the untraced run, with harness-side spans on (per frame: due, send
// start and return; per row: receive time, cursor, tb; per closure: closing
// frame to first and last row — all keyed by the global frame index), then
// the single-threaded layer replays. End-to-end metrics never come from here.
func (h *harness) runTraced(dir string) (*Result, error) {
	pp, err := h.setUp(filepath.Join(dir, "main"), h.qs)
	if err != nil {
		return nil, err
	}
	p := &target{pipe: pp}
	defer p.close() // error paths; verify closes it on the way through

	if _, err := h.drive(p, 1, 0); err != nil {
		return nil, err
	}
	runtime.GC()
	// Cap laps alternate spans off and on; their ratio is what tracing costs.
	var plain, traced []lapStat
	for i := 0; i < tracedLaps; i++ {
		for _, on := range []bool{false, true} {
			h.tracing.Store(on)
			st, err := h.drive(p, 1, 0)
			if err != nil {
				return nil, err
			}
			if on {
				traced = append(traced, st)
			} else {
				plain = append(plain, st)
			}
		}
	}
	paced, err := h.drive(p, h.pacedLaps(time.Duration(h.o.Seconds/4*float64(time.Second))), h.w.PacedRate)
	if err != nil {
		return nil, err
	}
	h.tracing.Store(false)

	e2e := servedStats{laps: p.laps}
	if sp, ok := pp.(*servePipe); ok {
		e2e.fromService(sp)
	} else {
		e2e.attachMs = pp.(*enginePipe).attachMs
	}
	chk := h.verify(p)

	r := newResult(h, chk)
	tps := func(ls []lapStat) (out []float64) {
		for _, st := range ls {
			out = append(out, float64(st.tuples)/st.wall.Seconds())
		}
		return out
	}
	var inSend, wall time.Duration
	for _, st := range traced {
		inSend += st.inSend
		wall += st.wall
	}
	e2e.tuplesPerS = median(tps(plain))
	e2e.sendShare = float64(inSend) / float64(wall)
	e2e.traceOverhead = median(tps(traced)) / e2e.tuplesPerS
	e2e.lateShare = float64(paced.late) / float64(paced.frames)
	e2e.fromStreams(pp.streams())
	e2e.failedShare = float64(chk.failed) / float64(max(chk.attempted, 1))

	if err := h.layers(dir, r, &e2e); err != nil {
		return nil, err
	}
	if h.o.TraceOut != "" {
		if err := h.writeTrace(h.o.TraceOut, pp.streams()); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// servedStats is what the traced end-to-end laps contribute to the layer
// table: counts read from the service and the streams, and the totals the
// differential layer metrics subtract from.
type servedStats struct {
	laps          int
	tuplesPerS    float64 // untraced cap laps of this run
	sendShare     float64
	traceOverhead float64
	lateShare     float64
	failedShare   float64

	rowsEmitted   float64 // service counter: rows appended to rings
	rowsShed      float64
	checkpoints   float64
	restarts      float64
	framesResent  float64
	stateBytes    float64
	attachMs      float64
	ewmaNs        float64 // Σ TopExpensive ns-EWMA over the catalog
	rowsDelivered float64 // rows the subscribers received
	gaps          float64
	emitFirstMs   float64
	emitLastMs    float64
	emitP99Ms     float64
	emitSamples   int
	emitClosures  int
}

func (s *servedStats) fromService(p *servePipe) {
	c := p.svc.Counters()
	s.rowsEmitted = float64(c.Get("server_rows_emitted"))
	s.rowsShed = float64(c.Get("server_rows_shed"))
	s.checkpoints = float64(c.Get("server_checkpoints"))
	s.restarts = float64(c.Get("server_restarts"))
	s.framesResent = float64(p.resent)
	s.stateBytes = float64(p.stateBytes())
	s.attachMs = p.attachMs
	for _, qc := range p.svc.TopExpensive(1 << 20) {
		s.ewmaNs += qc.NsPerTuple
	}
}

func (s *servedStats) fromStreams(ss []*stream) {
	var first, last []float64
	lat, _ := emitSamples(ss)
	s.emitP99Ms = quantile(lat, 0.99)
	for _, st := range ss {
		s.rowsDelivered += float64(st.recv.Load())
		s.gaps += float64(st.gaps)
		if st.kind != subBlock {
			continue
		}
		s.emitSamples += len(st.lat)
		for _, c := range st.closures {
			if !c.due.IsZero() {
				s.emitClosures++
				first = append(first, float64(c.first.Sub(c.due))/1e6)
				last = append(last, float64(c.last.Sub(c.due))/1e6)
			}
		}
	}
	s.emitFirstMs, s.emitLastMs = median(first), median(last)
	if s.rowsEmitted == 0 { // in-process: every row emitted is delivered
		s.rowsEmitted = s.rowsDelivered
	}
}

// writeTrace dumps the spans kept in memory as JSONL: one object per line,
// times in nanoseconds since the run started, every span carrying the global
// frame index it belongs to.
func (h *harness) writeTrace(path string, ss []*stream) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w) // write errors stick to w and surface at Flush
	ns := func(t time.Time) int64 {
		if t.IsZero() {
			return -1
		}
		return int64(t.Sub(h.t0))
	}
	type span struct {
		Span     string `json:"span"`
		Workload string `json:"workload"`
		Frame    int    `json:"frame"`
		Lap      *int   `json:"lap,omitempty"`
		Stream   *int   `json:"stream,omitempty"`
		TB       *int64 `json:"tb,omitempty"`
		Cursor   uint64 `json:"cursor,omitempty"`
		Rows     int    `json:"rows,omitempty"`
		DueNs    int64  `json:"due_ns"`
		StartNs  int64  `json:"start_ns"`
		EndNs    int64  `json:"end_ns"`
	}
	for i := range h.spans {
		fs := &h.spans[i]
		enc.Encode(span{Span: "frame", Workload: h.w.Name, Frame: fs.frame, Lap: &fs.lap,
			DueNs: fs.dueNs, StartNs: fs.startNs, EndNs: fs.endNs})
	}
	for _, s := range ss {
		for i := range s.spans {
			rs := &s.spans[i]
			enc.Encode(span{Span: "row", Workload: h.w.Name, Frame: rs.frame, Stream: &s.q, TB: &rs.tb,
				Cursor: rs.cursor, DueNs: -1, StartNs: rs.recvNs, EndNs: rs.recvNs})
		}
		for i := range s.closures {
			c := &s.closures[i]
			if c.due.IsZero() {
				continue
			}
			enc.Encode(span{Span: "closure", Workload: h.w.Name, Frame: c.frame, Stream: &s.q, TB: &c.tb,
				Rows: c.n, DueNs: ns(c.due), StartNs: ns(c.first), EndNs: ns(c.last)})
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
