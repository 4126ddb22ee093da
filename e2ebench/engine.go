package e2ebench

import (
	"time"

	"forwarddecay/gsql"
	"forwarddecay/netgen"
	"forwarddecay/udaf"
)

// newEngine builds a gsql engine with the packet stream and every UDAF
// registered (the serve oracles never name one, so they lose nothing by it).
func newEngine() (*gsql.Engine, error) {
	e := gsql.NewEngine()
	if err := e.RegisterStream(gsql.PacketSchema("TCP")); err != nil {
		return nil, err
	}
	if err := udaf.RegisterAll(e, udafConfig()); err != nil {
		return nil, err
	}
	return e, nil
}

// enginePipe is the UDAF workload's system under test: one gsql.Run per
// query, fed by Run.PushBatch on the calling goroutine, rows delivered to the
// streams synchronously from inside the push.
type enginePipe struct {
	runs     []*gsql.Run
	attachMs float64 // time spent in Prepare + Start
	subs     []*stream
	batch    *gsql.Batch
	due      time.Time
	frame    int
}

// newEnginePipe is the engine workload's set-up: engine, UDAF registration,
// and Prepare + Start for every query.
func newEnginePipe(qs []query, tr tracer) (*enginePipe, error) {
	e, err := newEngine()
	if err != nil {
		return nil, err
	}
	p := &enginePipe{}
	if p.batch, err = gsql.NewBatch(gsql.PacketSchema("TCP")); err != nil {
		return nil, err
	}
	attachStart := time.Now()
	for i, q := range qs {
		st, err := e.Prepare(q.text)
		if err != nil {
			return nil, err
		}
		sink := func(gsql.Tuple) error { return nil }
		if q.sub != subNone {
			s := &stream{q: i, kind: q.sub, keep: true, tr: tr}
			p.subs = append(p.subs, s)
			sink = func(t gsql.Tuple) error {
				s.row(t, s.recv.Load()+1, time.Now(), p.due, p.frame)
				return nil
			}
		}
		p.runs = append(p.runs, st.Start(sink, gsql.Options{}))
	}
	p.attachMs = float64(time.Since(attachStart)) / 1e6
	return p, nil
}

func (p *enginePipe) begin(uint64) error { return nil }

func (p *enginePipe) send(pkts []netgen.Packet, due time.Time, frame int) error {
	p.due, p.frame = due, frame
	netgen.FillBatch(p.batch, pkts)
	for _, r := range p.runs {
		if _, err := r.PushBatch(p.batch); err != nil {
			return err
		}
	}
	return nil
}

func (p *enginePipe) end() error         { return nil }
func (p *enginePipe) setPlan(*pacedPlan) {}
func (p *enginePipe) streams() []*stream { return p.subs }
func (p *enginePipe) close() error       { return nil }
