package e2ebench

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"forwarddecay/ingest"
	"forwarddecay/netgen"
	"forwarddecay/server"
)

// pipe is the system under test as the load generator sees it: something
// that takes frames and delivers rows to streams. servePipe is the real
// thing (socket → WAL → MultiRun → ring → subscriber); enginePipe is the
// in-process gsql engine of the UDAF workload.
type pipe interface {
	// begin opens one send session (a dialer connection).
	begin(session uint64) error
	// send pushes one frame; due is the frame's scheduled send time in a
	// paced phase and zero otherwise, frame its global index.
	send(pkts []netgen.Packet, due time.Time, frame int) error
	// end returns once every frame of the session is applied.
	end() error
	// setPlan publishes the paced schedule to the subscribers (nil clears it).
	setPlan(*pacedPlan)
	streams() []*stream
	// close stops everything the pipe started and waits for it.
	close() error
}

// dialFeed is the sending half shared by everything fed over the ingest
// socket: one ingest.Dialer per session, closed-loop on its 32-frame ack
// window.
type dialFeed struct {
	path       string // the unix socket the listener is bound to
	batch      int
	d          *ingest.Dialer
	resent     uint64 // frames resent after a reconnect
	reconnects uint64
}

// servePipe drives an in-process server.Service through a real
// ingest.Dialer and server.Client over unix sockets.
type servePipe struct {
	dialFeed
	dir      string
	svc      *server.Service
	cl       *server.Client
	subs     []*stream
	plan     atomic.Pointer[pacedPlan]
	wg       sync.WaitGroup
	attachMs float64 // time spent in the Attach calls
}

// newServePipe is the serve workloads' set-up: service up and healthy,
// control client dialled, every query attached, every subscriber
// subscribed. An empty catalog gives the bare service the layer runs use.
func newServePipe(w *Workload, dir string, qs []query, tr tracer) (*servePipe, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := &servePipe{dir: dir, dialFeed: dialFeed{path: filepath.Join(dir, "ingest.sock"), batch: w.BatchSize}}
	ctl := "unix:" + filepath.Join(dir, "control.sock")
	svc, err := server.New(server.Config{
		Dir:             filepath.Join(dir, "state"),
		ControlAddr:     ctl,
		IngestAddr:      "unix:" + p.path,
		ResultLog:       w.ResultLog,
		CheckpointEvery: w.CheckpointEvery,
	})
	if err != nil {
		return nil, err
	}
	p.svc = svc
	if m := svc.Mode(); m != server.ModeHealthy {
		p.close()
		return nil, fmt.Errorf("service came up %v", m)
	}
	if p.cl, err = server.DialClient(ctl, "", 5*time.Second); err != nil {
		p.close()
		return nil, err
	}
	ids := make([]uint32, len(qs))
	attachStart := time.Now()
	for i, q := range qs {
		if ids[i], err = p.cl.Attach(q.text); err != nil {
			p.close()
			return nil, fmt.Errorf("attach %d: %w", i, err)
		}
	}
	p.attachMs = float64(time.Since(attachStart)) / 1e6
	for i, q := range qs {
		if q.sub == subNone {
			continue
		}
		policy := server.PolicyBlock
		if q.sub == subDrop {
			policy = server.PolicyDropOldest
		}
		ch, err := p.cl.Subscribe(ids[i], 0, policy, 0)
		if err != nil {
			p.close()
			return nil, fmt.Errorf("subscribe %d: %w", i, err)
		}
		s := &stream{q: i, kind: q.sub, tr: tr}
		p.subs = append(p.subs, s)
		p.wg.Add(1)
		go p.consume(s, ch)
	}
	return p, nil
}

// consume is one subscriber: it stamps each row on receipt.
func (p *servePipe) consume(s *stream, ch <-chan server.SubEvent) {
	defer p.wg.Done()
	for ev := range ch {
		switch {
		case ev.Err != nil:
			// The close path ends every subscription with an error event;
			// anything earlier is a fault the oracle will see as missing rows.
			s.err = ev.Err
		case ev.Gap:
			s.gaps++
			s.shed += ev.GapTo - ev.GapFrom
		default:
			now := time.Now()
			due, frame := p.plan.Load().due(ev.Row[0].I)
			s.row(ev.Row, ev.Cursor, now, due, frame)
		}
	}
}

func (p *dialFeed) begin(session uint64) error {
	// The harness passes its own socket path: Service.IngestAddr() returns a
	// bare path for a unix listener, which ingest.SplitAddr would read as tcp.
	p.d = ingest.Dial("unix", p.path, ingest.DialerConfig{
		BatchSize: p.batch, Window: 32, Session: session, Seed: session, MaxDials: 8,
	})
	return nil
}

func (p *dialFeed) send(pkts []netgen.Packet, _ time.Time, _ int) error {
	for _, pk := range pkts {
		if err := p.d.Send(pk); err != nil {
			return err
		}
	}
	return nil
}

func (p *dialFeed) end() error {
	err := p.d.Close()
	st := p.d.Stats()
	p.reconnects += st.Reconnects
	// The dialer connects lazily, so a session's first frame always goes out
	// through the resend path; only resends beyond that one are real.
	if st.FramesResent > 1 {
		p.resent += st.FramesResent - 1
	}
	p.d = nil
	return err
}

func (p *servePipe) setPlan(pl *pacedPlan) { p.plan.Store(pl) }
func (p *servePipe) streams() []*stream    { return p.subs }

func (p *servePipe) close() error {
	if p.cl != nil {
		p.cl.Close()
	}
	var err error
	if p.svc != nil {
		err = p.svc.Shutdown()
	}
	p.wg.Wait()
	return err
}

// stateBytes is the size of the service's checkpoint state file.
func (p *servePipe) stateBytes() int64 {
	fi, err := os.Stat(filepath.Join(p.dir, "state", "server.state"))
	if err != nil {
		return 0
	}
	return fi.Size()
}
