package server

// The control plane: one goroutine per accepted connection reads sealed
// control frames (auth first), dispatches catalog requests, and spawns one
// writer goroutine per subscription. The writer is the per-subscriber
// bounded output queue made flesh: it pulls at most SubscriberBatch rows
// from the query's result ring, writes them to the socket, and only then
// advances its cursor — so a subscriber that stops reading stops advancing,
// and the ring's slow-consumer policy takes over from there.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"forwarddecay/gsql"
	"forwarddecay/ingest"
)

// controlIOTimeout bounds individual control-plane writes and the auth
// handshake read; a peer that cannot absorb a frame in this long is dead.
// A variable so fault drills can compress (or suspend) the deadline.
var controlIOTimeout = 5 * time.Second

// acceptControl admits control connections until the listener closes.
func (s *Service) acceptControl() {
	for {
		c, err := s.ctl.Accept()
		if err != nil {
			return // Shutdown closed the listener
		}
		cc := &ctlConn{s: s, c: c, subs: map[uint32]*ctlSub{}}
		if !s.trackConn(cc, true) {
			c.Close()
			return
		}
		s.conns.Add(1)
		go func() {
			defer s.conns.Done()
			defer s.trackConn(cc, false)
			cc.serve()
		}()
	}
}

// trackConn registers (or removes) a live control connection so Shutdown
// can force-close them. Returns false when the service is already closing.
func (s *Service) trackConn(cc *ctlConn, add bool) bool {
	s.ctlMu.Lock()
	defer s.ctlMu.Unlock()
	if add {
		if s.ctlClosed {
			return false
		}
		s.ctlConns[cc] = struct{}{}
		return true
	}
	delete(s.ctlConns, cc)
	return true
}

// closeControlConns force-closes every control connection (Shutdown).
func (s *Service) closeControlConns() {
	s.ctlMu.Lock()
	s.ctlClosed = true
	conns := make([]*ctlConn, 0, len(s.ctlConns))
	for cc := range s.ctlConns {
		conns = append(conns, cc)
	}
	s.ctlMu.Unlock()
	for _, cc := range conns {
		cc.c.Close()
	}
}

// ctlSub is one live subscription on a connection.
type ctlSub struct {
	q   *Query
	sub *subscriber
	req uint32 // the subscribe request id; async StErr terminations echo it
	// frame is the writer's buffer: each fetched batch is sealed over the
	// last one, so a steady subscription writes without allocating.
	frame []byte
	// stopped marks a client-requested unsubscribe, so the writer exits
	// silently instead of reporting a termination.
	stopped bool
	done    chan struct{}
}

// ctlConn is one control connection's state.
type ctlConn struct {
	s *Service
	c net.Conn

	wmu sync.Mutex // serializes frame writes (handler vs subscription writers)

	smu  sync.Mutex
	subs map[uint32]*ctlSub // by query id
}

// write seals and sends one frame.
func (cc *ctlConn) write(m *Msg) error { return cc.writeFrame(AppendMsg(nil, m)) }

// writeFrame sends sealed frames in one Write; on failure the connection is
// torn down (the reader will notice the closed socket and clean up). Every
// write arms its own deadline first, so none is ever cleared: an expired
// deadline only matters to a Write in progress.
func (cc *ctlConn) writeFrame(buf []byte) error {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	cc.c.SetWriteDeadline(time.Now().Add(controlIOTimeout))
	_, err := cc.c.Write(buf)
	if err != nil {
		cc.c.Close()
	}
	return err
}

func (cc *ctlConn) writeErr(req uint32, code uint16, text string) error {
	return cc.write(&Msg{Type: StErr, Req: req, Code: code, Text: text})
}

// msgReader reads sealed control frames off a connection, reusing one frame
// buffer and one Msg for all of them.
type msgReader struct {
	r   *bufio.Reader
	buf []byte
	m   Msg
}

// next reads and decodes the next frame. The returned Msg is the reader's
// own and is overwritten by the following call; the strings and rows it
// carries are not.
func (mr *msgReader) next() (*Msg, error) {
	// The length prefix is read into the frame buffer itself: a local array
	// would escape through io.ReadFull, one allocation per frame.
	hdr := slices.Grow(mr.buf[:0], ingest.SealedHeaderSize)[:4]
	if _, err := io.ReadFull(mr.r, hdr); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	if n > MaxControlFrame {
		return nil, errors.New("server: control frame exceeds MaxControlFrame")
	}
	mr.buf = slices.Grow(hdr, ingest.SealedHeaderSize-4+n)[:ingest.SealedHeaderSize+n]
	if _, err := io.ReadFull(mr.r, mr.buf[4:]); err != nil {
		return nil, err
	}
	body, _, err := ingest.DecodeSealed(mr.buf, MaxControlFrame)
	if err != nil {
		return nil, err
	}
	if err := decodeMsgInto(&mr.m, body); err != nil {
		return nil, err
	}
	return &mr.m, nil
}

// serve runs one control session: authenticate, dispatch, clean up.
func (cc *ctlConn) serve() {
	defer cc.c.Close()
	defer cc.dropAllSubs()
	r := msgReader{r: bufio.NewReader(cc.c)}

	// Auth handshake: the first frame must be a CtHello carrying a valid
	// token. Everything before a good hello gets exactly one typed error.
	cc.c.SetReadDeadline(time.Now().Add(controlIOTimeout))
	hello, err := r.next()
	cc.c.SetReadDeadline(time.Time{})
	if err != nil {
		return
	}
	if hello.Type != CtHello || !cc.s.tokenOK(hello.Text) {
		cc.s.counters.Add("server_auth_failures", 1)
		cc.writeErr(hello.Req, CodeAuth, "authentication failed")
		return
	}
	if err := cc.write(&Msg{Type: StOK, Req: hello.Req}); err != nil {
		return
	}
	cc.s.counters.Add("server_control_sessions", 1)

	for {
		m, err := r.next()
		if err != nil {
			return
		}
		switch m.Type {
		case CtAttach:
			cc.handleAttach(m)
		case CtDetach:
			cc.handleDetach(m)
		case CtRevive:
			cc.handleRevive(m)
		case CtSubscribe:
			cc.handleSubscribe(m)
		case CtUnsubscribe:
			cc.handleUnsubscribe(m)
		case CtStats:
			cc.handleStats(m)
		case CtBye:
			cc.write(&Msg{Type: StBye, Req: m.Req})
			return
		case CtHello:
			cc.writeErr(m.Req, CodeBadRequest, "session already authenticated")
		default:
			cc.writeErr(m.Req, CodeBadRequest, "frame type not valid on an authenticated session")
		}
	}
}

// tokenOK validates a session token; an empty Tokens list means open access.
func (s *Service) tokenOK(token string) bool {
	if len(s.cfg.Tokens) == 0 {
		return true
	}
	for _, t := range s.cfg.Tokens {
		if token == t {
			return true
		}
	}
	return false
}

// errCode maps a service error onto its wire code.
func errCode(err error) (uint16, string) {
	var se *serviceError
	if errors.As(err, &se) {
		return se.code, se.msg
	}
	return CodeBadRequest, err.Error()
}

func (cc *ctlConn) handleAttach(m *Msg) {
	if m.Text == "" {
		cc.writeErr(m.Req, CodeBadRequest, "empty query text")
		return
	}
	id, err := cc.s.Attach(m.Text)
	if err != nil {
		code, msg := errCode(err)
		cc.writeErr(m.Req, code, msg)
		return
	}
	cc.write(&Msg{Type: StAttached, Req: m.Req, Query: id})
}

func (cc *ctlConn) handleDetach(m *Msg) {
	if err := cc.s.Detach(m.Query); err != nil {
		code, msg := errCode(err)
		cc.writeErr(m.Req, code, msg)
		return
	}
	cc.write(&Msg{Type: StOK, Req: m.Req})
}

func (cc *ctlConn) handleRevive(m *Msg) {
	if err := cc.s.Revive(m.Query); err != nil {
		code, msg := errCode(err)
		cc.writeErr(m.Req, code, msg)
		return
	}
	cc.write(&Msg{Type: StOK, Req: m.Req})
}

func (cc *ctlConn) handleSubscribe(m *Msg) {
	if cc.s.Mode() == ModeDegraded {
		cc.writeErr(m.Req, CodeDegraded, errDegraded.msg)
		return
	}
	q, err := cc.s.lookup(m.Query)
	if err != nil {
		code, msg := errCode(err)
		cc.writeErr(m.Req, code, msg)
		return
	}
	if m.Policy == PolicyDisconnect && m.Deadline == 0 {
		cc.writeErr(m.Req, CodeBadRequest, "disconnect policy requires a nonzero deadline")
		return
	}
	cc.smu.Lock()
	if _, dup := cc.subs[m.Query]; dup {
		cc.smu.Unlock()
		cc.writeErr(m.Req, CodeBadRequest, "already subscribed to this query on this connection")
		return
	}
	// Blocking policies promise a gapless stream; a start cursor already
	// evicted from the ring makes that promise unkeepable.
	if m.Policy != PolicyDropOldest && m.Cursor != 0 {
		if base, _ := q.log.bounds(); m.Cursor < base {
			cc.smu.Unlock()
			cc.writeErr(m.Req, CodeCursorGap, "cursor predates the retained result log")
			return
		}
	}
	sub := &ctlSub{
		q:    q,
		sub:  q.log.subscribe(m.Cursor, m.Policy, time.Duration(m.Deadline)*time.Millisecond),
		req:  m.Req,
		done: make(chan struct{}),
	}
	cc.subs[m.Query] = sub
	cc.smu.Unlock()
	if cc.write(&Msg{Type: StOK, Req: m.Req}) != nil {
		return // teardown path unsubscribes
	}
	cc.s.counters.Add("server_subscribes", 1)
	go cc.runSub(sub)
}

func (cc *ctlConn) handleUnsubscribe(m *Msg) {
	cc.smu.Lock()
	sub := cc.subs[m.Query]
	if sub != nil {
		delete(cc.subs, m.Query)
		sub.stopped = true
	}
	cc.smu.Unlock()
	if sub == nil {
		cc.writeErr(m.Req, CodeUnknownQuery, "no subscription for that query on this connection")
		return
	}
	sub.q.log.unsubscribe(sub.sub)
	<-sub.done
	cc.write(&Msg{Type: StOK, Req: m.Req})
}

func (cc *ctlConn) handleStats(m *Msg) {
	cc.write(&Msg{Type: StStats, Req: m.Req, Text: cc.s.statsJSON()})
}

// dropAllSubs releases every subscription when the connection dies.
func (cc *ctlConn) dropAllSubs() {
	cc.smu.Lock()
	subs := make([]*ctlSub, 0, len(cc.subs))
	for id, sub := range cc.subs {
		sub.stopped = true
		subs = append(subs, sub)
		delete(cc.subs, id)
	}
	cc.smu.Unlock()
	for _, sub := range subs {
		sub.q.log.unsubscribe(sub.sub)
		<-sub.done
	}
}

// runSub is the subscription writer: fetch a bounded batch as one sealed
// frame, write it, then advance the cursor. Between fetch and advance the
// rows are "in the output queue" — un-advanced — which is what lets
// PolicyBlock/PolicyDisconnect hold the emit path on this subscriber's
// behalf.
func (cc *ctlConn) runSub(sub *ctlSub) {
	defer close(sub.done)
	rl := sub.q.log
	for {
		frame, n, start, gapFrom, st := rl.fetch(sub.sub, sub.q.ID, cc.s.cfg.SubscriberBatch, sub.frame)
		sub.frame = frame
		switch st {
		case fetchRows:
			if cc.writeFrame(frame) != nil {
				return // socket dead; reader goroutine cleans up
			}
			rl.advance(sub.sub, uint64(n))
			cc.s.counters.Add("server_rows_delivered", uint64(n))
		case fetchGap:
			if cc.write(&Msg{Type: StGap, Query: sub.q.ID, GapFrom: gapFrom, Cursor: start}) != nil {
				return
			}
			cc.s.counters.Add("server_gaps_reported", 1)
		case fetchRemoved:
			if !cc.subStopped(sub) {
				cc.writeErr(sub.req, CodeSlowConsumer, "subscription terminated: stalled past its deadline")
				cc.forgetSub(sub)
			}
			return
		case fetchClosed:
			if cc.subStopped(sub) {
				return
			}
			// Ring closed under us: either the query was detached or the
			// service is shutting down.
			if _, err := cc.s.lookup(sub.q.ID); err != nil {
				cc.writeErr(sub.req, CodeUnknownQuery, "query detached")
			} else {
				cc.writeErr(sub.req, CodeShutdown, "service shutting down")
			}
			cc.forgetSub(sub)
			return
		}
	}
}

func (cc *ctlConn) subStopped(sub *ctlSub) bool {
	cc.smu.Lock()
	defer cc.smu.Unlock()
	return sub.stopped
}

// forgetSub removes a self-terminated subscription from the conn map so a
// later resubscribe to the same query is not a duplicate.
func (cc *ctlConn) forgetSub(sub *ctlSub) {
	cc.smu.Lock()
	if cc.subs[sub.q.ID] == sub {
		delete(cc.subs, sub.q.ID)
	}
	cc.smu.Unlock()
}

// statsTopN bounds the "most expensive queries" section of the stats
// snapshot.
const statsTopN = 5

// QueryCost is one row of Service.TopExpensive: a query's attribution
// snapshot, ranked by the smoothed private-expression cost that admission
// control budgets against.
type QueryCost struct {
	ID          uint32
	Text        string
	NsPerTuple  float64
	Tuples      uint64
	Errors      uint64
	Quarantined bool
}

// TopExpensive returns the n most expensive queries of the live catalog,
// most expensive first, by the same ns/tuple attribution the stats verb
// surfaces. A degraded or empty catalog returns nil. cmd/gsql prints this
// as the drain-time stats line.
func (s *Service) TopExpensive(n int) []QueryCost {
	rt := s.rt.Load()
	if rt == nil || rt.degraded {
		return nil
	}
	// Same lock order as statsJSON: rt.mu for attribution, s.mu after (never
	// around) it for the catalog texts.
	perRun := map[uint32]gsql.QueryStats{}
	byMember := map[uint64]uint32{}
	rt.mu.Lock()
	for id, run := range rt.runs {
		qs := run.h.QueryStats()
		perRun[id] = qs
		byMember[qs.ID] = id
	}
	rt.mu.Unlock()
	all := make([]gsql.QueryStats, 0, len(perRun))
	for _, qs := range perRun {
		all = append(all, qs)
	}
	var out []QueryCost
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, qs := range gsql.TopExpensive(all, n) {
		id := byMember[qs.ID]
		qc := QueryCost{ID: id, NsPerTuple: qs.NsPerTuple, Tuples: qs.Tuples, Errors: qs.Errors}
		if q := s.queries[id]; q != nil {
			qc.Text = q.Text
			qc.Quarantined, _ = q.Quarantined()
		}
		out = append(out, qc)
	}
	return out
}

// statsJSON renders the service snapshot served by CtStats and /metrics.
func (s *Service) statsJSON() string {
	type queryStat struct {
		ID          uint32  `json:"id"`
		Text        string  `json:"text"`
		Base        uint64  `json:"base"`
		End         uint64  `json:"end"`
		Tuples      uint64  `json:"tuples,omitempty"`
		Errors      uint64  `json:"errors,omitempty"`
		NsPerTuple  float64 `json:"ns_per_tuple,omitempty"`
		Quarantined bool    `json:"quarantined,omitempty"`
		Reason      string  `json:"quarantine_reason,omitempty"`
	}
	type topStat struct {
		ID         uint32  `json:"id"`
		NsPerTuple float64 `json:"ns_per_tuple"`
		Tuples     uint64  `json:"tuples"`
	}
	s.refreshCatalogGauges()

	// Per-run attribution, collected under rt.mu only (lock order: s.mu is
	// taken after, never around, rt.mu here).
	perRun := map[uint32]gsql.QueryStats{}
	byMember := map[uint64]uint32{}
	if rt := s.rt.Load(); rt != nil && !rt.degraded {
		rt.mu.Lock()
		for id, run := range rt.runs {
			qs := run.h.QueryStats()
			perRun[id] = qs
			byMember[qs.ID] = id
		}
		rt.mu.Unlock()
	}
	out := struct {
		Mode     string             `json:"mode"`
		Gen      uint64             `json:"gen"`
		Fails    int32              `json:"consecutive_failures"`
		Counters map[string]uint64  `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
		Queries  []queryStat        `json:"queries"`
		Top      []topStat          `json:"most_expensive,omitempty"`
	}{
		Mode:     s.Mode().String(),
		Gen:      s.gen.Load(),
		Fails:    s.fails.Load(),
		Counters: s.counters.Snapshot(),
		Gauges:   s.gauges.Snapshot(),
	}
	s.mu.Lock()
	for _, q := range s.queries {
		base, end := q.log.bounds()
		st := queryStat{ID: q.ID, Text: q.Text, Base: base, End: end}
		if qs, ok := perRun[q.ID]; ok {
			st.Tuples, st.Errors, st.NsPerTuple = qs.Tuples, qs.Errors, qs.NsPerTuple
		}
		if fenced, why := q.Quarantined(); fenced {
			st.Quarantined, st.Reason = true, why
		}
		out.Queries = append(out.Queries, st)
	}
	s.mu.Unlock()
	all := make([]gsql.QueryStats, 0, len(perRun))
	for _, qs := range perRun {
		all = append(all, qs)
	}
	for _, qs := range gsql.TopExpensive(all, statsTopN) {
		out.Top = append(out.Top, topStat{ID: byMember[qs.ID], NsPerTuple: qs.NsPerTuple, Tuples: qs.Tuples})
	}
	b, err := json.Marshal(out)
	if err != nil {
		return `{"error":"stats marshal failed"}`
	}
	return string(b)
}
