package ingest

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"forwarddecay/gsql"
	"forwarddecay/netgen"
)

// Sink is the run a Listener feeds: a *gsql.Run satisfies it. All calls are
// made from the listener's single pump goroutine, matching the runtimes'
// single-producer contract. The pump loads each data frame straight into a
// reused gsql.Batch — no per-tuple Value materialization — and applies it
// in one PushBatch call; rejected counts the rows refused for a non-finite
// float, which do not fail the frame. Checkpoints cut at frame boundaries.
type Sink interface {
	PushBatch(*gsql.Batch) (rejected int, err error)
	Heartbeat(gsql.Value) error
}

// runtimeStatser is optionally implemented by sinks (*gsql.Run implements
// it); after the pump stops, the listener folds the sink's counters into
// its own snapshot.
type runtimeStatser interface {
	RuntimeStats() gsql.RuntimeStats
}

// Config parameterizes a Listener. The zero value of every field is a
// usable default except Sink, which is required.
type Config struct {
	// Sink receives frames (as batches) and heartbeats. Required.
	Sink Sink
	// Queue is the intake queue capacity in frames (default 64). Readers
	// enqueue decoded frames here; the pump applies them to the sink. A
	// reader finding it full blocks: backpressure through TCP flow control
	// all the way to the client.
	Queue int
	// MaxFrame bounds accepted frame bodies (default DefaultMaxFrame).
	MaxFrame int
	// HeartbeatInterval, when positive, synthesizes a heartbeat whenever no
	// frame has arrived for that long: stream time is advanced by the idle
	// wall-clock duration so open windows still close during silence.
	HeartbeatInterval time.Duration
	// CheckpointEvery, with Checkpoint set, invokes the checkpoint hook
	// every that many applied tuples.
	CheckpointEvery uint64
	// Checkpoint is called from the pump goroutine (safe with respect to
	// the sink) after every CheckpointEvery tuples. Errors are sticky and
	// stop the listener (work the hook hands off fails through Fail).
	Checkpoint func() error
	// Sessions seeds the session table (session id → highest applied
	// sequence) from a previous listener's Sessions() snapshot. Restoring
	// it alongside the sink's checkpoint is what makes kill-and-recover
	// exact: a frame the old process applied whose ack was lost will be
	// resent by the client, recognized as a duplicate, and dropped instead
	// of double-counted.
	Sessions map[uint64]uint64
	// WAL, when set, receives every frame and heartbeat BEFORE it is
	// applied to the sink, from the pump goroutine. A logged-then-acked
	// frame is thereby recoverable even if the process dies without
	// draining: the ack contract strengthens from "applied" to "applied
	// and durable". Log errors are sticky and stop the listener, exactly
	// like sink errors — an ack must never outrun the log.
	WAL ApplyLog
	// Logf, when set, receives diagnostic messages (reconnects,
	// quarantines, shutdown progress).
	Logf func(format string, args ...any)
}

// ApplyLog is a write-ahead log for the listener's apply path (see
// Config.WAL). LogFrame records a data frame — with its session and
// sequence number, so a recovering successor can rebuild the dedup table
// from the log — and LogHeartbeat records an applied heartbeat, preserving
// the value's type (an Int and a Float heartbeat take different temporal
// paths through the engine). Both are called from the single pump
// goroutine, before the corresponding sink call.
type ApplyLog interface {
	LogFrame(session, seq uint64, pkts []netgen.Packet) error
	LogHeartbeat(ts gsql.Value) error
}

// session is the per-client-session dedup and ack state. Both fields are
// atomic: after an ack timeout a client may reconnect while the abandoned
// connection's reader is still draining, so two readers can briefly serve
// one session. The CAS in serveConn admits each sequence number exactly
// once regardless.
type session struct {
	id      uint64
	nextSeq atomic.Uint64 // next sequence number a reader will accept
	applied atomic.Uint64 // highest sequence applied by the pump
}

// item is one unit of intake-queue work.
type item struct {
	conn   *serverConn
	sess   *session
	seq    uint64
	pkts   []netgen.Packet
	sorted bool // frame-decode verdict: pkts non-decreasing in time
	hb     float64
	isHB   bool
}

// ackWriteTimeout bounds one ack write; a peer not reading for that long has
// its connection closed, and learns from the next hello ack where it stands.
const ackWriteTimeout = 5 * time.Second

// serverConn is one accepted connection. Its reader (serveConn) and the pump
// only ask for acks (nudgeAck); one goroutine per connection, writeAcks,
// owns the ack buffer, the write deadline and every write to c.
type serverConn struct {
	c    net.Conn
	sess atomic.Pointer[session] // the Hello's session: what the acks report
	// nudge has one slot: a send that finds it full is dropped, because the
	// pending ack is cumulative and will carry the newer applied as well.
	nudge chan struct{}
	gone  chan struct{} // closed when the reader has dropped the connection
	ack   []byte        // writeAck's frame buffer
}

// nudgeAck asks the ack writer to report the session's applied sequence. It
// neither blocks nor allocates: whatever the socket does, the pump moves on.
func (sc *serverConn) nudgeAck() {
	select {
	case sc.nudge <- struct{}{}:
	default:
	}
}

// writeAcks is the connection's ack writer, from accept until the reader
// drops the connection. A nudge is answered with applied as it stands when
// the write starts, so whatever was applied while the previous write sat in
// its syscall collapses into one ack: the coalescing follows the load. The
// ack still means "applied after logged".
func (l *Listener) writeAcks(sc *serverConn) {
	defer l.readers.Done()
	for {
		select {
		case <-sc.nudge:
		case <-sc.gone:
			return
		}
		if err := l.writeAck(sc); err != nil {
			sc.c.Close() // dead or not reading: ends the reader too; the client redials
			return
		}
	}
}

// writeAck sends one cumulative ack for the connection's session, which the
// Hello has set before anything nudges. Only writeAcks calls it.
func (l *Listener) writeAck(sc *serverConn) error {
	sc.ack = AppendAck(sc.ack[:0], sc.sess.Load().applied.Load())
	sc.c.SetWriteDeadline(time.Now().Add(ackWriteTimeout))
	if _, err := sc.c.Write(sc.ack); err != nil {
		return err
	}
	l.acksWritten.Add(1)
	return nil
}

// Listener serves the ingest protocol and feeds a gsql run. Create with
// Listen, stop with Shutdown.
type Listener struct {
	cfg Config
	nl  net.Listener

	queue   chan item
	readers sync.WaitGroup
	pumped  chan struct{} // closed when the pump exits

	mu       sync.Mutex
	conns    map[*serverConn]struct{}
	sessions map[uint64]*session
	closing  bool
	err      error

	// counters (atomics: bumped from readers and pump, read from anywhere)
	framesAccepted  atomic.Uint64
	acksWritten     atomic.Uint64
	quarantined     atomic.Uint64
	duplicates      atomic.Uint64
	reconnects      atomic.Uint64
	heartbeatsSynth atomic.Uint64
	tuplesIn        atomic.Uint64
	tuplesRejected  atomic.Uint64
	pumpStopped     atomic.Bool
	failed          atomic.Bool // set with err; the pump's stop signal
}

// SplitAddr parses "unix:/path" or "[tcp:]host:port" into a (network,
// address) pair for Listen and Dial.
func SplitAddr(addr string) (network, address string) {
	if rest, ok := strings.CutPrefix(addr, "unix:"); ok {
		return "unix", rest
	}
	if rest, ok := strings.CutPrefix(addr, "tcp:"); ok {
		return "tcp", rest
	}
	return "tcp", addr
}

// Listen starts serving the ingest protocol on the given network ("tcp" or
// "unix") and address, feeding cfg.Sink until Shutdown.
func Listen(network, address string, cfg Config) (*Listener, error) {
	if cfg.Sink == nil {
		return nil, fmt.Errorf("ingest: Config.Sink is required")
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 64
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	nl, err := net.Listen(network, address)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	l := &Listener{
		cfg:      cfg,
		nl:       nl,
		queue:    make(chan item, cfg.Queue),
		pumped:   make(chan struct{}),
		conns:    make(map[*serverConn]struct{}),
		sessions: make(map[uint64]*session),
	}
	for id, applied := range cfg.Sessions {
		s := &session{id: id}
		s.applied.Store(applied)
		s.nextSeq.Store(applied + 1)
		l.sessions[id] = s
	}
	go l.acceptLoop()
	go l.pump()
	return l, nil
}

// Addr returns the bound address (useful with ":0" listeners).
func (l *Listener) Addr() net.Addr { return l.nl.Addr() }

// Err returns the listener's sticky error: a sink or checkpoint failure
// that stopped the pump. Frame-level problems are never sticky — they are
// quarantined instead.
func (l *Listener) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Fail records the first sticky error and stops the pump: frames still
// queued are drained, neither applied nor acknowledged. The pump calls it for
// a sink, log or checkpoint failure, an owner when work its Checkpoint hook
// handed to another goroutine fails later.
func (l *Listener) Fail(err error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.mu.Unlock()
	l.failed.Store(true)
	l.cfg.Logf("ingest: pump failed: %v", err)
}

// quarantine counts and logs a malformed frame.
func (l *Listener) quarantine(fe *FrameError, remote string) {
	l.quarantined.Add(1)
	l.cfg.Logf("ingest: quarantined frame from %s: %v", remote, fe)
}

// RuntimeStats snapshots the ingest counters. After Shutdown it also folds
// in the sink's own RuntimeStats (tuples, windows, checkpoints); while the
// pump is live only the listener-owned counters are populated, since the
// sink belongs to the pump goroutine.
func (l *Listener) RuntimeStats() gsql.RuntimeStats {
	var s gsql.RuntimeStats
	if l.pumpStopped.Load() {
		if rs, ok := l.cfg.Sink.(runtimeStatser); ok {
			s = rs.RuntimeStats()
		}
	}
	s.FramesAccepted = l.framesAccepted.Load()
	s.AcksWritten = l.acksWritten.Load()
	s.FramesQuarantined = l.quarantined.Load()
	s.DuplicatesDropped = l.duplicates.Load()
	s.Reconnects = l.reconnects.Load()
	s.HeartbeatsSynthesized = l.heartbeatsSynth.Load()
	s.TuplesRejected = l.tuplesRejected.Load()
	if s.TuplesIn == 0 {
		s.TuplesIn = l.tuplesIn.Load()
	}
	return s
}

// acceptLoop admits connections until the net listener closes.
func (l *Listener) acceptLoop() {
	for {
		c, err := l.nl.Accept()
		if err != nil {
			return // Shutdown closed the listener
		}
		sc := &serverConn{c: c, nudge: make(chan struct{}, 1), gone: make(chan struct{})}
		l.mu.Lock()
		if l.closing {
			l.mu.Unlock()
			c.Close()
			return
		}
		l.conns[sc] = struct{}{}
		l.readers.Add(2) // the reader and the ack writer
		l.mu.Unlock()
		go l.serveConn(sc)
		go l.writeAcks(sc)
	}
}

// dropConn unregisters and closes a connection and ends its ack writer.
// Only the connection's reader calls it, once.
func (l *Listener) dropConn(sc *serverConn) {
	l.mu.Lock()
	delete(l.conns, sc)
	l.mu.Unlock()
	sc.c.Close()
	close(sc.gone)
}

// getSession finds or creates the session, counting re-attachments.
func (l *Listener) getSession(id uint64) *session {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s, ok := l.sessions[id]; ok {
		l.reconnects.Add(1)
		return s
	}
	s := &session{id: id}
	s.nextSeq.Store(1)
	l.sessions[id] = s
	return s
}

// Sessions snapshots the session table (session id → highest applied
// sequence number). Persist it next to the sink's checkpoint and hand it
// to the successor listener's Config.Sessions; it is stable once Shutdown
// has returned.
func (l *Listener) Sessions() map[uint64]uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[uint64]uint64, len(l.sessions))
	for id, s := range l.sessions {
		out[id] = s.applied.Load()
	}
	return out
}

// serveConn reads frames off one connection until error, Bye, or
// shutdown. Any malformed frame is quarantined and the connection closed:
// framing past a corrupt frame cannot be trusted, and the client's resend
// protocol converts the close into a retry of everything unacknowledged.
func (l *Listener) serveConn(sc *serverConn) {
	defer l.readers.Done()
	defer l.dropConn(sc)
	remote := sc.c.RemoteAddr().String()
	fr := NewFrameReader(sc.c, l.cfg.MaxFrame)
	var sess *session
	for {
		f, err := fr.ReadFrame()
		if err != nil {
			if fe, ok := err.(*FrameError); ok {
				l.quarantine(fe, remote)
			}
			return // EOF, I/O error, or malformed frame: drop the conn
		}
		switch f.Type {
		case FrameHello:
			sess = l.getSession(f.Session)
			sc.sess.Store(sess)
			sc.nudgeAck()
		case FrameData:
			if sess == nil {
				l.quarantine(frameErrf(FrameNoSession, "seq %d from %s", f.Seq, remote), remote)
				recyclePackets(f.Packets)
				return
			}
			if !l.admitData(sc, sess, f, remote) {
				return
			}
		case FrameHeartbeat:
			l.queue <- item{conn: sc, isHB: true, hb: f.TS}
		case FrameBye:
			return
		case FrameAck:
			// Acks are server→client only; a client echoing one is harmless.
		}
	}
}

// admitData runs the sequence-number admission for one data frame,
// reporting whether the connection may continue. The CAS admits each
// sequence exactly once even when a stale reader races a reconnected one.
func (l *Listener) admitData(sc *serverConn, sess *session, f Frame, remote string) bool {
	for {
		next := sess.nextSeq.Load()
		switch {
		case f.Seq < next:
			// Duplicate delivery (resend overlap or a duplicated wire
			// frame): drop it, but re-ack so the client can prune.
			l.duplicates.Add(1)
			sc.nudgeAck()
			recyclePackets(f.Packets)
			return true
		case f.Seq > next:
			if next == 1 && sess.applied.Load() == 0 && sess.nextSeq.CompareAndSwap(1, f.Seq) {
				// A session this listener has never seen data for, resuming
				// above 1: a client outliving a server restarted without
				// restored state. Adopt its resend point — the pruned
				// frames are unrecoverable either way, and rejecting would
				// wedge the client in a reconnect loop.
				continue
			}
			// A gap means a frame vanished without the connection
			// dropping — the resend protocol can only repair it from the
			// last ack, so force the client around that path.
			l.quarantine(frameErrf(FrameBadSequence, "seq %d, expected %d", f.Seq, next), remote)
			recyclePackets(f.Packets)
			return false
		default:
			if !sess.nextSeq.CompareAndSwap(next, f.Seq+1) {
				continue // lost a race; re-evaluate
			}
			l.queue <- item{conn: sc, sess: sess, seq: f.Seq, pkts: f.Packets, sorted: f.Sorted}
			return true
		}
	}
}

// advanceApplied raises sess.applied to seq (monotonically).
func advanceApplied(sess *session, seq uint64) {
	for {
		cur := sess.applied.Load()
		if seq <= cur || sess.applied.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// pump is the single consumer of the intake queue: it logs and applies
// frames to the sink in arrival order, nudges their connection's ack writer,
// synthesizes heartbeats on idle, and triggers periodic checkpoints — what
// must be serial, and nothing that waits on a socket. It exits when the
// queue is closed (Shutdown) after draining every queued frame.
func (l *Listener) pump() {
	defer close(l.pumped)
	defer l.pumpStopped.Store(true)

	var ticker *time.Ticker
	var tick <-chan time.Time
	if l.cfg.HeartbeatInterval > 0 {
		ticker = time.NewTicker(l.cfg.HeartbeatInterval)
		tick = ticker.C
		defer ticker.Stop()
	}

	// One batch buffer is reused per frame.
	batch, err := gsql.NewBatch(gsql.PacketSchema("packets"))
	if err != nil {
		l.Fail(err) // the packet schema is fixed: not reachable
	}
	var lastTS float64 // latest stream time seen
	var lastTSSet bool
	lastActivity := time.Now()
	var sinceCkpt uint64

	apply := func(it item) {
		if l.failed.Load() {
			// The sink is poisoned; keep draining so readers do not hang on
			// a stalled queue — but neither apply nor acknowledge. Acking a
			// frame the sink never saw prunes it from the client's resend
			// buffer, and a supervisor restarting this runtime from its last
			// checkpoint could then never recover the data. Left unacked, the
			// client's ack timeout forces a reconnect and the frames are
			// resent to the healthy successor.
			return
		}
		if it.isHB {
			if lastTSSet && it.hb <= lastTS {
				return
			}
			lastTS, lastTSSet = it.hb, true
			lastActivity = time.Now()
			if l.cfg.WAL != nil {
				if err := l.cfg.WAL.LogHeartbeat(gsql.Int(int64(it.hb))); err != nil {
					l.Fail(err)
					return
				}
			}
			if err := l.cfg.Sink.Heartbeat(gsql.Int(int64(it.hb))); err != nil {
				l.Fail(err)
			}
			return
		}
		if l.cfg.WAL != nil {
			// Log-before-apply: once this frame is acked the client prunes
			// it, so the log entry (which carries session and sequence for
			// the successor's dedup table) must exist first. A crash between
			// log and ack merely leaves an unacked logged frame — the resend
			// is recognized as a duplicate after replay.
			if err := l.cfg.WAL.LogFrame(it.sess.id, it.seq, it.pkts); err != nil {
				l.Fail(err)
				return
			}
		}
		// The frame's packets become one batch, pushed in a single call; a
		// rejected (non-finite) row does not poison the frame.
		netgen.FillBatch(batch, it.pkts)
		batch.SetSorted(batch.Sorted() && it.sorted)
		l.tuplesIn.Add(uint64(len(it.pkts)))
		rej, err := l.cfg.Sink.PushBatch(batch)
		if rej > 0 {
			l.tuplesRejected.Add(uint64(rej))
		}
		if err != nil {
			l.Fail(err)
		} else {
			sinceCkpt += uint64(len(it.pkts) - rej)
			for _, p := range it.pkts {
				if p.Time > lastTS || !lastTSSet {
					lastTS, lastTSSet = p.Time, true
				}
			}
		}
		lastActivity = time.Now()
		if l.failed.Load() {
			// The sink died partway through this frame. Do not ack it: the
			// last checkpoint predates it, so the client must keep it in the
			// resend buffer for whichever incarnation restores from that
			// checkpoint.
			return
		}
		l.framesAccepted.Add(1)
		advanceApplied(it.sess, it.seq)
		it.conn.nudgeAck()
		if l.cfg.Checkpoint != nil && l.cfg.CheckpointEvery > 0 && sinceCkpt >= l.cfg.CheckpointEvery {
			sinceCkpt = 0
			if err := l.cfg.Checkpoint(); err != nil {
				l.Fail(err)
			}
		}
	}

	for {
		select {
		case it, ok := <-l.queue:
			if !ok {
				return
			}
			apply(it)
			// The packets were copied into the batch (or intentionally
			// dropped); their buffer goes back to the decode pool.
			recyclePackets(it.pkts)
		case <-tick:
			if l.failed.Load() || !lastTSSet {
				continue
			}
			idle := time.Since(lastActivity)
			if idle < l.cfg.HeartbeatInterval {
				continue
			}
			// Advance stream time by the idle wall-clock span so the open
			// bucket closes even though no client is talking.
			ts := lastTS + idle.Seconds()
			l.heartbeatsSynth.Add(1)
			if l.cfg.WAL != nil {
				// Synthesized heartbeats mutate stream time exactly like
				// client ones, so they must be replayable too.
				if err := l.cfg.WAL.LogHeartbeat(gsql.Int(int64(ts))); err != nil {
					l.Fail(err)
					continue
				}
			}
			if err := l.cfg.Sink.Heartbeat(gsql.Int(int64(ts))); err != nil {
				l.Fail(err)
			}
		}
	}
}

// Shutdown drains the listener to a quiescent sink: it stops accepting,
// closes every live connection, waits for the readers to finish flushing
// decoded frames into the queue, then waits for the pump to apply (and
// acknowledge) everything queued. After Shutdown returns nil the sink is
// exclusively the caller's: safe to checkpoint, close, or discard. The
// timeout bounds the whole drain; on expiry the listener is torn down
// anyway and an error returned (frames still queued are lost to this
// process — a reconnecting client will resend them to its successor).
func (l *Listener) Shutdown(timeout time.Duration) error {
	l.mu.Lock()
	if l.closing {
		l.mu.Unlock()
		<-l.pumped
		return l.Err()
	}
	l.closing = true
	conns := make([]*serverConn, 0, len(l.conns))
	for sc := range l.conns {
		conns = append(conns, sc)
	}
	l.mu.Unlock()

	l.nl.Close()
	// Closing the conns makes every reader's next ReadFrame fail; readers
	// blocked enqueuing finish their send first (the pump keeps draining).
	for _, sc := range conns {
		sc.c.Close()
	}

	done := make(chan struct{})
	go func() {
		l.readers.Wait()
		close(l.queue) // the pump drains buffered items, then exits
		close(done)
	}()

	var deadline <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case <-done:
	case <-deadline:
		return fmt.Errorf("ingest: drain timed out after %v with readers still active", timeout)
	}
	select {
	case <-l.pumped:
	case <-deadline:
		return fmt.Errorf("ingest: drain timed out after %v with frames still queued", timeout)
	}
	return l.Err()
}
