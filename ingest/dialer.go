package ingest

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"forwarddecay/internal/core"
	"forwarddecay/netgen"
)

// DialerConfig parameterizes a Dialer. The zero value of every field is a
// usable default.
type DialerConfig struct {
	// BatchSize is the number of packets per data frame (default 256).
	BatchSize int
	// MinBackoff and MaxBackoff bound the reconnect backoff (defaults
	// 50ms and 2s). The delay doubles per consecutive failure, capped at
	// MaxBackoff, with uniform jitter over the upper half.
	MinBackoff time.Duration
	MaxBackoff time.Duration
	// MaxDials bounds the total number of dial attempts (0 = unlimited).
	// When exhausted, the pending operation fails with the last dial error.
	MaxDials int
	// Window is the maximum number of unacknowledged data frames in flight
	// before Send blocks (default 32).
	Window int
	// AckTimeout bounds how long a full window waits for an ack before the
	// connection is declared dead and redialed (default 5s).
	AckTimeout time.Duration
	// Session identifies this logical stream across reconnects. Zero picks
	// a random id; pass an explicit id to resume a stream a previous
	// process started.
	Session uint64
	// Seed fixes the jitter RNG for deterministic tests (0 = seeded from
	// the session id).
	Seed uint64
	// Logf, when set, receives diagnostic messages (reconnects, backoff).
	Logf func(format string, args ...any)
}

// DialerStats counts a Dialer's connection and resend activity.
type DialerStats struct {
	// Dials counts every dial attempt, successful or not.
	Dials uint64
	// Reconnects counts successful dials after the first.
	Reconnects uint64
	// FramesSent counts first transmissions of data frames.
	FramesSent uint64
	// FramesResent counts retransmissions after a reconnect: frames that had
	// been written to an earlier connection. A frame queued while no
	// connection existed yet (the lazy first dial) goes out for the first
	// time on the new one and is not a resend.
	FramesResent uint64
	// PacketsSent counts packets in first transmissions.
	PacketsSent uint64
}

// sentFrame is an unacknowledged data frame retained for resend.
type sentFrame struct {
	seq uint64
	buf []byte // sealed wire encoding; back to Dialer.free once acknowledged
	// written records that a write of the frame was attempted on some
	// connection, which is what makes its next transmission a resend.
	written bool
}

// Dialer streams packets to an ingest Listener with automatic reconnect
// and resume: data frames are retained until the server acknowledges them
// and resent after any reconnect, so a flaky network yields a complete,
// in-order stream at the server. Not safe for concurrent use — like the
// runs it ultimately feeds, it has a single-producer contract.
type Dialer struct {
	network, address string
	cfg              DialerConfig
	rng              *core.RNG

	batch   []netgen.Packet
	nextSeq uint64

	mu      sync.Mutex
	unacked []sentFrame
	// free holds the buffers of acknowledged frames for Flush to encode the
	// next ones into; the window bounds how many buffers exist at all.
	free     [][]byte
	lastAck  uint64
	notify   chan struct{} // 1-buffered: ack-reader kicks waiters
	ackTimer *time.Timer   // waitAckProgress's timeout, reused across waits
	conn     net.Conn
	connGen  uint64 // guards stale ack-readers after a reconnect
	dialFail int    // consecutive dial failures (backoff exponent)
	stats    DialerStats
}

// Dial creates a Dialer for the given network ("tcp" or "unix") and
// address. The first connection is established lazily on the first flush,
// so Dial itself cannot fail — a server that is not up yet is just one
// more fault the reconnect path absorbs.
func Dial(network, address string, cfg DialerConfig) *Dialer {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 256
	}
	if cfg.MinBackoff <= 0 {
		cfg.MinBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	if cfg.Window <= 0 {
		cfg.Window = 32
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 5 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = cfg.Session
	}
	if cfg.Session == 0 {
		// Random session id from the wall clock; collisions across clients
		// of one listener are the only hazard, and 64 bits of mixed
		// nanoseconds make them negligible.
		cfg.Session = core.Mix64(uint64(time.Now().UnixNano()))
		if seed == 0 {
			seed = cfg.Session
		}
	}
	return &Dialer{
		network: network,
		address: address,
		cfg:     cfg,
		rng:     core.NewRNG(seed),
		batch:   make([]netgen.Packet, 0, cfg.BatchSize),
		nextSeq: 1,
		notify:  make(chan struct{}, 1),
	}
}

// Session returns the session id in use (useful when Dial generated one).
func (d *Dialer) Session() uint64 { return d.cfg.Session }

// Stats snapshots the dialer's counters.
func (d *Dialer) Stats() DialerStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Send buffers one packet, flushing a full batch as a data frame. It
// blocks while the unacked window is full and returns an error only when
// the reconnect budget (MaxDials) is exhausted.
func (d *Dialer) Send(p netgen.Packet) error {
	d.batch = append(d.batch, p)
	if len(d.batch) >= d.cfg.BatchSize {
		return d.Flush()
	}
	return nil
}

// Flush seals the current batch (if any) into a data frame and transmits
// it, blocking while the unacked window is full.
func (d *Dialer) Flush() error {
	if len(d.batch) == 0 {
		return nil
	}
	seq := d.nextSeq
	d.nextSeq++
	var buf []byte
	d.mu.Lock()
	if n := len(d.free); n > 0 {
		buf, d.free = d.free[n-1][:0], d.free[:n-1]
	}
	d.mu.Unlock()
	buf = AppendData(buf, seq, d.batch)
	npkts := len(d.batch)
	d.batch = d.batch[:0]

	if err := d.waitWindow(); err != nil {
		return err
	}
	d.mu.Lock()
	d.unacked = append(d.unacked, sentFrame{seq: seq, buf: buf, written: d.conn != nil})
	d.stats.FramesSent++
	d.stats.PacketsSent += uint64(npkts)
	err := d.writeLocked(buf)
	d.mu.Unlock()
	if err != nil {
		// The frame is retained in unacked; the next operation reconnects
		// and resends it.
		return d.ensureConn()
	}
	return nil
}

// Heartbeat flushes any buffered packets, then sends a heartbeat frame
// advancing the server's stream clock to ts. Heartbeats are idempotent and
// unacknowledged: one lost to a connection drop is simply not resent.
func (d *Dialer) Heartbeat(ts float64) error {
	if err := d.Flush(); err != nil {
		return err
	}
	buf := AppendHeartbeat(nil, ts)
	d.mu.Lock()
	err := d.writeLocked(buf)
	d.mu.Unlock()
	if err != nil {
		return d.ensureConn()
	}
	return nil
}

// Close flushes buffered packets, waits until every data frame is
// acknowledged (reconnecting and resending as needed), sends Bye, and
// closes the connection.
func (d *Dialer) Close() error {
	if err := d.Flush(); err != nil {
		return err
	}
	for {
		d.mu.Lock()
		drained := len(d.unacked) == 0
		d.mu.Unlock()
		if drained {
			break
		}
		if err := d.waitAckProgress(); err != nil {
			return err
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.conn != nil {
		d.conn.Write(AppendBye(nil))
		d.conn.Close()
		d.conn = nil
		d.connGen++
	}
	return nil
}

// waitWindow blocks until the unacked window has room.
func (d *Dialer) waitWindow() error {
	for {
		d.mu.Lock()
		room := len(d.unacked) < d.cfg.Window
		d.mu.Unlock()
		if room {
			return nil
		}
		if err := d.waitAckProgress(); err != nil {
			return err
		}
	}
}

// waitAckProgress ensures a live connection, then waits for an ack (or the
// ack timeout, which declares the connection dead so the next pass
// reconnects and resends).
func (d *Dialer) waitAckProgress() error {
	if err := d.ensureConn(); err != nil {
		return err
	}
	if d.ackTimer == nil {
		d.ackTimer = time.NewTimer(d.cfg.AckTimeout)
	} else {
		d.ackTimer.Reset(d.cfg.AckTimeout)
	}
	select {
	case <-d.notify:
		if !d.ackTimer.Stop() {
			<-d.ackTimer.C // fired meanwhile: leave the channel empty for the next Reset
		}
		return nil
	case <-d.ackTimer.C:
		d.cfg.Logf("ingest: no ack in %v, reconnecting", d.cfg.AckTimeout)
		d.dropConn()
		return nil
	}
}

// dropConn kills the current connection so ensureConn redials.
func (d *Dialer) dropConn() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.conn != nil {
		d.conn.Close()
		d.conn = nil
		d.connGen++
	}
}

// writeLocked writes to the live connection; d.mu must be held. A nil or
// failed connection is dropped and reported — the caller routes through
// ensureConn to heal.
func (d *Dialer) writeLocked(buf []byte) error {
	if d.conn == nil {
		return io.ErrClosedPipe
	}
	if _, err := d.conn.Write(buf); err != nil {
		d.conn.Close()
		d.conn = nil
		d.connGen++
		return err
	}
	return nil
}

// ensureConn returns once a healthy connection exists, dialing with capped
// exponential backoff and jitter, performing the hello/ack handshake,
// pruning acknowledged frames, and retransmitting the rest. It fails only
// when MaxDials is exhausted.
func (d *Dialer) ensureConn() error {
	for {
		d.mu.Lock()
		if d.conn != nil {
			d.mu.Unlock()
			return nil
		}
		attempt := d.dialFail
		dials := d.stats.Dials
		d.mu.Unlock()

		if d.cfg.MaxDials > 0 && dials >= uint64(d.cfg.MaxDials) {
			return fmt.Errorf("ingest: giving up after %d dial attempts to %s %s", dials, d.network, d.address)
		}
		if attempt > 0 {
			d.sleepBackoff(attempt)
		}

		d.mu.Lock()
		d.stats.Dials++
		d.mu.Unlock()
		conn, acked, err := d.handshake()
		if err != nil {
			d.mu.Lock()
			d.dialFail++
			d.mu.Unlock()
			d.cfg.Logf("ingest: dial %s %s: %v", d.network, d.address, err)
			continue
		}

		d.mu.Lock()
		d.dialFail = 0
		if d.stats.Dials > 1 {
			d.stats.Reconnects++
		}
		if acked > d.lastAck {
			d.lastAck = acked
		}
		d.pruneLocked()
		resend := make([][]byte, len(d.unacked))
		for i := range d.unacked {
			sf := &d.unacked[i]
			resend[i] = sf.buf
			if sf.written {
				d.stats.FramesResent++
			}
			sf.written = true
		}
		d.conn = conn
		d.connGen++
		gen := d.connGen
		d.mu.Unlock()

		ok := true
		for _, buf := range resend {
			if _, err := conn.Write(buf); err != nil {
				d.cfg.Logf("ingest: resend failed: %v", err)
				ok = false
				break
			}
		}
		if !ok {
			d.mu.Lock()
			if d.connGen == gen {
				d.conn.Close()
				d.conn = nil
				d.connGen++
			}
			d.mu.Unlock()
			continue
		}
		go d.readAcks(conn, gen)
		return nil
	}
}

// handshake dials, sends Hello, and waits for the server's cumulative ack.
func (d *Dialer) handshake() (net.Conn, uint64, error) {
	conn, err := net.DialTimeout(d.network, d.address, 2*time.Second)
	if err != nil {
		return nil, 0, err
	}
	if _, err := conn.Write(AppendHello(nil, d.cfg.Session)); err != nil {
		conn.Close()
		return nil, 0, err
	}
	conn.SetReadDeadline(time.Now().Add(d.cfg.AckTimeout))
	fr := NewFrameReader(conn, DefaultMaxFrame)
	f, err := fr.ReadFrame()
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		conn.Close()
		return nil, 0, fmt.Errorf("hello ack: %w", err)
	}
	if f.Type != FrameAck {
		conn.Close()
		return nil, 0, fmt.Errorf("hello ack: got frame type %d", f.Type)
	}
	return conn, f.Seq, nil
}

// sleepBackoff sleeps the shared capped-exponential-with-jitter policy for
// the given consecutive-failure count (core.Backoff is the one retry policy
// for the whole repository — the server supervisor uses the same curve).
func (d *Dialer) sleepBackoff(fails int) {
	b := core.Backoff{Min: d.cfg.MinBackoff, Max: d.cfg.MaxBackoff}
	time.Sleep(b.Delay(fails, d.rng))
}

// pruneLocked discards unacked frames covered by lastAck, returning their
// buffers to the free list; d.mu held.
func (d *Dialer) pruneLocked() {
	i := 0
	for i < len(d.unacked) && d.unacked[i].seq <= d.lastAck {
		d.free = append(d.free, d.unacked[i].buf)
		i++
	}
	if i > 0 {
		d.unacked = append(d.unacked[:0], d.unacked[i:]...)
	}
}

// readAcks consumes server acks on one connection until it dies, pruning
// the resend buffer and waking window waiters. gen guards against a stale
// reader mutating state after a reconnect replaced the connection.
func (d *Dialer) readAcks(conn net.Conn, gen uint64) {
	fr := NewFrameReader(conn, DefaultMaxFrame)
	for {
		f, err := fr.ReadFrame()
		if err != nil {
			d.mu.Lock()
			if d.connGen == gen && d.conn != nil {
				d.conn.Close()
				d.conn = nil
				d.connGen++
			}
			d.mu.Unlock()
			d.kick()
			return
		}
		if f.Type != FrameAck {
			continue
		}
		d.mu.Lock()
		if d.connGen != gen {
			d.mu.Unlock()
			return
		}
		if f.Seq > d.lastAck {
			d.lastAck = f.Seq
			d.pruneLocked()
		}
		d.mu.Unlock()
		d.kick()
	}
}

// kick wakes one waiter without blocking.
func (d *Dialer) kick() {
	select {
	case d.notify <- struct{}{}:
	default:
	}
}
