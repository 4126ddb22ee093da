package server

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"forwarddecay/gsql"
	"forwarddecay/ingest"
	"forwarddecay/internal/codec"
	"forwarddecay/internal/core"
	"forwarddecay/internal/faultinject"
	"forwarddecay/metrics"
	"forwarddecay/netgen"
)

// Mode is the service's coarse health state, exposed on /healthz and
// consulted by the control plane.
type Mode int32

const (
	// ModeHealthy: a live runtime is serving queries and ingest.
	ModeHealthy Mode = iota
	// ModeRestarting: the supervisor is between incarnations (teardown,
	// backoff, rebuild). Control requests fail fast with CodeDegraded.
	ModeRestarting
	// ModeDegraded: the circuit breaker is open. Ingest frames are still
	// accepted and written to the WAL, but no runtime is applying them;
	// query operations return CodeDegraded until a probe rebuild sticks.
	ModeDegraded
)

func (m Mode) String() string {
	switch m {
	case ModeHealthy:
		return "healthy"
	case ModeRestarting:
		return "restarting"
	case ModeDegraded:
		return "degraded"
	}
	return fmt.Sprintf("mode(%d)", int32(m))
}

// Config parameterizes a Service. Zero values are usable defaults for
// everything except Dir, ControlAddr and IngestAddr.
type Config struct {
	// Dir is the state directory: the checkpoint state file and the WAL of
	// ingest and catalog changes live here. Required.
	Dir string
	// ControlAddr is the control-plane listen address ("host:port" or
	// "unix:/path"). Required.
	ControlAddr string
	// IngestAddr is the ingest wire-protocol listen address. Required.
	IngestAddr string
	// HTTPAddr, when set, serves /healthz and /metrics there.
	HTTPAddr string
	// Tokens are the accepted session tokens; empty means unauthenticated.
	Tokens []string
	// ResultLog is the per-query result ring capacity (default 1024).
	ResultLog int
	// SubscriberBatch bounds rows fetched per subscriber write (default 64)
	// — the per-subscriber output queue depth.
	SubscriberBatch int
	// CheckpointEvery checkpoints after that many applied tuples
	// (default 8192).
	CheckpointEvery uint64
	// HeartbeatInterval synthesizes ingest heartbeats on idle (0 = off).
	HeartbeatInterval time.Duration
	// Backoff paces supervisor rebuild attempts; zero value = defaults.
	Backoff core.Backoff
	// BreakerThreshold is the consecutive-failure count that opens the
	// circuit breaker into degraded mode (default 3).
	BreakerThreshold int
	// BreakerCooldown is the degraded dwell before a half-open probe
	// rebuild (default 2s).
	BreakerCooldown time.Duration
	// HealthyAfter is the healthy uptime that closes the breaker and
	// resets the failure count (default 3s).
	HealthyAfter time.Duration
	// WedgeTimeout declares the runtime wedged when a single apply has
	// been in flight this long (default 10s; the watchdog then tears the
	// incarnation down and rebuilds from the checkpoint).
	WedgeTimeout time.Duration
	// DrainTimeout bounds the graceful-shutdown drain (default 5s).
	DrainTimeout time.Duration
	// QueryBreakerErrors is the consecutive per-query evaluation-failure
	// count that quarantines a standing query (default 16, which zero or a
	// negative value also selects). Per-query fault isolation is how the
	// runtime works, not something this can turn off.
	QueryBreakerErrors int
	// QueryMaxGroups caps one query's live group cardinality; exceeding it
	// quarantines the query (0 = unlimited).
	QueryMaxGroups int
	// AdmitBudget caps the catalog's summed estimated per-tuple cost (gsql
	// cost units: each query's group expressions and aggregate steps, and
	// its WHERE at a flat charge when its predicate class already runs);
	// an attach that would exceed it is rejected with CodeAdmission and the
	// running catalog is untouched (0 = unlimited). Lowering it below the
	// running catalog's usage across a restart makes the rebuild fail —
	// raise it back or detach first.
	AdmitBudget float64
	// Seed feeds the supervisor's jittered backoff.
	Seed uint64
	// Logf receives diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.ResultLog <= 0 {
		c.ResultLog = 1024
	}
	if c.SubscriberBatch <= 0 {
		c.SubscriberBatch = 64
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 8192
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.HealthyAfter <= 0 {
		c.HealthyAfter = 3 * time.Second
	}
	if c.WedgeTimeout <= 0 {
		c.WedgeTimeout = 10 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.QueryBreakerErrors <= 0 {
		c.QueryBreakerErrors = 16
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Query is one catalog entry. It outlives runtime incarnations: the result
// ring (and with it every subscriber's cursor) survives a supervised
// restart; only the engine run inside the incarnation is rebuilt.
type Query struct {
	ID   uint32
	Text string
	log  *resultLog
	// quar is non-nil while the query is quarantined: fenced out of the
	// shared pass, its last-good partials retained for an operator Revive.
	// Stored atomically because the quarantine callback fires on the ingest
	// pump under rt.mu, where s.mu must not be taken.
	quar atomic.Pointer[quarInfo]
}

// quarInfo is the quarantine record carried by a fenced query: why it was
// fenced and the engine partials retained at that instant (the revive seed).
type quarInfo struct {
	reason   string
	retained []byte
}

// Quarantined reports whether the query is fenced, and why.
func (q *Query) Quarantined() (bool, string) {
	if qi := q.quar.Load(); qi != nil {
		return true, qi.reason
	}
	return false, ""
}

// queryRun is the per-incarnation engine handle for one query.
type queryRun struct {
	q *Query
	// pending holds the rows the run emitted during the apply in progress,
	// encoded as the engine handed them over; flushEmits copies them into
	// the ring.
	pending rowBuf
	h       *gsql.MultiHandle
}

// close flushes the run's open bucket and takes it off the shared feed.
func (run *queryRun) close() error {
	err := run.h.Close()
	run.h.Detach()
	return err
}

// runtime is one supervised incarnation: WAL appender, engine runs and the
// ingest listener, all rebuilt from disk on every (re)start — a supervised
// restart and a process restart walk the same code path.
type runtime struct {
	gen uint64
	// mu serializes the apply path (WAL append + fan-out) against catalog
	// mutation, so an attach observes a frame-aligned WAL position. It is
	// ACQUIRED in the ApplyLog hooks (LogFrame/LogHeartbeat) and RELEASED
	// at the end of the subsequent sink call — safe because the ingest
	// pump is the only goroutine driving either. Lock order: s.mu → rt.mu.
	mu   sync.Mutex
	wal  *ingestWAL
	runs map[uint32]*queryRun
	// emitted lists the runs with pending rows, in order of first emission.
	// Sinks fill it during an apply and flushEmits drains it at its end, so a
	// ring is locked, and its waiters woken, once per apply instead of once
	// per row.
	emitted []*queryRun
	// multi is the incarnation's shared execution runtime: every attached
	// query is a member of this one MultiRun, so the apply path makes a
	// single pass over each frame no matter how many queries are live.
	// Nil on degraded (WAL-only) incarnations.
	multi    *gsql.MultiRun
	listener *ingest.Listener
	// inflight is the UnixNano start of the apply in progress (0 = idle);
	// the watchdog reads it to detect a wedged runtime.
	inflight atomic.Int64
	// killed is closed by Kill to simulate an abrupt process death.
	killed chan struct{}
	// replaying is true while buildRuntime re-feeds the WAL tail: quarantines
	// that re-fire there are deterministic re-derivations of fences the log
	// already records, so the OnQuarantine hook appends nothing. Written
	// before the listener starts; never raced.
	replaying bool
	// fenced is set at teardown. The emit sinks of this incarnation check it
	// and refuse to append once set: a wedged (zombie) pump that wakes up
	// after the successor has thawed the rings must not land stale rows in
	// them — the successor's WAL replay re-derives those rows itself.
	fenced atomic.Bool
	// degraded marks a WAL-only incarnation (breaker open).
	degraded bool

	// persistMu is held from the start of a cut to the end of its persist:
	// locked by the cutter, unlocked by the persister (by the cutter, if the
	// cut fails). A cut thereby waits for the previous persist. It guards the
	// three fields below; outer to s.mu, and the persister takes no other lock.
	persistMu   sync.Mutex
	persistJobs chan persistJob // nil until the first cut starts the persister
	persistDone chan struct{}   // closed when the persister has exited
	persistErr  error           // sticky: the first persist failure, or errFenced once joined
}

// persistJob is one cut handed to the persister.
type persistJob struct {
	image []byte   // the state image with watermark (epoch+1, 0), not yet sealed
	epoch uint64   // the WAL epoch the cut closed
	wal   *os.File // that epoch's file, to be fsynced and closed
}

// Service is the long-lived query service. Create with New, stop with
// Shutdown.
type Service struct {
	cfg Config

	mu      sync.Mutex // catalog + checkpoint + lifecycle; outer to rt.mu
	queries map[uint32]*Query
	nextID  uint32
	// stateSize is the size of the last checkpoint's state file image: the
	// next one is assembled in a buffer allocated once, at about that size.
	stateSize int

	rt   atomic.Pointer[runtime]
	gen  atomic.Uint64
	mode atomic.Int32
	// fails is the consecutive-failure counter feeding the breaker
	// (supervisor goroutine only).
	fails atomic.Int32

	// rings is a COW snapshot of every live result ring, readable without
	// any lock — the watchdog freezes them even while s.mu or rt.mu is
	// held by a wedged path.
	rings atomic.Pointer[[]*resultLog]

	counters *metrics.CounterSet
	gauges   *metrics.GaugeSet
	rng      *core.RNG

	ctl        net.Listener
	ingestAddr string // concrete ingest address (SplitAddr form), stable across incarnations
	httpClose  func() error
	httpAddr   string

	ctlMu     sync.Mutex
	ctlConns  map[*ctlConn]struct{}
	ctlClosed bool

	stop     chan struct{}
	done     chan struct{}
	conns    sync.WaitGroup
	shutOnce sync.Once
	shutErr  error
}

// New builds the service, binds its listeners, recovers state from
// cfg.Dir, and starts the supervisor. It returns once the first incarnation
// is serving (or with the service in degraded/restarting state if the first
// build failed — the supervisor keeps trying).
func New(cfg Config) (*Service, error) {
	cfg.fill()
	if cfg.Dir == "" || cfg.ControlAddr == "" || cfg.IngestAddr == "" {
		return nil, fmt.Errorf("server: Dir, ControlAddr and IngestAddr are required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: state dir: %w", err)
	}
	if err := dropLegacyJournal(cfg.Dir); err != nil {
		return nil, err
	}
	s := &Service{
		cfg:      cfg,
		queries:  map[uint32]*Query{},
		nextID:   1,
		counters: metrics.NewCounterSet(),
		gauges:   metrics.NewGaugeSet(),
		rng:      core.NewRNG(cfg.Seed ^ 0x5eed),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		ctlConns: map[*ctlConn]struct{}{},
	}
	s.mode.Store(int32(ModeRestarting))
	s.rings.Store(new([]*resultLog))

	network, address := ingest.SplitAddr(cfg.ControlAddr)
	ctl, err := net.Listen(network, address)
	if err != nil {
		return nil, fmt.Errorf("server: control listen: %w", err)
	}
	s.ctl = ctl
	if cfg.HTTPAddr != "" {
		if err := s.startHTTP(cfg.HTTPAddr); err != nil {
			ctl.Close()
			return nil, err
		}
	}

	first := make(chan struct{})
	go s.supervise(first)
	go s.acceptControl()
	<-first
	return s, nil
}

// ControlAddr returns the concrete control-plane address.
func (s *Service) ControlAddr() net.Addr { return s.ctl.Addr() }

// IngestAddr returns the concrete ingest address in the "host:port" /
// "unix:/path" form ingest.SplitAddr reads ("" until the first incarnation
// has bound it).
func (s *Service) IngestAddr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ingestAddr
}

// Mode returns the current health mode.
func (s *Service) Mode() Mode { return Mode(s.mode.Load()) }

// Counters exposes the service metric registry (for /metrics and tests).
func (s *Service) Counters() *metrics.CounterSet { return s.counters }

// supervise is the watchdog loop: build an incarnation from disk, watch it,
// tear it down on failure, back off, rebuild; open the breaker into
// WAL-only degraded mode after BreakerThreshold consecutive failures and
// probe again after the cooldown. first is closed once the initial build
// attempt (successful or not) completes.
func (s *Service) supervise(first chan struct{}) {
	defer close(s.done)
	firstDone := func() {
		if first != nil {
			close(first)
			first = nil
		}
	}
	for {
		select {
		case <-s.stop:
			firstDone()
			return
		default:
		}

		degraded := int(s.fails.Load()) >= s.cfg.BreakerThreshold
		rt, err := s.buildRuntime(degraded)
		if err != nil {
			s.cfg.Logf("server: build failed (fails=%d): %v", s.fails.Load(), err)
			s.counters.Add("server_build_failures", 1)
			s.fails.Add(1)
			firstDone()
			if !s.cfg.Backoff.Sleep(int(s.fails.Load()), s.rng, s.stop) {
				return
			}
			continue
		}

		if rt.degraded {
			s.mode.Store(int32(ModeDegraded))
			s.counters.Add("server_degraded_entered", 1)
			s.cfg.Logf("server: breaker open — degraded to WAL-only ingest (cooldown %v)", s.cfg.BreakerCooldown)
		} else {
			s.mode.Store(int32(ModeHealthy))
		}
		s.rt.Store(rt)
		firstDone()

		verdict := s.watch(rt)
		if verdict == watchStop {
			return // Shutdown drains and checkpoints the live incarnation
		}
		s.rt.Store(nil)
		s.mode.Store(int32(ModeRestarting))
		s.teardown(rt)
		switch verdict {
		case watchHealed:
			// A degraded incarnation served its cooldown; probe a full
			// rebuild with the slate half-clean: one more failure reopens
			// the breaker immediately, a healthy dwell closes it.
			s.fails.Store(int32(s.cfg.BreakerThreshold) - 1)
		case watchFailed:
			s.fails.Add(1)
			s.counters.Add("server_restarts", 1)
			if !s.cfg.Backoff.Sleep(int(s.fails.Load()), s.rng, s.stop) {
				return
			}
		}
	}
}

type watchVerdict int

const (
	watchFailed watchVerdict = iota // runtime died or wedged: restart
	watchHealed                     // degraded cooldown served: probe
	watchStop                       // service shutting down
)

// watch monitors one incarnation until it fails, heals, or the service
// stops.
func (s *Service) watch(rt *runtime) watchVerdict {
	tick := time.NewTicker(15 * time.Millisecond)
	defer tick.Stop()
	start := time.Now()
	var cooldown <-chan time.Time
	if rt.degraded {
		t := time.NewTimer(s.cfg.BreakerCooldown)
		defer t.Stop()
		cooldown = t.C
	}
	for {
		select {
		case <-s.stop:
			return watchStop
		case <-rt.killed:
			s.cfg.Logf("server: incarnation gen=%d killed", rt.gen)
			return watchFailed
		case <-cooldown:
			return watchHealed
		case <-tick.C:
			if err := rt.listener.Err(); err != nil {
				s.cfg.Logf("server: incarnation gen=%d failed: %v", rt.gen, err)
				return watchFailed
			}
			if t := rt.inflight.Load(); t != 0 && time.Since(time.Unix(0, t)) > s.cfg.WedgeTimeout {
				s.cfg.Logf("server: incarnation gen=%d wedged (apply in flight > %v)", rt.gen, s.cfg.WedgeTimeout)
				s.counters.Add("server_wedges", 1)
				return watchFailed
			}
			if !rt.degraded && s.fails.Load() > 0 && time.Since(start) >= s.cfg.HealthyAfter {
				s.fails.Store(0)
				s.counters.Add("server_healed", 1)
				s.cfg.Logf("server: incarnation gen=%d healthy for %v — breaker closed", rt.gen, s.cfg.HealthyAfter)
			}
		}
	}
}

// teardown abandons an incarnation WITHOUT checkpointing: freeze the rings
// (so run teardown cannot pollute cursors), drain the listener
// best-effort, let a persist in flight finish (the successor reads the
// directory next), close the WAL file. State recovery is disk's job.
func (s *Service) teardown(rt *runtime) {
	// Fence first: even if a wedged pump wakes after the successor thaws the
	// rings, its sink refuses to emit.
	rt.fenced.Store(true)
	for _, rl := range *s.rings.Load() {
		rl.freeze()
	}
	// Bounded drain: applied frames were WAL-logged first, so anything the
	// drain salvages is also recoverable; anything it cannot salvage is
	// unacked and will be resent. A wedged pump makes this time out —
	// that's fine, the incarnation is dead either way.
	if err := rt.listener.Shutdown(500 * time.Millisecond); err != nil {
		s.cfg.Logf("server: teardown drain: %v", err)
	}
	rt.joinPersister()
	drained := rt.listener.Err() == nil && !rt.pumpWedged()
	// Close the WAL file WITHOUT rt.mu: a wedged pump may hold that lock
	// forever, and the close is exactly what fences such a zombie — once the
	// file is closed, any append it attempts fails instead of landing bytes
	// the successor (which scans the file next) would never account for.
	rt.wal.close()
	if drained {
		// The pump exited, so the runs are exclusively ours to close. Their
		// partial-bucket flush lands on frozen rings and is discarded — the
		// successor's replay re-derives those rows. A wedged pump still owns
		// its run; leak it instead of violating the single-producer contract.
		for _, run := range rt.runs {
			run.close()
		}
	}
}

// pumpWedged reports whether an apply is still in flight (the pump never
// exited).
func (rt *runtime) pumpWedged() bool { return rt.inflight.Load() != 0 }

// Kill simulates an abrupt process death of the runtime (the drill's
// SIGKILL): no checkpoint, no graceful anything — the supervisor notices
// and rebuilds from the last durable state. Safe to call repeatedly.
func (s *Service) Kill() {
	rt := s.rt.Load()
	if rt == nil {
		return
	}
	select {
	case <-rt.killed:
	default:
		close(rt.killed)
	}
}

// Shutdown drains the service to a final checkpoint and stops everything.
func (s *Service) Shutdown() error {
	s.shutOnce.Do(func() {
		close(s.stop)
		<-s.done // supervisor exited; rt pointer is stable now
		rt := s.rt.Load()
		s.rt.Store(nil)
		if rt != nil {
			// Drain in-flight frames, then take the final checkpoint — unless
			// nothing, frame or catalog change, was logged since the last one:
			// the state file is then already the whole truth, and a reopen
			// has nothing to replay either way.
			drainErr := rt.listener.Shutdown(s.cfg.DrainTimeout)
			s.shutErr = drainErr
			rt.mu.Lock()
			logged := !rt.degraded && rt.wal.applied > 0
			rt.mu.Unlock()
			if logged {
				if err := s.checkpoint(rt); err != nil && s.shutErr == nil {
					s.shutErr = err
				}
			}
			if err := rt.joinPersister(); err != nil && s.shutErr == nil {
				s.shutErr = err
			}
			rt.wal.close()
			rt.fenced.Store(true) // fence any pump that failed to drain
			if drainErr == nil {
				// The pump exited, so the runs are ours to close (as in
				// teardown): the open bucket's flush is refused by the
				// fence — the checkpoint above has those partials.
				for _, run := range rt.runs {
					run.close()
				}
			}
		}
		for _, rl := range *s.rings.Load() {
			rl.close()
		}
		s.ctl.Close()
		s.closeControlConns()
		if s.httpClose != nil {
			s.httpClose()
		}
		s.conns.Wait()
	})
	return s.shutErr
}

// nextGen allocates an incarnation generation.
func (s *Service) nextGen() uint64 { return s.gen.Add(1) }

// buildRuntime constructs an incarnation from disk truth: the state file and
// the log after its watermark, re-fed through the same shared pass the live
// pump drives (replay). With degraded=true it builds a WAL-only incarnation
// instead: no engine runs, frames ack straight after logging.
func (s *Service) buildRuntime(degraded bool) (*runtime, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	st, err := loadState(s.cfg.Dir)
	if err != nil {
		return nil, err
	}
	if st == nil {
		st = &serverState{sessions: map[uint64]uint64{}} // a fresh directory: the whole log replays
	}
	wal, recs, err := openWAL(s.cfg.Dir, walPos{st.walEpoch, st.walApplied})
	if err != nil {
		return nil, err
	}
	built := false
	defer func() {
		if !built {
			wal.close()
		}
	}()

	rt := &runtime{
		gen:      s.nextGen(),
		wal:      wal,
		runs:     map[uint32]*queryRun{},
		killed:   make(chan struct{}),
		degraded: degraded,
	}

	// Sessions: checkpointed acks ∪ logged-frame watermarks from the
	// replayable tail, so a resent frame that was logged (but whose ack
	// died with the predecessor) is recognized as a duplicate.
	sessions := st.sessions
	for _, rec := range recs {
		if rec.kind == recFrame && rec.seq > sessions[rec.sess] {
			sessions[rec.sess] = rec.seq
		}
	}
	s.nextID = max(s.nextID, st.nextQueryID)

	if !degraded {
		// One engine, one MultiRun: every query attaches to the same feed,
		// and a frame is one shared pass.
		eng := gsql.NewEngine()
		if err := eng.RegisterStream(gsql.PacketSchema("TCP")); err != nil {
			return nil, err
		}
		if rt.multi, err = gsql.NewMultiRun(eng, "TCP", gsql.Options{Isolate: s.isolateConfig(rt)}); err != nil {
			return nil, err
		}
		rt.replaying = true
		err = s.replay(rt, st.queries, recs)
		rt.replaying = false
		if err != nil {
			return nil, err
		}
	}
	out, err := s.finishBuild(rt, sessions)
	built = err == nil
	return out, err
}

func (s *Service) newRing() *resultLog {
	rl := newResultLog(s.cfg.ResultLog)
	rl.onShed = func(rows uint64) { s.counters.Add("server_rows_shed", rows) }
	rl.onDisconnect = func() { s.counters.Add("server_slow_disconnects", 1) }
	return rl
}

// startRun attaches (or restores) a query onto the incarnation's shared
// MultiRun as its run, sinking rows into its result ring. The incarnation's
// teardown fence gates every emit: once it flips, the sink refuses to append
// (see runtime.fenced). Identical query texts share one compiled plan inside
// the MultiRun; each attach still owns its ring, cursor and checkpoints.
//
// Callers mutating a live incarnation must hold rt.mu — the attach touches
// the same shared-pass state the apply path walks.
func (s *Service) startRun(rt *runtime, q *Query, ckpt []byte) (*queryRun, error) {
	fence := &rt.fenced
	run := &queryRun{q: q}
	// Each row is encoded once, here on the pump and outside the ring lock,
	// and the bytes are copied into the ring by flushEmits.
	sink := func(row gsql.Tuple) error {
		if fence.Load() {
			return errFenced
		}
		if run.pending.n == 0 {
			rt.emitted = append(rt.emitted, run)
		}
		run.pending.add(row)
		return nil
	}
	var (
		h   *gsql.MultiHandle
		err error
	)
	if ckpt != nil {
		h, err = rt.multi.Restore(q.Text, 0, ckpt, sink)
	} else {
		h, err = rt.multi.Attach(q.Text, 0, sink)
	}
	if err != nil {
		return nil, err
	}
	h.SetTag(q)
	run.h = h
	rt.runs[q.ID] = run
	return run, nil
}

// flushEmits ends an apply (a frame, a heartbeat, a replayed record, a run's
// close): every run that emitted appends its rows to its ring in one call,
// gated by the incarnation's fence. A ring that cannot take its rows fences
// its query, as a fault of the query's own. Callers are whoever drove the
// engine — the pump under rt.mu, or buildRuntime before the listener exists.
func (s *Service) flushEmits(rt *runtime) {
	for i, run := range rt.emitted {
		if err := run.q.log.appendRows(&run.pending, &rt.fenced); err != nil {
			run.h.Fault(err)
		}
		s.counters.Add("server_rows_emitted", uint64(run.pending.n))
		run.pending.reset()
		rt.emitted[i] = nil
	}
	rt.emitted = rt.emitted[:0]
}

// isolateConfig builds the per-query fault-isolation policy for one
// incarnation.
//
// The OnQuarantine hook fires synchronously on whichever goroutine drove the
// faulting tuple — the ingest pump under rt.mu, or buildRuntime itself
// during WAL replay. It must therefore never take s.mu; everything it
// touches (the Query's atomic quarantine slot, counters, the WAL appender)
// is safe under rt.mu.
func (s *Service) isolateConfig(rt *runtime) *gsql.IsolateConfig {
	return &gsql.IsolateConfig{
		BreakerErrors: s.cfg.QueryBreakerErrors,
		MaxGroups:     s.cfg.QueryMaxGroups,
		AdmitBudget:   s.cfg.AdmitBudget,
		OnQuarantine: func(ev gsql.QuarantineEvent) {
			if rt.fenced.Load() {
				// A torn-down incarnation's zombie pump charging errFenced
				// emits is not a query fault: the successor rebuilds this
				// query live and re-derives everything from the WAL.
				return
			}
			q, _ := ev.Tag.(*Query)
			if q == nil {
				return
			}
			q.quar.Store(&quarInfo{reason: ev.Reason, retained: ev.Retained})
			s.counters.Add("server_quarantines", 1)
			s.cfg.Logf("server: query %d quarantined (%s): %v", q.ID, ev.Reason, ev.Err)
			if rt.replaying {
				return // a re-derived fence: its record follows in the log
			}
			// A failed append is sticky: the next frame fails the incarnation.
			rec := walRecord{kind: recQuarantine, id: q.ID, text: ev.Reason, ckpt: ev.Retained}
			if err := rt.wal.logCatalog(rec); err != nil {
				s.cfg.Logf("server: logging the quarantine of query %d: %v", q.ID, err)
			}
		},
	}
}

// replay is recovery's one rule over one log: restore the state file's
// queries, then walk the records after its watermark in order and apply each
// as the live path did — a frame or heartbeat through the shared pass, a
// catalog record through the helper its live change used (replay appends
// nothing) — with one flushEmits per record. Rows emitted here land in the
// rings at exactly the cursors they held before the crash. A query the tail
// fenced runs up to its fence and re-derives it there (same tuples, same
// breaker), so its quarantine record finds it fenced already.
func (s *Service) replay(rt *runtime, queries []queryState, recs []walRecord) error {
	known := map[uint32]bool{}
	// adopt enters a query into the catalog, keeping the ring (and every
	// cursor) of the incarnation before, rewound to the image: the replay
	// re-emits what followed it bit-identically.
	adopt := func(qs *queryState) (*Query, error) {
		known[qs.id] = true
		q := s.queries[qs.id]
		if q == nil {
			q = &Query{ID: qs.id, Text: qs.text, log: s.newRing()}
			if err := q.log.restoreRows(qs.base, qs.rows); err != nil {
				return nil, fmt.Errorf("server: rebuilding query %d: %w", q.ID, err)
			}
			s.queries[q.ID] = q
		} else {
			q.log.truncateTo(qs.end)
			q.log.thaw()
		}
		q.quar.Store(nil)
		return q, nil
	}
	for i := range queries {
		qs := &queries[i]
		q, err := adopt(qs)
		if err != nil {
			return err
		}
		if qs.quarantined {
			// A fenced query rebuilds dormant: no run, its retained partials
			// parked on the Query until an operator revives it.
			q.quar.Store(&quarInfo{reason: qs.qreason, retained: qs.ckpt})
		} else if _, err := s.startRun(rt, q, qs.ckpt); err != nil {
			return fmt.Errorf("server: rebuilding query %d: %w", q.ID, err)
		}
	}
	batch, err := gsql.NewBatch(gsql.PacketSchema("TCP"))
	if err != nil {
		return err
	}
	replayed := false
	for i, rec := range recs {
		q := s.queries[rec.id]
		switch {
		case rec.kind == recFrame:
			netgen.FillBatch(batch, rec.pkts)
			_, err = rt.multi.PushBatch(batch)
			replayed = replayed || len(rt.runs) > 0
		case rec.kind == recHeartbeat:
			err = rt.multi.Heartbeat(rec.hb)
		case rec.kind == recAttach:
			s.nextID = max(s.nextID, rec.id+1)
			q, _ := adopt(&queryState{id: rec.id, text: rec.text, base: 1}) // no rows to overflow
			_, err = s.startRun(rt, q, nil)
		case !known[rec.id]:
			err = fmt.Errorf("no query %d", rec.id)
		case rec.kind == recDetach:
			delete(known, rec.id)
			s.detachLocked(rt, q)
		case rec.kind == recRevive && q.quar.Load() == nil:
			err = fmt.Errorf("query %d is not fenced", rec.id)
		case rec.kind == recRevive:
			err = s.reviveLocked(rt, q, q.quar.Load())
		case rec.kind == recQuarantine && q.quar.Load() == nil:
			// A fence the replay did not re-derive: park the query as the
			// record left it.
			if run := rt.runs[q.ID]; run != nil {
				run.h.Detach()
				delete(rt.runs, q.ID)
			}
			q.quar.Store(&quarInfo{reason: rec.text, retained: rec.ckpt})
		}
		s.flushEmits(rt)
		if err != nil {
			return fmt.Errorf("server: replaying record %d: %w", i, err)
		}
	}
	// Drop catalog entries the disk does not know (e.g. attaches lost to a
	// deliberate state reset).
	for id, q := range s.queries {
		if !known[id] {
			q.log.close()
			delete(s.queries, id)
		}
	}
	s.publishRingsLocked()
	if replayed {
		s.counters.Add("server_wal_replays", 1)
		s.cfg.Logf("server: replayed %d WAL records into %d queries", len(recs), len(rt.runs))
	}
	return nil
}

// finishBuild binds the ingest listener and publishes the incarnation.
// Callers hold s.mu.
func (s *Service) finishBuild(rt *runtime, sessions map[uint64]uint64) (*runtime, error) {
	addr := s.cfg.IngestAddr
	if s.ingestAddr != "" {
		// Keep the concrete port stable across incarnations so reconnecting
		// dialers find the successor.
		addr = s.ingestAddr
	}
	network, address := ingest.SplitAddr(addr)
	var sink ingest.Sink
	if rt.degraded {
		sink = walOnlySink{}
	} else {
		sink = &fanSink{s: s, rt: rt}
	}
	cfg := ingest.Config{
		Sink:              sink,
		WAL:               &rtLog{rt: rt},
		Sessions:          sessions,
		HeartbeatInterval: s.cfg.HeartbeatInterval,
		Logf:              s.cfg.Logf,
	}
	if !rt.degraded {
		cfg.CheckpointEvery = s.cfg.CheckpointEvery
		cfg.Checkpoint = func() error {
			s.counters.Add("server_checkpoints", 1)
			return s.checkpoint(rt)
		}
	}
	l, err := ingest.Listen(network, address, cfg)
	if err != nil {
		rt.wal.close()
		return nil, fmt.Errorf("server: ingest listen: %w", err)
	}
	rt.listener = l
	if s.ingestAddr == "" {
		// Scheme-qualified, because the next incarnation feeds it back to
		// SplitAddr: a bare unix path would be read as a tcp address.
		s.ingestAddr = l.Addr().String()
		if network == "unix" {
			s.ingestAddr = "unix:" + s.ingestAddr
		}
	}
	s.cfg.Logf("server: incarnation gen=%d up (degraded=%v, ingest %s)", rt.gen, rt.degraded, s.ingestAddr)
	return rt, nil
}

// checkpoint is the cut: it runs between frames on the pump goroutine (or at
// shutdown after the drain) and does only what must be serial with the apply
// path. Once the previous cut's persist is done (so one image is in flight
// and the disk is the backpressure), it snapshots runs, rings and sessions
// into a state image with watermark (E+1, 0), switches WAL appends to epoch
// E+1 and hands image and epoch E to the persister. Nothing here waits on the
// disk. A persist failure is the listener's sticky error, and this one's.
func (s *Service) checkpoint(rt *runtime) (err error) {
	start := time.Now()
	if !rt.persistMu.TryLock() {
		s.counters.Add("server_checkpoint_waits", 1)
		rt.persistMu.Lock()
	}
	defer func() {
		if err != nil {
			rt.persistMu.Unlock() // nothing was handed off
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.degraded {
		return fmt.Errorf("server: cannot checkpoint a degraded (WAL-only) incarnation")
	}
	if rt.fenced.Load() {
		// A fenced incarnation's engine may be past emissions its frozen
		// rings refused; persisting that state would orphan those rows.
		return fmt.Errorf("server: cannot checkpoint a fenced incarnation")
	}
	if rt.persistErr != nil {
		return rt.persistErr
	}
	b := make([]byte, 0, s.stateSize+s.stateSize/8+1024)
	b = beginState(b, rt.wal.epoch+1, 0, s.nextID, len(s.queries))
	for id, q := range s.queries {
		qs := queryState{id: id, text: q.Text}
		if qi := q.quar.Load(); qi != nil {
			// Fenced (live-quarantined or rebuilt dormant): persist the
			// retained partials and the quarantine trailer so the next
			// incarnation parks it dormant too.
			qs.ckpt, qs.quarantined, qs.qreason = qi.retained, true, qi.reason
		} else {
			run := rt.runs[id]
			if run == nil {
				return fmt.Errorf("server: checkpointing query %d: no live run", id)
			}
			if qs.ckpt, err = run.h.Checkpoint(); err != nil {
				return fmt.Errorf("server: checkpointing query %d: %w", id, err)
			}
		}
		// Only the pump appends to a ring, and this runs on it (or after it
		// has drained): the image is the ring as of the engine checkpoint.
		b = appendQueryState(b, &qs, q.log)
	}
	b = finishState(b, rt.listener.Sessions())
	s.stateSize = len(b) + 8 // codec.Seal's trailer
	old, err := rt.wal.rotate()
	if err != nil {
		return err
	}
	if rt.persistJobs == nil {
		rt.persistJobs = make(chan persistJob, 1) // the one hand-off persistMu admits
		rt.persistDone = make(chan struct{})
		go s.persistLoop(rt)
	}
	rt.persistJobs <- persistJob{image: b, epoch: rt.wal.epoch - 1, wal: old}
	s.counters.Add("server_checkpoint_cut_ns", uint64(time.Since(start)))
	return nil
}

// persistLoop is an incarnation's persister: it makes each cut durable and
// releases persistMu, until joinPersister closes the hand-off channel.
func (s *Service) persistLoop(rt *runtime) {
	defer close(rt.persistDone)
	for job := range rt.persistJobs {
		start := time.Now()
		if err := s.persist(rt, job); err != nil {
			rt.persistErr = err
			rt.listener.Fail(err)
		}
		s.counters.Add("server_checkpoint_persist_ns", uint64(time.Since(start)))
		rt.persistMu.Unlock()
	}
}

// persist makes one cut durable, in the order recovery relies on (DESIGN.md
// §16): WAL bytes and epoch name before the state file that presumes them;
// WAL files go only once a durable state file covers them.
func (s *Service) persist(rt *runtime, job persistJob) error {
	err := faultinject.Hit("server.persist")
	if err == nil {
		err = rt.wal.log.Seal(job.wal)
	} else {
		job.wal.Close()
	}
	if err != nil {
		return fmt.Errorf("server: sealing wal epoch %d: %w", job.epoch, err)
	}
	if err := writeState(s.cfg.Dir, codec.Seal(job.image)); err != nil {
		return err
	}
	return rt.wal.retire(job.epoch)
}

// joinPersister waits for the persist in flight, stops the persister and
// returns its sticky error; no cut succeeds afterwards. Called before the
// incarnation's WAL is closed and before a successor reads the directory.
func (rt *runtime) joinPersister() error {
	rt.persistMu.Lock()
	defer rt.persistMu.Unlock()
	if rt.persistJobs != nil {
		close(rt.persistJobs)
		<-rt.persistDone
		rt.persistJobs = nil
	}
	err := rt.persistErr
	if err == nil {
		rt.persistErr = errFenced
	}
	return err
}

// refreshCatalogGauges snapshots the live incarnation's shared-runtime
// scoreboard into the gauge registry: attached-query count, distinct texts,
// predicate classes and how many of them the equality index selects, and
// how many key tables the queries fold through.
// Called at scrape time; a degraded or restarting incarnation leaves the
// gauges at their last published levels.
func (s *Service) refreshCatalogGauges() {
	rt := s.rt.Load()
	if rt == nil || rt.degraded || rt.multi == nil {
		return
	}
	rt.mu.Lock()
	st := rt.multi.MultiStats()
	perRun := make(map[uint32]gsql.QueryStats, len(rt.runs))
	for id, run := range rt.runs {
		perRun[id] = run.h.QueryStats()
	}
	rt.mu.Unlock()
	s.gauges.Set("server_catalog_queries", float64(st.Queries))
	s.gauges.Set("server_catalog_distinct_texts", float64(st.DistinctTexts))
	s.gauges.Set("server_catalog_predicate_classes", float64(st.Classes))
	s.gauges.Set("server_catalog_indexed_classes", float64(st.IndexedClasses))
	s.gauges.Set("server_catalog_key_tables", float64(st.KeyTables))
	s.gauges.Set("server_catalog_quarantined", float64(st.Quarantined))
	s.gauges.Set("server_catalog_admit_used", st.AdmitUsed)
	// Frames per ack: the ack path's coalescing factor (this incarnation's).
	ing := rt.listener.RuntimeStats()
	s.gauges.Set("server_ingest_frames_accepted", float64(ing.FramesAccepted))
	s.gauges.Set("server_ingest_acks_written", float64(ing.AcksWritten))
	for id, qs := range perRun {
		s.setQueryGauges(id, qs.Tuples, qs.Errors, qs.NsPerTuple, qs.Quarantined)
	}
	// Dormant quarantined queries have no run; their attribution is frozen.
	s.mu.Lock()
	for id, q := range s.queries {
		if _, live := perRun[id]; live {
			continue
		}
		if fenced, _ := q.Quarantined(); fenced {
			s.gauges.Set(queryGaugeName(id, "quarantined"), 1)
		}
	}
	s.mu.Unlock()
}

// queryGaugeName renders one per-query attribution gauge name.
func queryGaugeName(id uint32, what string) string {
	return fmt.Sprintf("server_query_%d_%s", id, what)
}

func (s *Service) setQueryGauges(id uint32, tuples, errs uint64, nsPerTuple float64, quarantined bool) {
	s.gauges.Set(queryGaugeName(id, "tuples"), float64(tuples))
	s.gauges.Set(queryGaugeName(id, "errors"), float64(errs))
	s.gauges.Set(queryGaugeName(id, "ns_per_tuple"), nsPerTuple)
	var quar float64
	if quarantined {
		quar = 1
	}
	s.gauges.Set(queryGaugeName(id, "quarantined"), quar)
}

// dropQueryGauges removes a detached query's attribution gauges so the
// exposition does not accumulate dead series across catalog churn.
func (s *Service) dropQueryGauges(id uint32) {
	for _, what := range []string{"tuples", "errors", "ns_per_tuple", "quarantined"} {
		s.gauges.Delete(queryGaugeName(id, what))
	}
}

// publishRingsLocked refreshes the COW ring snapshot. Callers hold s.mu.
func (s *Service) publishRingsLocked() {
	rings := make([]*resultLog, 0, len(s.queries))
	for _, q := range s.queries {
		rings = append(rings, q.log)
	}
	s.rings.Store(&rings)
}

// Attach registers a query, logs the attach durably, and starts its run on
// the live incarnation. The returned id is the subscription handle.
func (s *Service) Attach(text string) (uint32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rt := s.rt.Load()
	if rt == nil || rt.degraded {
		return 0, errDegraded
	}
	id := s.nextID
	q := &Query{ID: id, Text: text, log: s.newRing()}
	// rt.mu excludes the apply path: the attach record lands between two
	// frames, and the MultiRun is quiescent for the attach.
	rt.mu.Lock()
	defer rt.mu.Unlock()
	run, err := s.startRun(rt, q, nil)
	if err != nil {
		return 0, attachErr(err)
	}
	if err := rt.wal.logCatalog(walRecord{kind: recAttach, id: id, text: text}); err != nil {
		delete(rt.runs, id)
		run.close()
		return 0, err
	}
	s.nextID++
	s.queries[id] = q
	s.publishRingsLocked()
	s.counters.Add("server_attaches", 1)
	return id, nil
}

// attachErr types a failed attach/revive for the wire: admission-control
// rejections get their own code so clients can tell "over budget" from
// "won't parse".
func attachErr(err error) error {
	var adm *gsql.AdmissionError
	if errors.As(err, &adm) {
		return &serviceError{code: CodeAdmission, msg: err.Error()}
	}
	return &serviceError{code: CodeParse, msg: err.Error()}
}

// Revive lifts a quarantined query back into the running catalog: its
// retained partials rejoin the shared pass at the current WAL position and
// the revive is logged durably. Tuples that flowed while the query was
// fenced are not backfilled — a fenced query sees nothing, by design.
func (s *Service) Revive(id uint32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queries[id]
	if q == nil {
		return &serviceError{code: CodeUnknownQuery, msg: fmt.Sprintf("no query %d", id)}
	}
	qi := q.quar.Load()
	if qi == nil {
		return &serviceError{code: CodeBadRequest, msg: fmt.Sprintf("query %d is not quarantined", id)}
	}
	rt := s.rt.Load()
	if rt == nil || rt.degraded {
		return errDegraded
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if err := s.reviveLocked(rt, q, qi); err != nil {
		return attachErr(err)
	}
	// A failed append leaves the revive live but not durable; it is sticky,
	// so the next frame fails the incarnation and the rebuild follows the log.
	if err := rt.wal.logCatalog(walRecord{kind: recRevive, id: id}); err != nil {
		return err
	}
	s.counters.Add("server_revives", 1)
	return nil
}

// reviveLocked lifts q's fence (qi): in place when it was fenced in this
// incarnation, else as a fresh run seeded from the retained partials. Callers
// hold s.mu and rt.mu.
func (s *Service) reviveLocked(rt *runtime, q *Query, qi *quarInfo) error {
	if run := rt.runs[q.ID]; run != nil {
		if err := run.h.Revive(); err != nil {
			return err
		}
	} else if _, err := s.startRun(rt, q, qi.retained); err != nil {
		return err
	}
	q.quar.Store(nil)
	return nil
}

// Detach removes a query: log the detach, drop its run and ring, and kick
// every subscriber.
func (s *Service) Detach(id uint32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queries[id]
	if q == nil {
		return &serviceError{code: CodeUnknownQuery, msg: fmt.Sprintf("no query %d", id)}
	}
	rt := s.rt.Load()
	if rt == nil || rt.degraded {
		return errDegraded
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if err := rt.wal.logCatalog(walRecord{kind: recDetach, id: id}); err != nil {
		return err
	}
	s.detachLocked(rt, q)
	s.dropQueryGauges(id)
	s.counters.Add("server_detaches", 1)
	return nil
}

// detachLocked drops q from the catalog and its run from the shared feed,
// and closes its ring. Callers hold s.mu and rt.mu.
func (s *Service) detachLocked(rt *runtime, q *Query) {
	delete(s.queries, q.ID)
	if run := rt.runs[q.ID]; run != nil {
		delete(rt.runs, q.ID)
		q.log.freeze() // Close()'s partial-bucket flush must not leak rows
		run.close()
		s.flushEmits(rt)
	}
	q.log.close() // wakes subscribers with fetchClosed→removed semantics
	s.publishRingsLocked()
}

// lookup returns a live query.
func (s *Service) lookup(id uint32) (*Query, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queries[id]
	if q == nil {
		return nil, &serviceError{code: CodeUnknownQuery, msg: fmt.Sprintf("no query %d", id)}
	}
	return q, nil
}

// serviceError is a typed control-plane failure, mapped onto StErr.
type serviceError struct {
	code uint16
	msg  string
}

func (e *serviceError) Error() string { return e.msg }

var errDegraded = &serviceError{code: CodeDegraded, msg: "service degraded: ingest-only (WAL) mode; retry later"}

// errFenced aborts an emit from a torn-down incarnation's run (a zombie
// pump, or a teardown-path Close flush).
var errFenced = errors.New("server: incarnation fenced")

// fanSink feeds the ingest stream into the incarnation's shared MultiRun:
// one pass per frame regardless of the number of attached queries. The
// rt.mu acquired by the ApplyLog hook is released here, making {WAL append,
// shared pass} one atomic step with respect to Attach/Detach.
type fanSink struct {
	s  *Service
	rt *runtime
}

// PushBatch applies one logged data frame through the shared pass.
func (f *fanSink) PushBatch(b *gsql.Batch) (rejected int, err error) {
	rt := f.rt
	defer rt.mu.Unlock() // acquired in rtLog.LogFrame
	rt.inflight.Store(time.Now().UnixNano())
	defer rt.inflight.Store(0)
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("server: runtime panic: %v", r)
		}
	}()
	if rt.fenced.Load() {
		// The fence is an incarnation-level condition, not a per-query fault,
		// so it must abort the apply here at the pump boundary. Under
		// isolation a member's errFenced emit is charged to that query
		// instead of failing the shared pass — a torn-down incarnation's
		// pump would otherwise keep applying (and acking) frames whose
		// emissions the fence discards, and live long enough to checkpoint
		// that row-less state.
		return 0, errFenced
	}
	rejected, err = rt.multi.PushBatch(b)
	f.s.flushEmits(rt)
	return rejected, err
}

// Heartbeat applies one logged heartbeat through the shared pass.
func (f *fanSink) Heartbeat(v gsql.Value) (err error) {
	rt := f.rt
	defer rt.mu.Unlock() // acquired in rtLog.LogHeartbeat
	rt.inflight.Store(time.Now().UnixNano())
	defer rt.inflight.Store(0)
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("server: runtime panic: %v", r)
		}
	}()
	if rt.fenced.Load() {
		return errFenced // see PushBatch
	}
	err = rt.multi.Heartbeat(v)
	f.s.flushEmits(rt)
	return err
}

// rtLog adapts the incarnation WAL to ingest.ApplyLog, acquiring rt.mu so
// the log position and the fan-out set move together; the matching sink
// call releases it. The ingest pump is the only goroutine driving either,
// so the lock is always released before the next acquisition.
type rtLog struct {
	rt *runtime
}

func (r *rtLog) LogFrame(session, seq uint64, pkts []netgen.Packet) error {
	if r.rt.degraded {
		// No fan-out set to coordinate with (and the walOnlySink would
		// never release the lock): log without it.
		return r.rt.wal.LogFrame(session, seq, pkts)
	}
	r.rt.mu.Lock()
	if err := r.rt.wal.LogFrame(session, seq, pkts); err != nil {
		r.rt.mu.Unlock()
		return err
	}
	return nil
}

func (r *rtLog) LogHeartbeat(ts gsql.Value) error {
	if r.rt.degraded {
		return r.rt.wal.LogHeartbeat(ts)
	}
	r.rt.mu.Lock()
	if err := r.rt.wal.LogHeartbeat(ts); err != nil {
		r.rt.mu.Unlock()
		return err
	}
	return nil
}

// walOnlySink is the degraded-mode sink: frames were already logged by the
// ApplyLog hook; nothing else to do.
type walOnlySink struct{}

func (walOnlySink) Heartbeat(gsql.Value) error { return nil }

func (walOnlySink) PushBatch(*gsql.Batch) (int, error) { return 0, nil }
