package server

// Crash-recovery and degradation drills: kill the runtime mid-stream and
// prove subscriber resume is bit-identical to an uninterrupted oracle;
// stall subscribers and prove each policy sheds without touching the
// others; fail checkpoints until the breaker opens and prove degraded
// ingest plus heal; wedge the apply path and prove the watchdog recovers.

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"forwarddecay/gsql"
	"forwarddecay/ingest"
	"forwarddecay/internal/faultinject"
)

// TestKillResumeBitIdentical is the headline drill: the runtime is killed
// twice mid-stream (no checkpoint, no graceful anything), the dialer rides
// through the restarts, and a blocking subscriber sees exactly the rows an
// uninterrupted run would have produced — serial and sharded.
func TestKillResumeBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{
		{"serial", 0},
		{"sharded", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pkts := genPackets(t, 8000, 50, 41)
			want := oracleRows(t, pkts) // serial oracle: parallel emission is bit-identical
			svc := startService(t, t.TempDir(), func(c *Config) {
				c.Shards = tc.shards
				c.CheckpointEvery = 600
				c.ResultLog = 1 << 15
			})
			cl := dialControl(t, svc)
			id, err := cl.Attach(testQuery)
			if err != nil {
				t.Fatal(err)
			}
			ch, err := cl.Subscribe(id, 0, PolicyBlock, 0)
			if err != nil {
				t.Fatal(err)
			}

			d := dialIngest(t, svc, 23)
			for i, p := range pkts {
				if i == len(pkts)/3 || i == 2*len(pkts)/3 {
					svc.Kill()
				}
				if err := d.Send(p); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
			}
			if err := d.Close(); err != nil {
				t.Fatalf("dialer close: %v", err)
			}

			rows, last := collectRows(t, ch, 1, len(want), 60*time.Second)
			requireIdentical(t, want, rows, "post-kill subscription")
			if last != uint64(len(want)) {
				t.Fatalf("last cursor %d, want %d", last, len(want))
			}
			if got := svc.Counters().Get("server_restarts"); got < 1 {
				t.Fatalf("server_restarts = %d, want >= 1", got)
			}
		})
	}
}

// TestUnixIngestSurvivesRebuild is the kill-and-rebuild drill on a unix
// ingest socket: the rebuilt incarnation must listen where its predecessor
// did. The service remembers the bound address across incarnations, and it
// has to remember it in the form it parses — a bare socket path read back as
// a tcp address fails every rebuild until the breaker opens.
func TestUnixIngestSurvivesRebuild(t *testing.T) {
	dir := t.TempDir()
	sock := filepath.Join(dir, "ingest.sock")
	pkts := genPackets(t, 6000, 50, 43)
	want := oracleRows(t, pkts)
	svc := startService(t, filepath.Join(dir, "state"), func(c *Config) {
		c.ControlAddr = "unix:" + filepath.Join(dir, "control.sock")
		c.IngestAddr = "unix:" + sock
		c.CheckpointEvery = 600
		c.ResultLog = 1 << 15
	})
	if network, address := ingest.SplitAddr(svc.IngestAddr()); network != "unix" || address != sock {
		t.Fatalf("IngestAddr() = %q, which SplitAddr reads as (%s, %s); want (unix, %s)", svc.IngestAddr(), network, address, sock)
	}
	cl := dialControl(t, svc)
	id, err := cl.Attach(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := cl.Subscribe(id, 0, PolicyBlock, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := dialIngest(t, svc, 29)
	for i, p := range pkts {
		if i == len(pkts)/2 {
			svc.Kill()
			// Wait the rebuild out before sending on: a dialer with no dial
			// budget would otherwise retry a socket that never comes back
			// until the test binary times out.
			waitFor(t, 20*time.Second, "the rebuilt incarnation to listen on the unix socket", func() bool {
				return svc.Counters().Get("server_restarts") >= 1 && svc.Mode() == ModeHealthy
			})
		}
		if err := d.Send(p); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatalf("dialer close: %v", err)
	}
	rows, _ := collectRows(t, ch, 1, len(want), 60*time.Second)
	requireIdentical(t, want, rows, "subscription across a rebuild on a unix ingest socket")
	if got := svc.Counters().Get("server_restarts"); got < 1 {
		t.Fatalf("server_restarts = %d, want >= 1", got)
	}
	if got := svc.Counters().Get("server_build_failures"); got != 0 {
		t.Fatalf("server_build_failures = %d: the rebuild could not listen on the unix socket again", got)
	}
	if svc.Mode() != ModeHealthy {
		t.Fatalf("mode %v after the rebuild", svc.Mode())
	}
}

// rawConn is a hand-driven control connection for tests that must control
// exactly when (and whether) responses are read — e.g. a deliberately
// stalled subscriber.
type rawConn struct {
	t   *testing.T
	c   net.Conn
	r   msgReader
	req uint32
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	network, address := ingest.SplitAddr(addr)
	c, err := net.DialTimeout(network, address, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	rc := &rawConn{t: t, c: c, r: msgReader{r: bufio.NewReader(c)}}
	rc.roundTrip(&Msg{Type: CtHello, Text: testToken}, StOK)
	return rc
}

func (rc *rawConn) send(m *Msg) uint32 {
	rc.t.Helper()
	rc.req++
	m.Req = rc.req
	if _, err := rc.c.Write(AppendMsg(nil, m)); err != nil {
		rc.t.Fatalf("raw write: %v", err)
	}
	return m.Req
}

// roundTrip sends m and reads until its response arrives (skipping any
// subscription traffic), asserting the response type.
func (rc *rawConn) roundTrip(m *Msg, wantType uint8) *Msg {
	rc.t.Helper()
	req := rc.send(m)
	for {
		resp, err := rc.r.next()
		if err != nil {
			rc.t.Fatalf("raw read: %v", err)
		}
		if resp.Type == StRow || resp.Type == StGap {
			continue
		}
		if resp.Req != req {
			continue
		}
		if resp.Type != wantType {
			rc.t.Fatalf("response type %d (code %d, %q), want %d", resp.Type, resp.Code, resp.Text, wantType)
		}
		return resp
	}
}

// TestSlowConsumerShedding runs one fast blocking subscriber beside two
// stalled ones (drop-oldest and disconnect-after-deadline) on a small ring.
// The fast subscriber must still see the full oracle bit-exactly; the
// stalled ones must shed / be disconnected, visible in /metrics. Unix
// sockets keep the kernel buffer small so the stall is deterministic.
func TestSlowConsumerShedding(t *testing.T) {
	saved := controlIOTimeout
	controlIOTimeout = time.Second
	t.Cleanup(func() { controlIOTimeout = saved })

	pkts := genPackets(t, 12000, 1, 51) // rate 1: ~10 rows per packet-decade
	want := oracleRows(t, pkts)
	if len(want) < 3000 {
		t.Fatalf("trace too thin to overflow kernel buffers: %d rows", len(want))
	}
	sock := filepath.Join(t.TempDir(), "ctl.sock")
	svc := startService(t, t.TempDir(), func(c *Config) {
		c.ControlAddr = "unix:" + sock
		c.HTTPAddr = "127.0.0.1:0"
		c.ResultLog = 64
	})
	cl := dialControl(t, svc)
	id, err := cl.Attach(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := cl.Subscribe(id, 0, PolicyBlock, 0)
	if err != nil {
		t.Fatal(err)
	}
	type drained struct {
		rows []gsql.Tuple
		err  error
	}
	fast := make(chan drained, 1)
	go func() {
		rows, _, err := drainRows(ch, 1, len(want), 60*time.Second)
		fast <- drained{rows, err}
	}()

	// Two stalled subscribers: after the subscribe handshake they never read
	// again, so their sockets fill and their writers jam.
	dropper := dialRaw(t, controlAddr(svc))
	dropper.roundTrip(&Msg{Type: CtSubscribe, Query: id, Policy: PolicyDropOldest}, StOK)
	killer := dialRaw(t, controlAddr(svc))
	killer.roundTrip(&Msg{Type: CtSubscribe, Query: id, Policy: PolicyDisconnect, Deadline: 100}, StOK)

	d := dialIngest(t, svc, 29)
	streamAll(t, d, pkts)

	got := <-fast
	if got.err != nil {
		t.Fatalf("fast subscriber: %v", got.err)
	}
	requireIdentical(t, want, got.rows, "fast subscriber beside stalled peers")

	waitFor(t, 10*time.Second, "shed and disconnect counters", func() bool {
		return svc.Counters().Get("server_rows_shed") > 0 &&
			svc.Counters().Get("server_slow_disconnects") >= 1
	})
	code, body := httpGet(t, "http://"+svc.HTTPAddr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, name := range []string{"server_rows_shed", "server_slow_disconnects"} {
		found := false
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, name+" ") && !strings.HasSuffix(line, " 0") {
				found = true
			}
		}
		if !found {
			t.Fatalf("metrics missing nonzero %s:\n%s", name, body)
		}
	}
}

// TestSlowConsumerWireError asserts the StErr(CodeSlowConsumer) a killed
// subscriber receives when its connection is still writable — forced
// deterministically by marking the ring subscriber removed, the same state
// the policy eviction produces.
func TestSlowConsumerWireError(t *testing.T) {
	pkts := genPackets(t, 1000, 50, 61)
	want := oracleRows(t, pkts)
	svc := startService(t, t.TempDir(), nil)
	cl := dialControl(t, svc)
	id, err := cl.Attach(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := cl.Subscribe(id, 0, PolicyDisconnect, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	d := dialIngest(t, svc, 31)
	streamAll(t, d, pkts)
	collectRows(t, ch, 1, len(want), 20*time.Second)

	q, err := svc.lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	q.log.mu.Lock()
	for s := range q.log.subs {
		s.removed = true
	}
	q.log.broadcast()
	q.log.mu.Unlock()

	select {
	case ev, ok := <-ch:
		if !ok {
			t.Fatal("channel closed without a terminal event")
		}
		if ev.Err == nil || ev.Code != CodeSlowConsumer {
			t.Fatalf("terminal event: err=%v code=%d, want CodeSlowConsumer", ev.Err, ev.Code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no CodeSlowConsumer after forced removal")
	}
}

// TestBreakerDegradesAndHeals fails every durable sync so checkpoints keep
// failing, drives the supervisor through its restart budget into the open
// breaker, proves ingest still acks (WAL-only) and queries return typed
// Degraded, then lifts the fault and proves the service heals with the
// subscriber bit-exact.
func TestBreakerDegradesAndHeals(t *testing.T) {
	defer faultinject.Reset()
	pkts := genPackets(t, 6000, 50, 71)
	want := oracleRows(t, pkts)
	third := len(pkts) / 3

	svc := startService(t, t.TempDir(), func(c *Config) {
		c.HTTPAddr = "127.0.0.1:0"
		c.CheckpointEvery = 400
		c.BreakerThreshold = 2
		c.BreakerCooldown = 700 * time.Millisecond
		c.HealthyAfter = time.Hour // never auto-reset fails mid-drill
		c.ResultLog = 1 << 15
	})
	cl := dialControl(t, svc)
	id, err := cl.Attach(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := cl.Subscribe(id, 0, PolicyBlock, 0)
	if err != nil {
		t.Fatal(err)
	}
	type drained struct {
		rows []gsql.Tuple
		err  error
	}
	res := make(chan drained, 1)
	go func() {
		rows, _, err := drainRows(ch, 1, len(want), 90*time.Second)
		res <- drained{rows, err}
	}()

	d1 := dialIngest(t, svc, 81)
	streamAll(t, d1, pkts[:third])
	waitFor(t, 10*time.Second, "a baseline checkpoint", func() bool {
		return svc.Counters().Get("server_checkpoints") >= 1
	})

	// Every fsync now fails: the next checkpoint poisons the incarnation,
	// the supervisor burns through its failure budget, the breaker opens.
	faultinject.Set("durable.sync", faultinject.Fault{ErrEvery: 1, Err: fmt.Errorf("injected: disk says no")})
	d2 := dialIngest(t, svc, 82)
	streamAll(t, d2, pkts[third:2*third]) // acks ride through the restarts
	waitFor(t, 20*time.Second, "breaker open (degraded mode)", func() bool {
		return svc.Mode() == ModeDegraded
	})
	if got := svc.Counters().Get("server_degraded_entered"); got < 1 {
		t.Fatalf("server_degraded_entered = %d, want >= 1", got)
	}

	// Degraded semantics: query plane refuses with the typed code, health
	// endpoint says 503, but ingest still accepts and acks frames.
	if _, err := cl.Attach(testQuery); !IsDegraded(err) {
		t.Fatalf("attach while degraded: %v, want Degraded", err)
	}
	if code, _ := httpGet(t, "http://"+svc.HTTPAddr()+"/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while degraded: %d, want 503", code)
	}
	d3 := dialIngest(t, svc, 83)
	streamAll(t, d3, pkts[2*third:]) // must succeed: WAL-only ingest

	// Lift the fault: the next half-open probe rebuild replays the WAL tail
	// and sticks.
	faultinject.Reset()
	waitFor(t, 20*time.Second, "heal back to healthy", func() bool {
		return svc.Mode() == ModeHealthy
	})

	got := <-res
	if got.err != nil {
		t.Fatalf("subscriber across degrade/heal: %v", got.err)
	}
	requireIdentical(t, want, got.rows, "subscriber across degrade/heal")
	if code, _ := httpGet(t, "http://"+svc.HTTPAddr()+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after heal: %d, want 200", code)
	}
}

// TestWedgeWatchdogRecovers wedges the apply path (a blocking ring holder
// that never drains, on a tiny ring) until the watchdog declares the
// incarnation wedged and rebuilds. Releasing the holder lets the rebuild's
// replay finish; the stream then completes and a late subscriber reads the
// tail bit-exactly.
func TestWedgeWatchdogRecovers(t *testing.T) {
	pkts := genPackets(t, 3000, 50, 91)
	want := oracleRows(t, pkts)
	if len(want) < 30 {
		t.Fatalf("trace too thin: %d rows", len(want))
	}
	svc := startService(t, t.TempDir(), func(c *Config) {
		c.ResultLog = 8
		c.WedgeTimeout = 150 * time.Millisecond
		c.CheckpointEvery = 1 << 30 // keep the whole stream in one WAL epoch
	})
	cl := dialControl(t, svc)
	id, err := cl.Attach(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	q, err := svc.lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	// The villain: a direct ring subscriber that blocks and never drains.
	blocker := q.log.subscribe(0, PolicyBlock, 0)

	d := dialIngest(t, svc, 37)
	streamDone := make(chan error, 1)
	go func() {
		for _, p := range pkts {
			if err := d.Send(p); err != nil {
				streamDone <- err
				return
			}
		}
		streamDone <- d.Close()
	}()

	waitFor(t, 20*time.Second, "watchdog wedge detection", func() bool {
		return svc.Counters().Get("server_wedges") >= 1
	})
	// The rebuild is itself stalled in replay behind the same holder (replay
	// appends to the same ring). Ring operations need no service lock, so
	// releasing the holder un-wedges the rebuild.
	q.log.unsubscribe(blocker)

	waitFor(t, 20*time.Second, "rebuild to finish", func() bool {
		return svc.Mode() == ModeHealthy
	})
	if err := <-streamDone; err != nil {
		t.Fatalf("stream across wedge: %v", err)
	}
	waitFor(t, 20*time.Second, "emission to catch up", func() bool {
		_, end := q.log.bounds()
		return end == uint64(len(want))
	})

	// A late subscriber reads the retained tail bit-exactly.
	tail := 5
	start := uint64(len(want) - tail + 1)
	ch, err := cl.Subscribe(id, start, PolicyBlock, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := collectRows(t, ch, start, tail, 10*time.Second)
	requireIdentical(t, want[len(want)-tail:], rows, "post-wedge tail")
}

// TestMidStreamClientDisconnect drops a subscriber's connection abruptly
// mid-stream; the service must shrug (no wedge, no restart) and a second
// subscriber replays everything bit-exactly.
func TestMidStreamClientDisconnect(t *testing.T) {
	pkts := genPackets(t, 4000, 50, 101)
	want := oracleRows(t, pkts)
	svc := startService(t, t.TempDir(), func(c *Config) { c.ResultLog = 1 << 14 })
	cl1 := dialControl(t, svc)
	id, err := cl1.Attach(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	ch1, err := cl1.Subscribe(id, 0, PolicyBlock, 0)
	if err != nil {
		t.Fatal(err)
	}

	d := dialIngest(t, svc, 43)
	streamDone := make(chan error, 1)
	go func() {
		for _, p := range pkts {
			if err := d.Send(p); err != nil {
				streamDone <- err
				return
			}
		}
		streamDone <- d.Close()
	}()

	// Take a few rows, then vanish without a goodbye.
	if _, _, err := drainRows(ch1, 1, 5, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	cl1.Close()

	if err := <-streamDone; err != nil {
		t.Fatalf("stream across client disconnect: %v", err)
	}
	cl2 := dialControl(t, svc)
	ch2, err := cl2.Subscribe(id, 0, PolicyBlock, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := collectRows(t, ch2, 1, len(want), 30*time.Second)
	requireIdentical(t, want, rows, "second subscriber after abrupt disconnect")
	if got := svc.Counters().Get("server_restarts"); got != 0 {
		t.Fatalf("client disconnect caused %d restarts", got)
	}
	if got := svc.Counters().Get("server_subscribes"); got != 2 {
		t.Fatalf("server_subscribes = %d, want 2", got)
	}
}
