package server

// Crash-recovery and degradation drills: kill the runtime mid-stream and
// prove subscriber resume is bit-identical to an uninterrupted oracle;
// stall subscribers and prove each policy sheds without touching the
// others; fail checkpoints until the breaker opens and prove degraded
// ingest plus heal; wedge the apply path and prove the watchdog recovers.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"forwarddecay/gsql"
	"forwarddecay/ingest"
	"forwarddecay/internal/codec"
	"forwarddecay/internal/faultinject"
	"forwarddecay/netgen"
)

// TestKillResumeBitIdentical is the headline drill: the runtime is killed
// twice mid-stream (no checkpoint, no graceful anything), the dialer rides
// through the restarts, and a blocking subscriber sees exactly the rows an
// uninterrupted run would have produced.
func TestKillResumeBitIdentical(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		pkts := genPackets(t, 8000, 50, 41)
		want := oracleRows(t, pkts)
		svc := startService(t, t.TempDir(), func(c *Config) {
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
	var ce *ClientError
	if _, err := cl.Attach(testQuery); !asClientError(err, &ce) || ce.Code != CodeDegraded {
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

// TestMidStreamClientFullChannel: a subscriber that stops reading fills its
// 256-event channel, and the client's read loop waits for room in it.
// Unsubscribe must still return, and the requests after it too: the read
// loop then drops that subscription's events instead of waiting. Detach
// of the subscribed query and Close must likewise free the read loop,
// unread channel and all.
func TestMidStreamClientFullChannel(t *testing.T) {
	pkts := genPackets(t, 8000, 50, 101)
	if n := len(oracleRows(t, pkts)); n < 600 {
		t.Fatalf("the trace yields %d rows, too few to overfill a channel", n)
	}
	svc := startService(t, t.TempDir(), nil)
	id, err := svc.Attach(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	streamAll(t, dialIngest(t, svc, 47), pkts)

	within := func(what string, f func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- f() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s blocked behind an unread subscription", what)
		}
	}
	fill := func(cl *Client) <-chan SubEvent {
		t.Helper()
		ch, err := cl.Subscribe(id, 0, PolicyDropOldest, 0)
		if err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(20 * time.Second); len(ch) < cap(ch); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("the channel holds %d of %d events", len(ch), cap(ch))
			}
		}
		return ch
	}
	drained := func(ch <-chan SubEvent) error {
		for range ch {
		}
		return nil
	}

	cl := dialControl(t, svc)
	ch := fill(cl)
	within("Unsubscribe", func() error { return cl.Unsubscribe(id) })
	within("the channel's close after Unsubscribe", func() error { return drained(ch) })
	within("Stats after Unsubscribe", func() error { _, err := cl.Stats(); return err })

	cl = dialControl(t, svc)
	ch = fill(cl)
	within("Close", cl.Close)
	within("the read loop's exit after Close", func() error { <-cl.dead; return nil })
	within("the channel's close after Close", func() error { return drained(ch) })

	cl = dialControl(t, svc)
	ch = fill(cl)
	within("Detach", func() error { return cl.Detach(id) })
	within("the channel's close after Detach", func() error { return drained(ch) })
	within("Stats after Detach", func() error { _, err := cl.Stats(); return err })
}

// TestPersistCrashPoints is the headline drill once per boundary of a
// checkpoint: the runtime dies between the cut and the persister picking it
// up, and after each step of the persist (addressed by hit counts of the
// durable.* fault points, counted from the first checkpoint of the stream),
// the supervisor rebuilds from whatever that left on disk, the dialer rides
// through — and the subscriber sees exactly the rows of an uninterrupted run:
// no acked frame lost, no row repeated, cursors exact. The set-up's attach is
// a record of the first epoch, which the first persist retires once the state
// file holds the query.
func TestPersistCrashPoints(t *testing.T) {
	defer faultinject.Reset()
	pkts := genPackets(t, 6000, 50, 47)
	want := oracleRows(t, pkts)
	for _, tc := range []struct {
		name  string
		point string
		hit   uint64
	}{
		{"cut-never-picked-up", "server.persist", 1},
		{"wal-fsync", "durable.sync", 1},
		{"after-wal-fsync", "durable.dirsync", 1},
		{"after-state-temp-write", "durable.sync", 2},
		{"after-state-rename", "durable.dirsync", 2},
		{"after-old-epoch-removal", "durable.dirsync", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer faultinject.Reset()
			svc := startService(t, t.TempDir(), func(c *Config) {
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
			faultinject.Set(tc.point, faultinject.Fault{ErrAt: tc.hit})
			d := dialIngest(t, svc, 23)
			killed := false
			for i, p := range pkts {
				if !killed && faultinject.Hits(tc.point) >= tc.hit {
					// The persist has stopped at the boundary; the rest of
					// the process goes with it.
					svc.Kill()
					killed = true
				}
				if err := d.Send(p); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
			}
			if err := d.Close(); err != nil {
				t.Fatalf("dialer close: %v", err)
			}
			rows, last := collectRows(t, ch, 1, len(want), 60*time.Second)
			requireIdentical(t, want, rows, "subscription across a crash at "+tc.name)
			if last != uint64(len(want)) {
				t.Fatalf("last cursor %d, want %d", last, len(want))
			}
			if !killed {
				t.Fatalf("the stream ended with %s hit %d times, want %d: the boundary was never reached", tc.point, faultinject.Hits(tc.point), tc.hit)
			}
			if got := svc.Counters().Get("server_restarts"); got < 1 {
				t.Fatalf("server_restarts = %d, want >= 1", got)
			}
			if _, end := mustLookup(t, svc, id).log.bounds(); end != uint64(len(want)) {
				t.Fatalf("ring ends at cursor %d, want %d", end, len(want))
			}
		})
	}
}

// TestCatalogChangeBetweenCutAndPersist holds a checkpoint's persist back
// while an Attach and a Detach land: their records are in the epoch the cut
// opened, so the state file about to be written does not hold them and the
// log after its watermark must. The runtime is then
// killed — once with that persist aborted, once after it completed — and the
// rebuilt catalog must have the attached query running from exactly where it
// was attached and must not have the detached one.
func TestCatalogChangeBetweenCutAndPersist(t *testing.T) {
	defer faultinject.Reset()
	pkts := genPackets(t, 6000, 50, 53)
	want := oracleRows(t, pkts)
	for _, persistFails := range []bool{true, false} {
		t.Run(fmt.Sprintf("persistFails=%v", persistFails), func(t *testing.T) {
			defer faultinject.Reset()
			svc := startService(t, t.TempDir(), func(c *Config) {
				c.CheckpointEvery = 600
				c.ResultLog = 1 << 15
			})
			cl := dialControl(t, svc)
			first, err := cl.Attach(testQuery)
			if err != nil {
				t.Fatal(err)
			}
			doomed, err := cl.Attach(testQuery)
			if err != nil {
				t.Fatal(err)
			}
			ch, err := cl.Subscribe(first, 0, PolicyBlock, 0)
			if err != nil {
				t.Fatal(err)
			}
			// The first persist sleeps before it does anything (and then
			// fails, in one of the two runs): the window the catalog changes
			// land in.
			hold := faultinject.Fault{DelayAt: 1, Delay: 400 * time.Millisecond}
			if persistFails {
				hold.ErrAt = 1
			}
			faultinject.Set("server.persist", hold)

			d := dialIngest(t, svc, 27)
			var late uint32
			for i, p := range pkts {
				if late == 0 && svc.Counters().Get("server_checkpoints") >= 1 {
					if late, err = cl.Attach(testQuery); err != nil {
						t.Fatal(err)
					}
					if err := cl.Detach(doomed); err != nil {
						t.Fatal(err)
					}
					if svc.Counters().Get("server_checkpoint_persist_ns") != 0 {
						t.Skip("the held persist finished before the catalog changes landed")
					}
					if !persistFails {
						waitFor(t, 10*time.Second, "the held persist to complete", func() bool {
							return svc.Counters().Get("server_checkpoint_persist_ns") != 0
						})
						svc.Kill()
					}
				}
				if err := d.Send(p); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
			}
			if err := d.Close(); err != nil {
				t.Fatalf("dialer close: %v", err)
			}
			if late == 0 {
				t.Fatal("no checkpoint was cut mid-stream")
			}
			rows, _ := collectRows(t, ch, 1, len(want), 60*time.Second)
			requireIdentical(t, want, rows, "the query attached at set-up")
			if got := svc.Counters().Get("server_restarts"); got < 1 {
				t.Fatalf("server_restarts = %d, want >= 1", got)
			}
			if _, err := svc.lookup(doomed); err == nil {
				t.Fatal("the detached query is back after the rebuild")
			}
			// The late query has the same text, so from its first whole
			// bucket on it must emit what the first one emits: a record
			// replayed into it twice, or not at all, shows in the counts.
			_, end := mustLookup(t, svc, late).log.bounds()
			lch, err := cl.Subscribe(late, 1, PolicyBlock, 0)
			if err != nil {
				t.Fatal(err)
			}
			lrows, _ := collectRows(t, lch, 1, int(end), 20*time.Second)
			if len(lrows) == 0 {
				t.Fatal("the late query emitted nothing")
			}
			partial := lrows[0][0] // the bucket it was attached in the middle of
			for len(lrows) > 0 && lrows[0][0] == partial {
				lrows = lrows[1:]
			}
			tail := want
			for len(tail) > 0 && tail[0][0].I <= partial.I {
				tail = tail[1:]
			}
			if len(tail) == 0 {
				t.Fatal("the late query was attached in the last bucket: nothing to compare")
			}
			requireIdentical(t, tail, lrows, "the query attached between a cut and its persist")
		})
	}
}

// TestOpensParentLayoutDirectory: the layout before checkpoints were
// pipelined — a state file cut in the middle of an epoch, (E, applied > 0),
// and that epoch's WAL file as the only one — is read by the same recovery
// rule: the first `applied` records are in the state and must not be replayed,
// the rest must. That layout kept catalog changes in a journal beside the log:
// an empty one is removed, and one with entries refuses the directory, whose
// files are then left as they were.
func TestOpensParentLayoutDirectory(t *testing.T) {
	dir := t.TempDir()
	pkts := genPackets(t, 6000, 50, 61)
	want := oracleRows(t, pkts)
	const frame = 64
	cut, logged := 40*frame, 60*frame // state through frame 40; frames 41-60 only in the WAL

	// A graceful shutdown after `cut` packets leaves state (E, 0) and an
	// empty WAL file E ...
	svc1 := startService(t, dir, func(c *Config) { c.ResultLog = 1 << 15 })
	id, err := svc1.Attach(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	streamAll(t, dialIngest(t, svc1, 5), pkts[:cut])
	if err := svc1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	st, err := loadState(dir)
	if err != nil || st == nil || st.walApplied != 0 {
		t.Fatalf("state after shutdown: %+v, %v", st, err)
	}
	// ... which is rewritten the way the parent commit would have left it had
	// it died later: the state claims the first 8 records of the file, which
	// are the last 8 frames it holds (replaying them would count them twice),
	// and the file goes on with 20 frames the state has not seen.
	const folded = 8
	w, recs, err := openWAL(dir, walPos{st.walEpoch, 0})
	if err != nil || len(recs) != 0 || w.epoch != st.walEpoch {
		t.Fatalf("WAL after shutdown: epoch %d (state %d), %d records, %v", w.epoch, st.walEpoch, len(recs), err)
	}
	seq := st.sessions[5]
	for i := cut - folded*frame; i < logged; i += frame {
		s := seq - folded + uint64((i-(cut-folded*frame))/frame) + 1
		if err := w.LogFrame(5, s, pkts[i:i+frame]); err != nil {
			t.Fatal(err)
		}
	}
	w.close()
	b := beginState(nil, st.walEpoch, folded, st.nextQueryID, len(st.queries))
	for i := range st.queries {
		ring := newResultLog(1 << 15)
		ring.restoreRows(st.queries[i].base, st.queries[i].rows)
		b = appendQueryState(b, &st.queries[i], ring)
	}
	if err := writeState(dir, codec.Seal(finishState(b, st.sessions))); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(dir, legacyJournal)
	if err := os.WriteFile(journal, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	svc2 := startService(t, dir, func(c *Config) { c.ResultLog = 1 << 15 })
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Fatalf("the empty journal was not removed: %v", err)
	}
	cl := dialControl(t, svc2)
	ch, err := cl.Subscribe(id, 1, PolicyBlock, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The session's frames through `logged` are in the log: resent, they are
	// duplicates; the stream continues after them.
	d := dialIngest(t, svc2, 6)
	streamAll(t, d, pkts[logged:])
	rows, last := collectRows(t, ch, 1, len(want), 30*time.Second)
	requireIdentical(t, want, rows, "stream continued from a parent-layout directory")
	if last != uint64(len(want)) {
		t.Fatalf("last cursor %d, want %d", last, len(want))
	}
	if got := svc2.rt.Load().listener.Sessions()[5]; got != seq+uint64((logged-cut)/frame) {
		t.Fatalf("session 5 recovered at seq %d, want %d (state's %d + the logged frames)", got, seq+uint64((logged-cut)/frame), seq)
	}

	// A journal with entries may hold attaches no state file has (that layout
	// cut no final checkpoint when no frame was logged since the last).
	if err := svc2.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journal, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	listing := func() (out []string) {
		names, _ := filepath.Glob(filepath.Join(dir, "*"))
		for _, name := range names {
			info, err := os.Stat(name)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("%s %d", filepath.Base(name), info.Size()))
		}
		return out
	}
	before := listing()
	_, err = New(Config{Dir: dir, ControlAddr: "127.0.0.1:0", IngestAddr: "127.0.0.1:0"})
	var lje *LegacyJournalError
	if !errors.As(err, &lje) || lje.Path != journal || !strings.Contains(err.Error(), journal) {
		t.Fatalf("opening a directory whose journal holds entries: %v, want *LegacyJournalError naming %s", err, journal)
	}
	if after := listing(); !reflect.DeepEqual(before, after) {
		t.Fatalf("the refused open changed the directory:\n before %v\n after  %v", before, after)
	}
}

// waitPersisted waits until n checkpoints have been cut and the last one's
// persist is done: the directory then holds what the next rebuild reads.
func waitPersisted(t *testing.T, svc *Service, n uint64) {
	t.Helper()
	waitFor(t, 10*time.Second, fmt.Sprintf("checkpoint %d, persisted", n), func() bool {
		rt := svc.rt.Load()
		if rt == nil || svc.Counters().Get("server_checkpoints") < n || !rt.persistMu.TryLock() {
			return false
		}
		rt.persistMu.Unlock()
		return true
	})
}

// killAndRebuild kills the idle runtime and waits for its successor.
func killAndRebuild(t *testing.T, svc *Service) {
	t.Helper()
	restarts := svc.Counters().Get("server_restarts")
	svc.Kill()
	waitFor(t, 10*time.Second, "the rebuild", func() bool {
		return svc.Counters().Get("server_restarts") > restarts && svc.Mode() == ModeHealthy
	})
}

// tailTuples counts the packets in the log records of dir at or after its
// state file's watermark — what a rebuild from dir re-feeds. Read-only.
func tailTuples(t *testing.T, dir string) (tuples uint64) {
	t.Helper()
	st, err := loadState(dir)
	if err != nil {
		t.Fatal(err)
	}
	var from walPos
	if st != nil {
		from = walPos{st.walEpoch, st.walApplied}
	}
	names, err := filepath.Glob(filepath.Join(dir, "ingest-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil || len(data) < 16 {
			t.Fatalf("reading %s: %d bytes, %v", name, len(data), err)
		}
		pos := walPos{epoch: binary.LittleEndian.Uint64(data[8:16])}
		for off := 16; off < len(data); pos.at++ {
			body, n, err := ingest.DecodeSealed(data[off:], walMaxRecord)
			if err != nil {
				t.Fatalf("%s at %d: %v", name, off, err)
			}
			rec, err := decodeWALRecord(body)
			if err != nil {
				t.Fatalf("%s at %d: %v", name, off, err)
			}
			if !pos.before(from) {
				tuples += uint64(len(rec.pkts))
			}
			off += n
		}
	}
	return tuples
}

// TestKillRebuildAdvancesSharedFeed: recovery is the live path. A rebuild
// restores the state file's queries and re-feeds the log's tail through the
// incarnation's one MultiRun, so afterwards the shared feed position is the
// tail's tuple count, and the restored query's own counter the whole stream.
func TestKillRebuildAdvancesSharedFeed(t *testing.T) {
	dir := t.TempDir()
	pkts := genPackets(t, 3000, 50, 61)
	svc := startService(t, dir, func(c *Config) { c.CheckpointEvery = 1000 })
	id, err := dialControl(t, svc).Attach(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	streamAll(t, dialIngest(t, svc, 61), pkts)
	waitPersisted(t, svc, 2)
	killAndRebuild(t, svc)

	tail := tailTuples(t, dir)
	if tail == 0 || tail >= uint64(len(pkts)) {
		t.Fatalf("the log's tail holds %d of %d tuples: the drill needs a state file and a tail after it", tail, len(pkts))
	}
	rt := svc.rt.Load()
	rt.mu.Lock()
	fed := rt.multi.MultiStats().Tuples
	seen, _ := rt.runs[id].h.Stats()
	rt.mu.Unlock()
	if fed != tail {
		t.Errorf("shared feed position %d after the rebuild, want the tail's %d tuples", fed, tail)
	}
	if seen != uint64(len(pkts)) {
		t.Errorf("restored query has seen %d tuples, want %d", seen, len(pkts))
	}
}

// TestResumeJoinsAtLogPosition: one log tail, every way a query can stand to
// it. The catalog below is built against a stream cut once by a checkpoint;
// the runtime is then killed twice, and after the rebuilds (and one more
// stretch of stream) every surviving query's ring and engine checkpoint must
// be bit-identical to those of a service that was fed the same frames and
// never died. A rebuild walks the tail once through the shared pass, applying
// each catalog record at its position in it; the second reads what the first
// left, so a rebuild that appended to the log would show.
func TestResumeJoinsAtLogPosition(t *testing.T) {
	// Tail positions: 0 is before the cut (the query is in the state file),
	// 1..3 fall between stretches of the tail, 4 is after its last record.
	const never = -1
	cases := []struct {
		name, text             string
		attach, detach, revive int
	}{
		{"from the state file", testQuery, 0, never, never},
		{"attached mid-tail",
			`select tb, destPort, count(*), sum(len) from TCP where len > 200 group by time/10 as tb, destPort`, 1, never, never},
		{"attached after the last logged record",
			`select tb, count(*), max(len) from TCP group by time/10 as tb`, 4, never, never},
		{"detached mid-tail",
			`select tb, srcIP, count(*) from TCP where proto = 6 group by time/10 as tb, srcIP`, 0, 2, never},
		// Fenced by the poison rows of the tail's first stretch, revived at 3.
		{"quarantined then revived mid-tail", flakyQuery, 0, never, 3},
	}
	const (
		cut    = 63 * 64 // one checkpoint, after frame 63
		poison = 4 * 64  // four frames' worth of nothing but faults
		part   = 12 * 64
	)
	pkts := genPackets(t, cut+4*part+600, 50, 67)
	for i := range pkts {
		if pkts[i].Len == 40 {
			pkts[i].Len = 41
		}
	}
	// The poison starts 8 rows into the bucket after the one the cut fell in:
	// the clean stretch before it closes a bucket, so the fenced query emits
	// rows between the cut and its fence, which the rebuild must re-derive.
	start := cut
	for int64(pkts[start].Time)/10 == int64(pkts[cut-1].Time)/10 {
		start++
	}
	start += 8
	if start+poison > cut+part {
		t.Fatalf("fixture: the poison rows end at %d, past the first stretch's %d", start+poison, cut+part)
	}
	for i := start; i < start+poison; i++ {
		pkts[i].Len = 40
	}

	type outcome struct {
		rows []gsql.Tuple
		ckpt []byte
	}
	run := func(kill bool) map[string]outcome {
		svc := startService(t, t.TempDir(), func(c *Config) {
			c.CheckpointEvery = 4000 // frame 63 cuts; the tail stays under it
			c.ResultLog = 1 << 15
			c.QueryBreakerErrors = 3
		})
		cl := dialControl(t, svc)
		ids := make([]uint32, len(cases))
		session := uint64(90)
		stream := func(part []netgen.Packet) {
			session++
			streamAll(t, dialIngest(t, svc, session), part)
		}
		at := func(pos int) {
			for i, tc := range cases {
				var err error
				switch pos {
				case tc.attach:
					ids[i], err = cl.Attach(tc.text)
				case tc.detach:
					err = cl.Detach(ids[i])
				case tc.revive:
					if fenced, _ := mustLookup(t, svc, ids[i]).Quarantined(); !fenced {
						t.Fatalf("%s: not fenced by the poison frames", tc.name)
					}
					err = cl.Revive(ids[i])
				}
				if err != nil {
					t.Fatalf("%s at position %d: %v", tc.name, pos, err)
				}
			}
		}
		at(0)
		stream(pkts[:cut])
		waitPersisted(t, svc, 1)
		for pos := 1; pos <= 4; pos++ {
			lo := cut + (pos-1)*part
			stream(pkts[lo : lo+part])
			at(pos)
		}
		if n := svc.Counters().Get("server_checkpoints"); n != 1 {
			t.Fatalf("%d checkpoints, want 1: the catalog changes must all be in the log tail", n)
		}
		if kill {
			killAndRebuild(t, svc)
			killAndRebuild(t, svc)
		}
		stream(pkts[cut+4*part:])

		out := map[string]outcome{}
		for i, tc := range cases {
			if tc.detach != never {
				if _, err := svc.lookup(ids[i]); err == nil {
					t.Fatalf("%s: still in the catalog", tc.name)
				}
				continue
			}
			q := mustLookup(t, svc, ids[i])
			if fenced, why := q.Quarantined(); fenced {
				t.Fatalf("%s: fenced (%s) at the end of the stream", tc.name, why)
			}
			rt := svc.rt.Load()
			rt.mu.Lock()
			ckpt, err := rt.runs[ids[i]].h.Checkpoint()
			rt.mu.Unlock()
			if err != nil {
				t.Fatalf("%s: checkpoint: %v", tc.name, err)
			}
			_, end := q.log.bounds()
			ch, err := cl.Subscribe(ids[i], 1, PolicyBlock, 0)
			if err != nil {
				t.Fatal(err)
			}
			rows, _ := collectRows(t, ch, 1, int(end), 20*time.Second)
			out[tc.name] = outcome{rows, ckpt}
		}
		return out
	}

	want, got := run(false), run(true)
	for _, tc := range cases {
		if tc.detach != never {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			if len(want[tc.name].rows) == 0 {
				t.Fatal("the uninterrupted service emitted no rows: the fixture proves nothing")
			}
			requireIdentical(t, want[tc.name].rows, got[tc.name].rows, "ring across the rebuild")
			if !bytes.Equal(want[tc.name].ckpt, got[tc.name].ckpt) {
				t.Error("engine checkpoint differs from the uninterrupted service's")
			}
		})
	}
}
