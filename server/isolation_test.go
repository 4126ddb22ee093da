package server

// Catalog-resilience suite: a poison query quarantines behind the breaker
// without perturbing healthy neighbors, survives a crash as a dormant
// catalog entry, and revives over the control protocol; admission-control
// rejections carry their own wire code; and a fenced incarnation can
// neither apply frames nor checkpoint (the invariant that keeps a zombie
// pump from persisting state whose emissions the fence discarded).

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"forwarddecay/gsql"
	"forwarddecay/internal/faultinject"
	"forwarddecay/netgen"
)

// serverPoisonQuery divides by zero on every folded tuple: each charge is a
// member fault, so the breaker fences it after Config.QueryBreakerErrors
// consecutive errors.
const serverPoisonQuery = `select tb, sum(len / (len - len)) from TCP group by time/60 as tb`

func TestServerQuarantineIsolatesPoisonQuery(t *testing.T) {
	pkts := genPackets(t, 4000, 50, 57)
	want := oracleRows(t, pkts)
	svc := startService(t, t.TempDir(), nil)
	cl := dialControl(t, svc)

	hid, err := cl.Attach(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	pid, err := cl.Attach(serverPoisonQuery)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := cl.Subscribe(hid, 0, PolicyBlock, 0)
	if err != nil {
		t.Fatal(err)
	}

	d := dialIngest(t, svc, 31)
	for i, p := range pkts {
		if err := d.Send(p); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// The healthy neighbor is bit-identical to a catalog that never held
	// the poison query.
	got, _ := collectRows(t, ch, 0, len(want), 30*time.Second)
	requireIdentical(t, want, got, "healthy neighbor")

	waitFor(t, 10*time.Second, "poison query quarantined", func() bool {
		return svc.Counters().Get("server_quarantines") >= 1
	})
	q, err := svc.lookup(pid)
	if err != nil {
		t.Fatal(err)
	}
	fenced, why := q.Quarantined()
	if !fenced || why != gsql.QuarantineBreaker {
		t.Fatalf("poison query fenced=%v why=%q, want breaker quarantine", fenced, why)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(st, `"quarantined":true`) || !strings.Contains(st, `"quarantine_reason":"breaker"`) {
		t.Fatalf("stats do not surface the quarantine: %s", st)
	}

	// Revive lifts the fence (the stream is idle, so it stays lifted);
	// reviving a healthy query is a typed rejection.
	if err := cl.Revive(pid); err != nil {
		t.Fatalf("revive: %v", err)
	}
	if fenced, _ := q.Quarantined(); fenced {
		t.Fatal("query still fenced after revive")
	}
	var ce *ClientError
	if err := cl.Revive(hid); !errors.As(err, &ce) || ce.Code != CodeBadRequest {
		t.Fatalf("revive of a healthy query = %v, want CodeBadRequest", err)
	}
	// A revived query detaches like any other.
	if err := cl.Detach(pid); err != nil {
		t.Fatalf("detach revived query: %v", err)
	}
}

func TestServerQuarantineSurvivesRestartDormant(t *testing.T) {
	pkts := genPackets(t, 6000, 50, 58)
	want := oracleRows(t, pkts)
	svc := startService(t, t.TempDir(), func(c *Config) {
		c.CheckpointEvery = 500
	})
	cl := dialControl(t, svc)

	hid, err := cl.Attach(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	pid, err := cl.Attach(serverPoisonQuery)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := cl.Subscribe(hid, 0, PolicyBlock, 0)
	if err != nil {
		t.Fatal(err)
	}

	d := dialIngest(t, svc, 32)
	for i, p := range pkts {
		if i == len(pkts)/2 {
			// By now the poison query is long fenced (breaker trips within
			// the first frame); the crash must rebuild it dormant from the
			// log's quarantine record or the state file.
			svc.Kill()
		}
		if err := d.Send(p); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	got, _ := collectRows(t, ch, 0, len(want), 30*time.Second)
	requireIdentical(t, want, got, "healthy neighbor across crash")

	q, err := svc.lookup(pid)
	if err != nil {
		t.Fatal(err)
	}
	fenced, why := q.Quarantined()
	if !fenced || why != gsql.QuarantineBreaker {
		t.Fatalf("rebuilt poison query fenced=%v why=%q, want dormant breaker quarantine", fenced, why)
	}

	// Revive the dormant query (the stream is idle, so no re-trip), then
	// crash again: the logged revive must rebuild it live.
	if err := cl.Revive(pid); err != nil {
		t.Fatalf("revive after restart: %v", err)
	}
	killAndRebuild(t, svc)
	q, err = svc.lookup(pid)
	if err != nil {
		t.Fatal(err)
	}
	if fenced, why := q.Quarantined(); fenced {
		t.Fatalf("revived query re-fenced (%q) after crash: the revive record did not replay", why)
	}
}

// TestQuarantineRecordFencesWhatReplayDoesNot: replay re-derives a fence only
// under the breaker that tripped it. A directory reopened with a higher
// QueryBreakerErrors replays the poison rows without tripping, and the
// quarantine record then fences the query with its reason and partials: the
// query comes back fenced, and revives from them.
func TestQuarantineRecordFencesWhatReplayDoesNot(t *testing.T) {
	dir := t.TempDir()
	svc := startService(t, dir, func(c *Config) { c.QueryBreakerErrors = 3 })
	pid, err := dialControl(t, svc).Attach(serverPoisonQuery)
	if err != nil {
		t.Fatal(err)
	}
	streamAll(t, dialIngest(t, svc, 5), genPackets(t, 640, 50, 5))
	qi := mustLookup(t, svc, pid).quar.Load()
	if qi == nil {
		t.Fatal("the poison query was not fenced")
	}
	// Every frame is acked, so the log is whole: copy the directory as a
	// crash would leave it.
	crash := t.TempDir()
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err == nil {
			err = os.WriteFile(filepath.Join(crash, filepath.Base(name)), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	svc2 := startService(t, crash, func(c *Config) { c.QueryBreakerErrors = 1 << 20 })
	q := mustLookup(t, svc2, pid)
	if fenced, why := q.Quarantined(); !fenced || why != gsql.QuarantineBreaker {
		t.Fatalf("reopened: fenced=%v (%q), want the recorded breaker fence", fenced, why)
	}
	if !bytes.Equal(q.quar.Load().retained, qi.retained) {
		t.Fatal("the fence's partials differ from the ones recorded")
	}
	if err := dialControl(t, svc2).Revive(pid); err != nil {
		t.Fatalf("revive from the recorded partials: %v", err)
	}
}

// flakyQuery divides by zero on packets of length 40 and on nothing else: a
// run of them trips its breaker, and once revived it folds clean packets
// like any query, so a tuple applied twice shows in its counts.
const flakyQuery = `select tb, dstIP, count(*), sum(len / (len - 40))
	from TCP group by time/10 as tb, dstIP`

// TestReviveNotReappliedAfterCrashInCheckpoint: a query quarantined before
// one checkpoint and revived after it, at WAL position (E, at), is folded
// into the next checkpoint's state file, cut later. If the process dies once
// that state file is durable but before the checkpoint's remaining steps, the
// log still holds the revive — and recovery must not act on it: the
// restored image already has every record up to the cut, and replaying from
// the revive position would apply the records between the two twice. The
// crash run must emit exactly what a run without the crash emits.
func TestReviveNotReappliedAfterCrashInCheckpoint(t *testing.T) {
	defer faultinject.Reset()
	pkts := genPackets(t, 7000, 50, 59)
	for i := range pkts {
		if pkts[i].Len == 40 {
			pkts[i].Len = 41
		}
	}
	poison := pkts[1984:2624] // ten whole frames of nothing but faults
	for i := range poison {
		poison[i].Len = 40
	}
	// stateRenameSync is the directory sync that makes the state file's
	// rename durable, counted in durable.dirsync hits from the start of a
	// checkpoint's persist: the WAL epoch's names first, then this one.
	const stateRenameSync = 2

	run := func(crash bool) []gsql.Tuple {
		svc := startService(t, t.TempDir(), func(c *Config) {
			c.CheckpointEvery = 500
			c.ResultLog = 1 << 15
			c.QueryBreakerErrors = 3
		})
		cl := dialControl(t, svc)
		id, err := cl.Attach(flakyQuery)
		if err != nil {
			t.Fatal(err)
		}
		session := uint64(70)
		stream := func(part []netgen.Packet) {
			session++
			streamAll(t, dialIngest(t, svc, session), part)
		}
		// Frames are 64 packets and a checkpoint is cut every 8 of them (512 ≥
		// 500 tuples): the sixth follows frame 48.
		stream(pkts[:2624]) // frames 1-41
		if fenced, _ := mustLookup(t, svc, id).Quarantined(); !fenced {
			t.Fatal("the poison frames did not quarantine the query")
		}
		stream(pkts[2624:3200]) // frames 42-50: checkpoint six holds the query fenced
		waitPersisted(t, svc, 6)
		if err := cl.Revive(id); err != nil {
			t.Fatal(err)
		}
		stream(pkts[3200:3328]) // frames 51-52: revived two records into the epoch, these are the ones at stake
		if n := svc.Counters().Get("server_checkpoints"); n != 6 {
			t.Fatalf("%d checkpoints before the fault is armed, want 6: the revive must still be in the log tail", n)
		}
		if crash {
			faultinject.Set("durable.dirsync", faultinject.Fault{ErrAt: stateRenameSync})
		}
		restarts := svc.Counters().Get("server_restarts")
		stream(pkts[3328:4800]) // checkpoint seven is cut after frame 56, past the revive
		if crash {
			if faultinject.Hits("durable.dirsync") < stateRenameSync {
				t.Fatal("the fault after the state rename never fired")
			}
			svc.Kill()
			waitFor(t, 10*time.Second, "the rebuild", func() bool {
				return svc.Counters().Get("server_restarts") > restarts && svc.Mode() == ModeHealthy
			})
			faultinject.Reset()
		}
		stream(pkts[4800:])
		if fenced, why := mustLookup(t, svc, id).Quarantined(); fenced {
			t.Fatalf("revived query is fenced (%s) at the end of the stream", why)
		}
		_, end := mustLookup(t, svc, id).log.bounds()
		ch, err := cl.Subscribe(id, 1, PolicyBlock, 0)
		if err != nil {
			t.Fatal(err)
		}
		rows, _ := collectRows(t, ch, 1, int(end), 20*time.Second)
		return rows
	}
	want := run(false)
	if len(want) < 100 {
		t.Fatalf("reference run emitted only %d rows", len(want))
	}
	requireIdentical(t, want, run(true), "revived query across a crash after the state rename")
}

func mustLookup(t *testing.T, svc *Service, id uint32) *Query {
	t.Helper()
	q, err := svc.lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestServerAdmissionRejectionCode(t *testing.T) {
	svc := startService(t, t.TempDir(), func(c *Config) {
		c.AdmitBudget = 1e-12 // below any query's estimated private cost
	})
	cl := dialControl(t, svc)

	_, err := cl.Attach(testQuery)
	var ce *ClientError
	if !errors.As(err, &ce) || ce.Code != CodeAdmission {
		t.Fatalf("attach under an exhausted budget = %v, want CodeAdmission", err)
	}
	if !strings.Contains(ce.Msg, "admission") {
		t.Fatalf("admission error message %q does not say why", ce.Msg)
	}
	// The rejection left no trace in the catalog.
	if n := svc.Counters().Get("server_attaches"); n != 0 {
		t.Fatalf("rejected attach counted as an attach (%d)", n)
	}
	if _, err := svc.lookup(1); err == nil {
		t.Fatal("rejected attach left a catalog entry")
	}
}

func TestFencedIncarnationRefusesApplyAndCheckpoint(t *testing.T) {
	svc := startService(t, t.TempDir(), nil)
	rt := svc.rt.Load()
	rt.fenced.Store(true)
	defer rt.fenced.Store(false) // Shutdown's final checkpoint needs the fence down

	// The pump boundary: a fenced incarnation aborts the apply (so the
	// frame stays unacked and is resent to the successor) instead of
	// letting isolation charge the fence to individual queries.
	fs := &fanSink{rt: rt}
	rt.mu.Lock() // PushBatch releases it, mirroring the ApplyLog hook
	if _, err := fs.PushBatch(nil); !errors.Is(err, errFenced) {
		t.Fatalf("fenced PushBatch = %v, want errFenced", err)
	}
	rt.mu.Lock()
	if err := fs.Heartbeat(gsql.Int(1)); !errors.Is(err, errFenced) {
		t.Fatalf("fenced Heartbeat = %v, want errFenced", err)
	}

	// And the state file: a fenced engine may be past emissions its frozen
	// rings refused; persisting that state would orphan those rows.
	if err := svc.checkpoint(rt); err == nil {
		t.Fatal("checkpoint of a fenced incarnation succeeded")
	}
}

// TestTopExpensiveNonPositive: a count of zero or less lists no query and
// leaves the service mutex free, as every call must.
func TestTopExpensiveNonPositive(t *testing.T) {
	s := startService(t, t.TempDir(), nil)
	for range 2 {
		if _, err := s.Attach(testQuery); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{0, -1, -3} {
		if top := s.TopExpensive(n); len(top) != 0 {
			t.Errorf("TopExpensive(%d) = %+v, want none", n, top)
		}
	}
	if top := s.TopExpensive(1); len(top) != 1 {
		t.Fatalf("TopExpensive(1) listed %d queries", len(top))
	}
	if !s.mu.TryLock() {
		t.Fatal("TopExpensive left the service mutex locked")
	}
	s.mu.Unlock()
}

// TestRingOverflowQuarantinesQuery: a query whose result ring would pass its
// byte bound is fenced as a fault of its own (gsql.QuarantineSink), where the
// ring once panicked the pump, and its neighbours' PolicyBlock streams stay
// bit-identical to the serial oracle.
func TestRingOverflowQuarantinesQuery(t *testing.T) {
	defer func(bound uint64) { maxRingBytes = bound }(maxRingBytes)
	maxRingBytes = 32 << 10 // the healthy rings stay under half of it
	pkts := genPackets(t, 3000, 50, 59)
	want := oracleRows(t, pkts)
	if len(want) < 100 {
		t.Fatalf("reference run emitted only %d rows", len(want))
	}
	svc := startService(t, t.TempDir(), func(c *Config) { c.ResultLog = 1 << 15 })
	cl := dialControl(t, svc)

	var healthy []uint32
	for range 2 {
		id, err := cl.Attach(testQuery)
		if err != nil {
			t.Fatal(err)
		}
		healthy = append(healthy, id)
	}
	wide, err := cl.Attach(`select tb, srcIP, dstIP, srcPort, destPort, count(*) from TCP
		group by time/1 as tb, srcIP, dstIP, srcPort, destPort`)
	if err != nil {
		t.Fatal(err)
	}
	var chs []<-chan SubEvent
	for _, id := range healthy {
		// One client each: a client's subscriptions share its connection, so
		// draining one stream to its end would stall the other's.
		ch, err := dialControl(t, svc).Subscribe(id, 0, PolicyBlock, 0)
		if err != nil {
			t.Fatal(err)
		}
		chs = append(chs, ch)
	}
	streamAll(t, dialIngest(t, svc, 33), pkts)

	for i, ch := range chs {
		got, _ := collectRows(t, ch, 0, len(want), 30*time.Second)
		requireIdentical(t, want, got, fmt.Sprintf("healthy neighbour %d", i))
		if fenced, _ := mustLookup(t, svc, healthy[i]).Quarantined(); fenced {
			t.Fatalf("healthy neighbour %d fenced", i)
		}
	}
	waitFor(t, 10*time.Second, "the wide query quarantined", func() bool {
		return svc.Counters().Get("server_quarantines") >= 1
	})
	if fenced, why := mustLookup(t, svc, wide).Quarantined(); !fenced || why != gsql.QuarantineSink {
		t.Fatalf("wide query fenced=%v why=%q, want a %q quarantine", fenced, why, gsql.QuarantineSink)
	}
	if m := svc.Mode(); m != ModeHealthy {
		t.Fatalf("service in mode %v, want healthy", m)
	}
}
