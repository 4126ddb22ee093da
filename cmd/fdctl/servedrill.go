package main

// The -serve-drill mode: a scripted crash-recovery drill against a live
// server.Service, in the same acts-then-verdict shape as the cluster drill.
// One subscriber follows a grouped aggregation while the drill kills the
// runtime mid-stream (supervised restart), drops and resumes the client by
// cursor, fences a poison query into quarantine and revives it over the
// control protocol, and finally takes the whole process through a graceful
// shutdown and a cold restart in the same state directory. After every act
// the rows received so far are compared bit-for-bit against an in-process
// oracle run that was never interrupted; any drift exits non-zero.

import (
	"fmt"
	"os"
	"time"

	"forwarddecay/gsql"
	"forwarddecay/ingest"
	"forwarddecay/netgen"
	"forwarddecay/server"
)

const serveQuery = `select tb, dstIP, count(*), sum(len), avg(float(len))
	from TCP group by time/10 as tb, dstIP`

// servePoisonQuery divides by zero on every tuple it folds; the per-query
// breaker fences it into quarantine while the healthy subscription above
// must keep receiving bit-identical rows.
const servePoisonQuery = `select tb, sum(len / (len - len)) from TCP group by time/10 as tb`

const serveToken = "drill"

func runServeDrill(packets int, seed uint64, verbose bool) {
	dir, err := os.MkdirTemp("", "fdctl-serve-*")
	if err != nil {
		fatal(err)
	}
	if !verbose {
		defer os.RemoveAll(dir)
	}

	// The oracle: the same packets through one uninterrupted serial run.
	// Forward decay fixes weights at arrival, so nothing the drill does to
	// the server can excuse a diverging row. The run is never closed — the
	// server never closes live runs either, so the open bucket's rows are
	// not part of the observable stream on either side.
	cfg := netgen.DefaultConfig(50, seed)
	cfg.Hosts = 50
	g := netgen.New(cfg)
	pkts := g.Take(make([]netgen.Packet, 0, packets), packets)
	oracle := oracleRun(pkts)

	logf := func(string, ...any) {}
	if verbose {
		logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, "    "+format+"\n", args...) }
	}
	newService := func() *server.Service {
		svc, err := server.New(server.Config{
			Dir:             dir,
			ControlAddr:     "127.0.0.1:0",
			IngestAddr:      "127.0.0.1:0",
			Tokens:          []string{serveToken},
			CheckpointEvery: 2048,
			ResultLog:       1 << 15,
			Logf:            logf,
		})
		if err != nil {
			fatal(err)
		}
		return svc
	}
	dial := func(svc *server.Service, session uint64) *ingest.Dialer {
		network, address := ingest.SplitAddr(svc.IngestAddr())
		return ingest.Dial(network, address, ingest.DialerConfig{
			Session: session, BatchSize: 64,
			MinBackoff: 2 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
			AckTimeout: 500 * time.Millisecond, Seed: session,
		})
	}

	svc := newService()
	cl, err := server.DialClient(svc.ControlAddr().String(), serveToken, time.Second)
	if err != nil {
		fatal(err)
	}
	id, err := cl.Attach(serveQuery)
	if err != nil {
		fatal(fmt.Errorf("attach: %w", err))
	}
	ch, err := cl.Subscribe(id, 0, server.PolicyBlock, 0)
	if err != nil {
		fatal(fmt.Errorf("subscribe: %w", err))
	}

	var got []gsql.Tuple
	var cursor uint64
	collect := func(act string, n int) {
		deadline := time.After(60 * time.Second)
		for i := 0; i < n; i++ {
			select {
			case ev, ok := <-ch:
				if !ok || ev.Err != nil {
					fatal(fmt.Errorf("%s: subscription died after %d rows: %v", act, len(got), ev.Err))
				}
				if ev.Gap {
					fatal(fmt.Errorf("%s: unexpected gap [%d,%d)", act, ev.GapFrom, ev.GapTo))
				}
				if ev.Cursor != cursor+1 {
					fatal(fmt.Errorf("%s: cursor %d, want %d", act, ev.Cursor, cursor+1))
				}
				cursor = ev.Cursor
				got = append(got, append(gsql.Tuple(nil), ev.Row...))
			case <-deadline:
				fatal(fmt.Errorf("%s: timed out after %d/%d rows", act, i, n))
			}
		}
	}
	check := func(act string, cut int) {
		want := oracle(cut)
		collect(act, len(want)-len(got))
		if len(got) != len(want) {
			fatal(fmt.Errorf("%s: %d rows, oracle has %d", act, len(got), len(want)))
		}
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					fatal(fmt.Errorf("%s: row %d col %d: got %v, oracle %v", act, i, j, got[i][j], want[i][j]))
				}
			}
		}
		fmt.Printf("%-44s rows=%d cursor=%d  ✓ bit-identical\n", act, len(got), cursor)
	}
	stream := func(d *ingest.Dialer, from, to int, killAt ...int) {
		k := 0
		for i := from; i < to; i++ {
			if k < len(killAt) && i == killAt[k] {
				svc.Kill()
				k++
			}
			if err := d.Send(pkts[i]); err != nil {
				fatal(fmt.Errorf("send %d: %w", i, err))
			}
		}
		if err := d.Close(); err != nil {
			fatal(fmt.Errorf("drain acks: %w", err))
		}
	}

	q := packets / 4
	fmt.Printf("fdctl: supervised-server drill (%d packets, state=%s)\n\n", packets, dir)

	stream(dial(svc, 1), 0, q)
	check("act 1: steady stream", q)

	stream(dial(svc, 2), q, 2*q, q+q/3, q+2*q/3)
	if svc.Counters().Get("server_restarts") < 1 {
		fatal(fmt.Errorf("act 2: runtime killed twice but server_restarts = 0"))
	}
	check("act 2: runtime killed twice, supervised restart", 2*q)

	// A poison query joins the catalog before the next act: its div-by-zero
	// trips the per-query breaker mid-stream, and the healthy subscription's
	// bit-identical check below proves the blast radius stayed inside it.
	pid, err := cl.Attach(servePoisonQuery)
	if err != nil {
		fatal(fmt.Errorf("poison attach: %w", err))
	}

	// The client vanishes mid-conversation and a fresh one resumes from its
	// last-acked cursor.
	cl.Close()
	cl, err = server.DialClient(svc.ControlAddr().String(), serveToken, time.Second)
	if err != nil {
		fatal(err)
	}
	ch, err = cl.Subscribe(id, cursor+1, server.PolicyBlock, 0)
	if err != nil {
		fatal(fmt.Errorf("resume subscribe: %w", err))
	}
	stream(dial(svc, 3), 2*q, 3*q)
	check("act 3: client dropped, resumed by cursor", 3*q)

	// The poison query must be fenced by now; revive it over the control
	// protocol (the stream is idle, so the fence stays lifted) and detach it
	// like any other query.
	deadline := time.Now().Add(10 * time.Second)
	for svc.Counters().Get("server_quarantines") < 1 {
		if time.Now().After(deadline) {
			fatal(fmt.Errorf("act 3b: poison query never quarantined"))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cl.Revive(pid); err != nil {
		fatal(fmt.Errorf("act 3b: revive: %w", err))
	}
	if err := cl.Detach(pid); err != nil {
		fatal(fmt.Errorf("act 3b: detach revived query: %w", err))
	}
	fmt.Printf("%-44s quarantines=%d revives=%d  ✓ healthy rows unperturbed\n",
		"act 3b: poison query fenced, revived, detached",
		svc.Counters().Get("server_quarantines"), svc.Counters().Get("server_revives"))

	// Full process restart: graceful shutdown (drains to a checkpoint), then
	// a cold start from the same directory.
	cl.Close()
	if err := svc.Shutdown(); err != nil {
		fatal(fmt.Errorf("graceful shutdown: %w", err))
	}
	svc = newService()
	defer svc.Shutdown()
	cl, err = server.DialClient(svc.ControlAddr().String(), serveToken, time.Second)
	if err != nil {
		fatal(err)
	}
	ch, err = cl.Subscribe(id, cursor+1, server.PolicyBlock, 0)
	if err != nil {
		fatal(fmt.Errorf("post-restart subscribe: %w", err))
	}
	stream(dial(svc, 4), 3*q, packets)
	check("act 4: graceful shutdown, cold restart, resumed", packets)

	fmt.Println("\ndrill complete: every act bit-identical to the uninterrupted oracle")
}

// oracleRun pushes the full packet trace through one serial run and returns
// a prefix view: oracle(cut) is the rows an uninterrupted run has emitted
// after consuming pkts[:cut]. Emission is deterministic and append-only, so
// prefixes of the input map to prefixes of the output.
func oracleRun(pkts []netgen.Packet) func(cut int) []gsql.Tuple {
	e := gsql.NewEngine()
	if err := e.RegisterStream(gsql.PacketSchema("TCP")); err != nil {
		fatal(err)
	}
	st, err := e.Prepare(serveQuery)
	if err != nil {
		fatal(err)
	}
	var rows []gsql.Tuple
	run := st.Start(func(row gsql.Tuple) error {
		rows = append(rows, append(gsql.Tuple(nil), row...))
		return nil
	}, gsql.Options{})
	counts := make([]int, len(pkts)+1)
	for i, p := range pkts {
		if err := run.Push(netgen.Tuple(p)); err != nil {
			fatal(err)
		}
		counts[i+1] = len(rows)
	}
	// Deliberately not closed: the open bucket must stay unobservable.
	return func(cut int) []gsql.Tuple { return rows[:counts[cut]] }
}
