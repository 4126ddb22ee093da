// Command gsql executes GSQL queries over synthesized packet streams,
// saved traces, or live socket feeds, printing result rows as time buckets
// close — a miniature of the Gigascope workflow the forward-decay paper
// evaluates in.
//
// Usage:
//
//	gsql [flags] 'select tb, dstIP, destPort,
//	              sum(len*(time % 60)*(time % 60))/3600 from TCP
//	              group by time/60 as tb, dstIP, destPort'
//
// Flags:
//
//	-trace file     replay a trace written by tracegen (default: synthesize)
//	-listen addr    serve the ingest wire protocol on addr (host:port, or
//	                unix:/path) instead of reading packets locally; clients
//	                connect with tracegen -stream
//	-drain-timeout d
//	                bound on draining in-flight frames at shutdown (with
//	                -listen; default 5s)
//	-heartbeat d    synthesize a heartbeat after d of input silence so open
//	                time buckets still close while the source idles
//	                (both local and -listen input; 0 = off)
//	-rate r         synthetic packet rate (default 100000)
//	-packets n      synthetic packet count (default 1000000)
//	-seed n         synthetic generator seed
//	-no-split       disable two-level aggregation
//	-limit n        print at most n rows (0 = all)
//	-checkpoint f   write checkpoints of the run's state to file f
//	-checkpoint-every n
//	                checkpoint every n input tuples (with -checkpoint;
//	                0 = only once, when the input ends)
//	-restore f      resume from a checkpoint file written by -checkpoint
//	                (same query and schema required); the stream replayed
//	                after restoring continues the interrupted run
//	-k, -eps, -phi, -window
//	                UDAF parameters (sample size, accuracy, HH threshold,
//	                window seconds)
//	-epoch-alpha a  exponential forward-decay rate: enables the fd* decayed
//	                aggregates (fdcount, fdsum, fdhh, ...) with landmark 0
//	-epoch-every s  roll the decay landmark forward every s stream seconds
//	                (requires -epoch-alpha); keeps week-long runs from
//	                overflowing by rebasing all decayed state in place
//	-epoch-max-logw w
//	                overflow-sentinel threshold on the log normalizer
//	                (default 250); crossing it forces an immediate rollover
//	-serve dir      run the long-lived supervised query service with state
//	                directory dir instead of executing one query: clients
//	                attach GSQL queries over the control protocol, stream
//	                packets over the ingest protocol (-listen, default
//	                127.0.0.1:9899) and subscribe to result rows; a watchdog
//	                restarts a failed runtime from its latest checkpoint and
//	                degrades to ingest-only (WAL) mode when restarts keep
//	                failing; an optional query argument is attached at start
//	-control addr   control-plane listen address (with -serve;
//	                default 127.0.0.1:9898)
//	-http addr      /healthz + /metrics HTTP address (with -serve; off by
//	                default)
//	-token t        control session token (with -serve; empty accepts any)
//
// A kill-and-restore cycle is: run with -checkpoint state.fdc
// -checkpoint-every 100000, interrupt it, then rerun the remaining input
// with -restore state.fdc. Forward decay makes the resumed results match
// an uninterrupted run over the tuples the checkpoint covered plus the
// replayed remainder (§III: weights are fixed at arrival, so saved
// partials never go stale).
//
// The live equivalent: `gsql -listen :9999 -checkpoint state.fdc` serves
// a reconnecting tracegen -stream client; SIGTERM drains in-flight frames
// and writes a final checkpoint, and restarting with the same flags plus
// -restore state.fdc resumes exactly where the drain left off — the client
// resends everything unacknowledged.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"forwarddecay/decay"
	"forwarddecay/gsql"
	"forwarddecay/ingest"
	"forwarddecay/internal/durable"
	"forwarddecay/netgen"
	"forwarddecay/udaf"
)

func main() {
	trace := flag.String("trace", "", "trace file to replay (default: synthesize)")
	listen := flag.String("listen", "", "serve the ingest protocol on this address (host:port or unix:/path)")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "bound on draining in-flight frames at shutdown (with -listen)")
	heartbeat := flag.Duration("heartbeat", 0, "synthesize a heartbeat after this much input silence (0 = off)")
	rate := flag.Float64("rate", 100_000, "synthetic packet rate (pkt/s)")
	packets := flag.Int("packets", 1_000_000, "synthetic packet count")
	seed := flag.Uint64("seed", 1, "synthetic generator seed")
	noSplit := flag.Bool("no-split", false, "disable two-level aggregation")
	limit := flag.Int("limit", 0, "print at most n rows (0 = all)")
	ckptFile := flag.String("checkpoint", "", "write checkpoints to this file")
	ckptEvery := flag.Int("checkpoint-every", 0, "checkpoint every n tuples (0 = once at end)")
	restoreFile := flag.String("restore", "", "resume from this checkpoint file")
	k := flag.Int("k", 100, "UDAF sample size")
	eps := flag.Float64("eps", 0.01, "UDAF accuracy parameter")
	phi := flag.Float64("phi", 0.01, "UDAF heavy-hitter threshold")
	win := flag.Float64("window", 60, "UDAF window seconds")
	epochAlpha := flag.Float64("epoch-alpha", 0, "exponential decay rate for the fd* aggregates (0 = disabled)")
	epochEvery := flag.Float64("epoch-every", 0, "roll the decay landmark every n stream seconds (requires -epoch-alpha)")
	epochMaxLogW := flag.Float64("epoch-max-logw", 0, "overflow-sentinel threshold on the log normalizer (0 = default)")
	serveDir := flag.String("serve", "", "run the supervised query service with this state directory")
	controlAddr := flag.String("control", "127.0.0.1:9898", "control-plane listen address (with -serve)")
	httpAddr := flag.String("http", "", "health/metrics HTTP listen address (with -serve; empty = off)")
	token := flag.String("token", "", "control session token (with -serve; empty = unauthenticated)")
	flag.Parse()

	if *listen != "" && *trace != "" {
		fatal(fmt.Errorf("-listen and -trace are mutually exclusive"))
	}
	if *serveDir != "" {
		// Service mode: the query argument is optional (queries normally
		// arrive over the control protocol).
		if flag.NArg() > 1 {
			fmt.Fprintln(os.Stderr, "usage: gsql -serve DIR [flags] ['<query>']")
			flag.Usage()
			os.Exit(2)
		}
		ingestAddr := *listen
		if ingestAddr == "" {
			ingestAddr = "127.0.0.1:9899"
		}
		runService(*serveDir, *controlAddr, ingestAddr, *httpAddr, *token,
			*ckptEvery, *heartbeat, *drainTimeout, flag.Arg(0))
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: gsql [flags] '<query>'")
		flag.Usage()
		os.Exit(2)
	}
	query := flag.Arg(0)

	if *epochEvery > 0 && *epochAlpha <= 0 {
		fatal(fmt.Errorf("-epoch-every needs -epoch-alpha to define the decay model"))
	}
	ucfg := udaf.Config{SampleSize: *k, Epsilon: *eps, Phi: *phi, Window: *win, Seed: *seed}
	var epoch *gsql.EpochConfig
	if *epochAlpha > 0 {
		model := decay.NewForward(decay.NewExp(*epochAlpha), 0)
		ucfg.Decay = model
		if *epochEvery > 0 {
			epoch = &gsql.EpochConfig{
				Model:        model,
				Every:        *epochEvery,
				MaxLogWeight: *epochMaxLogW,
				TimeColumn:   "ftime", // the packet schema's stream time
			}
		}
	}

	e := gsql.NewEngine()
	if err := e.RegisterStream(gsql.PacketSchema("TCP")); err != nil {
		fatal(err)
	}
	if err := udaf.RegisterAll(e, ucfg); err != nil {
		fatal(err)
	}

	st, err := e.Prepare(query)
	if err != nil {
		fatal(err)
	}
	if *ckptFile != "" {
		if err := st.Checkpointable(); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "plan: %s\n", st.Describe())
	fmt.Println(strings.Join(st.Columns(), "\t"))

	printed := 0
	sink := func(row gsql.Tuple) error {
		if *limit > 0 && printed >= *limit {
			return gsql.SinkStop()
		}
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		fmt.Println(strings.Join(parts, "\t"))
		printed++
		return nil
	}
	opts := gsql.Options{DisableTwoLevel: *noSplit, Epoch: epoch}

	var run *gsql.Run
	if *restoreFile != "" {
		ckpt, err := os.ReadFile(*restoreFile)
		if err != nil {
			fatal(err)
		}
		if run, err = st.Restore(ckpt, sink, opts); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "restored %s (%d tuples already accounted)\n", *restoreFile, run.RuntimeStats().TuplesIn)
	} else {
		run = st.Start(sink, opts)
	}

	if *listen != "" {
		serve(run, *listen, *drainTimeout, *heartbeat, *ckptFile, *ckptEvery, *restoreFile)
		return
	}

	// Columnar drive: buffer packets and push 256 at a time. Heartbeats,
	// checkpoints and the end of input all flush first, so stream time
	// never overtakes buffered data and checkpoint cuts land at batch
	// boundaries.
	bb, err := gsql.NewBatch(gsql.PacketSchema("TCP"))
	if err != nil {
		fatal(err)
	}
	buf := make([]netgen.Packet, 0, 256)
	sinceCkpt := 0
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		netgen.FillBatch(bb, buf)
		sinceCkpt += len(buf)
		buf = buf[:0]
		if _, err := run.PushBatch(bb); err != nil {
			return err
		}
		if *ckptFile != "" && *ckptEvery > 0 && sinceCkpt >= *ckptEvery {
			sinceCkpt = 0
			return writeCheckpoint(run, *ckptFile)
		}
		return nil
	}
	push := func(p netgen.Packet) error {
		buf = append(buf, p)
		if len(buf) == cap(buf) {
			return flush()
		}
		return nil
	}

	var produce func(emit func(netgen.Packet) error) error
	if *trace != "" {
		produce = func(emit func(netgen.Packet) error) error {
			f, err := os.Open(*trace)
			if err != nil {
				return err
			}
			defer f.Close()
			return netgen.StreamTrace(f, emit)
		}
	} else {
		produce = func(emit func(netgen.Packet) error) error {
			g := netgen.New(netgen.DefaultConfig(*rate, *seed))
			for i := 0; i < *packets; i++ {
				if err := emit(g.Next()); err != nil {
					return err
				}
			}
			return nil
		}
	}
	finish(run, drive(run, push, flush, produce, *heartbeat), *ckptFile)
}

// drive feeds packets from produce into push, flushing the batch buffer at
// the end of input and before every heartbeat. With a positive heartbeat
// interval the producer runs on its own goroutine and input silence longer
// than the interval synthesizes a heartbeat — stream time advanced by the
// idle wall-clock span — so open time buckets close even when the source
// stalls.
func drive(run *gsql.Run, push func(netgen.Packet) error, flush func() error, produce func(func(netgen.Packet) error) error, heartbeat time.Duration) error {
	if heartbeat <= 0 {
		if err := produce(push); err != nil {
			return err
		}
		return flush()
	}
	pkts := make(chan netgen.Packet, 256)
	errc := make(chan error, 1)
	go func() {
		errc <- produce(func(p netgen.Packet) error {
			pkts <- p
			return nil
		})
		close(pkts)
	}()
	ticker := time.NewTicker(heartbeat)
	defer ticker.Stop()
	var lastTS float64
	seen := false
	lastActivity := time.Now()
	for {
		select {
		case p, ok := <-pkts:
			if !ok {
				if err := <-errc; err != nil {
					return err
				}
				return flush()
			}
			if err := push(p); err != nil {
				go func() {
					for range pkts {
					}
				}()
				<-errc
				return err
			}
			if !seen || p.Time > lastTS {
				lastTS, seen = p.Time, true
			}
			lastActivity = time.Now()
		case <-ticker.C:
			if !seen || time.Since(lastActivity) < heartbeat {
				continue
			}
			ts := lastTS + time.Since(lastActivity).Seconds()
			// Buffered packets precede the heartbeat in stream order.
			if err := flush(); err != nil {
				return err
			}
			if err := run.Heartbeat(gsql.Int(int64(ts))); err != nil {
				return err
			}
		}
	}
}

// serve runs the socket ingest path: an ingest.Listener feeds the run
// until SIGINT/SIGTERM, then in-flight frames are drained and — when
// -checkpoint is set — a final checkpoint written. The run is deliberately
// NOT closed after a final checkpoint: closing would emit the open bucket,
// and a successor restored from the checkpoint would then emit it again.
func serve(run *gsql.Run, addr string, drainTimeout, heartbeat time.Duration, ckptFile string, ckptEvery int, restoreFile string) {
	network, address := ingest.SplitAddr(addr)
	// lref lets the checkpoint hook reach the listener's session table; the
	// hook can fire from the pump before Listen has returned the value.
	var lref atomic.Pointer[ingest.Listener]
	cfg := ingest.Config{
		Sink:              run,
		HeartbeatInterval: heartbeat,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if ckptFile != "" {
		cfg.Checkpoint = func() error {
			if err := writeCheckpoint(run, ckptFile); err != nil {
				return err
			}
			if l := lref.Load(); l != nil {
				return writeSessions(l, ckptFile+".sessions")
			}
			return nil
		}
		if ckptEvery > 0 {
			cfg.CheckpointEvery = uint64(ckptEvery)
		}
	}
	if restoreFile != "" {
		sess, err := readSessions(restoreFile + ".sessions")
		if err != nil {
			fatal(err)
		}
		cfg.Sessions = sess
	}
	l, err := ingest.Listen(network, address, cfg)
	if err != nil {
		fatal(err)
	}
	lref.Store(l)
	fmt.Fprintf(os.Stderr, "listening on %s %s\n", network, l.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintf(os.Stderr, "draining (timeout %v)...\n", drainTimeout)
	if err := l.Shutdown(drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "gsql:", err)
	}

	rs := l.RuntimeStats()
	if ckptFile != "" {
		if err := writeCheckpoint(run, ckptFile); err != nil {
			fatal(err)
		}
		if err := writeSessions(l, ckptFile+".sessions"); err != nil {
			fatal(err)
		}
	} else if err := run.Close(); err != nil && err.Error() != gsql.SinkStop().Error() {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr,
		"processed %d tuples, %d windows; ingest: %d frames, %d acks, %d quarantined, %d duplicates dropped, %d reconnects, %d heartbeats synthesized; epoch: %d rollovers, %d sentinel trips\n",
		rs.TuplesIn, rs.WindowsClosed, rs.FramesAccepted, rs.AcksWritten, rs.FramesQuarantined,
		rs.DuplicatesDropped, rs.Reconnects, rs.HeartbeatsSynthesized,
		rs.EpochRollovers, rs.SentinelTrips)
}

// writeSessions persists the listener's session table (session id →
// applied sequence) next to the checkpoint, so a restored successor can
// recognize resent frames the drain already applied instead of
// double-counting them.
func writeSessions(l *ingest.Listener, file string) error {
	var sb strings.Builder
	for id, applied := range l.Sessions() {
		fmt.Fprintf(&sb, "%d %d\n", id, applied)
	}
	return durable.WriteFileAtomic(file, []byte(sb.String()), 0o644)
}

// readSessions loads a session table written by writeSessions; a missing
// file is an empty table, not an error (first run, or a file-input
// checkpoint).
func readSessions(file string) (map[uint64]uint64, error) {
	b, err := os.ReadFile(file)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	out := make(map[uint64]uint64)
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" {
			continue
		}
		var id, applied uint64
		if _, err := fmt.Sscanf(line, "%d %d", &id, &applied); err != nil {
			return nil, fmt.Errorf("sessions file %s: bad line %q", file, line)
		}
		out[id] = applied
	}
	return out, nil
}

// writeCheckpoint serializes the run's state and durably replaces file:
// fsync-before-rename plus a directory sync, so neither an interrupt
// mid-write nor a power cut after the rename can corrupt or lose the last
// good checkpoint.
func writeCheckpoint(run *gsql.Run, file string) error {
	b, err := run.Checkpoint()
	if err != nil {
		return err
	}
	return durable.WriteFileAtomic(file, b, 0o644)
}

// finish takes a final checkpoint if requested, closes the run (tolerating
// the sink-stop sentinel) and reports the runtime counters.
func finish(run *gsql.Run, pushErr error, ckptFile string) {
	if pushErr != nil && pushErr.Error() != gsql.SinkStop().Error() {
		fatal(pushErr)
	}
	if ckptFile != "" && pushErr == nil {
		if err := writeCheckpoint(run, ckptFile); err != nil {
			fatal(err)
		}
	}
	if err := run.Close(); err != nil && err.Error() != gsql.SinkStop().Error() {
		fatal(err)
	}
	tuples, evictions := run.Stats()
	rs := run.RuntimeStats()
	fmt.Fprintf(os.Stderr, "processed %d tuples, %d low-level evictions, %d windows, %d checkpoints, %d epoch rollovers, %d sentinel trips\n",
		tuples, evictions, rs.WindowsClosed, rs.Checkpoints, rs.EpochRollovers, rs.SentinelTrips)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gsql:", err)
	os.Exit(1)
}
