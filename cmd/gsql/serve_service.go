package main

// The -serve mode: instead of executing one query over one input, gsql
// becomes a long-lived supervised query service (package server). Clients
// attach GSQL queries over the control protocol, stream packets over the
// ingest protocol, and subscribe to result rows with per-subscriber
// slow-consumer policies; a watchdog restarts the runtime from its latest
// checkpoint on failure and degrades to ingest-only (WAL) mode when
// restarts keep failing. SIGINT/SIGTERM drains to a final checkpoint.

import (
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"forwarddecay/server"
)

// runService blocks until the service is told to exit.
func runService(dir, controlAddr, ingestAddr, httpAddr, token string, ckptEvery int, heartbeat, drainTimeout time.Duration, query string) {
	cfg := server.Config{
		Dir:               dir,
		ControlAddr:       controlAddr,
		IngestAddr:        ingestAddr,
		HTTPAddr:          httpAddr,
		HeartbeatInterval: heartbeat,
		DrainTimeout:      drainTimeout,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if token != "" {
		cfg.Tokens = []string{token}
	}
	if ckptEvery > 0 {
		cfg.CheckpointEvery = uint64(ckptEvery)
	}
	svc, err := server.New(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "serving: control %s, ingest %s", controlAddr, svc.IngestAddr())
	if httpAddr != "" {
		fmt.Fprintf(os.Stderr, ", http %s", svc.HTTPAddr())
	}
	fmt.Fprintln(os.Stderr)

	// An optional query argument is attached at startup — handy for a
	// single-query deployment without a separate control client. On a warm
	// state directory the query may already be in the recovered catalog.
	if query != "" {
		id, err := svc.Attach(query)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gsql: startup attach: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "attached query %d: %s\n", id, query)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	// The stats line: per-query cost attribution while the runs are still
	// live (Shutdown tears the incarnation down).
	if top := svc.TopExpensive(3); len(top) > 0 {
		fmt.Fprintln(os.Stderr, "most expensive queries (smoothed private ns/tuple):")
		for _, qc := range top {
			fenced := ""
			if qc.Quarantined {
				fenced = " [quarantined]"
			}
			fmt.Fprintf(os.Stderr, "  query %d: %.0f ns/tuple over %d tuples, %d errors%s — %s\n",
				qc.ID, qc.NsPerTuple, qc.Tuples, qc.Errors, fenced, qc.Text)
		}
	}
	fmt.Fprintf(os.Stderr, "draining to a final checkpoint (timeout %v)...\n", drainTimeout)
	if err := svc.Shutdown(); err != nil {
		fatal(err)
	}
}
