#!/bin/sh
# CI check: build, vet, tests (among them the link census,
# internal/linkcensus: every non-test function is linked into a program or
# allowlisted with the test that checks it), the race detector over the
# concurrent code (the listener, the query service, the distributed tier,
# the shard workers and drain barrier of the stand-alone sharded gsql
# runtime, which has no checkpoint or epoch path, and the fault-injection
# suites), a short fuzz smoke over every decoder and the query planner and
# row paths, and two ratio gates over the multi-query runtime (scaling and
# churn). The gates compare costs measured in one process, never an absolute
# time against a snapshot.
set -eux

go build ./...
go vet ./...
test -z "$(gofmt -l .)"
go test ./...
go test -race ./...

# The end-to-end benchmark is a nested module the commands above do not
# see: vet and test it, then run it once, small — one lap per phase,
# untraced — and fail if any workload's output was wrong (fde2e exits
# non-zero on correct=false). BENCHMARK.json's own runs are the driver's.
go vet -C e2ebench ./...
go test -C e2ebench ./...
e2e_state="$(mktemp -d)"
go run -C e2ebench forwarddecay/e2ebench/cmd/fde2e -laps 1 -trace 0 -state-dir "$e2e_state"
rm -rf "$e2e_state"

# Epoch-rollover chaos soak on the serial runtime, short mode: a simulated
# two-day stream with hourly landmark rolls plus injected crashes/corruptions
# must match the fault-free never-rolling oracle (the full 30-day tape runs
# without -short). The sharded runtime has no soak: it has no epoch or
# checkpoint path.
go test -run Soak -short -count=1 ./gsql/

# Site-churn chaos soak over the elastic distributed tier, short mode: a
# simulated two-day keyed stream with crashes, rejoins-from-log, joins,
# retirements and mid-handoff faults must stay bit-for-bit with a
# fault-free static-roster oracle (the four-day tape runs without -short).
# The churn and fault suites also get a dedicated -race pass because the
# handoff protocol is where the locking is subtle.
go test -run Soak -short -count=1 ./distrib/
go test -race -run 'Churn|Crash|Handoff|Fault' -short -count=1 ./distrib/

# Supervised query service: the crash/resume, shedding, breaker and wedge
# drills get a dedicated -race pass — the supervisor's lock-passing pump
# protocol and the ring freeze/thaw/fence dance are where the server's
# locking is subtle. Quarantine/Admission/Fenced cover the catalog-resilience
# suite: poison-query fencing, dormant rebuild across crashes, admission
# rejections, and the fence-at-pump invariant. Shutdown and UnixIngest are
# the graceful-stop and rebuild-on-a-unix-socket regressions; Allocs the
# result path's allocation guards, which must hold under the detector too.
# PersistCrashPoints, CatalogChange, ParentLayout and Revive are the
# pipelined checkpoint's drills (DESIGN.md §16): a kill at every boundary of
# cut and persist, catalog changes between the two, the older directory
# layout, and the revive a crash inside a checkpoint must not re-apply — the
# cut, the persister and the supervisor's join meet there. Catalog also takes
# the catalog records' sync costs, appended from the control plane and the
# pump alike. ResumeJoins is the recovery drill: one log tail re-fed through
# the shared pass, every catalog record applied at its position in it (state
# file, attached or fenced and revived mid-tail, attached after the last
# record, detached), against an uninterrupted service.
go test -race -run 'Kill|Slow|Breaker|Wedge|Shutdown|Disconnect|Quarantine|Admission|Fenced|UnixIngest|Allocs|PersistCrashPoints|CatalogChange|ParentLayout|Revive|Catalog|ResumeJoins' -count=1 ./server/

# The ack writer: the pump and the readers nudge, one goroutine per
# connection writes. Twenty rounds under the detector for the hand-off (a
# lost wake-up or a missing last ack is a timing bug), five for the
# head-of-line drill, which fills a socket each time.
go test -race -run 'AckWriterEveryWindow|AckWriterHello|AckNudge' -count=20 ./ingest/
go test -race -run 'AckWriterNoHeadOfLine' -count=5 ./ingest/

# The result ring is shared between the ingest pump and the subscription
# writers, and the client demuxes batches onto subscriber channels: ten
# rounds of the ring and client suites under the detector.
go test -race -run 'ResultLog|RowFrame|ServeEndToEnd|MidStreamClient|DetachNotifies' -count=10 ./server/

# Shared multi-query runtime: the differential suite (MultiRun vs N
# standalone runs, bit-for-bit, through checkpoints, epoch rolls,
# poison-query quarantine and attach/detach churn) gets a dedicated
# -race pass. The runtime is single-producer and starts no goroutine of its
# own; the pass stays so that the detector sees the suite that churns the
# catalog hardest (detach under load, quarantine from inside a fold).
go test -race -run 'Multi' -count=1 ./gsql/

# Fuzz smoke: 10s per target. -run='^$' skips the unit tests (already run
# above); -fuzzminimizetime caps the engine's per-input minimization, whose
# 60s default dwarfs the budget and reads as a hang. Every decoder target
# asserts the codectest allocation bound (internal/codec/codectest), so a
# decoder that sizes an allocation from a forged count fails its smoke
# instead of killing the worker; the sketch and agg testdata/fuzz seeds are
# the forged-k SpaceSaving inputs that once did. The checkpoint, slice and
# state targets also decode each input re-sealed, to reach the parsers
# behind their integrity hashes.
# FuzzQuery is the batch ≡ scalar oracle: every query that prepares folds a
# fixed three-batch tape through Run.PushBatch and row by row through
# Run.Push, and the two must emit the same rows to the bit, the same error
# and the same Stats(). FuzzStepColumns is the same oracle over every
# registered aggregate with int, float, bool, string and dynamic arguments:
# StepCols per key run against Step per row, checkpoint bytes included.
# FuzzResultLogOps decodes its input into a tape of result-ring operations
# (flushes, fetches, advances, evictions under every policy, truncations,
# restores, snapshots) and checks every frame, gap and snapshot against a
# reference ring of tuples, byte for byte.
go test -run='^$' -fuzz='^FuzzSketchDecode$' -fuzztime=10s -fuzzminimizetime=10x ./sketch/
go test -run='^$' -fuzz='^FuzzAggDecode$' -fuzztime=10s -fuzzminimizetime=10x ./agg/
go test -run='^$' -fuzz='^FuzzCheckpointDecode$' -fuzztime=10s -fuzzminimizetime=10x ./gsql/
go test -run='^$' -fuzz='^FuzzQuery$' -fuzztime=10s -fuzzminimizetime=10x ./gsql/
go test -run='^$' -fuzz='^FuzzStepColumns$' -fuzztime=10s -fuzzminimizetime=10x ./gsql/
go test -run='^$' -fuzz='^FuzzCanonicalize$' -fuzztime=10s -fuzzminimizetime=10x ./gsql/
go test -run='^$' -fuzz='^FuzzFrameDecode$' -fuzztime=10s -fuzzminimizetime=10x ./ingest/
go test -run='^$' -fuzz='^FuzzDecayUnmarshal$' -fuzztime=10s -fuzzminimizetime=10x ./decay/
go test -run='^$' -fuzz='^FuzzLogSegmentDecode$' -fuzztime=10s -fuzzminimizetime=10x ./distrib/
go test -run='^$' -fuzz='^FuzzSliceDecode$' -fuzztime=10s -fuzzminimizetime=10x ./distrib/
go test -run='^$' -fuzz='^FuzzControlFrameDecode$' -fuzztime=10s -fuzzminimizetime=10x ./server/
go test -run='^$' -fuzz='^FuzzWALRecordDecode$' -fuzztime=10s -fuzzminimizetime=10x ./server/
go test -run='^$' -fuzz='^FuzzJournalEntryDecode$' -fuzztime=10s -fuzzminimizetime=10x ./server/
go test -run='^$' -fuzz='^FuzzStateDecode$' -fuzztime=10s -fuzzminimizetime=10x ./server/
go test -run='^$' -fuzz='^FuzzResultLogOps$' -fuzztime=10s -fuzzminimizetime=10x ./server/

# Multi-query scaling gate: 1000 standing queries must cost <2x the
# per-tuple cost of 10 on the shared-heavy workload (a runtime degraded to
# per-query fan-out costs ~100x, so the gate has wide margin on both sides).
go run ./cmd/fdbench -queries 1,10,100,1000 -scale-tuples 100000 -max-ratio 2.0 > /dev/null

# Incremental-rebuild gate: attaching or detaching one query while 1000 are
# standing must cost a small constant multiple of the same mutation on a
# 10-query catalog — O(query), never O(catalog). A runtime that recompiled
# its predicate classes or rebuilt its shared key tables per mutation would
# cost ~100x at the 1000-query point (sweeps read 0.8-0.95x).
# 3x absorbs map-occupancy noise on a small shared machine while staying far
# below any recompile.
go run ./cmd/fdbench -churn 10,1000 -churn-pairs 200 -churn-max-ratio 3.0 > /dev/null
