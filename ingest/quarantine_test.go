package ingest_test

import (
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"forwarddecay/gsql"
	"forwarddecay/ingest"
)

// sendRaw opens a fresh connection, writes raw bytes, and closes — the
// shape of every malformed-peer interaction.
func sendRaw(t *testing.T, addr string, b []byte) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(b); err != nil {
		t.Fatal(err)
	}
	c.Close()
}

// waitQuarantined polls until the listener has quarantined want frames.
func waitQuarantined(t *testing.T, l *ingest.Listener, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for l.RuntimeStats().FramesQuarantined < want {
		if time.Now().After(deadline) {
			t.Fatalf("quarantined %d frames, want %d", l.RuntimeStats().FramesQuarantined, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMalformedFramesQuarantined: every class of malformed frame is
// quarantined as a typed FrameError — counted, and logged with the peer's
// address — and the listener never crashes.
func TestMalformedFramesQuarantined(t *testing.T) {
	st := prepare(t)
	run := st.Start(func(gsql.Tuple) error { return nil }, gsql.Options{})
	var mu sync.Mutex
	var logged []string
	l, err := ingest.Listen("tcp", "127.0.0.1:0", ingest.Config{
		Sink:     run,
		MaxFrame: 1 << 16,
		Logf: func(format string, args ...any) {
			mu.Lock()
			logged = append(logged, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Shutdown(time.Second)
	addr := l.Addr().String()

	// 1. Bad checksum: a sealed frame with one body byte flipped.
	bad := ingest.AppendAck(nil, 9)
	bad[len(bad)-1] ^= 0xff
	sendRaw(t, addr, bad)
	waitQuarantined(t, l, 1)

	// 2. Truncated: a header promising 100 body bytes, delivering 10.
	trunc := binary.LittleEndian.AppendUint32(nil, 100)
	trunc = binary.LittleEndian.AppendUint64(trunc, 0)
	trunc = append(trunc, make([]byte, 10)...)
	sendRaw(t, addr, trunc)
	waitQuarantined(t, l, 2)

	// 3. Too large: a length prefix beyond MaxFrame.
	huge := binary.LittleEndian.AppendUint32(nil, 1<<20)
	huge = binary.LittleEndian.AppendUint64(huge, 0)
	sendRaw(t, addr, huge)
	waitQuarantined(t, l, 3)

	// 4. Data before hello: a perfectly valid data frame on a fresh
	// connection that never introduced a session.
	orphan := ingest.AppendData(nil, 1, genPackets(3, 1))
	sendRaw(t, addr, orphan)
	waitQuarantined(t, l, 4)

	if got := l.RuntimeStats().FramesQuarantined; got != 4 {
		t.Fatalf("FramesQuarantined = %d, want 4", got)
	}
	mu.Lock()
	var quarantined []string
	for _, line := range logged {
		if strings.HasPrefix(line, "ingest: quarantined frame from 127.0.0.1:") {
			quarantined = append(quarantined, line)
		}
	}
	mu.Unlock()
	kinds := []ingest.FrameErrorKind{ingest.FrameBadChecksum, ingest.FrameTruncated, ingest.FrameTooLarge, ingest.FrameNoSession}
	if len(quarantined) != len(kinds) {
		t.Fatalf("logged %d quarantines, want %d: %q", len(quarantined), len(kinds), quarantined)
	}
	for i, k := range kinds {
		if !strings.Contains(quarantined[i], "ingest: "+k.String()) {
			t.Fatalf("quarantine %d logged %q, want kind %v", i, quarantined[i], k)
		}
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
}
