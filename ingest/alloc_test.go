package ingest_test

import (
	"net"
	"testing"

	"forwarddecay/ingest"
)

// TestDecodeRecycleSteadyStateAllocs pins the decode-pool property: a
// decode → consume → RecycleFrame cycle must not allocate once the pool is
// warm — the packet slice and its pool box circulate instead of churning.
func TestDecodeRecycleSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short harnesses")
	}
	wire := ingest.AppendData(nil, 1, genPackets(128, 9))
	// Warm the pool.
	for i := 0; i < 4; i++ {
		f, _, err := ingest.DecodeFrame(wire, 0)
		if err != nil {
			t.Fatal(err)
		}
		ingest.RecycleFrame(f)
	}
	avg := testing.AllocsPerRun(2000, func() {
		f, _, err := ingest.DecodeFrame(wire, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Packets) != 128 {
			t.Fatalf("decoded %d packets, want 128", len(f.Packets))
		}
		ingest.RecycleFrame(f)
	})
	if avg != 0 {
		t.Errorf("decode+recycle cycle allocates %.2f objects/op, want 0", avg)
	}
}

// TestDialerFlushSteadyStateAllocs guards the sending side of the wire at
// the point a closed-loop feed lives at: the unacked window is full, every
// Flush waits for an ack and then transmits. Frames are encoded into the
// buffers acknowledged frames hand back, and the ack wait reuses its timer,
// so a frame costs no allocation — on the dialer's goroutines or on the
// minimal acking peer, which decodes into the pooled packet buffers.
func TestDialerFlushSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short harnesses")
	}
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close()
	peerDone := make(chan error, 1)
	go func() {
		c, err := nl.Accept()
		if err != nil {
			peerDone <- err
			return
		}
		defer c.Close()
		fr := ingest.NewFrameReader(c, 0)
		var ack []byte
		for {
			f, err := fr.ReadFrame()
			if err != nil {
				peerDone <- err
				return
			}
			switch f.Type {
			case ingest.FrameHello:
				ack = ingest.AppendAck(ack[:0], 0)
			case ingest.FrameData:
				ingest.RecycleFrame(f)
				ack = ingest.AppendAck(ack[:0], f.Seq)
			case ingest.FrameBye:
				peerDone <- nil
				return
			default:
				continue
			}
			if _, err := c.Write(ack); err != nil {
				peerDone <- err
				return
			}
		}
	}()

	const batch = 16
	d := ingest.Dial("tcp", nl.Addr().String(), ingest.DialerConfig{BatchSize: batch, Window: 2, Session: 77})
	pkts := genPackets(batch, 5)
	frame := func() {
		for _, p := range pkts {
			if err := d.Send(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 64; i++ { // connect, fill the window, circulate every buffer
		frame()
	}
	if avg := testing.AllocsPerRun(500, frame); avg != 0 {
		t.Errorf("a frame through a full, acking window allocates %.2f objects, want 0", avg)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-peerDone; err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.FramesResent != 0 || st.Reconnects != 0 {
		t.Fatalf("healthy session: FramesResent = %d, Reconnects = %d, want 0 and 0", st.FramesResent, st.Reconnects)
	}
}
