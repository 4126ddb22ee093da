package ingest

import (
	"io"
	"net"
	"testing"
)

// TestAckNudgeAndWriteAllocs: the pump nudges once per applied frame and the
// ack writer answers with one write — neither may allocate, or the result
// path's allocation-free budget is spent on acks.
func TestAckNudgeAndWriteAllocs(t *testing.T) {
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close()
	peer, err := net.Dial("tcp", nl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	go io.Copy(io.Discard, peer) // ends when the deferred Close runs
	c, err := nl.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	l := &Listener{}
	sess := &session{id: 1}
	sc := &serverConn{c: c, nudge: make(chan struct{}, 1)}
	sc.sess.Store(sess)
	step := func() {
		advanceApplied(sess, sess.applied.Load()+1)
		sc.nudgeAck()
		sc.nudgeAck() // a second nudge behind a pending one is dropped
		<-sc.nudge
		if err := l.writeAck(sc); err != nil {
			t.Fatal(err)
		}
	}
	step()
	if avg := testing.AllocsPerRun(1000, step); avg != 0 {
		t.Errorf("nudge + ack write allocates %.2f objects, want 0", avg)
	}
	if got := l.acksWritten.Load(); got != 1002 {
		t.Errorf("acksWritten = %d, want 1002", got)
	}
}
