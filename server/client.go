package server

// Client is the control-protocol client: a demuxing read loop routes
// request responses by request id and subscription traffic by query id.
// Subscription events surface on a buffered channel per query; the resume
// contract is that the caller remembers the last Cursor it processed and
// passes cursor+1 to Subscribe on a fresh client after any disconnect —
// the rows that follow are bit-identical to the ones an uninterrupted
// subscriber would have seen, whatever happened to the server in between.

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"forwarddecay/gsql"
	"forwarddecay/ingest"
)

// SubEvent is one subscription delivery.
type SubEvent struct {
	// Row and Cursor are set for a row delivery. The row is the receiver's to
	// keep (the rows of one wire batch share one allocation).
	Row    gsql.Tuple
	Cursor uint64
	// Gap reports shed rows [GapFrom, GapTo) before the next delivery.
	Gap            bool
	GapFrom, GapTo uint64
	// Err terminates the subscription (Code tells why: CodeSlowConsumer,
	// CodeShutdown, CodeUnknownQuery after a detach, ...).
	Err  error
	Code uint16
}

// ClientError is a typed server-side rejection.
type ClientError struct {
	Code uint16
	Msg  string
}

func (e *ClientError) Error() string {
	return fmt.Sprintf("server error %d: %s", e.Code, e.Msg)
}

// Client is one authenticated control connection.
type Client struct {
	c net.Conn

	wmu sync.Mutex // frame writes

	mu      sync.Mutex
	nextReq uint32
	pending map[uint32]chan *Msg
	subs    map[uint32]chan SubEvent // by query id
	reqOf   map[uint32]uint32        // subscribe request id → query id
	readErr error
	closed  bool
	dead    chan struct{}
}

// DialClient connects and authenticates a control session. addr accepts the
// same "host:port" / "unix:/path" forms the server listens on.
func DialClient(addr, token string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = controlIOTimeout
	}
	network, address := ingest.SplitAddr(addr)
	c, err := net.DialTimeout(network, address, timeout)
	if err != nil {
		return nil, err
	}
	cl := &Client{
		c:       c,
		nextReq: 1,
		pending: map[uint32]chan *Msg{},
		subs:    map[uint32]chan SubEvent{},
		reqOf:   map[uint32]uint32{},
		dead:    make(chan struct{}),
	}
	go cl.readLoop()
	resp, err := cl.request(&Msg{Type: CtHello, Text: token, Sess: 1})
	if err != nil {
		cl.Close()
		return nil, err
	}
	if resp.Type != StOK {
		cl.Close()
		return nil, fmt.Errorf("server: unexpected hello response type %d", resp.Type)
	}
	return cl, nil
}

// Close tears the connection down; pending requests and subscriptions fail.
func (cl *Client) Close() error {
	cl.mu.Lock()
	cl.closed = true
	cl.mu.Unlock()
	return cl.c.Close()
}

// fail poisons the client and fans the error out to every waiter.
func (cl *Client) fail(err error) {
	cl.mu.Lock()
	if cl.readErr == nil {
		cl.readErr = err
		close(cl.dead)
	}
	pending, subs := cl.pending, cl.subs
	cl.pending, cl.subs = map[uint32]chan *Msg{}, map[uint32]chan SubEvent{}
	closed := cl.closed
	cl.mu.Unlock()
	for _, ch := range pending {
		close(ch)
	}
	for _, ch := range subs {
		if !closed {
			select {
			case ch <- SubEvent{Err: err}:
			default:
			}
		}
		close(ch)
	}
}

// readLoop demuxes incoming frames: responses go to their request waiter,
// subscription traffic to its event channel.
func (cl *Client) readLoop() {
	r := msgReader{r: bufio.NewReader(cl.c)}
	for {
		m, err := r.next()
		if err != nil {
			cl.fail(fmt.Errorf("server: connection lost: %w", err))
			return
		}
		switch m.Type {
		case StRow:
			if ch := cl.subChan(m.Query); ch != nil {
				for i, row := range m.Rows {
					ch <- SubEvent{Row: row, Cursor: m.Cursor + uint64(i)}
				}
			}
		case StGap:
			if ch := cl.subChan(m.Query); ch != nil {
				ch <- SubEvent{Gap: true, GapFrom: m.GapFrom, GapTo: m.Cursor}
			}
		default:
			cl.mu.Lock()
			ch := cl.pending[m.Req]
			delete(cl.pending, m.Req)
			cl.mu.Unlock()
			if ch != nil {
				resp := *m // the reader reuses m for the next frame
				ch <- &resp
				continue
			}
			if m.Type == StErr {
				// Async termination of a subscription: the Req echoes the
				// original subscribe request; route by it.
				cl.terminateSubByReq(m)
			}
		}
	}
}

// subChan returns the event channel of a live subscription, or nil.
func (cl *Client) subChan(query uint32) chan SubEvent {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.subs[query]
}

// terminateSubByReq routes an async StErr — whose Req echoes the original
// subscribe request — to that subscription's event channel and closes it.
func (cl *Client) terminateSubByReq(m *Msg) {
	cl.mu.Lock()
	query, ok := cl.reqOf[m.Req]
	var ch chan SubEvent
	if ok {
		ch = cl.subs[query]
		delete(cl.subs, query)
		delete(cl.reqOf, m.Req)
	}
	cl.mu.Unlock()
	if ch != nil {
		ch <- SubEvent{Err: &ClientError{Code: m.Code, Msg: m.Text}, Code: m.Code}
		close(ch)
	}
}

// request sends one frame and waits for its response.
func (cl *Client) request(m *Msg) (*Msg, error) {
	cl.mu.Lock()
	if cl.readErr != nil {
		err := cl.readErr
		cl.mu.Unlock()
		return nil, err
	}
	m.Req = cl.nextReq
	cl.nextReq++
	ch := make(chan *Msg, 1)
	cl.pending[m.Req] = ch
	cl.mu.Unlock()

	buf := AppendMsg(nil, m)
	cl.wmu.Lock()
	cl.c.SetWriteDeadline(time.Now().Add(controlIOTimeout))
	_, err := cl.c.Write(buf)
	cl.c.SetWriteDeadline(time.Time{})
	cl.wmu.Unlock()
	if err != nil {
		return nil, err
	}
	resp, ok := <-ch
	if !ok {
		cl.mu.Lock()
		err := cl.readErr
		cl.mu.Unlock()
		return nil, err
	}
	if resp.Type == StErr {
		return nil, &ClientError{Code: resp.Code, Msg: resp.Text}
	}
	return resp, nil
}

// Attach submits a query; the returned id is the handle for Subscribe and
// Detach — stable across server restarts.
func (cl *Client) Attach(query string) (uint32, error) {
	resp, err := cl.request(&Msg{Type: CtAttach, Text: query})
	if err != nil {
		return 0, err
	}
	if resp.Type != StAttached {
		return 0, fmt.Errorf("server: unexpected attach response type %d", resp.Type)
	}
	return resp.Query, nil
}

// Detach removes a query from the catalog.
func (cl *Client) Detach(id uint32) error {
	_, err := cl.request(&Msg{Type: CtDetach, Query: id})
	return err
}

// Revive lifts a quarantined query back into the running catalog; it
// resumes from the partials retained when it was fenced.
func (cl *Client) Revive(id uint32) error {
	_, err := cl.request(&Msg{Type: CtRevive, Query: id})
	return err
}

// Subscribe streams a query's results from cursor (0 = oldest retained;
// lastSeen+1 to resume). The returned channel closes after a terminal
// event. deadline only matters for PolicyDisconnect.
func (cl *Client) Subscribe(id uint32, cursor uint64, policy Policy, deadline time.Duration) (<-chan SubEvent, error) {
	ch := make(chan SubEvent, 256)
	cl.mu.Lock()
	if _, dup := cl.subs[id]; dup {
		cl.mu.Unlock()
		return nil, fmt.Errorf("server: already subscribed to query %d", id)
	}
	cl.subs[id] = ch
	cl.mu.Unlock()
	m := &Msg{Type: CtSubscribe, Query: id, Cursor: cursor, Policy: policy, Deadline: uint32(deadline / time.Millisecond)}
	resp, err := cl.request(m)
	if err != nil {
		cl.mu.Lock()
		delete(cl.subs, id)
		cl.mu.Unlock()
		close(ch)
		return nil, err
	}
	if resp.Type != StOK {
		cl.mu.Lock()
		delete(cl.subs, id)
		cl.mu.Unlock()
		close(ch)
		return nil, fmt.Errorf("server: unexpected subscribe response type %d", resp.Type)
	}
	cl.mu.Lock()
	cl.reqOf[m.Req] = id
	cl.mu.Unlock()
	return ch, nil
}

// Unsubscribe stops a subscription; its event channel closes.
func (cl *Client) Unsubscribe(id uint32) error {
	_, err := cl.request(&Msg{Type: CtUnsubscribe, Query: id})
	cl.mu.Lock()
	ch := cl.subs[id]
	delete(cl.subs, id)
	for req, q := range cl.reqOf {
		if q == id {
			delete(cl.reqOf, req)
		}
	}
	cl.mu.Unlock()
	if ch != nil {
		close(ch)
	}
	return err
}

// Stats fetches the service's JSON stats snapshot.
func (cl *Client) Stats() (string, error) {
	resp, err := cl.request(&Msg{Type: CtStats})
	if err != nil {
		return "", err
	}
	return resp.Text, nil
}

// Bye closes the session cleanly.
func (cl *Client) Bye() error {
	_, err := cl.request(&Msg{Type: CtBye})
	cl.Close()
	return err
}
