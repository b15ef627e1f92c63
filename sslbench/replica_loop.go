package main

import (
	"net"
	"time"

	"sslperf/internal/ssl"
)

// The event-loop replica keeps cmd/sslserver -eventloop's defining
// property: one goroutine runs every connection's FSM, record and
// crypto work, so a full handshake's RSA decryption stalls every other
// connection. Socket readers feed it through one queue; the time an
// event waits there is the loop wait. A reader waits for the loop to
// consume its bytes before reading again, as the epoll loop reads a
// socket only when it is serviced.

type loopEventKind int

const (
	evAccept loopEventKind = iota
	evData
	evEOF
)

type loopEvent struct {
	c                *loopConn
	kind             loopEventKind
	data             []byte
	readFrom, readTo time.Time
	enqueued         time.Time
}

// loopConn is one event-loop connection, owned by the loop goroutine
// except for tw's read side and consumed, which its reader uses.
type loopConn struct {
	tw       *timedConn
	nc       *ssl.NonBlockingConn
	ct       *connTrace
	consumed chan struct{} // the loop has finished with a data event
	closing  bool
	done     bool

	hsStarted bool
	hsSelf    time.Duration // summed HandshakeStep spans
	hsDecrypt time.Duration
	suite     string
	reqStart  time.Time // a request was read and its response not yet flushed
}

func (r *replica) serveEventLoop(ln *net.TCPListener) error {
	// One slot per connection is enough (a reader has at most one event
	// queued); the rest absorbs accept bursts.
	queue := make(chan loopEvent, 256)
	go r.loop(queue)
	for {
		tc, err := ln.AcceptTCP()
		if err != nil {
			return err
		}
		now := time.Now()
		c := &loopConn{
			tw:       &timedConn{TCPConn: tc, acc: &r.acc},
			ct:       &connTrace{acc: &r.acc, accepted: now},
			consumed: make(chan struct{}, 1),
		}
		queue <- loopEvent{c: c, kind: evAccept, enqueued: now}
		go r.readLoop(c, queue)
	}
}

// readLoop feeds one socket's bytes to the loop, one read at a time.
func (r *replica) readLoop(c *loopConn, queue chan<- loopEvent) {
	buf := make([]byte, 64<<10)
	for {
		from := time.Now()
		n, err := c.tw.Read(buf)
		to := time.Now()
		if n > 0 {
			queue <- loopEvent{c: c, kind: evData, data: buf[:n], readFrom: from, readTo: to, enqueued: to}
			<-c.consumed
			from = time.Time{}
		}
		if err != nil {
			ev := loopEvent{c: c, kind: evEOF, enqueued: time.Now()}
			if n == 0 {
				ev.readFrom, ev.readTo = from, to
			}
			queue <- ev
			return
		}
	}
}

// loop is the single serving goroutine.
func (r *replica) loop(queue <-chan loopEvent) {
	abuf := make([]byte, 16<<10)
	for ev := range queue {
		start := time.Now()
		c := ev.c
		r.acc.loopWait(start.Sub(ev.enqueued))
		if !c.done {
			c.ct.span(ev.enqueued, start)
			if !ev.readFrom.IsZero() {
				c.ct.span(ev.readFrom, ev.readTo)
			}
			switch ev.kind {
			case evAccept:
				c.nc = ssl.NonBlockingServer(r.configFor(c.ct))
				c.nc.SetRemoteAddr(c.tw.RemoteAddr().String())
				r.pump(c, abuf)
			case evData:
				t0 := time.Now()
				c.nc.Feed(ev.data)
				c.ct.span(t0, time.Now())
				r.pump(c, abuf)
			case evEOF:
				c.closing = true
			}
			if c.closing && len(c.nc.Outgoing()) == 0 {
				r.teardown(c)
			}
		}
		if ev.kind == evData {
			c.consumed <- struct{}{}
		}
		r.acc.step(time.Since(start))
	}
}

// pump mirrors the epoll loop's: step the handshake, then answer every
// complete request, then flush.
func (r *replica) pump(c *loopConn, abuf []byte) {
	if c.closing {
		return
	}
	if !c.nc.HandshakeDone() {
		dec := c.ct.decrypt
		t0 := time.Now()
		if !c.hsStarted {
			c.hsStarted = true
			r.acc.acceptToStep(t0.Sub(c.ct.accepted))
		}
		err := c.nc.HandshakeStep()
		t1 := time.Now()
		c.ct.span(t0, t1)
		c.hsDecrypt += c.ct.decrypt - dec
		c.hsSelf += t1.Sub(t0) - (c.ct.decrypt - dec)
		if err == ssl.ErrWouldBlock {
			r.flush(c)
			return
		}
		if err != nil {
			c.closing = true
			r.flush(c)
			return
		}
		st, _ := c.nc.ConnectionState() // the handshake completed
		c.suite = st.Suite.Name
		r.acc.handshake(st.Resumed, c.hsSelf, c.hsDecrypt)
	}
	for {
		t0 := time.Now()
		n, err := c.nc.ReadData(abuf)
		t1 := time.Now()
		c.ct.span(t0, t1)
		if err == ssl.ErrWouldBlock {
			break
		}
		if err != nil {
			c.nc.Close()
			c.closing = true
			break
		}
		if n > 0 {
			c.reqStart = t1
			resp := r.response()
			w0 := time.Now()
			c.nc.WriteData(resp)
			w1 := time.Now()
			c.ct.span(w0, w1)
			r.acc.seal(c.suite, w1.Sub(w0), len(resp))
		}
	}
	r.flush(c)
}

// flush writes the core's outgoing bytes to the socket.
func (r *replica) flush(c *loopConn) {
	for {
		out := c.nc.Outgoing()
		if len(out) == 0 {
			break
		}
		t0 := time.Now()
		n, err := c.tw.Write(out)
		c.ct.span(t0, time.Now())
		if err != nil {
			r.teardown(c)
			return
		}
		c.nc.ConsumeOutgoing(n)
	}
	if !c.reqStart.IsZero() {
		r.acc.request(time.Since(c.reqStart))
		c.reqStart = time.Time{}
	}
}

// teardown closes the connection and folds its trace.
func (r *replica) teardown(c *loopConn) {
	if c.done {
		return
	}
	c.done = true
	t0 := time.Now()
	c.nc.Close()
	c.tw.Close()
	end := time.Now()
	c.ct.span(t0, end)
	r.acc.connDone(c.ct, end, c.nc.Stats().RecordsWritten, c.tw.writes)
}
