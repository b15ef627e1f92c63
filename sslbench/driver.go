package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sslperf/internal/handshake"
	"sslperf/internal/record"
	"sslperf/internal/ssl"
	"sslperf/internal/suite"
	"sslperf/internal/workload"
)

// rotation is the suite cycle every workload walks, connection by
// connection, starting at an offset the seed picks. bulkRequests sets
// bulk-1m's 1 MiB requests per connection, so bytes per suite stand
// 16:8:1 and each suite takes about a third of the transfer time (their
// single-suite goodputs stand about 93:46:6.4 MB/s).
var rotation = []struct {
	name         string
	id           suite.ID
	bulkRequests int
}{
	{"RC4-MD5", suite.RSAWithRC4128MD5, 16},
	{"AES128-SHA", suite.RSAWithAES128CBCSHA, 8},
	{"DES-CBC3-SHA", suite.RSAWith3DESEDECBCSHA, 1},
}

// plan is what the driver intends one connection to do; every
// response is checked against it.
type plan struct {
	idx      uint64
	suite    int // index into rotation
	requests int
	session  *handshake.Session // offered for resumption, nil = full
	intended time.Time          // open-loop due time; zero in closed loop
}

// connResult is what one connection did.
type connResult struct {
	plan
	start, hsStart, hsEnd, end time.Time
	lag                        time.Duration // generator lateness
	resumed                    bool
	reqStart, reqEnd           []time.Time // per verified response
	err                        error
}

// driver generates one workload's load against addr and verifies
// every response.
type driver struct {
	addr    string
	wl      workloadSpec
	seed    uint64
	payload []byte
	header  string
	next    atomic.Uint64
	pools   [3]sessionPool // per rotation entry
	// clientConfig builds a connection's client config from its plan;
	// tests replace it to offer what the plan does not expect.
	clientConfig func(p plan) *ssl.Config
}

func newDriver(addr string, wl workloadSpec, seed uint64) *driver {
	d := &driver{
		addr:    addr,
		wl:      wl,
		seed:    seed,
		payload: workload.Payload(wl.fileSize),
		header:  fmt.Sprintf("LEN %d\n", wl.fileSize),
	}
	d.clientConfig = d.defaultClientConfig
	return d
}

func (d *driver) defaultClientConfig(p plan) *ssl.Config {
	return &ssl.Config{
		Rand:               ssl.NewPRNG(mix(d.seed, p.idx, 1)),
		Suites:             []suite.ID{rotation[p.suite].id},
		Version:            record.VersionSSL30,
		Session:            p.session,
		InsecureSkipVerify: true,
	}
}

// nextPlan draws the next connection's plan from the seed.
func (d *driver) nextPlan(intended time.Time) plan {
	idx := d.next.Add(1) - 1
	s := int((idx + d.seed) % uint64(len(rotation)))
	p := plan{idx: idx, suite: s, requests: d.wl.requests[s], intended: intended}
	if d.wl.resume > 0 && unit(mix(d.seed, idx, 2)) < d.wl.resume {
		p.session = d.pools[s].get()
	}
	return p
}

// connBufs are one in-flight connection's reusable read buffers, so
// the driver's own garbage does not grow with the load.
type connBufs struct {
	br   *bufio.Reader
	body []byte
}

func (d *driver) newBufs() *connBufs {
	return &connBufs{br: bufio.NewReaderSize(nil, 32<<10), body: make([]byte, len(d.payload))}
}

// runConn runs one connection: dial, handshake, the planned requests
// (each response verified), close. With stopAfter set it issues no
// request after that time past the first.
func (d *driver) runConn(p plan, bufs *connBufs, stopAfter time.Time) connResult {
	r := connResult{plan: p, start: time.Now()}
	r.err = d.exchange(&r, bufs, stopAfter)
	r.end = time.Now()
	return r
}

func (d *driver) exchange(r *connResult, bufs *connBufs, stopAfter time.Time) error {
	tc, err := net.Dial("tcp", d.addr)
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	conn := ssl.ClientConn(tc, d.clientConfig(r.plan))
	defer conn.Close()
	r.hsStart = time.Now()
	if err := conn.Handshake(); err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	hsEnd := time.Now()
	st, err := conn.ConnectionState()
	if err != nil {
		return err
	}
	if want := rotation[r.suite].name; st.Suite.Name != want {
		return fmt.Errorf("negotiated %s, planned %s", st.Suite.Name, want)
	}
	if st.Version != record.VersionSSL30 {
		return fmt.Errorf("negotiated version %#04x, planned SSL 3.0", st.Version)
	}
	if want := r.session != nil; st.Resumed != want {
		return fmt.Errorf("resumed=%v, planned %v", st.Resumed, want)
	}
	r.hsEnd, r.resumed = hsEnd, st.Resumed
	for j := 0; j < r.requests; j++ {
		if j > 0 && !stopAfter.IsZero() && time.Now().After(stopAfter) {
			break
		}
		t0 := time.Now()
		if _, err := conn.Write([]byte("GET /\n")); err != nil {
			return fmt.Errorf("request %d: %w", j, err)
		}
		if j == 0 {
			bufs.br.Reset(conn)
		}
		if err := d.verifyResponse(bufs.br, bufs.body); err != nil {
			return fmt.Errorf("response %d: %w", j, err)
		}
		r.reqStart = append(r.reqStart, t0)
		r.reqEnd = append(r.reqEnd, time.Now())
	}
	if s, err := conn.Session(); err == nil {
		d.pools[r.suite].put(s)
	}
	return nil
}

// verifyResponse reads one response and checks its LEN header and its
// body, byte for byte, against the payload the server must send.
func (d *driver) verifyResponse(br *bufio.Reader, buf []byte) error {
	line, err := br.ReadString('\n')
	if err != nil {
		return fmt.Errorf("header: %w", err)
	}
	if line != d.header {
		return fmt.Errorf("header %q, want %q", line, d.header)
	}
	body := buf[:len(d.payload)]
	if _, err := io.ReadFull(br, body); err != nil {
		return fmt.Errorf("body: %w", err)
	}
	if !bytes.Equal(body, d.payload) {
		for i := range body {
			if body[i] != d.payload[i] {
				return fmt.Errorf("body differs from the payload at byte %d", i)
			}
		}
	}
	return nil
}

// closedLoop runs conns workers, each starting its next connection
// as soon as the previous one ends, until t1.
func (d *driver) closedLoop(t1 time.Time) []connResult {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		all []connResult
	)
	stopAfter := time.Time{}
	if d.wl.perResponse {
		stopAfter = t1
	}
	for w := 0; w < d.wl.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bufs := d.newBufs()
			var mine []connResult
			last := time.Now()
			for time.Now().Before(t1) {
				r := d.runConn(d.nextPlan(time.Time{}), bufs, stopAfter)
				r.lag = r.start.Sub(last)
				last = r.end
				mine = append(mine, r)
				if r.err != nil {
					time.Sleep(time.Millisecond) // no hot spin on a dead server
				}
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all
}

// openLoop starts connections at the workload's fixed rate from start
// until t1, at most conns in flight; an arrival that finds the cap full
// waits for a slot, and its latency still counts from its due time.
// capWaits counts arrivals inside [t0, t1) that waited.
func (d *driver) openLoop(start, t0, t1 time.Time) (all []connResult, capWaits int) {
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	interval := time.Duration(float64(time.Second) / d.wl.rate)
	// A slot is a connection's buffers: holding one is being in flight.
	slots := make(chan *connBufs, d.wl.conns)
	for i := 0; i < d.wl.conns; i++ {
		slots <- d.newBufs()
	}
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(t1) {
			break
		}
		time.Sleep(time.Until(due))
		var bufs *connBufs
		select {
		case bufs = <-slots:
		default:
			if !due.Before(t0) {
				capWaits++
			}
			bufs = <-slots
		}
		p := d.nextPlan(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := d.runConn(p, bufs, time.Time{})
			slots <- bufs
			r.lag = r.start.Sub(p.intended)
			mu.Lock()
			all = append(all, r)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all, capWaits
}

// load runs the workload from now until t1, measuring [t0, t1).
func (d *driver) load(start, t0, t1 time.Time) ([]connResult, int) {
	if d.wl.rate > 0 {
		return d.openLoop(start, t0, t1)
	}
	return d.closedLoop(t1), 0
}

// probeResumed runs resumed handshakes for dur on the mix's connection
// count, closed loop, rotating over the suites, for mixes that offer no
// session: their hs_resumed_p50_ms comes from this probe after the
// window, on a server as busy as the mix keeps it.
func (d *driver) probeResumed(dur time.Duration) []connResult {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		out []connResult
	)
	for s := range rotation {
		if d.pools[s].get() == nil {
			out = append(out, d.runConn(plan{idx: d.next.Add(1) - 1, suite: s}, nil, time.Time{}))
		}
	}
	end := time.Now().Add(dur)
	for w := 0; w < d.wl.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []connResult
			for time.Now().Before(end) {
				idx := d.next.Add(1) - 1
				s := int(idx % uint64(len(rotation)))
				mine = append(mine, d.runConn(plan{idx: idx, suite: s, session: d.pools[s].get()}, nil, time.Time{}))
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// firstTxn runs one full-handshake transaction, the end of set-up.
func (d *driver) firstTxn() error {
	p := plan{idx: d.next.Add(1) - 1, requests: 1}
	return d.runConn(p, d.newBufs(), time.Time{}).err
}

// sessionPool keeps the most recent session of one suite.
type sessionPool struct {
	mu     sync.Mutex
	latest *handshake.Session
}

func (p *sessionPool) get() *handshake.Session {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.latest
}

func (p *sessionPool) put(s *handshake.Session) {
	p.mu.Lock()
	p.latest = s
	p.mu.Unlock()
}

// mix derives a well-spread 64-bit value from the seed, an index and a
// salt (splitmix64 finalizer).
func mix(seed, i, salt uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + i*0xbf58476d1ce4e5b9 + salt*0x94d049bb133111eb
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// unit maps a 64-bit value to [0, 1).
func unit(v uint64) float64 { return float64(v>>11) / (1 << 53) }
