package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sslperf/internal/handshake"
	"sslperf/internal/pathlen"
	"sslperf/internal/probe"
	"sslperf/internal/rsa"
	"sslperf/internal/ssl"
	"sslperf/internal/workload"
)

// The traced replica is cmd/sslserver reassembled from the same public
// calls (ssl.NewIdentity, handshake.NewSessionCache, ssl.ServerConn or
// ssl.NonBlockingServer), with spans around each call into the ssl
// layer and timing seams at the transport (timedConn) and at the RSA
// decryption (timedDecrypter). It runs as its own process so the Go
// runtime counters it reports cover the server alone. Its control
// protocol is line based on stdin/stdout: "start" opens the measured
// window, "stop" closes it, "report" prints the window's layer totals
// as one JSON line.

// replica is the traced server.
type replica struct {
	id      *ssl.Identity
	cache   *handshake.SessionCache
	pathlen *pathlen.Collector
	payload []byte
	seed    uint64
	connSeq atomic.Uint64
	acc     layerAcc
}

func replicaMain(args []string) int {
	fs := flag.NewFlagSet("replica", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:4433", "listen address")
	keyBits := fs.Int("keybits", 1024, "RSA key size")
	fileSize := fs.Int("filesize", 1024, "response payload bytes")
	seed := fs.Uint64("seed", 1, "PRNG seed")
	eventLoop := fs.Bool("eventloop", false, "serve from one goroutine stepping non-blocking conns")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	r, err := newReplica(*seed, *keyBits, *fileSize, *eventLoop)
	if err != nil {
		fmt.Fprintln(os.Stderr, "replica:", err)
		return 1
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "replica:", err)
		return 1
	}
	go r.control(os.Stdin, os.Stdout)
	fmt.Fprintln(os.Stderr, "replica:", r.serve(ln.(*net.TCPListener)))
	return 1
}

// newReplica generates the identity the way cmd/sslserver does.
func newReplica(seed uint64, keyBits, fileSize int, eventLoop bool) (*replica, error) {
	id, err := ssl.NewIdentity(ssl.NewPRNG(seed), keyBits, "sslserver", time.Now())
	if err != nil {
		return nil, err
	}
	r := &replica{
		id:      id,
		cache:   handshake.NewSessionCache(4096),
		pathlen: pathlen.NewCollector(),
		payload: workload.Payload(fileSize),
		seed:    seed,
	}
	r.acc.eventLoop = eventLoop
	r.acc.open()
	return r, nil
}

// serve accepts until ln fails.
func (r *replica) serve(ln *net.TCPListener) error {
	if r.acc.eventLoop {
		return r.serveEventLoop(ln)
	}
	return r.serveGoroutines(ln)
}

// control answers the driver's window commands; it exits the process
// when the driver closes stdin.
func (r *replica) control(in io.Reader, out io.Writer) {
	sc := bufio.NewScanner(in)
	var frozen *layerReport
	for sc.Scan() {
		switch sc.Text() {
		case "start":
			r.acc.open()
			fmt.Fprintln(out, "ok")
		case "stop":
			frozen = r.acc.close()
			fmt.Fprintln(out, "ok")
		case "report":
			if frozen == nil {
				fmt.Fprintln(out, `{"error":"report before stop"}`)
				continue
			}
			// Handshake self times keep the handshakes made after the
			// window too: the resumed probe lands there.
			rep := *frozen
			r.acc.fillHandshakes(&rep)
			b, _ := json.Marshal(rep) // a struct of numbers always marshals
			fmt.Fprintln(out, string(b))
		default:
			fmt.Fprintln(out, `{"error":"unknown command"}`)
		}
	}
	os.Exit(0)
}

// configFor mirrors cmd/sslserver's per-connection config: its own
// PRNG, the shared key, certificate, session cache and path-length
// probe, plus the timing decrypter in front of the key.
func (r *replica) configFor(ct *connTrace) *ssl.Config {
	id := r.connSeq.Add(1)
	return &ssl.Config{
		Rand:         ssl.NewPRNG(r.seed + 17*id),
		Key:          r.id.Key,
		CertDER:      r.id.CertDER,
		SessionCache: r.cache,
		Probes:       []probe.Sink{r.pathlen},
		Decrypter:    &timedDecrypter{key: r.id.Key, ct: ct},
	}
}

// response is what cmd/sslserver writes for every request.
func (r *replica) response() []byte {
	hdr := fmt.Sprintf("LEN %d\n", len(r.payload))
	return append([]byte(hdr), r.payload...)
}

// serveGoroutines is cmd/sslserver's default mode: one goroutine per
// connection over a blocking ssl.Conn.
func (r *replica) serveGoroutines(ln *net.TCPListener) error {
	for {
		tc, err := ln.AcceptTCP()
		if err != nil {
			return err
		}
		go r.serveConn(tc, time.Now())
	}
}

func (r *replica) serveConn(tc *net.TCPConn, accepted time.Time) {
	ct := &connTrace{acc: &r.acc, accepted: accepted}
	tw := &timedConn{TCPConn: tc, acc: &r.acc}
	conn := ssl.ServerConn(tw, r.configFor(ct))
	buf := make([]byte, 4096)

	// call times one call into the ssl layer and returns its self time:
	// the span less the transport and decryption time inside it.
	call := func(fn func() error) (self, dec time.Duration, err error) {
		rd, wr, dc := tw.readNs, tw.writeNs, ct.decrypt
		t0 := time.Now()
		err = fn()
		t1 := time.Now()
		ct.span(t0, t1)
		dec = ct.decrypt - dc
		self = t1.Sub(t0) - (tw.readNs - rd) - (tw.writeNs - wr) - dec
		r.acc.step(self + dec)
		return self, dec, err
	}

	r.acc.acceptToStep(time.Since(accepted))
	self, dec, err := call(conn.Handshake)
	if err == nil {
		st, _ := conn.ConnectionState() // the handshake completed
		r.acc.handshake(st.Resumed, self, dec)
		for {
			if _, _, err := call(func() error { _, err := conn.Read(buf); return err }); err != nil {
				break
			}
			reqStart := time.Now()
			resp := r.response()
			seal, _, err := call(func() error { _, err := conn.Write(resp); return err })
			r.acc.seal(st.Suite.Name, seal, len(resp))
			r.acc.request(time.Since(reqStart))
			if err != nil {
				break
			}
		}
	}
	call(conn.Close)
	r.acc.connDone(ct, time.Now(), conn.Stats().RecordsWritten, tw.writes)
}

// timedConn is the transport seam: it times every read and write the
// record layer issues. It implements record.BuffersWriter and hands a
// flight to net.Buffers.WriteTo on the *net.TCPConn itself, so a flight
// stays one writev; a plain embedding wrapper would be wrapped again by
// the ssl layer and split each flight into one write per record.
type timedConn struct {
	*net.TCPConn
	acc *layerAcc
	// Per-connection totals; reads are only touched by the reading
	// goroutine and writes by the writing one.
	readNs, writeNs time.Duration
	writes          int
}

func (c *timedConn) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.TCPConn.Read(p)
	d := time.Since(t0)
	c.readNs += d
	c.acc.readCalls.Add(1)
	c.acc.readNs.Add(int64(d))
	return n, err
}

func (c *timedConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.TCPConn.Write(p)
	c.wrote(time.Since(t0))
	return n, err
}

// WriteBuffers flushes a flight with one writev.
func (c *timedConn) WriteBuffers(bufs [][]byte) (int64, error) {
	t0 := time.Now()
	b := net.Buffers(bufs)
	n, err := b.WriteTo(c.TCPConn)
	c.wrote(time.Since(t0))
	return n, err
}

func (c *timedConn) wrote(d time.Duration) {
	c.writeNs += d
	c.writes++
	c.acc.writeCalls.Add(1)
	c.acc.writeNs.Add(int64(d))
}

// timedDecrypter is the RSA seam: Config.Decrypter delegating to the
// identity's key, timing each ClientKeyExchange decryption.
type timedDecrypter struct {
	key *rsa.PrivateKey
	ct  *connTrace
}

func (d *timedDecrypter) DecryptPKCS1(rnd io.Reader, ct []byte) ([]byte, error) {
	t0 := time.Now()
	out, err := d.key.DecryptPKCS1(rnd, ct)
	el := time.Since(t0)
	d.ct.decrypt += el
	d.ct.acc.decrypted(el)
	return out, err
}

// connTrace is one connection's spans, owned by the goroutine serving
// it.
type connTrace struct {
	acc      *layerAcc
	accepted time.Time
	spans    []span
	decrypt  time.Duration
}

type span struct{ from, to time.Time }

func (ct *connTrace) span(from, to time.Time) { ct.spans = append(ct.spans, span{from, to}) }

// covered is the length of the union of the spans.
func covered(spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].from.Before(spans[j].from) })
	var total time.Duration
	var cur span
	for i, s := range spans {
		switch {
		case i == 0:
			cur = s
		case s.from.After(cur.to):
			total += cur.to.Sub(cur.from)
			cur = s
		case s.to.After(cur.to):
			cur.to = s.to
		}
	}
	if len(spans) > 0 {
		total += cur.to.Sub(cur.from)
	}
	return total
}

// layerAcc accumulates the replica's per-layer totals for the open
// window. Transport counters are atomics bumped per call; everything
// else is folded in under mu.
type layerAcc struct {
	eventLoop bool

	readCalls, readNs, writeCalls, writeNs atomic.Int64

	mu           sync.Mutex
	rt0          []metrics.Sample
	decryptUS    []float64
	fullBusy     time.Duration
	fullDecrypt  time.Duration
	sealNs       map[string]time.Duration
	sealBytes    map[string]int64
	records      int64
	flushes      int64
	requestUS    []float64
	acceptUS     []float64
	unattributed time.Duration
	conns        int64
	loopWaitUS   []float64
	stepUS       []float64
	// Handshake self times are not frozen when the window closes, so
	// they also hold the handshakes of the resumed probe that follows.
	fullSelfUS    []float64
	resumedSelfUS []float64
}

// runtimeMetrics are the Go runtime counters the report differences.
var runtimeMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

// open resets the window.
func (a *layerAcc) open() {
	a.readCalls.Store(0)
	a.readNs.Store(0)
	a.writeCalls.Store(0)
	a.writeNs.Store(0)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.decryptUS, a.fullSelfUS, a.resumedSelfUS = nil, nil, nil
	a.fullBusy, a.fullDecrypt = 0, 0
	a.sealNs, a.sealBytes = map[string]time.Duration{}, map[string]int64{}
	a.records, a.flushes, a.conns, a.unattributed = 0, 0, 0, 0
	a.requestUS, a.acceptUS, a.loopWaitUS, a.stepUS = nil, nil, nil, nil
	a.rt0 = readRuntime()
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func (a *layerAcc) decrypted(d time.Duration) {
	a.mu.Lock()
	a.decryptUS = append(a.decryptUS, us(d))
	a.mu.Unlock()
}

func (a *layerAcc) handshake(resumed bool, self, dec time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if resumed {
		a.resumedSelfUS = append(a.resumedSelfUS, us(self))
		return
	}
	a.fullSelfUS = append(a.fullSelfUS, us(self))
	a.fullBusy += self + dec
	a.fullDecrypt += dec
}

func (a *layerAcc) seal(suite string, d time.Duration, n int) {
	a.mu.Lock()
	a.sealNs[suite] += d
	a.sealBytes[suite] += int64(n)
	a.mu.Unlock()
}

func (a *layerAcc) request(d time.Duration) {
	a.mu.Lock()
	a.requestUS = append(a.requestUS, us(d))
	a.mu.Unlock()
}

func (a *layerAcc) acceptToStep(d time.Duration) {
	a.mu.Lock()
	a.acceptUS = append(a.acceptUS, us(d))
	a.mu.Unlock()
}

func (a *layerAcc) step(d time.Duration) {
	a.mu.Lock()
	a.stepUS = append(a.stepUS, us(d))
	a.mu.Unlock()
}

func (a *layerAcc) loopWait(d time.Duration) {
	a.mu.Lock()
	a.loopWaitUS = append(a.loopWaitUS, us(d))
	a.mu.Unlock()
}

// connDone folds a finished connection: the share of its lifetime no
// span covers, and its record and transport-write counts.
func (a *layerAcc) connDone(ct *connTrace, end time.Time, records, writes int) {
	un := end.Sub(ct.accepted) - covered(ct.spans)
	a.mu.Lock()
	a.unattributed += un
	a.conns++
	a.records += int64(records)
	a.flushes += int64(writes)
	a.mu.Unlock()
}

// layerReport is the replica's window, as raw totals and exact
// quantiles; the driver divides by its own transaction count.
type layerReport struct {
	Decrypts         int     `json:"decrypts"`
	DecryptP50US     float64 `json:"decrypt_p50_us"`
	FullBusyUS       float64 `json:"full_busy_us"`
	FullDecryptUS    float64 `json:"full_decrypt_us"`
	FullSelfP50US    float64 `json:"full_self_p50_us"`
	FullSelfN        int     `json:"full_self_n"`
	ResumedSelfP50US float64 `json:"resumed_self_p50_us"`
	ResumedSelfN     int     `json:"resumed_self_n"`

	SealNsPerByte   map[string]float64 `json:"seal_ns_per_byte"`
	RecordsPerWrite float64            `json:"records_per_write"`

	ReadCalls  int64   `json:"read_calls"`
	ReadUS     float64 `json:"read_us"`
	WriteCalls int64   `json:"write_calls"`
	WriteUS    float64 `json:"write_us"`

	RequestP50US   float64 `json:"request_p50_us"`
	RequestN       int     `json:"request_n"`
	AcceptP50US    float64 `json:"accept_to_step_p50_us"`
	UnattributedUS float64 `json:"unattributed_us"`
	Conns          int64   `json:"conns"`

	LoopWaitSource string  `json:"loop_wait_source"`
	LoopWaitP50US  float64 `json:"loop_wait_p50_us"`
	LoopWaitP99US  float64 `json:"loop_wait_p99_us"`
	LoopWaitN      int     `json:"loop_wait_n"`
	StepP99US      float64 `json:"step_p99_us"`
	StepN          int     `json:"step_n"`

	Allocs     float64 `json:"allocs"`
	AllocBytes float64 `json:"alloc_bytes"`
	GCs        float64 `json:"gcs"`
}

// close ends the window and reports it.
func (a *layerAcc) close() *layerReport {
	rt1 := readRuntime()
	a.mu.Lock()
	defer a.mu.Unlock()
	rep := &layerReport{
		Decrypts:      len(a.decryptUS),
		DecryptP50US:  quantile(a.decryptUS, 0.5),
		FullBusyUS:    us(a.fullBusy),
		FullDecryptUS: us(a.fullDecrypt),
		SealNsPerByte: map[string]float64{},
		ReadCalls:     a.readCalls.Load(),
		ReadUS:        us(time.Duration(a.readNs.Load())),
		WriteCalls:    a.writeCalls.Load(),
		WriteUS:       us(time.Duration(a.writeNs.Load())),
		RequestP50US:  quantile(a.requestUS, 0.5),
		RequestN:      len(a.requestUS),
		AcceptP50US:   quantile(a.acceptUS, 0.5),
		Conns:         a.conns,
		StepP99US:     quantile(a.stepUS, 0.99),
		StepN:         len(a.stepUS),
		Allocs:        float64(rt1[0].Value.Uint64() - a.rt0[0].Value.Uint64()),
		AllocBytes:    float64(rt1[1].Value.Uint64() - a.rt0[1].Value.Uint64()),
		GCs:           float64(rt1[2].Value.Uint64() - a.rt0[2].Value.Uint64()),
	}
	if a.conns > 0 {
		rep.UnattributedUS = us(a.unattributed)
	}
	if a.flushes > 0 {
		rep.RecordsPerWrite = float64(a.records) / float64(a.flushes)
	}
	for s, ns := range a.sealNs {
		if b := a.sealBytes[s]; b > 0 {
			rep.SealNsPerByte[s] = float64(ns) / float64(b)
		}
	}
	if a.eventLoop {
		rep.LoopWaitSource = "event queue wait"
		rep.LoopWaitN = len(a.loopWaitUS)
		rep.LoopWaitP50US = quantile(a.loopWaitUS, 0.5)
		rep.LoopWaitP99US = quantile(a.loopWaitUS, 0.99)
	} else {
		// A goroutine server's queue is the Go scheduler's run queue:
		// its runnable-to-running latency, from the runtime's own
		// histogram, interpolated within buckets.
		h0 := a.rt0[3].Value.Float64Histogram()
		h1 := rt1[3].Value.Float64Histogram()
		rep.LoopWaitSource = "scheduler latency (runtime/metrics)"
		rep.LoopWaitN, rep.LoopWaitP50US = histQuantile(h0, h1, 0.5)
		_, rep.LoopWaitP99US = histQuantile(h0, h1, 0.99)
	}
	return rep
}

// fillHandshakes sets the handshake self-time quantiles from every
// handshake since the window opened, the window's and the probe's.
func (a *layerAcc) fillHandshakes(rep *layerReport) {
	a.mu.Lock()
	defer a.mu.Unlock()
	rep.FullSelfN = len(a.fullSelfUS)
	rep.FullSelfP50US = quantile(a.fullSelfUS, 0.5)
	rep.ResumedSelfN = len(a.resumedSelfUS)
	rep.ResumedSelfP50US = quantile(a.resumedSelfUS, 0.5)
}

// histQuantile is the q-quantile, in µs, of the counts h1 gained over
// h0, interpolated linearly inside the bucket it falls in.
func histQuantile(h0, h1 *metrics.Float64Histogram, q float64) (int, float64) {
	var total uint64
	delta := make([]uint64, len(h1.Counts))
	for i := range h1.Counts {
		delta[i] = h1.Counts[i] - h0.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0, 0
	}
	rank := uint64(rankOf(q, int(total)))
	var cum uint64
	for i, c := range delta {
		if cum+c < rank {
			cum += c
			continue
		}
		lo, hi := max(h1.Buckets[i], 0), h1.Buckets[i+1]
		if math.IsInf(hi, 1) {
			hi = lo
		}
		frac := float64(rank-cum) / float64(c)
		return int(total), (lo + frac*(hi-lo)) * 1e6
	}
	return int(total), h1.Buckets[len(h1.Buckets)-1] * 1e6
}
