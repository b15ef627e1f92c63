package baseline

import (
	"fmt"
	"strings"
)

// A Violation is one broken expectation shape: a named check, the
// metric that broke it, and how far off it is.
type Violation struct {
	Check  string `json:"check"`
	Detail string `json:"detail"`
}

func (v Violation) String() string { return v.Check + ": " + v.Detail }

// CheckShape validates a report against the expectation shape the
// paper (and our committed results) predict for that bench. Shapes
// are recomputed from the raw metrics — never read from derived
// fields like "speedup" — so a perturbed metric cannot hide behind a
// stale ratio. An unknown bench name has no registered expectations
// and passes vacuously (with ok=false so callers can report "skipped").
func CheckShape(r *Report) (violations []Violation, known bool) {
	switch r.Bench {
	case "rsa-batch-amortization":
		return checkBatchShape(r), true
	case "rsa-decrypt":
		return checkRSADecryptShape(r), true
	case "record-seal-allocs":
		return checkRecordShape(r), true
	case "trace-overhead":
		return checkTraceShape(r), true
	case "probe-overhead":
		return checkProbeShape(r), true
	case "load-latency":
		return checkLoadShape(r), true
	case "bulk-path":
		return checkBulkShape(r), true
	case "lifecycle-conn-table":
		return checkLifecycleShape(r), true
	case "history-sampler":
		return checkHistoryShape(r), true
	case "nonblock":
		return checkNonblockShape(r), true
	}
	return nil, false
}

// checkNonblockShape pins the sans-IO core's two claims. First, the
// economics: an idle event-loop connection (a NonBlockingConn and its
// buffers) must pin strictly less memory than an idle goroutine-per-
// conn connection (blocking Conn plus the goroutine parked in Read) —
// that gap is the whole point of the refactor. Second, the costs that
// must not appear: the steady-state non-blocking read path stays at
// zero allocations per round trip, and driving the handshake FSM by
// explicit steps must not be materially slower than the blocking
// wrapper driving the very same FSM (the shuttle replaces goroutine
// hand-offs, not crypto, so 1.5x is already generous).
func checkNonblockShape(r *Report) []Violation {
	var out []Violation
	el, okEL := r.Metric("IdleConns/eventloop", "bytes/conn")
	gr, okGR := r.Metric("IdleConns/goroutine", "bytes/conn")
	switch {
	case !okEL:
		out = append(out, Violation{"nonblock-idle", "IdleConns/eventloop bytes/conn missing"})
	case !okGR:
		out = append(out, Violation{"nonblock-idle", "IdleConns/goroutine bytes/conn missing"})
	case el <= 0 || gr <= 0:
		out = append(out, Violation{"nonblock-idle",
			fmt.Sprintf("non-positive bytes/conn (eventloop %.0f, goroutine %.0f) — GC settled mid-measure?", el, gr)})
	case el >= gr:
		out = append(out, Violation{"nonblock-idle",
			fmt.Sprintf("idle event-loop conn %.0f bytes/conn not below goroutine conn %.0f (the sans-IO core lost its memory advantage)", el, gr)})
	}

	if allocs, ok := r.Metric("NonBlockReadSteady", "allocs/op"); !ok {
		out = append(out, Violation{"nonblock-read-allocs", "NonBlockReadSteady allocs/op missing"})
	} else if allocs > 0 {
		out = append(out, Violation{"nonblock-read-allocs",
			fmt.Sprintf("steady-state read path allocs/op %.1f, want 0 (core buffer reuse regressed)", allocs)})
	}

	nb, okNB := r.Metric("NonBlockHandshake", "ns/op")
	bl, okBL := r.Metric("GoroutinePerConnHandshake", "ns/op")
	switch {
	case !okNB || nb <= 0:
		out = append(out, Violation{"nonblock-handshake", "NonBlockHandshake has no ns/op metric"})
	case !okBL || bl <= 0:
		out = append(out, Violation{"nonblock-handshake", "GoroutinePerConnHandshake has no ns/op metric"})
	case nb > 1.5*bl:
		out = append(out, Violation{"nonblock-handshake",
			fmt.Sprintf("stepped FSM handshake ns/op %.0f is %.2fx the blocking path's %.0f, want <= 1.5x", nb, nb/bl, bl)})
	}
	return out
}

// historySamplerMaxNs caps one full history tick at 1% of the default
// 1s sampling interval: the observatory must stay invisible next to
// the work it observes.
const historySamplerMaxNs = 10e6

// checkHistoryShape pins the time-series sampler's cost: one tick over
// every standard source (telemetry counters, runtime metrics, SLO
// window fold, conn-table walk, pathlen totals, anatomy shares) must
// allocate nothing in steady state and finish in well under 1% of a
// CPU at the 1s default resolution. Allocations mean a source's
// accessor regressed onto a Snapshot()-style rendering path.
func checkHistoryShape(r *Report) []Violation {
	var out []Violation
	var seen int
	for _, name := range r.SortedResults() {
		if !strings.HasPrefix(name, "HistorySample") {
			continue
		}
		allocs, ok := r.Metric(name, "allocs/op")
		if !ok {
			continue
		}
		seen++
		if allocs > 0 {
			out = append(out, Violation{"history-allocs",
				fmt.Sprintf("%s allocs/op %.1f, want 0 (a source accessor is allocating on the tick path)", name, allocs)})
		}
		if ns, ok := r.Metric(name, "ns/op"); ok && ns > historySamplerMaxNs {
			out = append(out, Violation{"history-tick-cost",
				fmt.Sprintf("%s ns/op %.0f, want <= %.0f (1%% of the 1s sampling interval)", name, ns, float64(historySamplerMaxNs))})
		}
	}
	if seen == 0 {
		out = append(out, Violation{"history-results", "no HistorySample results with allocs/op found"})
	}
	return out
}

// checkLifecycleShape pins the conn-table hot path at zero
// allocations per operation: register/transition/close recycle pooled
// entries and reuse shard-map slots, so the lifecycle observatory can
// ride every production connection without generating garbage. Any
// ConnTable result allocating means the pool or the fixed-size
// timeline regressed.
func checkLifecycleShape(r *Report) []Violation {
	var out []Violation
	var seen int
	for _, name := range r.SortedResults() {
		if !strings.HasPrefix(name, "ConnTable/") {
			continue
		}
		allocs, ok := r.Metric(name, "allocs/op")
		if !ok {
			continue
		}
		seen++
		if allocs > 0 {
			out = append(out, Violation{"lifecycle-allocs",
				fmt.Sprintf("%s allocs/op %.1f, want 0 (entry pool or fixed timeline regressed)", name, allocs)})
		}
	}
	if seen == 0 {
		out = append(out, Violation{"lifecycle-results", "no ConnTable/* results with allocs/op found"})
	}
	return out
}

// checkBulkShape pins the bulk-path orderings of the paper's Tables
// 11/12 on the live cycles/byte fold, per PaperExpectation().Bulk:
// RC4 must stay cheaper per byte than AES, MD5 cheaper than SHA-1
// per MAC byte, and 3DES must cost a multiple of single DES. Values
// come from the pathlen collector's cipher-cyc/B and mac-cyc/B
// metrics in BENCH_bulk.json. It also pins the flight path's syscall
// story: no bulk result may exceed MaxWritesPerRecord transport
// writes per sealed record, and each "-vec" (flight-coalesced) result
// must hold MinVectoredSpeedup times its "-seq1m" (same write size,
// flight disabled) counterpart's MB/s.
func checkBulkShape(r *Report) []Violation {
	var out []Violation
	exp := PaperExpectation().Bulk
	cipher := func(result string) (float64, bool) {
		return r.Metric("BulkPath/"+result, "cipher-cyc/B")
	}
	mac := func(result string) (float64, bool) {
		return r.Metric("BulkPath/"+result, "mac-cyc/B")
	}

	rc4, okRC4 := cipher("RC4-MD5")
	aes, okAES := cipher("AES128-SHA")
	des, okDES := cipher("DES-CBC-SHA")
	tdes, okTDES := cipher("DES-CBC3-SHA")
	md5, okMD5 := mac("RC4-MD5")
	sha, okSHA := mac("RC4-SHA")

	for _, m := range []struct {
		ok   bool
		name string
	}{
		{okRC4, "BulkPath/RC4-MD5 cipher-cyc/B"},
		{okAES, "BulkPath/AES128-SHA cipher-cyc/B"},
		{okDES, "BulkPath/DES-CBC-SHA cipher-cyc/B"},
		{okTDES, "BulkPath/DES-CBC3-SHA cipher-cyc/B"},
		{okMD5, "BulkPath/RC4-MD5 mac-cyc/B"},
		{okSHA, "BulkPath/RC4-SHA mac-cyc/B"},
	} {
		if !m.ok {
			out = append(out, Violation{"bulk-metrics", m.name + " missing"})
		}
	}
	if len(out) > 0 {
		return out
	}

	positive := func(name string, v float64) {
		if v <= 0 {
			out = append(out, Violation{"bulk-positive",
				fmt.Sprintf("%s cycles/byte %.3f, want > 0 (collector saw no bytes?)", name, v)})
		}
	}
	positive("RC4", rc4)
	positive("AES", aes)
	positive("DES", des)
	positive("3DES", tdes)
	positive("MD5", md5)
	positive("SHA-1", sha)
	if len(out) > 0 {
		return out
	}

	if rc4 >= aes {
		out = append(out, Violation{"bulk-cipher-order",
			fmt.Sprintf("%s %.2f cyc/B not cheaper than %s %.2f (Table 11 ordering inverted)",
				exp.CheapCipher, rc4, exp.CostlyCipher, aes)})
	}
	if md5 >= sha {
		out = append(out, Violation{"bulk-mac-order",
			fmt.Sprintf("%s %.2f mac-cyc/B not cheaper than %s %.2f (Table 12 ordering inverted)",
				exp.CheapMAC, md5, exp.CostlyMAC, sha)})
	}
	// 3DES is three DES passes; allow generous slack around 3x but a
	// ratio near 1 means the triple path degenerated to single DES.
	if ratio := tdes / des; ratio < exp.MinTripleDESRatio {
		out = append(out, Violation{"bulk-3des-ratio",
			fmt.Sprintf("3DES/DES cycles-per-byte ratio %.2f, want >= %.1f (triple pass collapsed?)",
				ratio, exp.MinTripleDESRatio)})
	}

	// Syscall story: every result reporting writes/record stays at or
	// under the contiguous-seal cost (2 would mean the legacy
	// header+body pair is back).
	if exp.MaxWritesPerRecord > 0 {
		for _, name := range r.SortedResults() {
			if !strings.HasPrefix(name, "BulkPath/") {
				continue
			}
			if wpr, ok := r.Metric(name, "writes/record"); ok && wpr > exp.MaxWritesPerRecord {
				out = append(out, Violation{"bulk-writes-per-record",
					fmt.Sprintf("%s writes/record %.3f, want <= %.1f (legacy two-syscall seal back?)",
						name, wpr, exp.MaxWritesPerRecord)})
			}
		}
	}

	// Vectored flight path: for each suite benched both ways at the
	// same 1 MiB write size, the flight-coalesced path must hold its
	// throughput floor against the record-at-a-time baseline, and its
	// windowed flush must show up as fewer than one write per record.
	// A missing half of a pair is a violation — dropping the "-vec"
	// results would silently retire this gate.
	if exp.MinVectoredSpeedup > 0 {
		for _, s := range []string{"RC4-MD5", "AES128-SHA"} {
			seq, okSeq := r.Metric("BulkPath/"+s+"-seq1m", "MB/s")
			vec, okVec := r.Metric("BulkPath/"+s+"-vec", "MB/s")
			if !okSeq || seq <= 0 {
				out = append(out, Violation{"bulk-vectored",
					fmt.Sprintf("BulkPath/%s-seq1m MB/s missing (vectored gate has no baseline)", s)})
				continue
			}
			if !okVec || vec <= 0 {
				out = append(out, Violation{"bulk-vectored",
					fmt.Sprintf("BulkPath/%s-vec MB/s missing (flight path not benched?)", s)})
				continue
			}
			if vec < exp.MinVectoredSpeedup*seq {
				out = append(out, Violation{"bulk-vectored",
					fmt.Sprintf("%s vectored %.1f MB/s under %.2fx of sequential %.1f MB/s (flight pipeline costing more than it saves)",
						s, vec, exp.MinVectoredSpeedup, seq)})
			}
			if wpr, ok := r.Metric("BulkPath/"+s+"-vec", "writes/record"); ok && wpr >= 1 {
				out = append(out, Violation{"bulk-vectored",
					fmt.Sprintf("BulkPath/%s-vec writes/record %.3f, want < 1 (flight flush not coalescing)", s, wpr)})
			}
		}
	}
	return out
}

// checkBatchShape encodes the paper's batch-RSA claim (and Pateriya
// et al.'s server evaluation): amortizing the ClientKeyExchange
// decryption over a batch must beat the singleton path, and wider
// batches must not fall back below narrower ones' floor.
func checkBatchShape(r *Report) []Violation {
	var out []Violation
	base, ok := r.Metric("BatchDecrypt/batch=1", "decrypts/s")
	if !ok || base <= 0 {
		return []Violation{{"batch-baseline", "BatchDecrypt/batch=1 has no decrypts/s metric"}}
	}
	speedup := func(n int) (float64, bool) {
		v, ok := r.Metric(fmt.Sprintf("BatchDecrypt/batch=%d", n), "decrypts/s")
		if !ok {
			return 0, false
		}
		return v / base, true
	}
	prev := 1.0
	for _, n := range []int{2, 4, 8} {
		s, ok := speedup(n)
		if !ok {
			out = append(out, Violation{"batch-curve",
				fmt.Sprintf("BatchDecrypt/batch=%d missing decrypts/s", n)})
			continue
		}
		if s < 1.15 {
			out = append(out, Violation{"batch-amortization",
				fmt.Sprintf("batch=%d decrypts/s speedup %.2fx over batch=1, want >= 1.15x", n, s)})
		}
		// Wider batches may plateau but must not collapse below ~80%
		// of the narrower width's gain.
		if s < 0.8*prev {
			out = append(out, Violation{"batch-monotonic",
				fmt.Sprintf("batch=%d speedup %.2fx fell below 80%% of batch=%d's %.2fx", n, s, n/2, prev)})
		}
		prev = s
	}
	return out
}

// rsaDecryptMaxAllocs caps one blinded CRT decryption's allocations:
// the Montgomery layer works in one slab per exponentiation, so what
// remains is a constant of bignum bookkeeping around it (~43 today),
// not the ~4k per-multiplication products it used to make.
const rsaDecryptMaxAllocs = 100

// checkRSADecryptShape pins the allocation-free Montgomery layer at
// both Table 7 key sizes.
func checkRSADecryptShape(r *Report) []Violation {
	var out []Violation
	for _, name := range []string{"Table7RSADecrypt/512", "Table7RSADecrypt/1KB"} {
		allocs, ok := r.Metric(name, "allocs/op")
		switch {
		case !ok:
			out = append(out, Violation{"rsa-decrypt-allocs", name + " allocs/op missing"})
		case allocs > rsaDecryptMaxAllocs:
			out = append(out, Violation{"rsa-decrypt-allocs",
				fmt.Sprintf("%s allocs/op %.0f, want <= %d (Montgomery products allocating again?)", name, allocs, rsaDecryptMaxAllocs)})
		}
	}
	return out
}

// checkRecordShape pins the record layer's pooled-buffer win: sealing
// stays at one amortized allocation per record, opening at most two.
func checkRecordShape(r *Report) []Violation {
	var out []Violation
	for _, name := range r.SortedResults() {
		allocs, ok := r.Metric(name, "allocs/op")
		if !ok {
			continue
		}
		var ceil float64
		switch {
		case strings.HasPrefix(name, "RecordSeal/"):
			ceil = 1
		case strings.HasPrefix(name, "RecordOpen/"):
			ceil = 2
		default:
			continue
		}
		if allocs > ceil {
			out = append(out, Violation{"record-allocs",
				fmt.Sprintf("%s allocs/op %.0f, want <= %.0f (pooled seal buffer regressed)", name, allocs, ceil)})
		}
	}
	return out
}

// checkTraceShape bounds span-tracing overhead against the untraced
// baseline: the production 1-in-16 sampling must stay marginal and
// even always-on tracing must stay under 2x.
func checkTraceShape(r *Report) []Violation {
	var out []Violation
	off, ok := r.Metric("HandshakeTraceOff", "ns/op")
	if !ok || off <= 0 {
		return []Violation{{"trace-baseline", "HandshakeTraceOff has no ns/op metric"}}
	}
	if v, ok := r.Metric("HandshakeTraceSampled16", "ns/op"); ok && v > 1.2*off {
		out = append(out, Violation{"trace-sampled-overhead",
			fmt.Sprintf("1-in-16 sampling ns/op %.0f is %.1f%% over the untraced %.0f, want <= 20%%",
				v, 100*(v-off)/off, off)})
	}
	if v, ok := r.Metric("HandshakeTraceAlways", "ns/op"); ok && v > 2*off {
		out = append(out, Violation{"trace-always-overhead",
			fmt.Sprintf("always-on tracing ns/op %.0f is %.2fx the untraced %.0f, want <= 2x", v, v/off, off)})
	}
	return out
}

// checkProbeShape bounds the probe spine's fan-out cost against the
// sink-free fast path: production 1-in-16 sampling must stay
// marginal, and even all three sinks (anatomy + telemetry + trace)
// must cost no more than the pre-spine always-on tracing ceiling.
func checkProbeShape(r *Report) []Violation {
	var out []Violation
	off, ok := r.Metric("HandshakeProbeOff", "ns/op")
	if !ok || off <= 0 {
		return []Violation{{"probe-baseline", "HandshakeProbeOff has no ns/op metric"}}
	}
	if v, ok := r.Metric("HandshakeProbeSampled16", "ns/op"); ok && v > 1.25*off {
		out = append(out, Violation{"probe-sampled-overhead",
			fmt.Sprintf("1-in-16 sampled sinks ns/op %.0f is %.1f%% over the sink-free %.0f, want <= 25%%",
				v, 100*(v-off)/off, off)})
	}
	if v, ok := r.Metric("HandshakeProbeAll", "ns/op"); ok && v > 1.5*off {
		out = append(out, Violation{"probe-all-overhead",
			fmt.Sprintf("all-sinks ns/op %.0f is %.2fx the sink-free %.0f, want <= 1.5x", v, v/off, off)})
	}
	return out
}

// checkLoadShape sanity-checks an sslload report: quantiles must be
// ordered (p50 <= p95 <= p99 <= max) per phase and the phase anatomy
// must nest (handshake can't exceed the total).
func checkLoadShape(r *Report) []Violation {
	var out []Violation
	for _, name := range r.SortedResults() {
		br := r.Results[name]
		p50, ok50 := br.Metrics["p50_us"]
		p95, ok95 := br.Metrics["p95_us"]
		p99, ok99 := br.Metrics["p99_us"]
		max, okMax := br.Metrics["max_us"]
		if !(ok50 && ok95 && ok99 && okMax) {
			continue
		}
		if p50 > p95 || p95 > p99 || p99 > max {
			out = append(out, Violation{"load-quantile-order",
				fmt.Sprintf("%s: p50 %.0f / p95 %.0f / p99 %.0f / max %.0f not monotone", name, p50, p95, p99, max)})
		}
	}
	hs, okHS := r.Metric("handshake", "mean_us")
	total, okT := r.Metric("total", "mean_us")
	if okHS && okT && hs > total {
		out = append(out, Violation{"load-phase-nesting",
			fmt.Sprintf("mean handshake %.0fus exceeds mean total %.0fus", hs, total)})
	}
	return out
}
