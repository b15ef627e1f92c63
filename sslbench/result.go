package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
)

// result is one run, ready to print.
type result struct {
	o        options
	wl       workloadSpec
	stamp    string
	setupS   []float64
	main     *phase // the untraced phase, or the traced one with -trace 1
	untraced *phase // -trace 1 only: the shipping binary, for the ratio

	writevBare, writevWrapped flushCounts
	correct                   bool
}

// metric is one printed number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// Rates are medians over the window's maxSlices equal time slices, as
// percentiles are: a stall or a slow spell of the host that hits one
// slice moves that slice alone.

func (t *tally) txnRate() float64 {
	var v []float64
	for _, n := range t.sliceTxns {
		v = append(v, float64(n))
	}
	return quantile(v, 0.5) / (t.window.Seconds() / maxSlices)
}

func (t *tally) goodput() float64 {
	var v []float64
	for _, n := range t.sliceBytes {
		v = append(v, float64(n))
	}
	return quantile(v, 0.5) / 1e6 / (t.window.Seconds() / maxSlices)
}

// cpuPerTxn is the median over slices of server CPU ms per verified
// transaction; slices that completed none are left out.
func (p *phase) cpuPerTxn() float64 {
	var v []float64
	for i, d := range p.cpu {
		if n := p.t.sliceTxns[i]; n > 0 {
			v = append(v, float64(d.Microseconds())/1e3/float64(n))
		}
	}
	return quantile(v, 0.5)
}

// endToEnd is the phase's end-to-end metrics.
func (r *result) endToEnd(p *phase) []metric {
	t := &p.t
	sec := t.window.Seconds()
	txnP50, n50 := t.txnMs.quantile(0.5)
	txnP99, n99 := t.txnMs.quantile(0.99)
	hsFull, nFull := t.hsFullMs.quantile(0.5)
	hsRes, nRes := t.hsResMs.quantile(0.5)
	if t.probeResumed {
		nRes += fmt.Sprintf(" (probe: %v of resumed handshakes on %d connections after the window; this mix offers no session)", probeTime, r.wl.conns)
	}
	txnNote := "one connection"
	if r.wl.perResponse {
		txnNote = "one 1 MiB response"
	}
	return []metric{
		{"txn_per_s", t.txnRate(), "1/s", fmt.Sprintf("%d verified in %.0f s; a transaction is %s", t.txns, sec, txnNote)},
		{"goodput_MB_per_s", t.goodput(), "MB/s", "verified payload bytes, MB = 10^6 B"},
		{"txn_p50_ms", txnP50, "ms", n50},
		{"txn_p99_ms", txnP99, "ms", n99},
		{"hs_full_p50_ms", hsFull, "ms", nFull},
		{"hs_resumed_p50_ms", hsRes, "ms", nRes},
		{"server_cpu_ms_per_txn", p.cpuPerTxn(), "ms", fmt.Sprintf("server utime+stime per slice: %v", p.cpu)},
		{"server_rss_MB", float64(p.rss) / 1e6, "MB", "peak RSS (VmHWM)"},
	}
}

// perLayer is the traced phase's per-layer metrics.
func (r *result) perLayer() []metric {
	t, rep := &r.main.t, r.main.report
	txns := float64(t.txns)
	per := func(v float64) float64 { return v / txns }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	lag, lagNote := t.genLagMs.quantile(0.99)
	untracedTPS, tracedTPS := r.untraced.t.txnRate(), t.txnRate()
	m := []metric{
		{"rsa.decrypts_per_txn", per(float64(rep.Decrypts)), "count", ""},
		{"rsa.decrypt_us_p50", rep.DecryptP50US, "us", fmt.Sprintf("n=%d", rep.Decrypts)},
		{"rsa.share_of_srv_handshake", ratio(rep.FullDecryptUS, rep.FullBusyUS), "ratio",
			"RSA decrypt / server full-handshake processing (span less transport waits); the paper: step 7, the RSA decrypt, dominates the full handshake"},
		{"handshake.srv_full_self_us_p50", rep.FullSelfP50US, "us", fmt.Sprintf("n=%d", rep.FullSelfN)},
		{"handshake.srv_resumed_self_us_p50", rep.ResumedSelfP50US, "us", fmt.Sprintf("n=%d", rep.ResumedSelfN)},
		{"handshake.resume_hit_ratio", ratio(float64(t.hits), float64(t.offered)), "ratio", fmt.Sprintf("%d of %d offered sessions resumed", t.hits, t.offered)},
	}
	for _, s := range rotation {
		m = append(m, metric{"record.seal_ns_per_byte." + s.name, rep.SealNsPerByte[s.name], "ns/B", "server Write/WriteData span less transport writes, per response byte"})
	}
	m = append(m, []metric{
		{"record.records_per_write", rep.RecordsPerWrite, "count", "records written per transport write"},
		{"net.srv_write_calls_per_txn", per(float64(rep.WriteCalls)), "count", ""},
		{"net.srv_read_calls_per_txn", per(float64(rep.ReadCalls)), "count", ""},
		{"net.srv_write_us_per_txn", per(rep.WriteUS), "us", ""},
		{"net.srv_read_wait_us_per_txn", per(rep.ReadUS), "us", ""},
		{"ssl.srv_request_us_p50", rep.RequestP50US, "us", fmt.Sprintf("request read to response written, n=%d", rep.RequestN)},
		{"ssl.accept_to_first_step_us_p50", rep.AcceptP50US, "us", ""},
		{"ssl.unattributed_us_per_txn", per(rep.UnattributedUS), "us", fmt.Sprintf("connection lifetime no span covers, over %d closed connections", rep.Conns)},
		{"sslserver.loop_wait_us_p50", rep.LoopWaitP50US, "us", fmt.Sprintf("%s, n=%d", rep.LoopWaitSource, rep.LoopWaitN)},
		{"sslserver.loop_wait_us_p99", rep.LoopWaitP99US, "us", fmt.Sprintf("%s, n=%d", rep.LoopWaitSource, rep.LoopWaitN)},
		{"sslserver.longest_step_us_p99", rep.StepP99US, "us", fmt.Sprintf("one loop event, or one ssl call less its waits; n=%d", rep.StepN)},
		{"runtime.srv_allocs_per_txn", per(rep.Allocs), "count", ""},
		{"runtime.srv_alloc_bytes_per_txn", per(rep.AllocBytes), "B", ""},
		{"runtime.srv_gc_per_ktxn", per(rep.GCs) * 1000, "count", ""},
		{"bench.gen_lag_p99_ms", lag, "ms", lagNote},
		{"bench.trace_txn_per_s_ratio", tracedTPS / untracedTPS, "ratio",
			"traced replica / shipping binary throughput: wrapper overhead plus any difference between the replica and cmd/sslserver"},
	}...)
	return m
}

// print writes the human-readable lines, then the one-line JSON result.
func (r *result) print() error {
	o := r.o
	loop := fmt.Sprintf("closed loop, %d connections", r.wl.conns)
	if r.wl.rate > 0 {
		loop = fmt.Sprintf("open loop at %.0f txn/s, at most %d in flight", r.wl.rate, r.wl.conns)
	}
	fmt.Printf("# sslbench workload=%s seed=%d seconds=%d trace=%d (%s)\n", o.workload, o.seed, o.seconds, o.trace, loop)
	fmt.Printf("# stamp %s\n", r.stamp)

	var out []metric
	attempted, failed := r.main.t.attempted, r.main.t.failed
	firstErr := r.main.t.firstErr
	if o.trace == 0 {
		setup := quantile(slices.Clone(r.setupS), 0.5)
		out = append(r.endToEnd(r.main), metric{"setup_s", setup, "s",
			fmt.Sprintf("median of %d server starts, exec to first verified transaction: %s", len(r.setupS), fmtList(r.setupS))})
		printMetrics("", out)
	} else {
		printMetrics("untraced ", r.endToEnd(r.untraced))
		printMetrics("traced ", r.endToEnd(r.main))
		out = r.perLayer()
		printMetrics("", out)
		attempted += r.untraced.t.attempted
		failed += r.untraced.t.failed
		if firstErr == nil {
			firstErr = r.untraced.t.firstErr
		}
		fmt.Printf("writev check: 1 MiB response, bare WriteCalls=%d Flights=%d, wrapped WriteCalls=%d Flights=%d, wrapper saw %d writes\n",
			r.writevBare.WriteCalls, r.writevBare.Flights, r.writevWrapped.WriteCalls, r.writevWrapped.Flights, r.writevWrapped.Transport)
	}
	lag, lagNote := r.main.t.genLagMs.quantile(0.99)
	fmt.Printf("health: error_rate %.6g (%d failed of %d attempted); generator lag p99 %.4g ms (%s); arrivals that waited on the in-flight cap: %d\n",
		float64(failed)/float64(attempted), failed, attempted, lag, lagNote, r.main.t.capWaits)
	fmt.Printf("health: the hypervisor stole %.1f%% of this machine's CPU time during the window\n",
		100*float64(r.main.stealTicks)/float64(max(r.main.hostTicks, 1)))

	r.correct = failed == 0 && attempted > 0
	if o.trace == 1 && (r.writevBare.WriteCalls != r.writevWrapped.WriteCalls ||
		r.writevBare.Flights != r.writevWrapped.Flights ||
		r.writevWrapped.Transport != r.writevWrapped.WriteCalls) {
		fmt.Fprintln(os.Stderr, "sslbench: writev check failed: the transport wrapper changed the flush pattern")
		r.correct = false
	}
	if firstErr != nil {
		fmt.Fprintln(os.Stderr, "sslbench: first failure:", firstErr)
	}
	metrics := map[string]any{}
	for _, m := range out {
		metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct":   r.correct,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	fmt.Println(string(b))
	return nil
}

func printMetrics(prefix string, ms []metric) {
	for _, m := range ms {
		line := fmt.Sprintf("%s%-36s %14.6g %-6s", prefix, m.name, m.value, m.unit)
		if m.note != "" {
			line += "  " + m.note
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
}

func fmtList(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(s, " ")
}
