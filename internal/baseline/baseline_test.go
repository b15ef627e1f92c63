package baseline

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func report(bench string, results map[string]map[string]float64) *Report {
	r := &Report{Bench: bench, Results: map[string]*BenchResult{}}
	for name, metrics := range results {
		r.Results[name] = &BenchResult{Iterations: 100, Metrics: metrics}
	}
	return r
}

func TestCompareWithinTolerancePasses(t *testing.T) {
	base := report("b", map[string]map[string]float64{
		"X": {"ns/op": 1000, "decrypts/s": 500},
	})
	fresh := report("b", map[string]map[string]float64{
		"X": {"ns/op": 1100, "decrypts/s": 450}, // 10% worse both ways
	})
	d := Compare(base, fresh, DefaultTolerance())
	if d.Failed() {
		t.Fatalf("10%% drift failed the 25%% gate:\n%s", d.Summary())
	}
	if len(d.Deltas) != 2 {
		t.Fatalf("compared %d metrics, want 2", len(d.Deltas))
	}
}

func TestCompareDirectionality(t *testing.T) {
	base := report("b", map[string]map[string]float64{
		"X": {"ns/op": 1000, "decrypts/s": 500},
	})
	// Massive *improvements* must never fail: faster ns/op, higher rate.
	fresh := report("b", map[string]map[string]float64{
		"X": {"ns/op": 100, "decrypts/s": 5000},
	})
	if d := Compare(base, fresh, DefaultTolerance()); d.Failed() {
		t.Fatalf("improvement failed the gate:\n%s", d.Summary())
	}
	// A rate dropping 40% must fail and name the metric with a delta.
	fresh = report("b", map[string]map[string]float64{
		"X": {"ns/op": 1000, "decrypts/s": 300},
	})
	d := Compare(base, fresh, DefaultTolerance())
	if !d.Failed() || len(d.Failures) != 1 {
		t.Fatalf("40%% rate regression passed:\n%s", d.Summary())
	}
	f := d.Failures[0]
	if f.Metric != "decrypts/s" || math.Abs(f.Pct-40) > 0.01 {
		t.Fatalf("failure = %+v, want decrypts/s at +40%%", f)
	}
	if !strings.Contains(d.Summary(), "decrypts/s") {
		t.Fatalf("summary does not name the metric:\n%s", d.Summary())
	}
}

func TestCompareMissingResultFails(t *testing.T) {
	base := report("b", map[string]map[string]float64{"X": {"ns/op": 1}, "Y": {"ns/op": 1}})
	fresh := report("b", map[string]map[string]float64{"X": {"ns/op": 1}})
	d := Compare(base, fresh, DefaultTolerance())
	if !d.Failed() || len(d.Missing) != 1 || d.Missing[0] != "Y" {
		t.Fatalf("vanished result not flagged: %+v", d)
	}
}

func TestCompareAllocsFromZeroFails(t *testing.T) {
	base := report("b", map[string]map[string]float64{"X": {"allocs/op": 0}})
	fresh := report("b", map[string]map[string]float64{"X": {"allocs/op": 2}})
	d := Compare(base, fresh, DefaultTolerance())
	if !d.Failed() {
		t.Fatal("allocs 0 -> 2 passed the gate")
	}
}

func TestBatchShape(t *testing.T) {
	good := report("rsa-batch-amortization", map[string]map[string]float64{
		"BatchDecrypt/batch=1": {"decrypts/s": 885},
		"BatchDecrypt/batch=2": {"decrypts/s": 1318},
		"BatchDecrypt/batch=4": {"decrypts/s": 2104},
		"BatchDecrypt/batch=8": {"decrypts/s": 2481},
	})
	if v, known := CheckShape(good); !known || len(v) != 0 {
		t.Fatalf("committed curve rejected: %v", v)
	}
	// Perturb: batch=8 collapses below the singleton rate. The stored
	// speedup field is absent/stale on purpose — the check must
	// recompute from decrypts/s.
	bad := report("rsa-batch-amortization", map[string]map[string]float64{
		"BatchDecrypt/batch=1": {"decrypts/s": 885},
		"BatchDecrypt/batch=2": {"decrypts/s": 1318},
		"BatchDecrypt/batch=4": {"decrypts/s": 2104},
		"BatchDecrypt/batch=8": {"decrypts/s": 600},
	})
	v, _ := CheckShape(bad)
	if len(v) == 0 {
		t.Fatal("collapsed batch=8 passed the shape check")
	}
	if !strings.Contains(v[0].Detail, "batch=8") {
		t.Fatalf("violation does not name the point: %v", v)
	}
}

func TestRSADecryptShape(t *testing.T) {
	good := report("rsa-decrypt", map[string]map[string]float64{
		"Table7RSADecrypt/512": {"allocs/op": 43, "ns/op": 190000},
		"Table7RSADecrypt/1KB": {"allocs/op": 43, "ns/op": 800000},
	})
	if v, known := CheckShape(good); !known || len(v) != 0 {
		t.Fatalf("good rsa-decrypt shape rejected: %v", v)
	}
	good.Results["Table7RSADecrypt/1KB"].Metrics["allocs/op"] = 3983
	v, _ := CheckShape(good)
	if len(v) != 1 || !strings.Contains(v[0].Detail, "1KB") {
		t.Fatalf("allocating 1KB decrypt not flagged by name: %v", v)
	}
	delete(good.Results, "Table7RSADecrypt/512")
	if v, _ := CheckShape(good); len(v) != 2 {
		t.Fatalf("missing 512 point not flagged: %v", v)
	}
}

func TestRecordAndTraceShapes(t *testing.T) {
	rec := report("record-seal-allocs", map[string]map[string]float64{
		"RecordSeal/RC4-MD5": {"allocs/op": 1},
		"RecordOpen/RC4-MD5": {"allocs/op": 0},
	})
	if v, known := CheckShape(rec); !known || len(v) != 0 {
		t.Fatalf("good record shape rejected: %v", v)
	}
	rec.Results["RecordSeal/RC4-MD5"].Metrics["allocs/op"] = 5
	if v, _ := CheckShape(rec); len(v) == 0 {
		t.Fatal("5 allocs/op seal passed")
	}

	tr := report("trace-overhead", map[string]map[string]float64{
		"HandshakeTraceOff":       {"ns/op": 312094},
		"HandshakeTraceSampled16": {"ns/op": 319011},
		"HandshakeTraceAlways":    {"ns/op": 359035},
	})
	if v, known := CheckShape(tr); !known || len(v) != 0 {
		t.Fatalf("good trace shape rejected: %v", v)
	}
	tr.Results["HandshakeTraceSampled16"].Metrics["ns/op"] = 500000
	if v, _ := CheckShape(tr); len(v) == 0 {
		t.Fatal("60% sampling overhead passed")
	}
}

func TestUnknownBenchSkipped(t *testing.T) {
	r := report("telemetry-overhead", nil)
	if v, known := CheckShape(r); known || len(v) != 0 {
		t.Fatalf("unknown bench not skipped: known=%v %v", known, v)
	}
}

func TestCommittedReportsPassShapeChecks(t *testing.T) {
	// The real committed baselines must satisfy their own shapes —
	// this is `make checkdrift`'s core claim, run as a unit test.
	paths, reports, err := Committed(filepath.Join("..", "..", "docs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) < 4 {
		t.Fatalf("found only %d committed BENCH reports", len(reports))
	}
	known := 0
	for i, r := range reports {
		v, k := CheckShape(r)
		if k {
			known++
		}
		if len(v) != 0 {
			t.Errorf("%s: %v", paths[i], v)
		}
	}
	if known < 3 {
		t.Fatalf("only %d committed reports have registered shapes", known)
	}
}

func TestHistoryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r1 := report("b", map[string]map[string]float64{"X": {"ns/op": 100}})
	r2 := report("b", map[string]map[string]float64{"X": {"ns/op": 110}})
	other := report("other", map[string]map[string]float64{"X": {"ns/op": 1}})
	if err := r1.Write(filepath.Join(dir, "BENCH_b-20260101000000.json")); err != nil {
		t.Fatal(err)
	}
	if err := r2.Write(filepath.Join(dir, "BENCH_b-20260201000000.json")); err != nil {
		t.Fatal(err)
	}
	if err := other.Write(filepath.Join(dir, "BENCH_other-20260301000000.json")); err != nil {
		t.Fatal(err)
	}
	_, hist, err := History(dir, "b")
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 {
		t.Fatalf("history has %d entries, want 2", len(hist))
	}
	steps := Trend(hist, report("b", map[string]map[string]float64{"X": {"ns/op": 400}}), DefaultTolerance())
	if len(steps) != 2 {
		t.Fatalf("trend has %d steps, want 2", len(steps))
	}
	if steps[0].Failed() {
		t.Fatalf("100->110 step failed: %s", steps[0].Summary())
	}
	if !steps[1].Failed() {
		t.Fatal("110->400 step passed")
	}
}

func TestBulkShape(t *testing.T) {
	rows := func(rc4, aes, des, tdes, md5, sha float64) map[string]map[string]float64 {
		return map[string]map[string]float64{
			"BulkPath/RC4-MD5":          {"cipher-cyc/B": rc4, "mac-cyc/B": md5, "writes/record": 1, "MB/s": 70},
			"BulkPath/RC4-SHA":          {"cipher-cyc/B": rc4, "mac-cyc/B": sha, "writes/record": 1, "MB/s": 60},
			"BulkPath/AES128-SHA":       {"cipher-cyc/B": aes, "mac-cyc/B": sha, "writes/record": 1, "MB/s": 45},
			"BulkPath/DES-CBC-SHA":      {"cipher-cyc/B": des, "mac-cyc/B": sha, "writes/record": 1, "MB/s": 30},
			"BulkPath/DES-CBC3-SHA":     {"cipher-cyc/B": tdes, "mac-cyc/B": sha, "writes/record": 1, "MB/s": 12},
			"BulkPath/RC4-MD5-seq1m":    {"writes/record": 1, "MB/s": 69},
			"BulkPath/RC4-MD5-vec":      {"writes/record": 1.0 / 64, "MB/s": 72},
			"BulkPath/AES128-SHA-seq1m": {"writes/record": 1, "MB/s": 44},
			"BulkPath/AES128-SHA-vec":   {"writes/record": 1.0 / 64, "MB/s": 48},
		}
	}
	good := report("bulk-path", rows(9, 27, 47, 132, 6, 14))
	if v, known := CheckShape(good); !known || len(v) != 0 {
		t.Fatalf("paper-shaped bulk report rejected: %v", v)
	}
	// RC4 costlier than AES: the Table 11 ordering inverted.
	v, _ := CheckShape(report("bulk-path", rows(30, 27, 47, 132, 6, 14)))
	if len(v) == 0 {
		t.Fatal("inverted cipher ordering passed the bulk shape check")
	}
	if !strings.Contains(v[0].Check, "bulk-cipher-order") {
		t.Fatalf("violation = %v, want bulk-cipher-order", v)
	}
	// MD5 costlier than SHA-1.
	if v, _ := CheckShape(report("bulk-path", rows(9, 27, 47, 132, 15, 14))); len(v) == 0 {
		t.Fatal("inverted MAC ordering passed the bulk shape check")
	}
	// 3DES degenerating to single-DES cost.
	if v, _ := CheckShape(report("bulk-path", rows(9, 27, 47, 50, 6, 14))); len(v) == 0 {
		t.Fatal("collapsed 3DES ratio passed the bulk shape check")
	}
	// A missing row is reported, not skipped.
	partial := report("bulk-path", map[string]map[string]float64{
		"BulkPath/RC4-MD5": {"cipher-cyc/B": 9, "mac-cyc/B": 6},
	})
	if v, _ := CheckShape(partial); len(v) == 0 {
		t.Fatal("report with missing suites passed the bulk shape check")
	}

	// The legacy two-syscalls-per-record seal coming back.
	legacy := rows(9, 27, 47, 132, 6, 14)
	legacy["BulkPath/AES128-SHA"]["writes/record"] = 2
	v, _ = CheckShape(report("bulk-path", legacy))
	if len(v) != 1 || !strings.Contains(v[0].Check, "bulk-writes-per-record") {
		t.Fatalf("violations = %v, want bulk-writes-per-record", v)
	}

	// Vectored path slower than the same-size sequential baseline.
	slow := rows(9, 27, 47, 132, 6, 14)
	slow["BulkPath/RC4-MD5-vec"]["MB/s"] = 50
	v, _ = CheckShape(report("bulk-path", slow))
	if len(v) != 1 || !strings.Contains(v[0].Check, "bulk-vectored") {
		t.Fatalf("violations = %v, want bulk-vectored", v)
	}

	// Dropping the -vec results must not silently retire the gate.
	dropped := rows(9, 27, 47, 132, 6, 14)
	delete(dropped, "BulkPath/AES128-SHA-vec")
	v, _ = CheckShape(report("bulk-path", dropped))
	if len(v) != 1 || !strings.Contains(v[0].Check, "bulk-vectored") {
		t.Fatalf("violations = %v, want bulk-vectored for missing -vec result", v)
	}

	// A flight flush that stopped coalescing (one write per record on
	// the vectored path) is caught even when throughput holds.
	uncoalesced := rows(9, 27, 47, 132, 6, 14)
	uncoalesced["BulkPath/RC4-MD5-vec"]["writes/record"] = 1
	v, _ = CheckShape(report("bulk-path", uncoalesced))
	if len(v) != 1 || !strings.Contains(v[0].Check, "bulk-vectored") {
		t.Fatalf("violations = %v, want bulk-vectored for uncoalesced flush", v)
	}
}

func TestHistorySamplerShape(t *testing.T) {
	good := report("history-sampler", map[string]map[string]float64{
		"HistorySample": {"ns/op": 4500, "allocs/op": 0},
	})
	if v, known := CheckShape(good); !known || len(v) != 0 {
		t.Fatalf("good sampler shape rejected: %v", v)
	}

	// A sampling tick that allocates would make the observatory a
	// steady-state garbage source — the core claim of the shape.
	good.Results["HistorySample"].Metrics["allocs/op"] = 1
	if v, _ := CheckShape(good); len(v) != 1 || !strings.Contains(v[0].Check, "history-allocs") {
		t.Fatalf("allocating tick passed: %v", v)
	}

	// A tick costing more than 1% of the 1s interval.
	slow := report("history-sampler", map[string]map[string]float64{
		"HistorySample": {"ns/op": 50e6, "allocs/op": 0},
	})
	if v, _ := CheckShape(slow); len(v) != 1 || !strings.Contains(v[0].Check, "history-tick-cost") {
		t.Fatalf("50ms tick passed: %v", v)
	}

	// Dropping the result must not silently retire the gate.
	empty := report("history-sampler", nil)
	if v, _ := CheckShape(empty); len(v) != 1 || !strings.Contains(v[0].Check, "history-results") {
		t.Fatalf("empty report passed: %v", v)
	}
}

func TestTrendsSeries(t *testing.T) {
	hist := []*Report{
		report("b", map[string]map[string]float64{"X": {"ns/op": 100}}),
		report("b", map[string]map[string]float64{"X": {"ns/op": 110, "MB/s": 50}}),
	}
	committed := report("b", map[string]map[string]float64{
		"X": {"ns/op": 120, "MB/s": 55},
	})
	series := Trends(hist, committed)
	if len(series) != 2 {
		t.Fatalf("got %d series, want 2", len(series))
	}
	// Sorted by result then metric: MB/s before ns/op. The MB/s series
	// skips the first archive (metric absent there).
	mb, ns := series[0], series[1]
	if mb.Metric != "MB/s" || len(mb.Values) != 2 || mb.First() != 50 || mb.Last() != 55 {
		t.Fatalf("MB/s series = %+v", mb)
	}
	if ns.Metric != "ns/op" || len(ns.Values) != 3 || ns.First() != 100 || ns.Last() != 120 {
		t.Fatalf("ns/op series = %+v", ns)
	}
	if d := ns.DeltaPct(); math.Abs(d-20) > 0.01 {
		t.Fatalf("ns/op delta = %v, want +20%%", d)
	}
	if Trends(hist, nil) != nil {
		t.Fatal("nil committed report produced series")
	}
}

func TestNonblockShape(t *testing.T) {
	rows := func(elBytes, grBytes, readAllocs, nbNs float64) map[string]map[string]float64 {
		return map[string]map[string]float64{
			"NonBlockHandshake":         {"ns/op": nbNs},
			"GoroutinePerConnHandshake": {"ns/op": 700000},
			"IdleConns/eventloop":       {"bytes/conn": elBytes},
			"IdleConns/goroutine":       {"bytes/conn": grBytes},
			"NonBlockReadSteady":        {"allocs/op": readAllocs, "ns/op": 15000},
		}
	}
	good := report("nonblock", rows(4300, 11200, 0, 720000))
	if v, known := CheckShape(good); !known || len(v) != 0 {
		t.Fatalf("good nonblock shape rejected: known=%v %v", known, v)
	}

	// Idle economics inverted: the event-loop conn costs more memory.
	if v, _ := CheckShape(report("nonblock", rows(12000, 11200, 0, 720000))); len(v) == 0 {
		t.Fatal("inverted idle bytes/conn passed")
	}
	// Steady-state read path started allocating.
	if v, _ := CheckShape(report("nonblock", rows(4300, 11200, 2, 720000))); len(v) == 0 {
		t.Fatal("allocating read path passed")
	}
	// Stepped handshake far slower than the blocking wrapper.
	if v, _ := CheckShape(report("nonblock", rows(4300, 11200, 0, 2000000))); len(v) == 0 {
		t.Fatal("2.8x slower stepped handshake passed")
	}
	// Dropping the idle measurements must not retire the gate.
	partial := report("nonblock", map[string]map[string]float64{
		"NonBlockHandshake":         {"ns/op": 720000},
		"GoroutinePerConnHandshake": {"ns/op": 700000},
		"NonBlockReadSteady":        {"allocs/op": 0},
	})
	if v, _ := CheckShape(partial); len(v) == 0 {
		t.Fatal("missing IdleConns results passed")
	}
}
