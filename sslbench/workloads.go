package main

import (
	"fmt"
	"time"
)

// webRate is web-resume-el's fixed arrival rate, set once at about half
// the mix's closed-loop capacity on the event loop: 399-414 txn/s with
// this driver and 2 connections on a 2-core Xeon @ 2.1 GHz. It is never
// retuned, so the mix offers the same load at every commit.
const webRate = 200

// workloadSpec is one traffic mix. Every mix uses a 1024-bit key and
// SSL 3.0, and keeps at most conns connections in flight.
type workloadSpec struct {
	name      string
	fileSize  int
	eventLoop bool
	rate      float64 // open-loop arrivals per second; 0 = closed loop
	conns     int
	requests  [3]int  // requests per connection, by rotation entry
	resume    float64 // chance an arrival offers a pooled session
	// perResponse makes each response, not each connection, one
	// transaction.
	perResponse bool
}

var workloads = []workloadSpec{
	{
		// Full handshakes on the goroutine server: RSA and the FSM.
		name: "full-1k", fileSize: 1 << 10, conns: 2,
		requests: [3]int{1, 1, 1},
	},
	{
		// Keep-alive bulk transfer: suite ciphers and MACs, flights,
		// writev; RSA amortised over megabytes.
		name: "bulk-1m", fileSize: 1 << 20, conns: 2,
		requests: [3]int{
			rotation[0].bulkRequests, rotation[1].bulkRequests, rotation[2].bulkRequests,
		},
		perResponse: true,
	},
	{
		// Mostly resumed short sessions, open loop, on the event loop.
		name: "web-resume-el", fileSize: 4 << 10, eventLoop: true,
		rate: webRate, conns: 2, requests: [3]int{4, 4, 4}, resume: 0.8,
	},
}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// serverArgs are the server flags for the mix: production defaults
// plus the address, the key size, the payload and an explicit seed.
func (w workloadSpec) serverArgs(addr string, seed uint64) []string {
	args := []string{
		"-addr", addr,
		"-keybits", "1024",
		"-filesize", fmt.Sprint(w.fileSize),
		"-seed", fmt.Sprint(seed),
	}
	if w.eventLoop {
		args = append(args, "-eventloop")
	}
	return args
}

// needsResumedProbe reports whether the mix lacks resumed handshakes.
func (w workloadSpec) needsResumedProbe() bool { return w.resume == 0 }

// tally is one phase's end-to-end outcome: every transaction counts
// toward attempted/failed, and the samples are those that completed
// inside the measured window [t0, t1).
type tally struct {
	attempted, failed int
	firstErr          error
	window            time.Duration
	txns              int
	bytes             int64
	sliceTxns         [maxSlices]int // txns and bytes per time slice
	sliceBytes        [maxSlices]int64
	txnMs             series
	hsFullMs, hsResMs series
	genLagMs          series
	capWaits          int
	offered, hits     int
	probeResumed      bool // hsResMs came from the resumed probe
}

// add folds connection results into the tally; inWindow results also
// give samples.
func (t *tally) add(rs []connResult, w workloadSpec, t0, t1 time.Time, inWindow bool) {
	in := func(at time.Time) bool { return inWindow && !at.Before(t0) && at.Before(t1) }
	count := func(at time.Time, bytes int) {
		i := min(int(int64(at.Sub(t0))*maxSlices/int64(t1.Sub(t0))), maxSlices-1)
		t.txns++
		t.bytes += int64(bytes)
		t.sliceTxns[i]++
		t.sliceBytes[i] += int64(bytes)
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	t.window = t1.Sub(t0)
	for _, s := range []*series{&t.txnMs, &t.hsFullMs, &t.hsResMs, &t.genLagMs} {
		s.from, s.to = t0, t1
	}
	for _, r := range rs {
		switch {
		case w.perResponse && r.err != nil:
			t.attempted += len(r.reqEnd) + 1
		case w.perResponse:
			t.attempted += len(r.reqEnd)
		default:
			t.attempted++
		}
		if r.err != nil {
			t.failed++
			if t.firstErr == nil {
				t.firstErr = r.err
			}
		}
		if in(r.start) {
			t.genLagMs.add(r.start, ms(r.lag))
		}
		if r.session != nil && in(r.start) {
			t.offered++
			if r.resumed {
				t.hits++
			}
		}
		// hsEnd is set only once the negotiated suite, version and
		// resumption matched the plan.
		if !r.hsEnd.IsZero() && in(r.hsEnd) {
			if r.resumed {
				t.hsResMs.add(r.hsEnd, ms(r.hsEnd.Sub(r.hsStart)))
			} else {
				t.hsFullMs.add(r.hsEnd, ms(r.hsEnd.Sub(r.hsStart)))
			}
		}
		if w.perResponse {
			for j, end := range r.reqEnd {
				if in(end) {
					count(end, w.fileSize)
					t.txnMs.add(end, ms(end.Sub(r.reqStart[j])))
				}
			}
			continue
		}
		if r.err == nil && in(r.end) {
			count(r.end, w.fileSize*len(r.reqEnd))
			from := r.start
			if !r.intended.IsZero() {
				from = r.intended
			}
			t.txnMs.add(r.end, ms(r.end.Sub(from)))
		}
	}
}

// addProbe folds the resumed probe, run over [from, to): its
// handshakes count as attempted and give hs_resumed samples, but no
// transactions.
func (t *tally) addProbe(rs []connResult, from, to time.Time) {
	t.probeResumed = true
	t.hsResMs = series{from: from, to: to}
	for _, r := range rs {
		t.attempted++
		if r.err != nil {
			t.failed++
			if t.firstErr == nil {
				t.firstErr = r.err
			}
		}
		if r.session != nil {
			t.offered++
			if r.resumed {
				t.hits++
			}
		}
		if !r.hsEnd.IsZero() && r.resumed {
			t.hsResMs.add(r.hsEnd, float64(r.hsEnd.Sub(r.hsStart))/1e6)
		}
	}
}
