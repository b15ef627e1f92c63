// Command sslbench is the repository's end-to-end benchmark: a load
// driver that runs one traffic mix against the real cmd/sslserver,
// built from the checkout and started as a child process on loopback
// TCP, verifies every response, and prints every end-to-end metric.
// With -trace 1 it also runs the mix against a traced in-process
// replica of the server and prints the per-layer metrics. See
// README.md for the workloads and the metrics.
//
//	bash sslbench/run.sh --workload full-1k --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

const (
	// setupRuns is how many times a run starts the server to time its
	// set-up, each with a fixed key seed: key generation time varies
	// with the seed, so fixed seeds make every run time the same work.
	// setup_s is their median.
	setupRuns = 7
	// warmup precedes every measured window.
	warmup = time.Second
	// probeTime is the length of the resumed-handshake probe on mixes
	// that offer no session.
	probeTime = 3 * time.Second
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	root     string
	out      string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "replica" {
		os.Exit(replicaMain(os.Args[2:]))
	}
	// The driver is the measuring instrument: collect its garbage
	// rarely so its pauses stay out of the latencies. The servers keep
	// the runtime defaults.
	debug.SetGCPercent(400)
	var o options
	flag.StringVar(&o.workload, "workload", "full-1k", "traffic mix: full-1k, bulk-1m or web-resume-el")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for the server key and every input")
	flag.IntVar(&o.seconds, "seconds", 10, "measured window per phase, in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 = also run the traced replica and print per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "repository root holding cmd/sslserver")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for the server binary")
	flag.Parse()
	wl, err := workloadByName(o.workload)
	if err == nil && (o.seconds < 1 || (o.trace != 0 && o.trace != 1)) {
		err = errors.New("-seconds must be at least 1 and -trace 0 or 1")
	}
	if err == nil {
		var res *result
		res, err = run(o, wl)
		if err == nil {
			err = res.print()
		}
		if err == nil {
			if !res.correct {
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintln(os.Stderr, "sslbench:", err)
	os.Exit(1)
}

// bench is one run's shared state.
type bench struct {
	o      options
	wl     workloadSpec
	server string // path of the built cmd/sslserver
	self   string // this binary, which also serves the replica
}

// phase is one server process measured under the workload.
type phase struct {
	t   tally
	cpu [maxSlices]time.Duration // server CPU time per slice
	rss int64
	// The host's CPU ticks over the window, and those stolen by the
	// hypervisor.
	hostTicks, stealTicks int64
	report                *layerReport // traced phase only
}

func run(o options, wl workloadSpec) (*result, error) {
	b := &bench{o: o, wl: wl, server: filepath.Join(o.out, "sslserver")}
	var err error
	if b.self, err = os.Executable(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	build := exec.Command("go", "build", "-o", b.server, "./cmd/sslserver")
	build.Dir = o.root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("build cmd/sslserver: %v\n%s", err, out)
	}
	res := &result{o: o, wl: wl, stamp: stamp(o.root)}
	serverSeed := mix(o.seed, 0, 3)%1_000_000_007 + 1 // 0 would mean time-seeded

	if o.trace == 0 {
		for k := 1; k <= setupRuns; k++ {
			c, _, setup, err := b.start(b.server, uint64(k), false)
			if err != nil {
				return nil, err
			}
			c.stop()
			res.setupS = append(res.setupS, setup.Seconds())
		}
		c, d, _, err := b.start(b.server, serverSeed, false)
		if err != nil {
			return nil, err
		}
		res.main, err = b.measure(c, d)
		c.stop()
		return res, err
	}

	c, d, _, err := b.start(b.server, serverSeed, false)
	if err != nil {
		return nil, err
	}
	res.untraced, err = b.measure(c, d)
	c.stop()
	if err != nil {
		return nil, err
	}
	c, d, _, err = b.start(b.self, serverSeed, true)
	if err != nil {
		return nil, err
	}
	res.main, err = b.measure(c, d)
	if err == nil {
		var line string
		if line, err = c.command("report", 30*time.Second); err == nil {
			res.main.report = &layerReport{}
			err = json.Unmarshal([]byte(line), res.main.report)
		}
	}
	c.stop()
	if err != nil {
		return nil, err
	}
	res.writevBare, res.writevWrapped, err = writevCheck()
	return res, err
}

// start execs a server and runs one verified transaction against it;
// set-up is the time from exec to that transaction's end.
func (b *bench) start(path string, seed uint64, replica bool) (*child, *driver, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, nil, 0, err
	}
	args := b.wl.serverArgs(addr, seed)
	if replica {
		args = append([]string{"replica"}, args...)
	}
	c, err := startChild(path, args, addr, replica)
	if err != nil {
		return nil, nil, 0, err
	}
	d := newDriver(addr, b.wl, b.o.seed)
	if err := c.waitReady(60 * time.Second); err != nil {
		c.stop()
		return nil, nil, 0, err
	}
	if err := d.firstTxn(); err != nil {
		c.stop()
		return nil, nil, 0, fmt.Errorf("first transaction: %w", err)
	}
	return c, d, time.Since(c.started), nil
}

// measure warms up, runs the measured window, then the resumed probe
// where the mix needs it, reading the server's CPU time at the window's
// edges. With -trace 1 the untraced and the traced phase each get half
// the window.
func (b *bench) measure(c *child, d *driver) (*phase, error) {
	p := &phase{}
	traced := c.lines != nil
	window := time.Duration(b.o.seconds) * time.Second
	if b.o.trace == 1 {
		window = max(window/2, time.Second)
	}
	start := time.Now()
	t0 := start.Add(warmup)
	t1 := t0.Add(window)
	// The server's CPU time is read at every slice boundary.
	var (
		wg       sync.WaitGroup
		cpu      [maxSlices + 1]time.Duration
		edgeErrs []error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range cpu {
			time.Sleep(time.Until(t0.Add(window * time.Duration(i) / maxSlices)))
			var err error
			if cpu[i], err = c.cpuTime(); err != nil {
				edgeErrs = append(edgeErrs, err)
			}
			if i == 0 || i == maxSlices {
				total, steal, err := hostCPU()
				if err != nil {
					edgeErrs = append(edgeErrs, err)
				}
				p.hostTicks, p.stealTicks = total-p.hostTicks, steal-p.stealTicks
			}
			if !traced || (i > 0 && i < maxSlices) {
				continue
			}
			cmd := "start"
			if i == maxSlices {
				cmd = "stop"
			}
			if _, err := c.command(cmd, 10*time.Second); err != nil {
				edgeErrs = append(edgeErrs, err)
			}
		}
	}()
	results, capWaits := d.load(start, t0, t1)
	wg.Wait()
	if err := errors.Join(edgeErrs...); err != nil {
		return nil, errors.Join(c.alive(), err)
	}
	p.t.add(results, b.wl, t0, t1, true)
	if p.t.txns == 0 {
		return nil, errors.Join(c.alive(), fmt.Errorf("no transaction completed in the window (first error: %v)", p.t.firstErr))
	}
	p.t.capWaits = capWaits
	for i := range p.cpu {
		p.cpu[i] = cpu[i+1] - cpu[i]
	}
	if b.wl.needsResumedProbe() {
		from := time.Now()
		rs := d.probeResumed(probeTime)
		p.t.addProbe(rs, from, time.Now())
	}
	if err := c.alive(); err != nil {
		return nil, err
	}
	rss, err := c.peakRSS()
	if err != nil {
		return nil, err
	}
	p.rss = rss
	return p, nil
}

// stamp names what was measured: commit (when the checkout is a git
// repository), a digest of the Go sources, the toolchain and the CPUs.
func stamp(root string) string {
	commit := "none"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("commit=%s src=%s go=%s nproc=%d gomaxprocs=%d",
		commit, sourceDigest(root), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// sourceDigest hashes go.mod and every .go file under cmd/ and
// internal/, so runs of different code never share a stamp.
func sourceDigest(root string) string {
	var files []string
	for _, dir := range []string{"cmd", "internal"} {
		filepath.WalkDir(filepath.Join(root, dir), func(path string, e fs.DirEntry, err error) error {
			if err == nil && !e.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return nil
		})
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range append([]string{filepath.Join(root, "go.mod")}, files...) {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f) // f is under root
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}
