package main

import (
	"fmt"
	"net"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sslperf/internal/ssl"
	"sslperf/internal/suite"
	"sslperf/internal/workload"
)

var (
	testIDOnce sync.Once
	testID     *ssl.Identity
	testIDErr  error
)

// fakeServer serves the sslserver protocol in-process: every request
// gets "LEN n\n" and a body that corrupt may alter.
func fakeServer(t *testing.T, size int, corrupt func([]byte)) string {
	t.Helper()
	testIDOnce.Do(func() {
		testID, testIDErr = ssl.NewIdentity(ssl.NewPRNG(7), 512, "fake", time.Now())
	})
	if testIDErr != nil {
		t.Fatal(testIDErr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	body := workload.Payload(size)
	if corrupt != nil {
		corrupt(body)
	}
	resp := append([]byte(fmt.Sprintf("LEN %d\n", size)), body...)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			tc, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				cfg := testID.ServerConfig(ssl.NewPRNG(8))
				conn := ssl.ServerConn(tc, cfg)
				defer conn.Close()
				buf := make([]byte, 4096)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
					if _, err := conn.Write(resp); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// runFor drives the workload against addr for d and tallies it.
func runFor(t *testing.T, d *driver, dur time.Duration) tally {
	t.Helper()
	start := time.Now()
	t1 := start.Add(dur)
	rs, _ := d.load(start, start, t1)
	var tl tally
	tl.add(rs, d.wl, start, t1, true)
	return tl
}

func mustWorkload(t *testing.T, name string) workloadSpec {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestDriverVerifiesCorrectServer(t *testing.T) {
	wl := mustWorkload(t, "full-1k")
	d := newDriver(fakeServer(t, wl.fileSize, nil), wl, 1)
	tl := runFor(t, d, 300*time.Millisecond)
	if tl.failed != 0 || tl.txns == 0 {
		t.Fatalf("failed=%d txns=%d first error %v", tl.failed, tl.txns, tl.firstErr)
	}
}

func TestCorruptedPayloadFailsRun(t *testing.T) {
	wl := mustWorkload(t, "full-1k")
	d := newDriver(fakeServer(t, wl.fileSize, func(b []byte) { b[len(b)/2] ^= 1 }), wl, 1)
	tl := runFor(t, d, 200*time.Millisecond)
	if tl.failed == 0 || tl.failed != tl.attempted {
		t.Fatalf("failed=%d of %d, want every transaction failed", tl.failed, tl.attempted)
	}
	if !strings.Contains(tl.firstErr.Error(), "body differs from the payload at byte 512") {
		t.Fatalf("first error %v", tl.firstErr)
	}
}

func TestWrongNegotiatedSuiteFailsRun(t *testing.T) {
	wl := mustWorkload(t, "full-1k")
	d := newDriver(fakeServer(t, wl.fileSize, nil), wl, 1)
	// The client offers NULL-SHA whatever the plan says, so the server
	// negotiates a suite the plan does not expect.
	d.clientConfig = func(p plan) *ssl.Config {
		cfg := d.defaultClientConfig(p)
		cfg.Suites = []suite.ID{suite.RSAWithNullSHA}
		return cfg
	}
	tl := runFor(t, d, 200*time.Millisecond)
	if tl.failed == 0 || tl.failed != tl.attempted {
		t.Fatalf("failed=%d of %d, want every transaction failed", tl.failed, tl.attempted)
	}
	if !strings.Contains(tl.firstErr.Error(), "negotiated NULL-SHA, planned") {
		t.Fatalf("first error %v", tl.firstErr)
	}
}

func TestKilledServerFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/sslserver")
	}
	bin := filepath.Join(t.TempDir(), "sslserver")
	build := exec.Command("go", "build", "-o", bin, "./cmd/sslserver")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	wl := mustWorkload(t, "full-1k")
	b := &bench{o: options{seconds: 2}, wl: wl}
	c, d, _, err := b.start(bin, 11, false)
	if err != nil {
		t.Fatal(err)
	}
	defer c.stop()
	go func() {
		time.Sleep(1500 * time.Millisecond) // inside the measured window
		c.cmd.Process.Kill()
	}()
	_, err = b.measure(c, d)
	if err == nil || !strings.Contains(err.Error(), "server exited early") {
		t.Fatalf("measure error %v, want the early exit reported", err)
	}
}
