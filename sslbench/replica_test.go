package main

import (
	"net"
	"testing"
	"time"
)

// TestReplicaLayers drives both replica modes in-process and checks
// that every layer's seam recorded work and that the spans leave
// little of a connection's lifetime unattributed.
func TestReplicaLayers(t *testing.T) {
	for _, name := range []string{"full-1k", "bulk-1m", "web-resume-el"} {
		t.Run(name, func(t *testing.T) {
			wl := mustWorkload(t, name)
			if wl.perResponse {
				// Keep the bulk responses flights (above one record)
				// but small enough to finish several connections.
				wl.fileSize, wl.requests = 64<<10, [3]int{2, 2, 2}
			}
			r, err := newReplica(5, 512, wl.fileSize, wl.eventLoop)
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go r.serve(ln)
			d := newDriver(ln.Addr().String(), wl, 3)
			r.acc.open()
			tl := runFor(t, d, 400*time.Millisecond)
			// Connections that closed early in the window are folded;
			// the last few may still be open.
			rep := r.acc.close()
			if tl.failed != 0 || tl.txns == 0 {
				t.Fatalf("failed=%d txns=%d first error %v", tl.failed, tl.txns, tl.firstErr)
			}
			if rep.Decrypts == 0 || rep.FullBusyUS <= rep.FullDecryptUS || rep.Conns == 0 {
				t.Fatalf("handshake seams: %+v", rep)
			}
			if rep.ReadCalls == 0 || rep.WriteCalls == 0 || rep.RequestN == 0 || rep.StepN == 0 {
				t.Fatalf("transport or ssl seams: %+v", rep)
			}
			if len(rep.SealNsPerByte) == 0 || rep.RecordsPerWrite < 1 {
				t.Fatalf("record seams: %+v", rep)
			}
			if wl.eventLoop && rep.LoopWaitN == 0 {
				t.Fatalf("no loop waits: %+v", rep)
			}
			if rep.UnattributedUS < 0 {
				t.Fatalf("spans cover more than the lifetimes: %+v", rep)
			}
		})
	}
}
