package main

import (
	"io"
	"net"
	"testing"
	"time"

	"sslperf/internal/ssl"
	"sslperf/internal/workload"
)

func TestTimedConnKeepsWritev(t *testing.T) {
	bare, wrapped, err := writevCheck()
	if err != nil {
		t.Fatal(err)
	}
	if bare.WriteCalls != wrapped.WriteCalls || bare.Flights != wrapped.Flights {
		t.Fatalf("bare %+v, wrapped %+v: the wrapper changed the flush pattern", bare, wrapped)
	}
	if bare.Flights == 0 || wrapped.Transport != wrapped.WriteCalls {
		t.Fatalf("wrapped %+v: want each flight to reach the transport as one call", wrapped)
	}
}

// countingConn is the plain embedding wrapper timedConn must not be:
// the ssl layer wraps it again, and net.Buffers.WriteTo, finding no
// writev on it, writes each record separately.
type countingConn struct {
	net.Conn
	writes int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.Conn.Write(p)
}

// TestEmbeddingWrapperSplitsFlights shows why Stats alone cannot catch
// a wrapper that loses writev: the record layer still counts one flush
// while the transport sees one write per record.
func TestEmbeddingWrapperSplitsFlights(t *testing.T) {
	id, err := ssl.NewIdentity(ssl.NewPRNG(1), 512, "split", time.Now())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	resp := workload.Payload(1 << 20)
	done := make(chan error, 1)
	go func() {
		conn, err := ssl.Dial("tcp", ln.Addr().String(), &ssl.Config{Rand: ssl.NewPRNG(2), InsecureSkipVerify: true})
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		_, err = io.CopyN(io.Discard, conn, int64(len(resp)))
		done <- err
	}()
	tc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: tc}
	conn := ssl.ServerConn(cc, id.ServerConfig(ssl.NewPRNG(3)))
	defer conn.Close()
	if err := conn.Handshake(); err != nil {
		t.Fatal(err)
	}
	before, writes := conn.Stats(), cc.writes
	if _, err := conn.Write(resp); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	calls := conn.Stats().WriteCalls - before.WriteCalls
	if got := cc.writes - writes; got <= calls {
		t.Fatalf("transport saw %d writes for %d record-layer flushes; want the split to show", got, calls)
	}
}
