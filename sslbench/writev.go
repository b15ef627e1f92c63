package main

import (
	"fmt"
	"io"
	"net"
	"time"

	"sslperf/internal/ssl"
	"sslperf/internal/workload"
)

// flushCounts is what one 1 MiB response cost the record layer.
type flushCounts struct {
	WriteCalls, Flights int
	Transport           int // writes reaching timedConn (wrapped only)
}

// writevCheck serves one 1 MiB response over loopback TCP twice: on the
// bare *net.TCPConn and through timedConn. The traced run is valid only
// if both cost the record layer the same writes and flights, and every
// write the record layer issued reached the wrapper as one call.
func writevCheck() (bare, wrapped flushCounts, err error) {
	id, err := ssl.NewIdentity(ssl.NewPRNG(1), 512, "writev-check", time.Now())
	if err != nil {
		return bare, wrapped, err
	}
	ln, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return bare, wrapped, err
	}
	defer ln.Close()
	resp := workload.Payload(1 << 20)
	for _, wrap := range []bool{false, true} {
		got, err := serveOnce(ln, id, resp, wrap)
		if err != nil {
			return bare, wrapped, err
		}
		if wrap {
			wrapped = got
		} else {
			bare = got
		}
	}
	return bare, wrapped, nil
}

func serveOnce(ln *net.TCPListener, id *ssl.Identity, resp []byte, wrap bool) (flushCounts, error) {
	clientErr := make(chan error, 1)
	go func() {
		conn, err := ssl.Dial("tcp", ln.Addr().String(), &ssl.Config{
			Rand: ssl.NewPRNG(2), InsecureSkipVerify: true,
		})
		if err != nil {
			clientErr <- err
			return
		}
		defer conn.Close()
		_, err = io.CopyN(io.Discard, conn, int64(len(resp)))
		clientErr <- err
	}()
	tc, err := ln.AcceptTCP()
	if err != nil {
		return flushCounts{}, err
	}
	var transport io.ReadWriteCloser = tc
	tw := &timedConn{TCPConn: tc, acc: &layerAcc{}}
	if wrap {
		transport = tw
	}
	conn := ssl.ServerConn(transport, id.ServerConfig(ssl.NewPRNG(3)))
	defer conn.Close()
	if err := conn.Handshake(); err != nil {
		return flushCounts{}, fmt.Errorf("writev check handshake: %w", err)
	}
	before, writes := conn.Stats(), tw.writes
	if _, err := conn.Write(resp); err != nil {
		return flushCounts{}, fmt.Errorf("writev check write: %w", err)
	}
	after := conn.Stats()
	if err := <-clientErr; err != nil {
		return flushCounts{}, fmt.Errorf("writev check client: %w", err)
	}
	return flushCounts{
		WriteCalls: after.WriteCalls - before.WriteCalls,
		Flights:    after.Flights - before.Flights,
		Transport:  tw.writes - writes,
	}, nil
}
