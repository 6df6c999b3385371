package core

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"github.com/gbooster/gbooster/internal/rudp"
)

// servePipe starts srv on an in-memory connection pair and returns the
// client end plus a join function.
func servePipe(tb testing.TB, srv *Server) (*rudp.Conn, func()) {
	tb.Helper()
	pcC, pcS := rudp.NewMemPair(0, 42)
	opts := rudp.DefaultOptions()
	connC := rudp.New(pcC, pcS.Addr(), opts)
	connS := rudp.New(pcS, pcC.Addr(), opts)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.ServeWithTimeout(connS, 2*time.Second)
		_ = connS.Close()
	}()
	return connC, func() {
		_ = connC.Close()
		wg.Wait()
	}
}

// TestServeMatchesHandle: Serve with several requests in flight must
// return replies in request order, byte-identical to driving Handle
// directly on a fresh Server — the serve loop adds transport, never
// behaviour.
func TestServeMatchesHandle(t *testing.T) {
	const frames = 8
	newSrv := func() *Server {
		srv, err := NewServer(ServerConfig{Width: testW, Height: testH})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	builder := newBatchBuilder(t, "G5", 3)
	msgs := make([][]byte, frames)
	for i := range msgs {
		msgs[i] = builder.next(t)
	}

	ref := newSrv()
	want := make([][]byte, frames)
	for i, msg := range msgs {
		reply, err := ref.Handle(msg)
		if err != nil || reply == nil {
			t.Fatalf("Handle frame %d: reply %v, err %v", i, reply != nil, err)
		}
		want[i] = append([]byte(nil), reply...)
	}

	conn, join := servePipe(t, newSrv())
	defer join()
	for _, msg := range msgs {
		if err := conn.Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	for i := range want {
		got, err := conn.Recv(5 * time.Second)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("reply %d: Serve diverged from Handle (%dB vs %dB)",
				i, len(got), len(want[i]))
		}
	}
}

// BenchmarkFramePipeline measures end-to-end frame round trips through
// Serve, keeping two requests in flight so the serve loop never idles
// on a round trip. Teardown (which waits out the server's idle timeout)
// is outside the timed region.
func BenchmarkFramePipeline(b *testing.B) {
	b.Run("640x360", func(b *testing.B) {
		srv, err := NewServer(ServerConfig{Width: 640, Height: 360})
		if err != nil {
			b.Fatal(err)
		}
		conn, join := servePipe(b, srv)
		defer join()
		builder := newBatchBuilder(b, "G5", 1)
		const ahead = 2
		b.SetBytes(640 * 360 * 4)
		b.ResetTimer()
		sent := 0
		for i := 0; i < b.N; i++ {
			for sent < b.N && sent-i < ahead {
				if err := conn.Send(builder.next(b)); err != nil {
					b.Fatal(err)
				}
				sent++
			}
			if _, err := conn.Recv(10 * time.Second); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
	})
}
