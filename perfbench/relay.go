package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// relay emulates an edge link on loopback: every chunk read from one side
// is written to the other a fixed one-way delay after it was read. Chunks
// are pipelined, so a chunk's delivery time depends only on when it was
// read, never on the delays of the chunks ahead of it; a proxy that sleeps
// per read on its forwarding goroutine would instead queue later bytes
// behind earlier delays and measure itself. It counts the bytes carried in
// each direction.
type relay struct {
	ln     net.Listener
	target string
	delay  time.Duration

	up   atomic.Int64 // bytes from the dialing side (master) to target (worker)
	down atomic.Int64 // bytes from target back to the dialing side

	mu    sync.Mutex
	conns []net.Conn
	shut  bool
	wg    sync.WaitGroup
}

// newRelay listens on a loopback port and relays every accepted connection
// to target.
func newRelay(target string, delay time.Duration) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln, target: target, delay: delay}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

// bytes returns the total carried in both directions so far.
func (r *relay) bytes() int64 { return r.up.Load() + r.down.Load() }

// close stops accepting, tears down every relayed connection and waits for
// all relay goroutines to exit.
func (r *relay) close() {
	r.mu.Lock()
	r.shut = true
	r.ln.Close()
	for _, c := range r.conns {
		c.Close()
	}
	r.conns = nil
	r.mu.Unlock()
	r.wg.Wait()
}

// track registers conns for close; it reports false once the listener is
// closed, so a connection accepted during close is not leaked.
func (r *relay) track(conns ...net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.shut {
		return false
	}
	r.conns = append(r.conns, conns...)
	return true
}

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		src, err := r.ln.Accept()
		if err != nil {
			return
		}
		dst, err := net.Dial("tcp", r.target)
		if err != nil {
			src.Close()
			continue
		}
		if !r.track(src, dst) {
			src.Close()
			dst.Close()
			return
		}
		r.wg.Add(2)
		go r.pipe(dst, src, &r.up)
		go r.pipe(src, dst, &r.down)
	}
}

type chunk struct {
	data []byte
	due  time.Time
}

// pipe copies src to dst, holding each chunk until its due time. The reader
// never waits for the writer's delays; the buffered channel holds the
// chunks in flight on the link (bounded so a stalled receiver exerts back
// pressure instead of growing memory without limit).
func (r *relay) pipe(dst, src net.Conn, count *atomic.Int64) {
	defer r.wg.Done()
	inflight := make(chan chunk, 1024)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for c := range inflight {
			if d := time.Until(c.due); d > 0 {
				time.Sleep(d)
			}
			if _, err := dst.Write(c.data); err != nil {
				src.Close()
				for range inflight {
				}
				return
			}
		}
		dst.Close()
	}()
	buf := make([]byte, 64<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			count.Add(int64(n))
			inflight <- chunk{data: append([]byte(nil), buf[:n]...), due: time.Now().Add(r.delay)}
		}
		if err != nil {
			break
		}
	}
	close(inflight)
	<-done
}
