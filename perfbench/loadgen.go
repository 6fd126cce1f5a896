package main

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

// Two load generators share one socket discipline: one connected UDP socket
// per run, every reply kept for checking after the run.
//
// The open-loop generator (step) sends query i at start + i/rate whatever
// happened to earlier queries, from one sender goroutine, with one receiver
// goroutine; latency runs from the due time, so a stall on either side shows
// up in every query it delays. The sender spins to each due time on a locked
// thread (see sleepPrecise): Go timers oversleep sub-millisecond waits by up
// to several milliseconds, which would read as server latency, and a
// goroutine spinning with runtime.Gosched starves the network poller.
//
// The closed-loop generator (loop) keeps a fixed number of queries in
// flight from one goroutine, sending the next query as each reply arrives,
// so the server is never idle and the rate it reaches is its throughput.
// On the 2-vCPU reference host the open-loop sender's wake-ups run late
// past about 12k q/s, while the closed loop drives the same server at 30k
// q/s and more.

// pacerSpin is how much of each wait the sender spins rather than sleeps,
// covering the nanosleep wake-up latency.
const pacerSpin = 20000 // ns

// replyTimeout is how long after the last send a step keeps listening.
const replyTimeout = 100 * time.Millisecond

// step is one rate step's queries and what became of them.
type step struct {
	rate float64
	pkts [][]byte // packed queries; query i carries ID uint16(i)

	// Filled by run. Times are nanoseconds since the step's start; a zero
	// recvAt means no reply arrived.
	sendAt  []int64
	recvAt  []int64
	resp    [][]byte
	backlog int64 // most queries outstanding at once
	start   time.Time
	wall    time.Duration
	// sendCPU is the sender thread's CPU time over the step.
	sendCPU time.Duration
}

func (s *step) dueAt(i int) int64 { return int64(float64(i) * 1e9 / s.rate) }

// run sends every query on a fresh socket (late replies from an earlier step
// cannot be mistaken for this one's) and waits for the replies.
func (s *step) run(server netip.AddrPort) error {
	conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(server))
	if err != nil {
		return fmt.Errorf("loadgen: dial %s: %w", server, err)
	}
	defer conn.Close()
	_ = conn.SetReadBuffer(4 << 20) // best effort; the kernel may cap it

	n := len(s.pkts)
	s.sendAt = make([]int64, n)
	s.recvAt = make([]int64, n)
	s.resp = make([][]byte, n)
	var sent, received atomic.Int64
	start := time.Now()
	s.start = start

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 65535)
		arena := make([]byte, 0, 1<<20)
		for {
			m, err := conn.Read(buf)
			if err != nil {
				return // deadline or closed: the step is over
			}
			now := time.Since(start).Nanoseconds()
			if m < 2 {
				continue
			}
			id := uint16(buf[0])<<8 | uint16(buf[1])
			latest := sent.Load() - 1
			i := latest - int64(uint16(latest)-id)
			if i < 0 || s.recvAt[i] != 0 {
				continue // a duplicate, or a reply to no query of this step
			}
			if cap(arena)-len(arena) < m {
				arena = make([]byte, 0, 1<<20)
			}
			off := len(arena)
			arena = append(arena, buf[:m]...)
			s.resp[i] = arena[off:len(arena):len(arena)]
			s.recvAt[i] = now
			received.Add(1)
		}
	}()

	lockPacer()
	defer unlockPacer()
	cpu0 := threadCPU()
	var writeErr error
	for i := 0; i < n; i++ {
		due := s.dueAt(i)
		now := time.Since(start).Nanoseconds()
		if wait := due - now; wait > pacerSpin {
			sleepPrecise(time.Duration(wait - pacerSpin))
			now = time.Since(start).Nanoseconds()
		}
		for now < due {
			now = time.Since(start).Nanoseconds()
		}
		s.sendAt[i] = now
		// Publish the send before writing: a fast reply must find its slot.
		sent.Store(int64(i + 1))
		if _, err := conn.Write(s.pkts[i]); err != nil && writeErr == nil {
			writeErr = err
		}
		if i&63 == 0 {
			s.backlog = max(s.backlog, int64(i+1)-received.Load())
		}
	}
	s.sendCPU = threadCPU() - cpu0
	// Wait for stragglers, then unblock the receiver with a deadline.
	deadline := time.Now().Add(replyTimeout)
	for received.Load() < int64(n) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	_ = conn.SetReadDeadline(time.Now())
	wg.Wait()
	s.wall = time.Since(start)
	if writeErr != nil {
		return fmt.Errorf("loadgen: send: %w", writeErr)
	}
	return nil
}

// stepStats summarises one step. Latencies and lateness are in µs.
//
// The tail is the 90th percentile, taken per 100ms window and reported as
// the median over the step's windows. On the 2-vCPU reference host, two
// threads that merely spin lose the CPU for 1-12ms about ten times a second
// once both vCPUs are busy, and whole seconds can be worse; a 99th
// percentile, or any percentile over a whole step, reports that CPU steal
// rather than the server and swings several-fold between runs.
type stepStats struct {
	rate              float64
	sent, answered    int
	wrong, unanswered int
	p50us, p90us      float64
	p99us             float64
	lateP90us         float64
	lateP99us         float64
	backlog           int64
}

// window is the span of one tail sample; at the nominal rate it holds 500
// queries, so its 90th percentile has 50 samples beyond it.
const window = 100 * time.Millisecond

func (st stepStats) failPct() float64 {
	if st.sent == 0 {
		return 0
	}
	return 100 * float64(st.wrong+st.unanswered) / float64(st.sent)
}

// stats folds a finished step. wrong(i) reports whether reply i is wrong;
// an unanswered or wrong query counts at the reply timeout.
func (s *step) stats(wrong func(i int) bool) stepStats {
	st := stepStats{rate: s.rate, sent: len(s.pkts), backlog: s.backlog}
	lat := make([]float64, len(s.pkts))
	late := make([]float64, len(s.pkts))
	for i := range s.pkts {
		due := s.dueAt(i)
		late[i] = float64(s.sendAt[i]-due) / 1e3
		switch {
		case s.recvAt[i] == 0:
			st.unanswered++
			lat[i] = float64(replyTimeout.Microseconds())
		case wrong(i):
			st.wrong++
			lat[i] = float64(replyTimeout.Microseconds())
		default:
			st.answered++
			lat[i] = float64(s.recvAt[i]-due) / 1e3
		}
	}
	var winP90, winLate []float64
	for lo := 0; lo < len(lat); {
		hi := lo
		for end := s.dueAt(lo) + window.Nanoseconds(); hi < len(lat) && s.dueAt(hi) < end; hi++ {
		}
		// Fold a short tail into the last window.
		if len(lat)-hi < (hi-lo)/2 {
			hi = len(lat)
		}
		winP90 = append(winP90, quantile(append([]float64(nil), lat[lo:hi]...), 0.9))
		winLate = append(winLate, quantile(append([]float64(nil), late[lo:hi]...), 0.9))
		lo = hi
	}
	st.p90us = median(winP90)
	st.lateP90us = median(winLate)
	st.p50us = quantile(lat, 0.5)
	st.p99us = quantile(lat, 0.99)
	st.lateP99us = quantile(late, 0.99)
	return st
}

// loop is one closed-loop run: width queries kept in flight for a fixed
// time. Query i carries ID uint16(i); times are nanoseconds since start and
// a zero recvAt means no reply arrived.
type loop struct {
	keys   []feedKey
	sendAt []int64
	recvAt []int64
	resp   [][]byte
	start  time.Time
	wall   time.Duration // until the last query was sent
	done   int           // queries answered before wall
}

func (l *loop) qps() float64 { return float64(l.done) / l.wall.Seconds() }

// runLoop sends next() queries to server for d, width at a time, on a fresh
// socket. When nothing is answered for replyTimeout the queries in flight
// are given up (their recvAt stays zero) and replaced.
func runLoop(server netip.AddrPort, width int, d time.Duration, next func() feedKey) (*loop, error) {
	conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(server))
	if err != nil {
		return nil, fmt.Errorf("loadgen: dial %s: %w", server, err)
	}
	defer conn.Close()

	l := &loop{}
	inflight := make(map[uint16]int, width)
	send := func() error {
		k := next()
		i := len(l.keys)
		p := append([]byte(nil), k.wire...)
		p[0], p[1] = byte(uint16(i)>>8), byte(uint16(i))
		l.keys = append(l.keys, k)
		l.sendAt = append(l.sendAt, time.Since(l.start).Nanoseconds())
		l.recvAt = append(l.recvAt, 0)
		l.resp = append(l.resp, nil)
		inflight[uint16(i)] = i
		_, err := conn.Write(p)
		return err
	}
	fill := func() error {
		for len(inflight) < width {
			if err := send(); err != nil {
				return fmt.Errorf("loadgen: send: %w", err)
			}
		}
		return nil
	}
	buf := make([]byte, 65535)
	arena := make([]byte, 0, 1<<20)
	l.start = time.Now()
	end := l.start.Add(d)
	sending := true
	if err := fill(); err != nil {
		return nil, err
	}
	for len(inflight) > 0 {
		now := time.Now()
		if sending && !now.Before(end) {
			sending = false
			l.wall = now.Sub(l.start)
		}
		_ = conn.SetReadDeadline(now.Add(replyTimeout))
		m, err := conn.Read(buf)
		if err != nil {
			if !sending {
				break // the stragglers are lost
			}
			clear(inflight)
			if err := fill(); err != nil {
				return nil, err
			}
			continue
		}
		if m < 2 {
			continue
		}
		i, ok := inflight[uint16(buf[0])<<8|uint16(buf[1])]
		if !ok {
			continue // a duplicate, or a reply to a query given up on
		}
		delete(inflight, uint16(i))
		if cap(arena)-len(arena) < m {
			arena = make([]byte, 0, 1<<20)
		}
		off := len(arena)
		arena = append(arena, buf[:m]...)
		l.resp[i] = arena[off:len(arena):len(arena)]
		l.recvAt[i] = time.Since(l.start).Nanoseconds()
		if sending {
			l.done++
			if err := send(); err != nil {
				return nil, fmt.Errorf("loadgen: send: %w", err)
			}
		}
	}
	return l, nil
}
