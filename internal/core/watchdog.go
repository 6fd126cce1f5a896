// Per-worker stall watchdog: a sweep must keep moving even when one probe
// wedges. The simulated fabric completes exchanges synchronously and cannot
// stall, but real transports can — a middlebox that eats FIN packets, a
// kernel socket stuck in a syscall — and one stuck worker would otherwise
// park 1/Nth of the sweep forever. The watchdog scans every worker's
// in-flight probe; one that has been running past a deadline multiple of the
// per-probe budget (client timeout × attempts plus backoff) gets its context
// cancelled, is filed in the failure book as "stalled", and the worker moves
// on to the next job. A probe whose transport ignores even the cancellation
// is abandoned after a short grace period (its goroutine unwinds whenever
// the transport eventually returns).
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// WatchdogConfig tunes the stall watchdog.
type WatchdogConfig struct {
	// Multiple scales the per-probe budget into the stall deadline. Zero
	// selects the default (4×).
	Multiple int
	// Deadline, when positive, overrides the computed budget×Multiple
	// deadline entirely.
	Deadline time.Duration
	// CheckEvery is the scan interval. Zero selects deadline/4, floored at
	// 10ms.
	CheckEvery time.Duration
	// Grace is how long an unstuck probe gets to unwind after its context is
	// cancelled before the worker abandons it. Zero selects 100ms.
	Grace time.Duration
	// Force enables the watchdog even over instant transports, where a stall
	// is otherwise impossible (used by tests).
	Force bool
}

func (c *WatchdogConfig) multiple() int {
	if c == nil || c.Multiple <= 0 {
		return 4
	}
	return c.Multiple
}

func (c *WatchdogConfig) grace() time.Duration {
	if c == nil || c.Grace <= 0 {
		return 100 * time.Millisecond
	}
	return c.Grace
}

// stallSlot is one worker's in-flight probe registration. armed marks a
// probe in progress; the watchdog cancels probes armed past the deadline and
// sets stalled so the worker classifies the failure correctly.
type stallSlot struct {
	mu      sync.Mutex
	cancel  context.CancelFunc
	armedAt time.Time
	stalled bool
}

// arm registers a probe about to run and returns its cancellable context.
func (s *stallSlot) arm(ctx context.Context) (context.Context, context.CancelFunc) {
	cctx, cancel := context.WithCancel(ctx)
	s.mu.Lock()
	s.cancel = cancel
	s.armedAt = time.Now()
	s.stalled = false
	s.mu.Unlock()
	return cctx, cancel
}

// disarm clears the registration and reports whether the watchdog fired on
// this probe.
func (s *stallSlot) disarm() bool {
	s.mu.Lock()
	stalled := s.stalled
	s.cancel = nil
	s.armedAt = time.Time{}
	s.mu.Unlock()
	return stalled
}

// watchdog owns one slot per sweep worker and re-queue pass, plus the
// scanning goroutine.
type watchdog struct {
	slots    []stallSlot
	deadline time.Duration
	interval time.Duration
	grace    time.Duration
	stalls   atomic.Int64

	mu     sync.Mutex
	active int // refcount of running sweeps sharing the scanner
	stopCh chan struct{}
}

// newWatchdog sizes a watchdog for one collector with the given number of
// stall slots.
func newWatchdog(slots int, budget time.Duration, cfg *WatchdogConfig) *watchdog {
	if cfg == nil {
		cfg = &WatchdogConfig{}
	}
	deadline := cfg.Deadline
	if deadline <= 0 {
		deadline = budget * time.Duration(cfg.multiple())
		if deadline < time.Second {
			deadline = time.Second
		}
	}
	interval := cfg.CheckEvery
	if interval <= 0 {
		interval = deadline / 4
		if interval < 10*time.Millisecond {
			interval = 10 * time.Millisecond
		}
	}
	return &watchdog{
		slots:    make([]stallSlot, slots),
		deadline: deadline,
		interval: interval,
		grace:    cfg.grace(),
	}
}

// slot returns worker w's slot (nil-safe on a nil watchdog).
func (w *watchdog) slot(i int) *stallSlot {
	if w == nil || i >= len(w.slots) {
		return nil
	}
	return &w.slots[i]
}

// start launches the scanning goroutine; balanced by stop. The start/stop
// pair is refcounted because the overlapped pipeline runs sweeps
// concurrently: the scanner stays up until the last sweep stops.
func (w *watchdog) start() {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.active++
	if w.stopCh != nil {
		return
	}
	stop := make(chan struct{})
	w.stopCh = stop
	go w.scanLoop(stop)
}

// stop releases one start; the scanning goroutine terminates when the last
// concurrent sweep has stopped.
func (w *watchdog) stop() {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.active > 0 {
		w.active--
	}
	if w.active == 0 && w.stopCh != nil {
		close(w.stopCh)
		w.stopCh = nil
	}
}

// scanLoop periodically sweeps the slots and cancels probes armed past the
// deadline.
func (w *watchdog) scanLoop(stop chan struct{}) {
	t := time.NewTicker(w.interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			now := time.Now()
			for i := range w.slots {
				s := &w.slots[i]
				s.mu.Lock()
				if s.cancel != nil && !s.stalled && now.Sub(s.armedAt) > w.deadline {
					s.stalled = true
					s.cancel()
					w.stalls.Add(1)
				}
				s.mu.Unlock()
			}
		}
	}
}

// Stalls returns how many times the watchdog fired.
func (w *watchdog) Stalls() int64 {
	if w == nil {
		return 0
	}
	return w.stalls.Load()
}

// errStallAbandoned wraps a probe the worker walked away from because its
// transport ignored cancellation past the grace period.
func errStallAbandoned(what string, cause error) error {
	return fmt.Errorf("core: %s abandoned by stall watchdog: %w", what, cause)
}
