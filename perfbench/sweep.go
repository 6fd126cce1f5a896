package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dns"
	"repro/internal/dnsio"
	"repro/internal/fleet"
	"repro/internal/urwatch"
)

// feedApex is urwatchd's default zone apex.
const feedApex = dns.Name("feed.urwatch.test")

// env is one workload's set-up: a warmed world, the warm-up sweep's result
// (the reference every timed sweep must reproduce), and the feed listener.
type env struct {
	opts   options
	world  *repro.World
	warm   *core.Result
	digest [32]byte
	setupS float64

	// probes and sweepAnswered are the timed sweeps' plan size and the
	// answered share of it.
	probes        int64
	sweepAnswered float64

	store *urwatch.Store
	gen   *urwatch.Generation
	cache *urwatch.ResponseCache
	zr    *urwatch.ZoneResponder
	srv   *dnsio.Server
	feed  *feedIndex

	heap heapPeak
}

// setup generates the world, runs the warm-up sweep (the simulated
// resolvers fill their caches on the first sweep of a fresh world; that
// cost belongs to the simulator, not to URHunter), seals its verdicts into
// generation 1 and starts the feed listener. All of it is set-up time.
func setup(ctx context.Context, opts options, chk *checks) (*env, error) {
	t0 := time.Now()
	w, err := repro.GenerateWorld(opts.scale, worldSeed)
	if err != nil {
		return nil, fmt.Errorf("generate world: %w", err)
	}
	if opts.wl.chaos {
		if n := repro.ApplyDeterministicChaos(w); n == 0 {
			return nil, fmt.Errorf("chaos: world has no nameservers to fault")
		}
	}
	warm, err := repro.NewPipeline(w).Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("warm-up sweep: %w", err)
	}
	e := &env{opts: opts, world: w, warm: warm,
		probes: warm.Coverage.Attempted, sweepAnswered: warm.Coverage.AnsweredRatio()}
	if e.digest, err = reportDigest(warm); err != nil {
		return nil, err
	}
	e.gen = urwatch.SnapshotFromResult(warm, 1, time.Unix(0, 0))
	e.store = urwatch.NewStore()
	e.store.Publish(e.gen)
	e.cache = urwatch.NewResponseCache(urwatch.DefaultCacheCap)
	e.zr = &urwatch.ZoneResponder{
		Apex:    feedApex,
		Store:   e.store,
		Cache:   e.cache,
		Metrics: urwatch.NewMetrics(),
	}
	e.srv = dnsio.NewServer(e.zr)
	if err := e.srv.Start("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("start feed listener: %w", err)
	}
	e.setupS = time.Since(t0).Seconds()
	e.feed = indexFeed(e.gen)
	if len(e.feed.domains) == 0 {
		chk.fail("warm-up sweep produced an empty feed")
	}
	return e, nil
}

// dropWorld releases the simulated Internet and the sweep results before
// serving, so the serving process retains what urwatchd retains between
// sweeps: the store and its generations. The freed memory goes back to the
// OS here rather than under the background scavenger during serving, where
// its page releases showed up as latency.
func (e *env) dropWorld() {
	e.world, e.warm = nil, nil
	debug.FreeOSMemory()
}

func (e *env) close() {
	if e.srv != nil {
		e.srv.Close()
	}
}

// reportDigest hashes the sweep's user-visible report: Table 1 plus the full
// UR CSV export.
func reportDigest(res *core.Result) ([32]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(repro.RenderTable1(res))
	if err := repro.WriteCSV(&buf, res, false); err != nil {
		return [32]byte{}, fmt.Errorf("export CSV: %w", err)
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// checkSweep compares a timed sweep's report against the warm-up's.
func (e *env) checkSweep(chk *checks, what string, res *core.Result) {
	chk.attempted++
	d, err := reportDigest(res)
	if err != nil {
		chk.failed++
		chk.fail("%s: %v", what, err)
		return
	}
	if d != e.digest {
		chk.failed++
		chk.fail("%s: report differs from the warm-up sweep's (answered %d/%d vs %d/%d)",
			what, res.Coverage.Answered, res.Coverage.Attempted,
			e.warm.Coverage.Answered, e.warm.Coverage.Attempted)
	}
}

// timedSweeps runs the workload's sweeps until its share of --seconds is
// spent (and at least minSweeps ran), checking each report, and returns the
// wall times in seconds.
func timedSweeps(ctx context.Context, e *env, chk *checks) ([]float64, error) {
	budget := time.Duration(sweepShare * e.opts.seconds * float64(time.Second))
	t0 := time.Now()
	var walls []float64
	for len(walls) < e.opts.wl.minSweeps || time.Since(t0) < budget {
		res, wall, err := e.sweepOnce(ctx, nil)
		if err != nil {
			return nil, err
		}
		walls = append(walls, wall.Seconds())
		e.checkSweep(chk, fmt.Sprintf("sweep %d", len(walls)), res)
		e.sweepAnswered = res.Coverage.AnsweredRatio()
		e.heap.sample()
		runtime.KeepAlive(res)
	}
	return walls, nil
}

// sweepOnce runs one sweep in the workload's mode. A non-nil tr replaces the
// sweep's transport (the traced run's timing wrapper).
func (e *env) sweepOnce(ctx context.Context, tr dnsio.Transport) (*core.Result, time.Duration, error) {
	if e.opts.wl.fleet {
		fr, err := e.fleetSweep(ctx, tr, nil)
		if err != nil {
			return nil, 0, err
		}
		return fr.res, fr.shardSweep + fr.finish, nil
	}
	cfg := e.world.URHunterConfig()
	if tr != nil {
		cfg.Transport = tr
	}
	t0 := time.Now()
	res, err := core.NewPipeline(cfg).Run(ctx)
	wall := time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("sweep: %w", err)
	}
	return res, wall, nil
}

// fleetWorkers is the in-process worker count of the fleet workloads: one
// per core of the 2-core reference host, each sweeping at Parallelism 1.
const fleetWorkers = 2

type fleetRun struct {
	res        *core.Result
	shardSweep time.Duration
	finish     time.Duration
	dir        string
	shardDirs  []string
}

// fleetSweep runs one sharded sweep: a coordinator and fleetWorkers
// in-process workers over loopback TCP, each worker writing a shard journal,
// then Finish (merge, replay, determine, analyze). Timing starts when the
// coordinator is built and ends when Finish returns. Coordinator and workers
// share the warmed world; the deterministic chaos is sequence-independent,
// so sharing changes no outcome. keep, when non-nil, is called with the run
// before its directory is removed.
func (e *env) fleetSweep(ctx context.Context, tr dnsio.Transport, keep func(*fleetRun) error) (*fleetRun, error) {
	dir, err := e.scratchDir("fleet-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg := func() *core.Config {
		c := e.world.URHunterConfig()
		if tr != nil {
			c.Transport = tr
		}
		return c
	}
	t0 := time.Now()
	co, err := fleet.NewCoordinator(cfg(), fleet.CoordOptions{Dir: dir, Shards: fleetWorkers})
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if err := co.Listen("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- co.Run(ctx) }()
	var wg sync.WaitGroup
	workerErrs := make([]error, fleetWorkers)
	for i := 0; i < fleetWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErrs[i] = fleet.RunWorker(ctx, co.Addr().String(), cfg(),
				fleet.WorkerOptions{Name: fmt.Sprintf("w%d", i), Parallelism: 1})
		}(i)
	}
	wg.Wait()
	if err := <-runErr; err != nil {
		return nil, fmt.Errorf("fleet: coordinator: %w", err)
	}
	for i, err := range workerErrs {
		if err != nil {
			return nil, fmt.Errorf("fleet: worker %d: %w", i, err)
		}
	}
	t1 := time.Now()
	res, err := co.Finish(ctx)
	if err != nil {
		return nil, fmt.Errorf("fleet: finish: %w", err)
	}
	fr := &fleetRun{res: res, shardSweep: t1.Sub(t0), finish: time.Since(t1), dir: dir}
	if keep != nil {
		if err := keep(fr); err != nil {
			return nil, err
		}
	}
	return fr, nil
}
