package core

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dns"
	"repro/internal/dnsio"
	"repro/internal/ipam"
	"repro/internal/pdns"
	"repro/internal/simnet"
	"repro/internal/threatintel"
	transportpkg "repro/internal/transport"
	"repro/internal/websim"

	idspkg "repro/internal/ids"
	sbx "repro/internal/sandbox"
)

// Config wires URHunter to the world under measurement.
type Config struct {
	Fabric *simnet.Fabric
	IPDB   *ipam.DB
	Web    *websim.World

	// SrcAddr is the measurement vantage point.
	SrcAddr netip.Addr

	// Targets are the measured domains (the top-2K Tranco sites, plus the
	// case-study FQDNs under them).
	Targets []dns.Name
	// Nameservers are the measured provider servers (≥50 hosted top-1M
	// domains in the paper's selection).
	Nameservers []NameserverInfo
	// OpenResolvers are the worldwide vantage points for correct-record
	// collection.
	OpenResolvers []netip.Addr

	// DelegatedNS reports the current delegation of a domain, used to skip
	// exactly-delegated (domain, nameserver) pairs during collection.
	DelegatedNS func(domain dns.Name) []dns.Name

	// PDNS is the historical-delegation store (may be nil).
	PDNS *pdns.Store
	// Now anchors the six-year PDNS window.
	Now time.Time

	// Seed makes every randomized choice the collector itself introduces
	// (currently the protective-record canary name) a pure function of the
	// configuration, so two runs over the same world issue the same queries.
	Seed int64

	// Intel and IDS supply the §4.3 evidence; SandboxReports carries the
	// malware traffic the IDS inspects.
	Intel          *threatintel.Aggregator
	IDS            *idspkg.Engine
	SandboxReports []*sbx.Report

	// Parallelism bounds the collection worker pool. Zero or negative
	// selects runtime.GOMAXPROCS(0), i.e. one worker per available core.
	Parallelism int

	// DetermineWorkers bounds the overlapped pipeline's streaming
	// classification pool (§4.2/§4.3 per-record work). Zero or negative
	// inherits Parallelism's resolution. Any setting produces byte-identical
	// reports; this only tunes how many cores the determination tail uses.
	DetermineWorkers int

	// QueryTypes defaults to A and TXT, the paper's two sweeps.
	QueryTypes []dns.Type

	// PoliteInterval is the per-server minimum query spacing a real-world
	// run of this plan would honour (the ethics appendix commits to one
	// query per server every ~130 seconds on average). The simulation does
	// not sleep; the collector keeps the books so PoliteScanEstimate can
	// report the polite wall-clock. Zero selects the paper's 130 s.
	PoliteInterval time.Duration

	// Journal, when non-nil, checkpoints the sweep: workers append every
	// answered probe and failure-book entry to per-worker segment files,
	// and a journal opened over a prior (interrupted) run's directory
	// replays that state so already-answered probes are never re-queried.
	// See OpenJournal.
	Journal *Journal

	// Transport overrides the client transport. Nil selects the simulated
	// transport named by TransportKind; tests and real-network runs
	// substitute their own.
	Transport dnsio.Transport

	// TransportKind selects the wire transport for sweep exchanges when
	// Transport is nil: "" or "udp" (plain datagrams with TC fallback),
	// "dot", or "doh". The encrypted sim transports route through the same
	// fabric endpoints as plain UDP — identical chaos draws, identical
	// verdicts — and differ only in virtual-clock accounting, so the
	// transport is deliberately excluded from PlanHash. Journals still
	// record it (manifest "transport") and refuse cross-transport resume
	// and merge, because mixing timing models would corrupt coverage
	// accounting.
	TransportKind string

	// Watchdog tunes the per-worker stall watchdog. Nil selects the default
	// policy: active only over transports that can actually block — the
	// in-memory fabric completes synchronously and cannot stall a worker.
	Watchdog *WatchdogConfig

	// CollectOnly stops the pipeline after collection and journaling:
	// records are swept into Result.URs but never classified or analyzed.
	// Fleet workers run shards collect-only — determination needs the whole
	// plan's correct-record database, so it happens once, on the merged
	// journal, not per shard.
	CollectOnly bool

	// SkipServer, when non-nil, is consulted as each server unit (open
	// resolver or nameserver) comes up for sweeping; returning true drops
	// the unit without querying it. The check happens per job at dispatch
	// time — not when the plan is built — so a fleet worker can shed the
	// yielded tail of its shard mid-run. Skipped units still count toward
	// the plan hash: the journal stays mergeable with the journal of
	// whoever swept them instead.
	SkipServer func(netip.Addr) bool

	// ServerDone, when non-nil, observes each server unit whose sweep job
	// completed without error, from the worker goroutine that ran it. Fleet
	// workers use it to report shard progress; the callback must be safe
	// for concurrent use and fast (it runs on the sweep path).
	ServerDone func(netip.Addr)
}

func (c *Config) politeInterval() time.Duration {
	if c.PoliteInterval <= 0 {
		return 130 * time.Second
	}
	return c.PoliteInterval
}

func (c *Config) queryTypes() []dns.Type {
	if len(c.QueryTypes) == 0 {
		return []dns.Type{dns.TypeA, dns.TypeTXT}
	}
	return c.QueryTypes
}

func (c *Config) parallelism() int {
	if c.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Parallelism
}

func (c *Config) determineWorkers() int {
	if c.DetermineWorkers <= 0 {
		return c.parallelism()
	}
	return c.DetermineWorkers
}

// queryShards and probeShards shard the collector's two shared books so
// sweep workers on different servers/IPs never contend on one lock.
// Powers of two; the shard index is a mask away from the address hash.
const (
	queryShards = 32
	probeShards = 32
)

// addrShard hashes an address onto [0, n). n must be a power of two.
func addrShard(addr netip.Addr, n uint32) uint32 {
	a := addr.As16()
	h := uint32(2166136261)
	for _, b := range a[8:] {
		h = (h ^ uint32(b)) * 16777619
	}
	return h & (n - 1)
}

// queryShard is one slice of the per-server query accounting.
type queryShard struct {
	mu sync.Mutex
	n  map[netip.Addr]int64
}

// probeEntry is a singleflight slot for one IP's web probe: the first
// requester fills res and closes done; everyone else blocks on done instead
// of issuing a duplicate probe.
type probeEntry struct {
	done chan struct{}
	res  websim.ProbeResult
}

// probeShard is one slice of the probe cache.
type probeShard struct {
	mu sync.Mutex
	m  map[netip.Addr]*probeEntry
}

// Collector implements §4.1: response collection.
type Collector struct {
	cfg    *Config
	client *dnsio.Client

	queries   atomic.Int64
	perServer [queryShards]queryShard
	probes    [probeShards]probeShard
	// cov is the sharded coverage book: per-server attempted/answered tallies
	// plus the failure records feeding the end-of-sweep re-queue pass.
	cov [covShards]covShard

	// probeFn indirects websim.World.Probe so tests can count or stub the
	// expensive web fetch; nil when the config carries no web world.
	probeFn func(src, dst netip.Addr) websim.ProbeResult

	// journal is the optional checkpoint store; skip marks every probe the
	// journal replayed so workers never re-query it. Each sweep's replay
	// builds its slice of the map single-threaded at that sweep's start, but
	// the overlapped pipeline runs the correct sweep concurrently with the
	// fused nameserver sweep, so skipMu covers the build/lookup overlap.
	journal *Journal
	skipMu  sync.RWMutex
	skip    map[probeKey]struct{}
	// hasSkip publishes "the skip set is non-empty" without a lock, so the
	// per-probe replayed() check on a fresh (non-resumed) journaled run is a
	// single atomic load. Set under skipMu by replaySweep.
	hasSkip atomic.Bool

	// in interns UR identity strings (rdata) so a sweep holds one canonical
	// instance of each distinct value; see intern.go.
	in *interner

	// deleg memoizes the per-target delegated-host set (the ancestor walk
	// over cfg.DelegatedNS), built once on first use instead of copying
	// delegation slices on every (server, target) probe.
	delegOnce sync.Once
	deleg     map[dns.Name]map[dns.Name]bool

	// wd is the stall watchdog; nil when the transport cannot stall.
	wd *watchdog

	// nsInfo lazily indexes nameserver metadata by address so journal
	// replay can restore full NameserverInfo from the stored probe keys.
	nsInfoOnce sync.Once
	nsInfo     map[netip.Addr]NameserverInfo
}

// transportKind normalizes the configured kind; unknown values surface as
// errors at journal-open and pipeline-construction time via ParseKind.
func (c *Config) transportKind() transportpkg.Kind {
	k, err := transportpkg.ParseKind(c.TransportKind)
	if err != nil {
		// An invalid kind is a programmer/flag-validation error, not a
		// runtime condition; the CLIs validate before building a config.
		panic(err)
	}
	return k
}

// newSimTransport builds the configured simulated transport.
func (c *Config) newSimTransport() dnsio.Transport {
	t, err := transportpkg.NewSim(c.transportKind(), c.Fabric, c.SrcAddr)
	if err != nil {
		panic(err)
	}
	return t
}

// NewCollector builds a collector over the configured fabric.
func NewCollector(cfg *Config) *Collector {
	transport := cfg.Transport
	if transport == nil {
		transport = cfg.newSimTransport()
	}
	client := dnsio.NewClient(transport)
	client.Retries = 1
	client.SeedIDs(0x5eed)
	// Backoff jitter follows the config seed so two runs over the same world
	// book identical virtual wall-clock even under chaos.
	client.Backoff.JitterSeed = uint64(cfg.Seed)
	c := &Collector{cfg: cfg, client: client, journal: cfg.Journal, in: newInterner()}
	for i := range c.perServer {
		c.perServer[i].n = make(map[netip.Addr]int64)
	}
	for i := range c.probes {
		c.probes[i].m = make(map[netip.Addr]*probeEntry)
	}
	for i := range c.cov {
		c.cov[i].per = make(map[netip.Addr]*serverCov)
	}
	if cfg.Web != nil {
		c.probeFn = cfg.Web.Probe
	}
	// The watchdog only matters over transports that can block a worker;
	// the fabric is synchronous, so by default it stays off there (Force
	// overrides, for tests). Pipeline.Run's two sweeps run concurrently and
	// never share a slot: the correct sweep's workers hold [0, P) and its
	// re-queue pass 2P, the fused nameserver sweep's workers [P, 2P) and its
	// re-queue pass 2P+1 — 2P+2 slots in all.
	if !dnsio.IsInstant(transport) || (cfg.Watchdog != nil && cfg.Watchdog.Force) {
		c.wd = newWatchdog(2*cfg.parallelism()+2, c.probeBudget(), cfg.Watchdog)
	}
	return c
}

// probeBudget estimates the worst-case virtual-clock budget of one probe:
// every attempt's timeout plus the maximum backoff between attempts. The
// watchdog's stall deadline is a multiple of this.
func (c *Collector) probeBudget() time.Duration {
	attempts := c.client.Retries + 1
	if attempts < 1 {
		attempts = 1
	}
	per := c.client.Timeout
	if per <= 0 {
		per = 3 * time.Second
	}
	budget := time.Duration(attempts) * per
	if c.client.Backoff.Max > 0 {
		budget += time.Duration(attempts-1) * c.client.Backoff.Max
	}
	return budget
}

// newSegment opens a journal segment for one worker, or returns nil when
// journaling is off.
func (c *Collector) newSegment() (*segmentWriter, error) {
	if c.journal == nil {
		return nil, nil
	}
	return c.journal.acquireSegment()
}

// releaseSegment flushes and parks a worker's segment writer at sweep end;
// nil-safe for unjournaled sweeps. Flush errors only shorten the journal
// tail (those probes re-query on resume), so they don't fail the sweep.
func (c *Collector) releaseSegment(seg *segmentWriter) {
	if seg != nil {
		_ = c.journal.releaseSegment(seg)
	}
}

// nsInfoFor restores full nameserver metadata for a journaled probe key.
// Open resolvers carry address-only info, same as the live sweep builds.
func (c *Collector) nsInfoFor(addr netip.Addr) NameserverInfo {
	c.nsInfoOnce.Do(func() {
		c.nsInfo = make(map[netip.Addr]NameserverInfo, len(c.cfg.Nameservers))
		for _, ns := range c.cfg.Nameservers {
			c.nsInfo[ns.Addr] = ns
		}
	})
	if ns, ok := c.nsInfo[addr]; ok {
		return ns
	}
	return NameserverInfo{Addr: addr}
}

// replayed reports whether the journal already holds this probe's outcome.
// The hasSkip fast path keeps fresh journaled runs (nothing to resume, the
// common case) from paying a per-probe RLock: a sweep's own replaySweep
// completes — and publishes hasSkip — before that sweep's workers launch, so
// a false load can only be observed when this sweep replayed nothing.
func (c *Collector) replayed(kind sweepKind, server netip.Addr, domain dns.Name, qt dns.Type) bool {
	if !c.hasSkip.Load() {
		return false
	}
	c.skipMu.RLock()
	defer c.skipMu.RUnlock()
	_, ok := c.skip[probeKey{sweep: kind, server: server, domain: domain, qtype: qt}]
	return ok
}

// replaySweep folds one sweep's journaled outcomes back into the books
// before the live pass: answered probes re-enter through onAnswer — the
// same fold the live path uses, so a resumed report is byte-identical —
// failures are refiled for the re-queue pass, and every replayed key is
// marked so workers skip it. Runs single-threaded at sweep start.
func (c *Collector) replaySweep(kind sweepKind, onAnswer func(ns NameserverInfo, domain dns.Name, qt dns.Type, resp *dns.Message)) {
	if c.journal == nil || c.journal.rs == nil {
		return
	}
	rs := c.journal.rs
	c.skipMu.Lock()
	defer c.skipMu.Unlock()
	if c.skip == nil {
		c.skip = make(map[probeKey]struct{}, len(rs.answered)+len(rs.failed))
	}
	type tally struct{ att, ans, rec int64 }
	per := make(map[netip.Addr]*tally)
	bump := func(addr netip.Addr) *tally {
		t := per[addr]
		if t == nil {
			t = &tally{}
			per[addr] = t
		}
		return t
	}
	for key, raw := range rs.answered {
		if key.sweep != kind {
			continue
		}
		resp, err := dns.Unpack(raw)
		if err != nil {
			// CRC-clean but undecodable: do not trust it, do not skip it —
			// the probe is simply re-queried by the live pass.
			continue
		}
		c.skip[key] = struct{}{}
		t := bump(key.server)
		t.att++
		t.ans++
		if _, hadFailed := rs.failed[key]; hadFailed {
			t.rec++
		}
		onAnswer(c.nsInfoFor(key.server), key.domain, key.qtype, resp)
	}
	for key, class := range rs.failed {
		if key.sweep != kind {
			continue
		}
		if _, ok := rs.answered[key]; ok {
			continue // recovered: handled above
		}
		c.skip[key] = struct{}{}
		bump(key.server).att++
		c.refile(probeFailure{
			ns: c.nsInfoFor(key.server), domain: key.domain, qtype: key.qtype,
			class: class, sweep: kind,
		})
	}
	for addr, t := range per {
		c.bookReplay(addr, t.att, t.ans, t.rec)
	}
	if len(c.skip) > 0 {
		c.hasSkip.Store(true)
	}
}

// probeQuery issues one probe under the stall watchdog (when active). The
// watchdog cancels a probe stuck past the deadline; a transport that
// ignores even cancellation is abandoned after a grace period so the worker
// keeps the sweep moving either way.
//
// The answered response's wire bytes come back alongside the decoded
// message, so a journaled sweep records exactly what the server sent
// without re-packing it; they are valid only until the next probe.
func (c *Collector) probeQuery(ctx context.Context, slot *stallSlot, server netip.AddrPort, name dns.Name, qt dns.Type) (*dns.Message, []byte, dnsio.FailClass, error) {
	if c.wd == nil || slot == nil {
		resp, wire, err := c.client.QueryWire(ctx, server, name, qt)
		return resp, wire, dnsio.Classify(err), err
	}
	pctx, cancel := slot.arm(ctx)
	defer cancel()
	type qres struct {
		resp *dns.Message
		wire []byte
		err  error
	}
	ch := make(chan qres, 1)
	go func() {
		resp, wire, err := c.client.QueryWire(pctx, server, name, qt)
		ch <- qres{resp, wire, err}
	}()
	finish := func(r qres) (*dns.Message, []byte, dnsio.FailClass, error) {
		stalled := slot.disarm()
		if stalled && r.err != nil {
			return nil, nil, dnsio.FailStalled, r.err
		}
		return r.resp, r.wire, dnsio.Classify(r.err), r.err
	}
	select {
	case r := <-ch:
		return finish(r)
	case <-pctx.Done():
		// Cancelled — by the watchdog (stall) or the parent context. Give
		// the in-flight query a grace period to unwind, then walk away.
		grace := time.NewTimer(c.wd.grace)
		defer grace.Stop()
		select {
		case r := <-ch:
			return finish(r)
		case <-grace.C:
			stalled := slot.disarm()
			err := errStallAbandoned(fmt.Sprintf("probe %s %s/%d", server, name, uint16(qt)), pctx.Err())
			class := dnsio.FailStalled
			if !stalled {
				class = dnsio.Classify(pctx.Err())
			}
			return nil, nil, class, err
		}
	}
}

// Queries returns the number of DNS queries issued so far.
func (c *Collector) Queries() int64 {
	return c.queries.Load()
}

// addQueries books n queries against one server. Workers call it once per
// (server, sweep) batch rather than once per query, so the shard lock is
// touched a handful of times per server instead of millions of times per
// run.
func (c *Collector) addQueries(server netip.Addr, n int64) {
	if n == 0 {
		return
	}
	c.queries.Add(n)
	s := &c.perServer[addrShard(server, queryShards)]
	s.mu.Lock()
	s.n[server] += n
	s.mu.Unlock()
}

// PoliteScanEstimate reports the wall-clock a real-world run of the executed
// query plan would take under the ethics appendix's per-server pacing: the
// busiest server's query count times the polite interval (servers are
// queried in parallel, so the busiest one gates the scan).
func (c *Collector) PoliteScanEstimate() time.Duration {
	var max int64
	for i := range c.perServer {
		s := &c.perServer[i]
		s.mu.Lock()
		for _, n := range s.n {
			if n > max {
				max = n
			}
		}
		s.mu.Unlock()
	}
	return time.Duration(max) * c.cfg.politeInterval()
}

// sweepServers is the sweep engine's one worker pool: it runs job once per
// server unit on Parallelism workers, worker w holding watchdog slot
// slotBase+w and one journal segment for its whole life. Each job's tallies
// are booked when it returns, error or not. Units the SkipServer hook drops
// are never dispatched; ServerDone hears of every unit whose job returned
// nil. The first job (or segment) error stops the feed and is returned once
// the workers have drained the queue; so is a cancellation that lands
// between jobs, which starves the pool without any worker seeing it.
func (c *Collector) sweepServers(ctx context.Context, units []NameserverInfo, slotBase int, job func(j *serverJob) error) error {
	jobs := make(chan NameserverInfo)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	var stop atomic.Bool

	for w := 0; w < c.cfg.parallelism(); w++ {
		wg.Add(1)
		go func(slot *stallSlot) {
			defer wg.Done()
			seg, err := c.newSegment()
			if seg != nil {
				defer c.releaseSegment(seg)
			}
			if err != nil {
				stop.Store(true)
			}
			for ns := range jobs {
				if err != nil {
					continue // keep draining so the feeder never blocks
				}
				if skip := c.cfg.SkipServer; skip != nil && skip(ns.Addr) {
					continue
				}
				j := &serverJob{c: c, ns: ns, server: netip.AddrPortFrom(ns.Addr, dnsio.DNSPort), seg: seg, slot: slot}
				err = job(j)
				j.book()
				if err != nil {
					stop.Store(true)
				} else if done := c.cfg.ServerDone; done != nil {
					done(ns.Addr)
				}
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(c.wd.slot(slotBase + w))
	}

	// Feed until the list is exhausted, the context is cancelled, or a
	// worker flags a fatal error. Selecting on ctx.Done() keeps cancellation
	// prompt: the feeder must stop, not queue every remaining server at a
	// drained pool.
	done := ctx.Done()
feed:
	for _, ns := range units {
		if stop.Load() {
			break
		}
		select {
		case jobs <- ns:
		case <-done:
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return firstErr
}

// serverJob is one server unit's sweep job: the worker's journal segment
// and watchdog slot, plus the probe tallies and failure records booked once
// when the job ends.
type serverJob struct {
	c      *Collector
	ns     NameserverInfo
	server netip.AddrPort
	seg    *segmentWriter
	slot   *stallSlot

	issued, attempted, answered, recovered int64
	fails                                  []probeFailure
}

// book files the job's tallies and failure records with the collector.
func (j *serverJob) book() {
	j.c.addQueries(j.ns.Addr, j.issued)
	j.c.bookSweep(j.ns.Addr, j.attempted, j.answered, j.recovered, j.fails)
}

// probe is the sweep's one first-pass probe step. A probe the journal
// already holds is skipped; otherwise it is issued and tallied, and a
// failure is filed for the re-queue pass while an answer is returned for
// the caller to fold. Either outcome is journaled. resp is nil when there is
// nothing to fold; err is non-nil only when the sweep must stop (the
// context ended or a journal write failed).
func (j *serverJob) probe(ctx context.Context, kind sweepKind, domain dns.Name, qt dns.Type) (*dns.Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c, addr := j.c, j.ns.Addr
	if c.replayed(kind, addr, domain, qt) {
		return nil, nil
	}
	j.issued++
	j.attempted++
	resp, wire, class, err := c.probeQuery(ctx, j.slot, j.server, domain, qt)
	if err != nil {
		j.fails = append(j.fails, probeFailure{ns: j.ns, domain: domain, qtype: qt, class: class, sweep: kind})
		if j.seg != nil {
			return nil, j.seg.failure(kind, addr, domain, qt, class)
		}
		return nil, nil
	}
	j.answered++
	if j.seg != nil {
		if err := j.seg.answered(kind, addr, domain, qt, wire); err != nil {
			return nil, err
		}
	}
	return resp, nil
}

// requeue re-runs one sweep's failed probes after the main pass, in
// canonical order so the extra query plan is deterministic, on the caller
// goroutine under the given watchdog spare slot (each concurrently running
// sweep has its own). Recovered probes are booked and handed to onAnswer;
// probes that fail again are refiled with their new failure class
// (still-open breakers fail fast without touching the fabric).
func (c *Collector) requeue(ctx context.Context, kind sweepKind, slot *stallSlot, onAnswer func(f probeFailure, resp *dns.Message)) error {
	fails := c.drainFailures(kind)
	if len(fails) == 0 {
		return nil
	}
	seg, segErr := c.newSegment()
	if segErr != nil {
		for _, f := range fails {
			c.refile(f)
		}
		return segErr
	}
	if seg != nil {
		defer c.releaseSegment(seg)
	}
	sortFailures(fails)
	var lastAddr netip.Addr
	var issued int64
	flush := func() {
		if issued > 0 {
			c.addQueries(lastAddr, issued)
			issued = 0
		}
	}
	defer flush()
	rest, err := c.retry(ctx, kind, seg, slot, fails, func(f probeFailure, resp *dns.Message) {
		if f.ns.Addr != lastAddr {
			flush()
			lastAddr = f.ns.Addr
		}
		issued++
		if resp == nil {
			c.refile(f)
			return
		}
		c.bookRecovered(f.ns.Addr)
		onAnswer(f, resp)
	})
	for _, f := range rest {
		c.refile(f)
	}
	return err
}

// retry is the sweep's one retry step: it re-issues each failed probe once,
// in order, on the calling goroutine under slot, and journals each outcome
// to seg when journaling. settle books every issued probe as soon as its
// exchange ends, before the outcome is journaled: resp is the answer, or nil
// when the probe failed again, with its new failure class in f.class. When
// the context ends or a journal write fails, retry stops and returns the
// probes it never issued, unchanged, for the caller to keep.
func (c *Collector) retry(ctx context.Context, kind sweepKind, seg *segmentWriter, slot *stallSlot, fails []probeFailure, settle func(f probeFailure, resp *dns.Message)) ([]probeFailure, error) {
	for i, f := range fails {
		if err := ctx.Err(); err != nil {
			return fails[i:], err
		}
		server := netip.AddrPortFrom(f.ns.Addr, dnsio.DNSPort)
		resp, wire, class, err := c.probeQuery(ctx, slot, server, f.domain, f.qtype)
		if err != nil {
			f.class, resp = class, nil
		}
		settle(f, resp)
		if seg == nil {
			continue
		}
		var jerr error
		if err != nil {
			jerr = seg.failure(kind, f.ns.Addr, f.domain, f.qtype, class)
		} else {
			jerr = seg.answered(kind, f.ns.Addr, f.domain, f.qtype, wire)
		}
		if jerr != nil {
			return fails[i+1:], jerr
		}
	}
	return nil, nil
}

// sortURs puts a UR set into its canonical order: server address, then
// domain, type, rdata, and TTL. Collection order depends on worker
// scheduling; the canonical order does not.
func sortURs(urs []*UR) {
	sort.Slice(urs, func(i, j int) bool {
		a, b := urs[i], urs[j]
		if cmp := a.Server.Addr.Compare(b.Server.Addr); cmp != 0 {
			return cmp < 0
		}
		if a.Domain != b.Domain {
			return a.Domain < b.Domain
		}
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		if a.RData != b.RData {
			return a.RData < b.RData
		}
		return a.TTL < b.TTL
	})
}

// ursFromResponse extracts this probe's undelegated records from a NOERROR
// response and appends them to out. RData is interned: the same record served
// by many nameservers (the common hosting-provider case) collapses to one
// canonical string, which both trims live heap and makes the determiner's
// memo-map lookups pointer-equality fast.
func (c *Collector) ursFromResponse(ns NameserverInfo, domain dns.Name, qt dns.Type, resp *dns.Message, out []*UR) []*UR {
	if resp.Header.RCode != dns.RCodeSuccess {
		return out
	}
	for _, rr := range resp.Answers {
		if rr.Type() != qt || rr.Name != domain {
			continue
		}
		out = append(out, &UR{
			Server: ns,
			Domain: domain,
			Type:   qt,
			RData:  c.in.intern(rr.Data.String()),
			TTL:    rr.TTL,
		})
	}
	return out
}

// shuffledTargets returns the target list in a server-specific pseudo-random
// order, deterministic in the server address. The shuffle is an inline
// splitmix64 Fisher-Yates: math/rand's lagged-Fibonacci source initializes
// ~5 KiB of state per Seed call, which profiles as several percent of a
// clean sweep when paid once per server.
func (c *Collector) shuffledTargets(server netip.Addr) []dns.Name {
	out := make([]dns.Name, len(c.cfg.Targets))
	copy(out, c.cfg.Targets)
	x := uint64(0)
	for _, b := range server.AsSlice() {
		x = x*131 + uint64(b)
	}
	for i := len(out) - 1; i > 0; i-- {
		x += 0x9e3779b97f4a7c15
		z := x
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		j := int(z % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// isExactlyDelegated reports whether the target — or an ancestor it
// resolves under — is delegated to this nameserver host. FQDN targets
// (api.gitlab.com) served by their SLD's delegated server are normal
// resolution, not undelegated records.
//
// The ancestor walk over cfg.DelegatedNS — which typically snapshots a
// registry delegation slice per call — runs once per target here, not once
// per (server, target) probe; every probe after that is a two-map lookup.
func (c *Collector) isExactlyDelegated(target dns.Name, ns NameserverInfo) bool {
	c.delegOnce.Do(func() {
		if c.cfg.DelegatedNS == nil {
			return
		}
		c.deleg = make(map[dns.Name]map[dns.Name]bool, len(c.cfg.Targets))
		for _, t := range c.cfg.Targets {
			hosts := make(map[dns.Name]bool)
			for n := t; n != dns.Root; n = n.Parent() {
				for _, host := range c.cfg.DelegatedNS(n) {
					hosts[host] = true
				}
			}
			c.deleg[t] = hosts
		}
	})
	return c.deleg[target][ns.Host]
}

// enrichOne enriches a single record; the overlapped pipeline's determine
// workers call it per streamed record so enrichment overlaps the sweep tail.
// Safe concurrently: IPDB lookups are read-only and the web probe cache is a
// singleflight.
func (c *Collector) enrichOne(u *UR) {
	switch u.Type {
	case dns.TypeA:
		addr, err := netip.ParseAddr(u.RData)
		if err != nil {
			return
		}
		u.CorrespondingIPs = []netip.Addr{addr}
		if info, ok := c.cfg.IPDB.Lookup(addr); ok {
			u.ASN, u.ASName, u.Country = info.ASN, info.ASName, info.Country
		}
		if c.probeFn != nil {
			u.HTTP = c.probe(addr)
			u.Cert = u.HTTP.Cert
		}
	case dns.TypeTXT:
		u.TXTClass = ClassifyTXT(u.RData)
		u.CorrespondingIPs = extractIPs(u.RData)
	default:
		// MX and other extension types: rdata names a host rather than
		// an address; any embedded literal IPs still count as
		// correspondence evidence.
		u.CorrespondingIPs = extractIPs(u.RData)
	}
}

// probe fetches (with caching) the HTTP/TLS enrichment for an IP. Concurrent
// callers for the same IP coalesce onto a single fetch: the first locks in a
// singleflight entry and probes, the rest wait for its result.
func (c *Collector) probe(addr netip.Addr) websim.ProbeResult {
	s := &c.probes[addrShard(addr, probeShards)]
	s.mu.Lock()
	if e, ok := s.m[addr]; ok {
		s.mu.Unlock()
		<-e.done
		return e.res
	}
	e := &probeEntry{done: make(chan struct{})}
	s.m[addr] = e
	s.mu.Unlock()
	e.res = c.probeFn(c.cfg.SrcAddr, addr)
	close(e.done)
	return e.res
}

// collectCorrect builds the legitimate-record database by querying the open
// resolvers for every target's A and TXT records and folding in enrichment —
// the geo-distributed correct-record collection of §4.1(2). It runs
// concurrently with the fused nameserver sweep, so its workers take watchdog
// slots [0, P) and its re-queue pass the spare slot 2P.
func (c *Collector) collectCorrect(ctx context.Context) (*CorrectDB, error) {
	db := NewCorrectDB()
	c.replaySweep(sweepCorrect, func(_ NameserverInfo, domain dns.Name, _ dns.Type, resp *dns.Message) {
		c.addCorrectAnswers(db, domain, resp)
	})
	c.wd.start()
	defer c.wd.stop()

	resolvers := make([]NameserverInfo, len(c.cfg.OpenResolvers))
	for i, addr := range c.cfg.OpenResolvers {
		resolvers[i] = NameserverInfo{Addr: addr}
	}
	err := c.sweepServers(ctx, resolvers, 0, func(j *serverJob) error {
		return c.collectCorrectVia(ctx, db, j)
	})
	if err != nil {
		return nil, err
	}
	err = c.requeue(ctx, sweepCorrect, c.wd.slot(2*c.cfg.parallelism()), func(f probeFailure, resp *dns.Message) {
		c.addCorrectAnswers(db, f.domain, resp)
	})
	if err != nil {
		return nil, err
	}
	return db, nil
}

func (c *Collector) collectCorrectVia(ctx context.Context, db *CorrectDB, j *serverJob) error {
	for _, target := range c.shuffledTargets(j.ns.Addr) {
		for _, qt := range c.cfg.queryTypes() {
			resp, err := j.probe(ctx, sweepCorrect, target, qt)
			if err != nil {
				return err
			}
			if resp != nil {
				c.addCorrectAnswers(db, target, resp)
			}
		}
	}
	return nil
}

// addCorrectAnswers folds one open-resolver response into the
// legitimate-record database, with the same enrichment either way the
// response arrived (main sweep or re-queue pass).
func (c *Collector) addCorrectAnswers(db *CorrectDB, target dns.Name, resp *dns.Message) {
	if resp.Header.RCode != dns.RCodeSuccess {
		return
	}
	profile := db.Profile(target)
	for _, rr := range resp.Answers {
		switch data := rr.Data.(type) {
		case *dns.A:
			var asn ipam.ASN
			var country, certFP string
			if info, ok := c.cfg.IPDB.Lookup(data.Addr); ok {
				asn, country = info.ASN, info.Country
			}
			if c.probeFn != nil {
				if res := c.probe(data.Addr); res.Cert != nil {
					certFP = res.Cert.Fingerprint
				}
			}
			profile.AddA(data.Addr, asn, country, certFP)
		case *dns.TXT:
			profile.AddTXT(rr.Data.String())
		default:
			profile.AddOther(rr.Type(), rr.Data.String())
		}
	}
}

// CanaryName derives the protective-record canary from the config seed: a
// domain no provider hosts, stable across runs of the same configured world
// so repeated collections issue identical query plans.
func (c *Config) CanaryName() dns.Name {
	return dns.Name(fmt.Sprintf("urhunter-canary-%d.test", uint64(c.Seed)%1_000_000))
}

// addProtectiveAnswers folds one canary response into the protective-record
// database.
func addProtectiveAnswers(db *ProtectiveDB, server netip.Addr, qt dns.Type, resp *dns.Message) {
	if resp.Header.RCode != dns.RCodeSuccess {
		return
	}
	for _, rr := range resp.Answers {
		if rr.Type() == qt {
			db.Add(server, qt, rr.Data.String())
		}
	}
}
