package main

import (
	"context"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dns"
	"repro/internal/dnsio"
	"repro/internal/urwatch"
)

// The traced run times the calls the benchmark makes into each layer's
// public functions and reports the per-layer ledger. Spans inside the
// program are not recorded: a layer the benchmark cannot call on its own
// (the client codec inside a sweep, say) is priced by replaying the same
// inputs through that layer's public functions after the run.

// paperExchanges is the paper's URHunter sweep: 8,941 nameservers × the
// top-2K domains × {A, TXT}.
const paperExchanges = 8941 * 2000 * 2

// captureEvery samples one exchange in this many: its response joins the
// codec replay corpus and the exchange itself the simnet replay.
const captureEvery = 16

// timingTransport wraps the sweep's simulated transport and counts every
// exchange: the simulated Internet (authority, hosting and resolver
// servers, their codec included) runs inside it. It forwards Instant and
// SleepVirtual, so the traced sweep keeps the untraced code path: no stall
// watchdog, backoff on the virtual clock.
//
// Time inside the wrapper is not a CPU figure: the sweep's 8 workers share
// 2 cores and the fabric's locks, so a worker inside Exchange is often
// waiting. The CPU cost is priced after the sweep by replaying the sampled
// exchanges on one thread (see replaySimnet).
type timingTransport struct {
	inner     *dnsio.SimTransport
	resolvers map[netip.Addr]bool

	exchanges, tcp    atomic.Int64
	resolverExchanges atomic.Int64
	bytesIn, bytesOut atomic.Int64

	mu       sync.Mutex
	captured [][]byte
	sampled  []sampledExchange
}

type sampledExchange struct {
	server   netip.AddrPort
	query    []byte
	tcp      bool
	resolver bool
}

func newTimingTransport(cfg *core.Config) *timingTransport {
	t := &timingTransport{
		inner:     &dnsio.SimTransport{Fabric: cfg.Fabric, Src: cfg.SrcAddr},
		resolvers: make(map[netip.Addr]bool, len(cfg.OpenResolvers)),
	}
	for _, r := range cfg.OpenResolvers {
		t.resolvers[r] = true
	}
	return t
}

func (t *timingTransport) Exchange(ctx context.Context, server netip.AddrPort, packed []byte, tcp bool) ([]byte, error) {
	resp, err := t.inner.Exchange(ctx, server, packed, tcp)
	n := t.exchanges.Add(1)
	resolver := t.resolvers[server.Addr()]
	if resolver {
		t.resolverExchanges.Add(1)
	}
	if tcp {
		t.tcp.Add(1)
	}
	t.bytesOut.Add(int64(len(packed)))
	t.bytesIn.Add(int64(len(resp)))
	if n%captureEvery == 0 {
		x := sampledExchange{server: server, query: append([]byte(nil), packed...), tcp: tcp, resolver: resolver}
		var c []byte
		if err == nil {
			c = append([]byte(nil), resp...)
		}
		t.mu.Lock()
		t.sampled = append(t.sampled, x)
		if c != nil {
			t.captured = append(t.captured, c)
		}
		t.mu.Unlock()
	}
	return resp, err
}

// Instant and SleepVirtual forward the wrapped transport's markers.
func (t *timingTransport) Instant() bool                { return t.inner.Instant() }
func (t *timingTransport) SleepVirtual(d time.Duration) { t.inner.SleepVirtual(d) }

// replaySimnet replays the sampled exchanges against the warm fabric on one
// locked thread and prices every exchange of the sweep at the measured
// thread CPU per exchange, by server kind.
func replaySimnet(t *timingTransport) (resolver, nameserver time.Duration) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	price := func(wantResolver bool, total int64) time.Duration {
		var n int64
		c0 := threadCPU()
		for _, x := range t.sampled {
			if x.resolver == wantResolver {
				_, _ = t.inner.Exchange(context.Background(), x.server, x.query, x.tcp)
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return time.Duration(float64(threadCPU()-c0) / float64(n) * float64(total))
	}
	res := t.resolverExchanges.Load()
	return price(true, res), price(false, t.exchanges.Load()-res)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ledger is a CPU budget: measured wall × busy cores (the process CPU time
// over the span) split into per-layer self times plus a stated residual.
type ledger struct {
	name  string
	wall  time.Duration
	cpu   time.Duration
	parts []ledgerPart
}

type ledgerPart struct {
	name string
	d    time.Duration
}

func (l *ledger) add(name string, d time.Duration) { l.parts = append(l.parts, ledgerPart{name, d}) }

// emit adds the ledger to m and checks that parts plus residual reconcile
// with wall × busy cores.
func (l *ledger) emit(m map[string]metric, chk *checks) {
	pre := "ledger." + l.name + "."
	busy := 0.0
	if l.wall > 0 {
		busy = l.cpu.Seconds() / l.wall.Seconds()
	}
	total := l.wall.Seconds() * busy
	sum := 0.0
	for _, p := range l.parts {
		m[pre+p.name+"_s"] = metric{p.d.Seconds(), "s"}
		sum += p.d.Seconds()
	}
	residual := total - sum
	m[pre+"wall_s"] = metric{l.wall.Seconds(), "s"}
	m[pre+"busy_cores"] = metric{busy, "count"}
	m[pre+"cpu_s"] = metric{total, "s"}
	m[pre+"residual_s"] = metric{residual, "s"}
	pct := 0.0
	if total > 0 {
		pct = 100 * residual / total
	}
	m[pre+"residual_pct"] = metric{pct, "%"}
	if d := sum + residual - total; d > 1e-9 || d < -1e-9 {
		chk.fail("ledger %s does not reconcile: parts %.6f + residual %.6f != %.6f", l.name, sum, residual, total)
	}
	var b strings.Builder
	for _, p := range l.parts {
		fmt.Fprintf(&b, " %s %.3fs", p.name, p.d.Seconds())
	}
	note("ledger %s: wall %.3fs × %.2f busy cores = %.3fs =%s + residual %.3fs (%.1f%%)",
		l.name, l.wall.Seconds(), busy, total, b.String(), residual, pct)
}

// measureTraced is the traced run: one untraced and one traced sweep, the
// classification and codec replays, then an untraced and a traced
// nominal-rate serving step with the serve-side replays.
func measureTraced(ctx context.Context, e *env, chk *checks) (map[string]metric, error) {
	m := map[string]metric{}
	if err := traceSweep(ctx, e, chk, m); err != nil {
		return nil, err
	}
	e.dropWorld()
	if err := traceServe(e, chk, m); err != nil {
		return nil, err
	}
	return m, nil
}

func traceSweep(ctx context.Context, e *env, chk *checks, m map[string]metric) error {
	plain, plainWall, err := e.sweepOnce(ctx, nil)
	if err != nil {
		return err
	}
	e.checkSweep(chk, "untraced sweep", plain)
	plain = nil

	cfg := e.world.URHunterConfig()
	tr := newTimingTransport(cfg)
	var (
		fr     *fleetRun
		res    *core.Result
		end    time.Time
		cpuEnd time.Duration
	)
	cpu0, t0 := cpuTime(), time.Now()
	if e.opts.wl.fleet {
		fr, err = e.fleetSweep(ctx, tr, func(fr *fleetRun) error {
			end, cpuEnd = time.Now(), cpuTime()
			return traceJournal(fr, cfg, m)
		})
		if err != nil {
			return err
		}
		res = fr.res
		m["fleet.shard_sweep_s"] = metric{fr.shardSweep.Seconds(), "s"}
		m["fleet.finish_s"] = metric{fr.finish.Seconds(), "s"}
	} else {
		if res, _, err = e.sweepOnce(ctx, tr); err != nil {
			return err
		}
		end, cpuEnd = time.Now(), cpuTime()
		m["core.journal.records"] = metric{0, "count"}
		m["core.journal.bytes"] = metric{0, "B"}
		m["core.journal.merge_ms"] = metric{0, "ms"}
		m["core.journal.replay_ms"] = metric{0, "ms"}
		m["fleet.shard_sweep_s"] = metric{0, "s"}
		m["fleet.finish_s"] = metric{0, "s"}
	}
	wall, cpu := end.Sub(t0), cpuEnd-cpu0
	// A traced report must match the untraced one byte for byte.
	e.checkSweep(chk, "traced sweep", res)

	overhead := 100 * (wall.Seconds() - plainWall.Seconds()) / plainWall.Seconds()
	m["trace.sweep_overhead_pct"] = metric{overhead, "%"}
	note("tracing overhead: sweep %.3fs untraced, %.3fs traced (%.1f%%)", plainWall.Seconds(), wall.Seconds(), overhead)

	resolve, nameserve := replaySimnet(tr)
	busy := resolve + nameserve
	m["simnet.exchanges"] = metric{float64(tr.exchanges.Load()), "count"}
	m["simnet.busy_s"] = metric{busy.Seconds(), "s"}
	m["simnet.busy_share_pct"] = metric{100 * busy.Seconds() / cpu.Seconds(), "%"}
	m["simnet.resolver_busy_s"] = metric{resolve.Seconds(), "s"}
	m["simnet.nameserver_busy_s"] = metric{nameserve.Seconds(), "s"}
	m["simnet.bytes_in"] = metric{float64(tr.bytesIn.Load()), "B"}
	m["simnet.bytes_out"] = metric{float64(tr.bytesOut.Load()), "B"}

	cov := res.Coverage
	usPerProbe := float64((cpu - busy).Microseconds()) / float64(cov.Attempted)
	m["core.urhunter_us_per_probe"] = metric{usPerProbe, "us"}
	m["core.paper_scale_projection_h"] = metric{usPerProbe * paperExchanges / 1e6 / 3600, "h"}

	st := res.Stages
	m["core.stage.correct_s"] = metric{st.Correct.Seconds(), "s"}
	m["core.stage.nameservers_s"] = metric{st.Nameservers.Seconds(), "s"}
	m["core.stage.determine_s"] = metric{st.Determine.Seconds(), "s"}
	m["core.stage.analyze_s"] = metric{st.Analyze.Seconds(), "s"}
	m["core.overlap_pct"] = metric{st.OverlapPercent(), "%"}

	m["dnsio.attempted"] = metric{float64(cov.Attempted), "count"}
	m["dnsio.answered"] = metric{float64(cov.Answered), "count"}
	m["dnsio.recovered"] = metric{float64(cov.RetriedRecovered), "count"}
	m["dnsio.breaker_trips"] = metric{float64(cov.BreakerTrips), "count"}
	m["dnsio.tcp_fallbacks"] = metric{float64(tr.tcp.Load()), "count"}
	for _, c := range failClasses {
		m["dnsio.failed."+c] = metric{float64(cov.FailedByClass[c]), "count"}
	}
	for c := range cov.FailedByClass {
		if _, ok := m["dnsio.failed."+c]; !ok {
			chk.fail("coverage reports unknown failure class %q", c)
		}
	}

	unpackNs, packNs := replayCodec(tr.captured, chk)
	m["dns.unpack_ns"] = metric{unpackNs, "ns"}
	m["dns.pack_ns"] = metric{packNs, "ns"}
	m["dns.msgs"] = metric{float64(len(tr.captured)), "count"}

	detCPU, anaCPU := replayClassify(cfg, res, chk, m)

	l := ledger{name: "sweep", wall: wall, cpu: cpu}
	l.add("simnet", busy)
	decoded := tr.exchanges.Load()
	if fr != nil {
		// Finish decodes every journaled answer again on replay.
		decoded += int64(m["core.journal.records"].Value)
	}
	l.add("client_decode", time.Duration(float64(decoded)*unpackNs))
	l.add("determine", detCPU)
	l.add("analyze", anaCPU)
	l.add("journal", time.Duration((m["core.journal.merge_ms"].Value+m["core.journal.replay_ms"].Value)*1e6))
	l.emit(m, chk)
	return nil
}

// failClasses are the dnsio failure classes the coverage book can report.
var failClasses = []string{"timeout", "unreachable", "spoofed", "malformed", "breaker-open", "stalled", "other"}

// traceJournal replicates the journal half of Finish on the shard journals
// of a finished fleet run: MergeShardJournals into a fresh directory, then
// OpenJournal, which reads and validates every merged record, and records
// how long each took.
func traceJournal(fr *fleetRun, cfg *core.Config, m map[string]metric) error {
	shards, err := filepath.Glob(filepath.Join(fr.dir, "shard-*"))
	if err != nil || len(shards) == 0 {
		return fmt.Errorf("fleet: no shard journals under %s", fr.dir)
	}
	dst := filepath.Join(fr.dir, "replica")
	tm := time.Now()
	st, err := core.MergeShardJournals(dst, cfg, shards)
	if err != nil {
		return fmt.Errorf("journal replica: %w", err)
	}
	merge := time.Since(tm)
	tr := time.Now()
	j, err := core.OpenJournal(dst, cfg, core.JournalOptions{})
	if err != nil {
		return fmt.Errorf("journal replica: %w", err)
	}
	replay := time.Since(tr)
	records := j.ReplayedAnswered() + j.ReplayedFailures()
	if err := j.Close(); err != nil {
		return fmt.Errorf("journal replica: %w", err)
	}
	m["core.journal.records"] = metric{float64(records), "count"}
	m["core.journal.bytes"] = metric{float64(st.Bytes), "B"}
	m["core.journal.merge_ms"] = metric{float64(merge.Nanoseconds()) / 1e6, "ms"}
	m["core.journal.replay_ms"] = metric{float64(replay.Nanoseconds()) / 1e6, "ms"}
	return os.RemoveAll(dst)
}

// replayCodec decodes the captured response corpus with dns.Unpack and
// re-encodes it, and returns the mean cost of each per message.
func replayCodec(msgs [][]byte, chk *checks) (unpackNs, packNs float64) {
	if len(msgs) == 0 {
		chk.fail("codec replay: no responses captured")
		return 0, 0
	}
	parsed := make([]*dns.Message, len(msgs))
	t0 := time.Now()
	for i, b := range msgs {
		msg, err := dns.Unpack(b)
		if err != nil {
			chk.fail("codec replay: unpack: %v", err)
			return 0, 0
		}
		parsed[i] = msg
	}
	unpackNs = float64(time.Since(t0).Nanoseconds()) / float64(len(msgs))
	var buf []byte
	t0 = time.Now()
	for _, msg := range parsed {
		var err error
		if buf, err = msg.AppendPack(buf[:0]); err != nil {
			chk.fail("codec replay: pack: %v", err)
			return 0, 0
		}
	}
	packNs = float64(time.Since(t0).Nanoseconds()) / float64(len(msgs))
	return unpackNs, packNs
}

// replayClassify re-runs determination and analysis on copies of the
// sweep's records, checks they classify as the sweep did, and returns the
// CPU time of each.
func replayClassify(cfg *core.Config, res *core.Result, chk *checks, m map[string]metric) (detCPU, anaCPU time.Duration) {
	copies := make([]*core.UR, len(res.URs))
	for i, u := range res.URs {
		c := *u
		c.CorrespondingIPs = append([]netip.Addr(nil), u.CorrespondingIPs...)
		c.Category, c.Reason = core.CategoryUnknown, core.ReasonNone
		c.MaliciousByIntel, c.MaliciousByIDS = false, false
		copies[i] = &c
	}
	workers := runtime.GOMAXPROCS(0)
	det := core.NewDeterminer(cfg, res.Correct, res.Protective)
	c0, t0 := cpuTime(), time.Now()
	suspicious := det.DetermineParallel(copies, workers)
	detWall := time.Since(t0)
	detCPU = cpuTime() - c0

	analyzer := core.NewAnalyzer(cfg)
	c0, t0 = cpuTime(), time.Now()
	analyzer.AnalyzeParallel(suspicious, workers)
	anaWall := time.Since(t0)
	anaCPU = cpuTime() - c0

	for i, u := range res.URs {
		if c := copies[i]; c.Category != u.Category {
			chk.fail("classify replay: %s %s %s is %s, the sweep said %s", u.Server.Addr, u.Domain, u.Type, c.Category, u.Category)
			break
		}
	}
	m["core.determine_records_per_s"] = metric{float64(len(copies)) / detWall.Seconds(), "1/s"}
	m["core.analyze_records_per_s"] = metric{float64(len(suspicious)) / anaWall.Seconds(), "1/s"}
	return detCPU, anaCPU
}

// timingResponder times every HandleQuery the server makes.
type timingResponder struct {
	zr      *urwatch.ZoneResponder
	n, busy atomic.Int64
}

func (t *timingResponder) HandleQuery(src netip.Addr, q *dns.Message) *dns.Message {
	return t.HandleQueryVia(src, q, dnsio.ViaUDP)
}

func (t *timingResponder) HandleQueryVia(src netip.Addr, q *dns.Message, via string) *dns.Message {
	t0 := time.Now()
	r := t.zr.HandleQueryVia(src, q, via)
	t.busy.Add(time.Since(t0).Nanoseconds())
	t.n.Add(1)
	return r
}

// traceServe runs the nominal step untraced, then against a second
// listener whose responder is timed, and prices the rest of the serve path
// by replaying the traced step's queries. Closed-loop rounds against the
// untraced listener then give the throughput.
func traceServe(e *env, chk *checks, m map[string]metric) error {
	mx := newMix(e.opts.wl.mix, e.feed, e.opts.seed)
	pub := newPublisher(e)
	if e.opts.wl.mix == mixScan {
		pub.start()
		defer pub.halt()
	}
	dur := e.opts.nominalFor()

	s, keys := mx.build(nominalRate, dur)
	plain, err := e.runStep(e.srv, s, keys, pub, chk)
	if err != nil {
		return err
	}

	tr := &timingResponder{zr: e.zr}
	srv := dnsio.NewServer(tr)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return fmt.Errorf("start traced listener: %w", err)
	}
	defer srv.Close()
	s, keys = mx.build(nominalRate, dur)
	h0, miss0 := e.cache.Stats()
	cpu0 := cpuTime()
	traced, err := e.runStep(srv, s, keys, pub, chk)
	if err != nil {
		return err
	}
	cpu := cpuTime() - cpu0
	h1, miss1 := e.cache.Stats()
	for _, st := range []stepStats{plain, traced} {
		chk.attempted += int64(st.sent)
		chk.failed += int64(st.wrong + st.unanswered)
	}

	answerNs := float64(tr.busy.Load()) / float64(tr.n.Load())
	unpackNs, packNs, respBytes := replayServe(e, s, chk)
	lookupNs := replayLookups(e.gen, keys)
	overhead := 100 * (traced.p50us - plain.p50us) / plain.p50us
	m["trace.serve_overhead_pct"] = metric{overhead, "%"}
	note("tracing overhead: serve p50 %.1fus untraced, %.1fus traced (%.1f%%)", plain.p50us, traced.p50us, overhead)

	m["dns.query_unpack_ns"] = metric{unpackNs, "ns"}
	m["urwatch.answer_ns"] = metric{answerNs, "ns"}
	m["urwatch.store_lookup_ns"] = metric{lookupNs, "ns"}
	m["dns.resp_pack_ns"] = metric{packNs, "ns"}
	m["urwatch.resp_bytes"] = metric{respBytes, "B"}
	hitPct := 0.0
	if d := (h1 - h0) + (miss1 - miss0); d > 0 {
		hitPct = 100 * float64(h1-h0) / float64(d)
	}
	m["urwatch.cache_hit_pct"] = metric{hitPct, "%"}
	m["urwatch.publish_ms"] = metric{median(pub.durations()), "ms"}
	m["dnsio.socket_us"] = metric{plain.p50us - (unpackNs+answerNs+packNs)/1e3, "us"}
	m["loadgen.late_p99_us"] = metric{plain.lateP99us, "us"}
	m["serve.p50_us"] = metric{plain.p50us, "us"}
	m["serve.p90_us"] = metric{plain.p90us, "us"}
	m["serve.p99_us"] = metric{plain.p99us, "us"}
	m["loadgen.backlog_max"] = metric{float64(plain.backlog), "count"}

	var rates []float64
	for i := 0; i < loopRounds; i++ {
		l, err := e.runLoop(mx, dur/loopRounds, pub, chk)
		if err != nil {
			return err
		}
		rates = append(rates, l.qps())
	}
	m["serve.closed_loop_qps"] = metric{median(rates), "1/s"}

	n := float64(tr.n.Load())
	l := ledger{name: "serve", wall: s.wall, cpu: cpu}
	l.add("decode", time.Duration(n*unpackNs))
	l.add("answer", time.Duration(tr.busy.Load()))
	l.add("encode", time.Duration(n*packNs))
	l.add("loadgen_send", s.sendCPU)
	l.emit(m, chk)
	return nil
}

// replayServe decodes each query of a step with dns.Unpack, answers it
// in-process, and encodes the reply; it returns the mean decode and encode
// costs and the mean reply size.
func replayServe(e *env, s *step, chk *checks) (unpackNs, packNs, respBytes float64) {
	src := netip.MustParseAddr("127.0.0.1")
	var decode, encode time.Duration
	var bytes int
	var buf []byte
	for _, p := range s.pkts {
		t0 := time.Now()
		q, err := dns.Unpack(p)
		decode += time.Since(t0)
		if err != nil {
			chk.fail("serve replay: unpack query: %v", err)
			return 0, 0, 0
		}
		r := e.zr.HandleQuery(src, q)
		t0 = time.Now()
		buf, err = r.AppendPack(buf[:0])
		encode += time.Since(t0)
		if err != nil {
			chk.fail("serve replay: pack reply: %v", err)
			return 0, 0, 0
		}
		bytes += len(buf)
	}
	n := float64(len(s.pkts))
	return float64(decode.Nanoseconds()) / n, float64(encode.Nanoseconds()) / n, float64(bytes) / n
}

// replayLookups times the store lookups behind the step's listed names.
func replayLookups(g *urwatch.Generation, keys []feedKey) float64 {
	lookups, found := 0, 0
	t0 := time.Now()
	for _, k := range keys {
		switch {
		case k.domain != "":
			found += g.Domain(k.domain).Len()
		case k.ip.IsValid():
			found += g.IP(k.ip).Len()
		default:
			continue
		}
		lookups++
	}
	d := time.Since(t0)
	if lookups == 0 || found == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(lookups)
}
