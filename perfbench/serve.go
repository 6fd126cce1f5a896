package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dns"
	"repro/internal/dnsio"
	"repro/internal/urwatch"
)

// mixKind selects the serving query mix.
type mixKind int

const (
	// mixZipf draws names Zipf over every listed key; the ~3.1k keys of a
	// small-scale feed fit urwatchd's 8,192-entry response cache.
	mixZipf mixKind = iota
	// mixScan queries every listed key once per pass in shuffled order
	// while new generations are published, so the cache never hits.
	mixScan
)

const (
	// nominalRate is the open-loop step's fixed offered rate; its failures
	// count in every run and the traced run reports its latency. On the
	// 2-vCPU reference host the open-loop sender paces reliably up to about
	// 12k q/s, and the uncached (scan) mix is served at 30k q/s and more.
	nominalRate = 5000
	// ednsPayload is the UDP payload size the queries advertise.
	ednsPayload = 4096
	// missShare is the share of queries for fresh, never-listed names.
	missShare = 0.10
	// zipfS is the Zipf exponent of the hot-key mix.
	zipfS = 1.1
	// publishEvery is the scan mix's generation publish interval.
	publishEvery = 200 * time.Millisecond
	// loopWidth is how many queries the traced run's closed loop keeps in
	// flight, as that many resolvers each waiting for its answer;
	// loopRounds is how many rounds it runs, and serve.closed_loop_qps is
	// their median rate.
	loopWidth  = 16
	loopRounds = 4
)

// keyKind is what a query asks about.
type keyKind uint8

const (
	kindListed keyKind = iota // a listed domain or reverse-IP name
	kindGen                   // gen.<apex> TXT
	kindMiss                  // a fresh name the feed does not list
)

// feedKey is one servable question and the answer the generation implies.
type feedKey struct {
	name   dns.Name
	typ    dns.Type
	kind   keyKind
	listed int
	worst  core.Category
	wire   []byte // packed query with ID 0
	// domain or ip is the store lookup behind a listed name.
	domain dns.Name
	ip     netip.Addr
}

// feedIndex lists every servable key of a generation with its expected
// answer, computed from the generation through the store's public lookups.
type feedIndex struct {
	domains []dns.Name
	ips     []netip.Addr
	keys    []feedKey
}

func indexFeed(g *urwatch.Generation) *feedIndex {
	f := &feedIndex{}
	seenD := map[dns.Name]bool{}
	seenIP := map[netip.Addr]bool{}
	all := g.All()
	for i := 0; i < all.Len(); i++ {
		v := all.At(i)
		if d := v.Domain(); !seenD[d] {
			seenD[d] = true
			f.domains = append(f.domains, d)
		}
		for _, ip := range v.IPs() {
			if ip.Is4() && !seenIP[ip] {
				seenIP[ip] = true
				f.ips = append(f.ips, ip)
			}
		}
	}
	add := func(k feedKey, vs urwatch.VerdictSet) {
		k.kind, k.listed = kindListed, vs.Len()
		k.worst, _ = urwatch.WorstCategory(vs)
		for _, t := range []dns.Type{dns.TypeA, dns.TypeTXT} {
			k.typ = t
			f.keys = append(f.keys, k)
		}
	}
	for _, d := range f.domains {
		add(feedKey{name: urwatch.DomainName(d, feedApex), domain: d}, g.Domain(d))
	}
	for _, ip := range f.ips {
		name, _ := urwatch.ReverseIPName(ip, feedApex)
		add(feedKey{name: name, ip: ip}, g.IP(ip))
	}
	f.keys = append(f.keys, feedKey{name: "gen." + feedApex, typ: dns.TypeTXT, kind: kindGen})
	for i := range f.keys {
		f.keys[i].wire = mustPack(f.keys[i].name, f.keys[i].typ)
	}
	return f
}

// mustPack packs a query advertising the EDNS0 payload size stub resolvers
// send, so TXT evidence answers fit one datagram.
func mustPack(name dns.Name, t dns.Type) []byte {
	q := dns.NewQuery(0, name, t)
	q.Additional = append(q.Additional, dns.RR{Name: dns.Root, Class: dns.Class(ednsPayload), Data: &dns.OPT{}})
	b, err := q.Pack()
	if err != nil {
		panic(fmt.Sprintf("pack query %s: %v", name, err))
	}
	return b
}

// mix produces the query sequence of one workload, deterministic in seed.
type mix struct {
	kind   mixKind
	feed   *feedIndex
	rng    *rand.Rand
	zipf   *rand.Zipf
	order  []int // zipf: rank → key; scan: the current pass
	pos    int
	misses int
}

func newMix(kind mixKind, feed *feedIndex, seed int64) *mix {
	m := &mix{kind: kind, feed: feed, rng: rand.New(rand.NewSource(seed))}
	m.order = m.rng.Perm(len(feed.keys))
	if kind == mixZipf {
		m.zipf = rand.NewZipf(m.rng, zipfS, 1, uint64(len(feed.keys)-1))
	}
	return m
}

// next returns the key of the next query; misses get a fresh label.
func (m *mix) next() feedKey {
	if m.rng.Float64() < missShare {
		m.misses++
		name := dns.Name(fmt.Sprintf("m%d-%x", m.misses, m.rng.Uint32())) + ".urwatch." + feedApex
		t := dns.TypeA
		if m.misses%2 == 0 {
			t = dns.TypeTXT
		}
		return feedKey{name: name, typ: t, kind: kindMiss, wire: mustPack(name, t)}
	}
	if m.kind == mixZipf {
		return m.feed.keys[m.order[m.zipf.Uint64()]]
	}
	if m.pos == len(m.order) {
		m.rng.Shuffle(len(m.order), func(i, j int) { m.order[i], m.order[j] = m.order[j], m.order[i] })
		m.pos = 0
	}
	k := m.feed.keys[m.order[m.pos]]
	m.pos++
	return k
}

// build makes a step of n queries at rate; query i carries ID uint16(i).
func (m *mix) build(rate float64, d time.Duration) (*step, []feedKey) {
	n := int(rate * d.Seconds())
	if n < 1 {
		n = 1
	}
	s := &step{rate: rate, pkts: make([][]byte, n)}
	keys := make([]feedKey, n)
	for i := range s.pkts {
		k := m.next()
		keys[i] = k
		p := append([]byte(nil), k.wire...)
		p[0], p[1] = byte(uint16(i)>>8), byte(uint16(i))
		s.pkts[i] = p
	}
	return s, keys
}

// publisher republishes the served generation under a new sequence number
// at a fixed interval, as urwatchd does after every sweep. The content is
// unchanged, so every published generation implies the same answers; the
// new sequence number flushes the response cache and is checked in every
// gen= header and SOA serial.
type publisher struct {
	e    *env
	mu   sync.Mutex
	at   map[uint64][2]time.Time // seq → publish call start, end
	took []float64               // ms per Publish
	max  uint64
	stop chan struct{}
	done chan struct{}
}

func newPublisher(e *env) *publisher {
	cur := e.store.Current()
	p := &publisher{e: e, at: map[uint64][2]time.Time{cur.Seq: {}}, max: cur.Seq}
	return p
}

func (p *publisher) start() {
	p.stop, p.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(p.done)
		t := time.NewTicker(publishEvery)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.publishNext()
			}
		}
	}()
}

func (p *publisher) halt() {
	if p.stop != nil {
		close(p.stop)
		<-p.done
		p.stop = nil
	}
}

func (p *publisher) publishNext() {
	next := *p.e.gen
	p.mu.Lock()
	next.Seq = p.max + 1
	p.mu.Unlock()
	t0 := time.Now()
	p.e.store.Publish(&next)
	t1 := time.Now()
	p.mu.Lock()
	p.at[next.Seq] = [2]time.Time{t0, t1}
	p.max = next.Seq
	p.took = append(p.took, float64(t1.Sub(t0).Nanoseconds())/1e6)
	p.mu.Unlock()
}

// durations returns the Publish call times in ms.
func (p *publisher) durations() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]float64(nil), p.took...)
}

// validSeq reports whether a reply sent at sent and received at recv may
// carry generation seq: seq was published before recv, and its successor
// was not yet fully published when the query was sent.
func (p *publisher) validSeq(seq uint64, sent, recv time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	at, ok := p.at[seq]
	if !ok || (!at[0].IsZero() && at[0].After(recv)) {
		return false
	}
	nx, ok := p.at[seq+1]
	return !ok || !nx[1].Before(sent)
}

// checkReply verifies one reply against the generation: matching ID and
// question, the A code of the worst category, the TXT evidence header, the
// generation marker, and NXDOMAIN with the SOA for names the feed does not
// list. The generation sequence must be one the store served between send
// and receipt.
func checkReply(raw []byte, id uint16, k feedKey, seqOK func(uint64) bool) error {
	m, err := dns.Unpack(raw)
	if err != nil {
		return fmt.Errorf("unpack: %v", err)
	}
	if !m.Header.Response || m.Header.ID != id {
		return fmt.Errorf("header: response=%t id=%d want %d", m.Header.Response, m.Header.ID, id)
	}
	if q := m.Question(); q.Name != k.name || q.Type != k.typ {
		return fmt.Errorf("question %s %s, asked %s %s", q.Name, q.Type, k.name, k.typ)
	}
	switch k.kind {
	case kindMiss:
		if m.Header.RCode != dns.RCodeNXDomain || len(m.Answers) != 0 || len(m.Authority) != 1 {
			return fmt.Errorf("%s: rcode %s with %d answers, want NXDOMAIN", k.name, m.Header.RCode, len(m.Answers))
		}
		soa, ok := m.Authority[0].Data.(*dns.SOA)
		if !ok {
			return fmt.Errorf("%s: NXDOMAIN without SOA", k.name)
		}
		// The benchmark's sequence numbers stay far below 2^32, where the
		// serial is the sequence number itself.
		if seq := uint64(soa.Serial); urwatch.SerialForSeq(seq) != soa.Serial || !seqOK(seq) {
			return fmt.Errorf("%s: SOA serial %d names no served generation", k.name, soa.Serial)
		}
		return nil
	case kindGen:
		s, err := firstTXT(m)
		if err != nil {
			return err
		}
		seq, rest, err := genHeader(s)
		if err != nil || !seqOK(seq) || !strings.HasPrefix(rest, "total=") {
			return fmt.Errorf("gen marker %q: bad generation", s)
		}
		return nil
	}
	if m.Header.RCode != dns.RCodeSuccess || len(m.Answers) == 0 {
		return fmt.Errorf("%s %s: rcode %s with %d answers", k.name, k.typ, m.Header.RCode, len(m.Answers))
	}
	if k.typ == dns.TypeA {
		a, ok := m.Answers[0].Data.(*dns.A)
		want := netip.AddrFrom4([4]byte{127, 0, 0, byte(dnsblCode(k.worst))})
		if !ok || a.Addr != want || len(m.Answers) != 1 {
			return fmt.Errorf("%s A: got %v, want %s", k.name, m.Answers[0].Data, want)
		}
		return nil
	}
	s, err := firstTXT(m)
	if err != nil {
		return err
	}
	seq, rest, err := genHeader(s)
	if err != nil || !seqOK(seq) {
		return fmt.Errorf("%s TXT %q: bad generation", k.name, s)
	}
	if want := fmt.Sprintf("listed=%d worst=%s", k.listed, k.worst); rest != want {
		return fmt.Errorf("%s TXT %q: want %q", k.name, s, want)
	}
	wantRRs := 1 + k.listed
	if k.listed > 8 {
		wantRRs = 1 + 8 + 1
	}
	if len(m.Answers) != wantRRs {
		return fmt.Errorf("%s TXT: %d records, want %d", k.name, len(m.Answers), wantRRs)
	}
	return nil
}

func firstTXT(m *dns.Message) (string, error) {
	if len(m.Answers) == 0 {
		return "", fmt.Errorf("no TXT answer")
	}
	t, ok := m.Answers[0].Data.(*dns.TXT)
	if !ok {
		return "", fmt.Errorf("first answer is %s, not TXT", m.Answers[0].Type())
	}
	return t.Joined(), nil
}

// genHeader splits "gen=<seq> <rest>".
func genHeader(s string) (uint64, string, error) {
	head, rest, _ := strings.Cut(s, " ")
	num, ok := strings.CutPrefix(head, "gen=")
	if !ok {
		return 0, "", fmt.Errorf("no gen= header")
	}
	seq, err := strconv.ParseUint(num, 10, 64)
	return seq, rest, err
}

// dnsblCode is the DNSBL answer code of a category (127.0.0.<code>).
func dnsblCode(c core.Category) int {
	switch c {
	case core.CategoryMalicious:
		return urwatch.CodeMalicious
	case core.CategoryUnknown:
		return urwatch.CodeSuspicious
	case core.CategoryProtective:
		return urwatch.CodeProtective
	}
	return urwatch.CodeCorrect
}

// replyChecker checks replies against the generation. A wrong reply fails
// the run's correctness check wherever it occurs.
func replyChecker(pub *publisher, chk *checks, what string) func(i int, raw []byte, k feedKey, sent, recv time.Time) bool {
	return func(i int, raw []byte, k feedKey, sent, recv time.Time) bool {
		err := checkReply(raw, uint16(i), k, func(seq uint64) bool {
			return pub.validSeq(seq, sent, recv)
		})
		if err != nil {
			chk.fail("%s query %d: %v", what, i, err)
			return false
		}
		return true
	}
}

// runStep offers one open-loop step and verifies every reply; the caller
// decides whether unanswered queries count as failed operations.
func (e *env) runStep(srv *dnsio.Server, s *step, keys []feedKey, pub *publisher, chk *checks) (stepStats, error) {
	// Collect the garbage of building this step and checking the last one
	// now, so the collections inside the step are the server's own.
	e.heap.sample()
	if err := s.run(srv.UDPAddr()); err != nil {
		return stepStats{}, err
	}
	ok := replyChecker(pub, chk, fmt.Sprintf("rate %.0f", s.rate))
	st := s.stats(func(i int) bool {
		return !ok(i, s.resp[i], keys[i], s.start.Add(time.Duration(s.sendAt[i])), s.start.Add(time.Duration(s.recvAt[i])))
	})
	return st, nil
}

// runLoop runs one closed-loop round against the feed listener and
// verifies every reply. Unanswered and wrong queries count as failed.
func (e *env) runLoop(m *mix, d time.Duration, pub *publisher, chk *checks) (*loop, error) {
	e.heap.sample()
	l, err := runLoop(e.srv.UDPAddr(), loopWidth, d, m.next)
	if err != nil {
		return nil, err
	}
	ok := replyChecker(pub, chk, "closed loop")
	for i, k := range l.keys {
		chk.attempted++
		if l.recvAt[i] == 0 || !ok(i, l.resp[i], k, l.start.Add(time.Duration(l.sendAt[i])), l.start.Add(time.Duration(l.recvAt[i]))) {
			chk.failed++
		}
	}
	return l, nil
}

// serve offers the feed listener the open-loop step at the nominal rate
// and checks every reply. The scan mix publishes new generations
// throughout.
func serve(e *env, chk *checks) (stepStats, error) {
	m := newMix(e.opts.wl.mix, e.feed, e.opts.seed)
	pub := newPublisher(e)
	if e.opts.wl.mix == mixScan {
		pub.start()
		defer pub.halt()
	}
	s, keys := m.build(nominalRate, e.opts.nominalFor())
	st, err := e.runStep(e.srv, s, keys, pub, chk)
	if err != nil {
		return stepStats{}, err
	}
	chk.attempted += int64(st.sent)
	chk.failed += int64(st.wrong + st.unanswered)
	return st, nil
}

// nominalFor is how long the nominal-rate step runs: the part of --seconds
// the timed sweeps leave.
func (o options) nominalFor() time.Duration {
	return time.Duration((1 - sweepShare) * o.seconds * float64(time.Second))
}
