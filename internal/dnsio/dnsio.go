// Package dnsio moves DNS messages between clients and servers. It provides:
//
//   - Client: a query engine with ID generation, response validation, UDP
//     truncation fallback to TCP, and bounded retries.
//   - Transport: the byte-moving abstraction under Client, with two
//     implementations — SimTransport over the internal/simnet fabric, and
//     NetTransport over real UDP/TCP sockets from the net package.
//   - Server / SimService: the serving side, adapting a Responder to real
//     sockets or the fabric, including EDNS0-aware UDP truncation.
//
// URHunter runs its measurement sweeps over SimTransport; the examples and
// integration tests also exercise NetTransport against loopback sockets so
// the codec is proven over a genuine network path.
package dnsio

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dns"
	"repro/internal/simnet"
)

// DNSPort is the standard DNS service port.
const DNSPort = 53

// simTCPPortOffset separates the fabric endpoint carrying TCP-semantics
// exchanges from the UDP-semantics endpoint on the same IP.
const simTCPPortOffset = 10000

// Transport moves one packed DNS message to a server and returns the packed
// response. tcp selects reliable (no truncation) semantics.
type Transport interface {
	Exchange(ctx context.Context, server netip.AddrPort, packed []byte, tcp bool) ([]byte, error)
}

// Errors returned by the client.
var (
	ErrIDMismatch       = errors.New("dnsio: response ID does not match query")
	ErrQuestionMismatch = errors.New("dnsio: response question does not match query")
	ErrNotResponse      = errors.New("dnsio: message is not a response")
)

// Client issues DNS queries over a Transport.
type Client struct {
	Transport Transport
	// Retries is the number of additional attempts after a transient failure
	// (timeout, spoofed or malformed response). Permanent failures — an
	// unreachable endpoint, a refused TCP dial — return after the first
	// attempt regardless. Negative values behave like zero: the query is
	// always attempted once.
	Retries int
	// Timeout bounds each attempt when the context has no deadline.
	Timeout time.Duration
	// Backoff schedules the pause before each retry. On the sim fabric the
	// pause is booked on the virtual clock (no real sleep); on real sockets
	// it is a timer. The zero value disables backoff; NewClient installs
	// DefaultBackoff.
	Backoff BackoffPolicy
	// Breakers is the per-server circuit-breaker set, shared by every worker
	// using this client: after Threshold consecutive failed exchanges to one
	// server, further queries fail fast with ErrCircuitOpen until a half-open
	// probe succeeds. nil disables breaking; NewClient installs the default.
	Breakers *BreakerSet

	// idState drives the query-ID generator: a splitmix64 counter advanced
	// with a single atomic add, so concurrent sweep workers sharing one
	// client never serialize on ID generation.
	idState atomic.Uint64
}

// NewClient builds a client with sane defaults over the given transport.
func NewClient(t Transport) *Client {
	c := &Client{
		Transport: t,
		Retries:   2,
		Timeout:   3 * time.Second,
		Backoff:   DefaultBackoff(),
		Breakers:  NewBreakerSet(DefaultBreakerConfig()),
	}
	c.idState.Store(uint64(time.Now().UnixNano()))
	return c
}

// SeedIDs makes query-ID generation deterministic (for tests).
func (c *Client) SeedIDs(seed int64) {
	c.idState.Store(uint64(seed))
}

func (c *Client) nextID() uint16 {
	// splitmix64 finalizer over an atomically advanced Weyl sequence.
	x := c.idState.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return uint16(x)
}

// queryPool recycles query messages on both sides of an exchange. A query
// message is dead as soon as Exchange returns (responses are separate
// messages), and on the serve path no Responder retains the decoded query
// past HandleQuery (replies are built via q.Reply, which copies the question
// section), so each sweep worker effectively reuses one message instead of
// allocating ~36M of them across a paper-scale run.
var queryPool = sync.Pool{New: func() any { return new(dns.Message) }}

// Query sends a (name, type) question to server and returns the validated
// response.
func (c *Client) Query(ctx context.Context, server netip.AddrPort, name dns.Name, t dns.Type) (*dns.Message, error) {
	resp, _, err := c.QueryWire(ctx, server, name, t)
	return resp, err
}

// QueryWire is Query plus the validated response's wire bytes — the exact
// form the server sent them, so a caller that will journal the answer avoids
// re-packing it (and, at 36M probes a sweep, re-copying it). The returned
// slice is only guaranteed until this client's next exchange on the same
// goroutine; callers that keep it longer must copy.
func (c *Client) QueryWire(ctx context.Context, server netip.AddrPort, name dns.Name, t dns.Type) (*dns.Message, []byte, error) {
	q := queryPool.Get().(*dns.Message)
	q.Header = dns.Header{ID: c.nextID(), RecursionDesired: true}
	q.Questions = append(q.Questions[:0], dns.Question{Name: name, Type: t, Class: dns.ClassINET})
	q.Answers, q.Authority, q.Additional = q.Answers[:0], q.Authority[:0], q.Additional[:0]
	resp, raw, err := c.exchange(ctx, server, q)
	queryPool.Put(q)
	return resp, raw, err
}

// packBufPool recycles query wire buffers across Exchange calls; transports
// never retain the packed bytes past their Exchange call, so the buffer can
// go back in the pool as soon as the attempt loop ends.
var packBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// Exchange sends a prepared query. If the UDP response has TC set, the query
// is retried over TCP, mirroring standard resolver behaviour.
func (c *Client) Exchange(ctx context.Context, server netip.AddrPort, q *dns.Message) (*dns.Message, error) {
	resp, _, err := c.exchange(ctx, server, q)
	return resp, err
}

// exchange is Exchange returning the accepted response's wire bytes as well.
// The returned slice is only valid until the transport's next exchange —
// callers that keep it (QueryWire) must copy.
func (c *Client) exchange(ctx context.Context, server netip.AddrPort, q *dns.Message) (*dns.Message, []byte, error) {
	if q.Header.ID == 0 {
		q.Header.ID = c.nextID()
	}
	bp := packBufPool.Get().(*[]byte)
	packed, err := q.AppendPack((*bp)[:0])
	if err != nil {
		packBufPool.Put(bp)
		return nil, nil, fmt.Errorf("dnsio: pack query: %w", err)
	}
	*bp = packed // keep any grown capacity for the next user
	defer packBufPool.Put(bp)
	// Deadline management only matters for transports that can block on
	// real I/O; the in-memory fabric completes synchronously.
	if c.Timeout > 0 && !isInstant(c.Transport) {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, c.Timeout)
			defer cancel()
		}
	}
	var br *breaker
	if c.Breakers != nil {
		br = c.Breakers.forAddr(server.Addr())
		if !br.allow(c.Breakers.cfg) {
			return nil, nil, fmt.Errorf("dnsio: exchange with %s failed: %w", server, ErrCircuitOpen)
		}
	}
	// Retries < 0 must still attempt once: an empty attempt loop would
	// otherwise report a useless "failed: %!w(<nil>)".
	retries := c.Retries
	if retries < 0 {
		retries = 0
	}
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if err := ctx.Err(); err != nil {
			if br != nil && lastErr != nil {
				br.report(c.Breakers, false)
			}
			return nil, nil, err
		}
		if attempt > 0 {
			if err := c.sleep(ctx, c.Backoff.Delay(server, attempt)); err != nil {
				break
			}
		}
		raw, err := c.Transport.Exchange(ctx, server, packed, false)
		if err != nil {
			lastErr = err
			if IsPermanent(err) {
				break
			}
			continue
		}
		resp, err := c.validate(q, raw)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.Header.Truncated {
			raw, err = c.Transport.Exchange(ctx, server, packed, true)
			if err != nil {
				lastErr = err
				if IsPermanent(err) {
					break
				}
				continue
			}
			if resp, err = c.validate(q, raw); err != nil {
				lastErr = err
				continue
			}
		}
		if br != nil {
			br.report(c.Breakers, true)
		}
		return resp, raw, nil
	}
	if br != nil {
		br.report(c.Breakers, false)
	}
	if lastErr == nil {
		lastErr = errors.New("no attempt completed")
	}
	return nil, nil, fmt.Errorf("dnsio: exchange with %s failed: %w", server, lastErr)
}

func (c *Client) validate(q *dns.Message, raw []byte) (*dns.Message, error) {
	resp, err := dns.Unpack(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if !resp.Header.Response {
		return nil, ErrNotResponse
	}
	if resp.Header.ID != q.Header.ID {
		return nil, ErrIDMismatch
	}
	if len(resp.Questions) > 0 && resp.Question() != q.Question() {
		return nil, ErrQuestionMismatch
	}
	return resp, nil
}

// Responder is the server-side query handler.
type Responder interface {
	HandleQuery(src netip.Addr, q *dns.Message) *dns.Message
}

// ResponderFunc adapts a function to Responder.
type ResponderFunc func(src netip.Addr, q *dns.Message) *dns.Message

// HandleQuery implements Responder.
func (f ResponderFunc) HandleQuery(src netip.Addr, q *dns.Message) *dns.Message {
	return f(src, q)
}

// Via values naming the transport that carried a query to a server.
const (
	ViaUDP = "udp"
	ViaTCP = "tcp"
	ViaDoT = "dot"
	ViaDoH = "doh"
)

// ViaResponder is the optional interface a Responder implements to learn
// which transport carried each query (the Via* constants). Front-ends that
// keep per-transport counters — urwatchd's /metrics — implement it; every
// serve path falls back to plain HandleQuery when it is absent.
type ViaResponder interface {
	HandleQueryVia(src netip.Addr, q *dns.Message, via string) *dns.Message
}

// dispatchQuery routes one decoded query to the responder, tagging the
// carrying transport when the responder cares.
func dispatchQuery(r Responder, src netip.Addr, q *dns.Message, via string) *dns.Message {
	if vr, ok := r.(ViaResponder); ok {
		return vr.HandleQueryVia(src, q, via)
	}
	return r.HandleQuery(src, q)
}

// udpPayloadSize extracts the EDNS0-advertised payload size from a query,
// defaulting to the classic 512 octets.
func udpPayloadSize(q *dns.Message) int {
	for _, rr := range q.Additional {
		if rr.Type() == dns.TypeOPT {
			size := int(rr.Class)
			if size < dns.MaxUDPSize {
				size = dns.MaxUDPSize
			}
			if size > dns.MaxEDNS0Size {
				size = dns.MaxEDNS0Size
			}
			return size
		}
	}
	return dns.MaxUDPSize
}

// serveBytes is the shared serve path: unpack, dispatch, pack (honouring UDP
// truncation when tcp is false). Malformed queries yield FORMERR when the
// header survives, nothing otherwise.
func serveBytes(r Responder, src netip.Addr, raw []byte, tcp bool) []byte {
	via := ViaUDP
	if tcp {
		via = ViaTCP
	}
	return ServeRaw(r, src, raw, via)
}

// ServeRaw runs one raw query through the serve path for the named transport:
// unpack, dispatch (tagging via for ViaResponder implementations), pack. UDP
// answers honour the EDNS0 payload size and truncate; every other transport
// is stream- or HTTP-framed, so responses pack whole. The DoT and DoH
// front-ends in internal/transport call this directly.
func ServeRaw(r Responder, src netip.Addr, raw []byte, via string) []byte {
	q := queryPool.Get().(*dns.Message)
	defer queryPool.Put(q)
	if err := q.UnpackFrom(raw); err != nil {
		if len(raw) >= 12 {
			bad := &dns.Message{}
			bad.Header.ID = uint16(raw[0])<<8 | uint16(raw[1])
			bad.Header.Response = true
			bad.Header.RCode = dns.RCodeFormat
			out, _ := bad.Pack()
			return out
		}
		return nil
	}
	resp := dispatchQuery(r, src, q, via)
	if resp == nil {
		return nil
	}
	var out []byte
	var err error
	if via == ViaUDP {
		out, err = resp.PackTruncated(udpPayloadSize(q))
	} else {
		out, err = resp.Pack()
	}
	if err != nil {
		fail := q.Reply()
		fail.Header.RCode = dns.RCodeServFail
		out, _ = fail.Pack()
	}
	return out
}

// AttachSim registers a responder on the fabric at addr:53 (UDP semantics)
// and the paired reliable endpoint (TCP semantics). It returns a detach
// function.
func AttachSim(f *simnet.Fabric, addr netip.Addr, r Responder) (func(), error) {
	udp := simnet.Endpoint{Addr: addr, Port: DNSPort}
	tcp := simnet.Endpoint{Addr: addr, Port: DNSPort + simTCPPortOffset}
	uh := simnet.HandlerFunc(func(src netip.Addr, raw []byte) []byte {
		return serveBytes(r, src, raw, false)
	})
	th := simnet.HandlerFunc(func(src netip.Addr, raw []byte) []byte {
		return serveBytes(r, src, raw, true)
	})
	if err := f.Listen(udp, uh); err != nil {
		return nil, err
	}
	if err := f.Listen(tcp, th); err != nil {
		f.Unlisten(udp)
		return nil, err
	}
	return func() {
		f.Unlisten(udp)
		f.Unlisten(tcp)
	}, nil
}

// instantTransport marks transports that never block on real I/O, letting
// the client skip per-query deadline plumbing.
type instantTransport interface {
	Instant() bool
}

func isInstant(t Transport) bool {
	it, ok := t.(instantTransport)
	return ok && it.Instant()
}

// IsInstant reports whether a transport completes exchanges synchronously,
// never blocking on real I/O (the in-memory fabric). Callers use it to skip
// stall-detection machinery that only matters on real sockets.
func IsInstant(t Transport) bool { return isInstant(t) }

// SimTransport is a Transport over the fabric.
type SimTransport struct {
	Fabric *simnet.Fabric
	// Src is the client's IP on the fabric.
	Src netip.Addr
}

// Instant implements instantTransport: fabric exchanges are synchronous
// function calls.
func (t *SimTransport) Instant() bool { return true }

// Exchange implements Transport.
func (t *SimTransport) Exchange(_ context.Context, server netip.AddrPort, packed []byte, tcp bool) ([]byte, error) {
	ep := simnet.Endpoint{Addr: server.Addr(), Port: server.Port()}
	if tcp {
		ep.Port += simTCPPortOffset
		return t.Fabric.ExchangeReliable(t.Src, ep, packed)
	}
	return t.Fabric.Exchange(t.Src, ep, packed, 0)
}

// NetTransport is a Transport over real UDP and TCP sockets.
type NetTransport struct {
	// DialTimeout bounds connection setup for TCP exchanges.
	DialTimeout time.Duration
}

// Exchange implements Transport.
func (t *NetTransport) Exchange(ctx context.Context, server netip.AddrPort, packed []byte, tcp bool) ([]byte, error) {
	if tcp {
		return t.exchangeTCP(ctx, server, packed)
	}
	return t.exchangeUDP(ctx, server, packed)
}

func (t *NetTransport) exchangeUDP(ctx context.Context, server netip.AddrPort, packed []byte) ([]byte, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "udp", server.String())
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if deadline, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(deadline)
	}
	if _, err := conn.Write(packed); err != nil {
		return nil, err
	}
	buf := make([]byte, dns.MaxEDNS0Size)
	n, err := conn.Read(buf)
	if err != nil {
		return nil, err
	}
	return buf[:n], nil
}

func (t *NetTransport) exchangeTCP(ctx context.Context, server netip.AddrPort, packed []byte) ([]byte, error) {
	d := net.Dialer{Timeout: t.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", server.String())
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if deadline, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(deadline)
	}
	if err := writeTCPMessage(conn, packed); err != nil {
		return nil, err
	}
	return readTCPMessage(conn)
}

// WriteFrame writes the RFC 1035 §4.2.2 two-octet length prefix followed by
// the message — the stream framing shared by plain TCP and TLS-wrapped DoT
// (RFC 7858 §3.3 carries TCP framing unchanged over the TLS session).
func WriteFrame(w io.Writer, msg []byte) error {
	if len(msg) > dns.MaxMessageSize {
		return errors.New("dnsio: message too large for stream framing")
	}
	hdr := [2]byte{}
	binary.BigEndian.PutUint16(hdr[:], uint16(len(msg)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(msg)
	return err
}

// ReadFrame reads one length-prefixed DNS message from a stream.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint16(hdr[:])
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// writeTCPMessage and readTCPMessage keep the historical names alive for the
// package-internal call sites.
func writeTCPMessage(w io.Writer, msg []byte) error { return WriteFrame(w, msg) }
func readTCPMessage(r io.Reader) ([]byte, error)    { return ReadFrame(r) }
