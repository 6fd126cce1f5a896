// Streaming stage plumbing for the overlapped pipeline: the fused
// nameserver-facing sweep that emits per-server UR batches as they finalize,
// and the error selection that keeps a root cause visible when one stage's
// failure cancels its siblings. The fused sweep and the correct-record sweep
// are the only two sweeps; both run on the collector's one worker pool
// (sweepServers) and one first-pass probe step (serverJob.probe).
//
// Determinism note. Chaos fault draws are pure hashes of (fabric seed,
// endpoint, per-endpoint exchange sequence), so a run is reproducible exactly
// when the order of exchanges to each endpoint is a pure function of the
// configuration. The fused sweep preserves that by construction: one worker
// owns a nameserver for its whole job — canary probes first, then the
// shuffled targets, then the in-job canary retry — so the endpoint's exchange
// sequence never depends on scheduling. The correct-record sweep runs
// concurrently but touches only resolver endpoints, which are disjoint from
// the nameserver set; its re-queue pass uses its own watchdog spare slot so
// the two tails can overlap too.
package core

import (
	"context"
	"errors"

	"repro/internal/dns"
)

// streamBacklog bounds the UR batch channel between the fused sweep and the
// determine workers. Batches buffer here while the correct sweep (the
// determine gate) is still running; a full buffer back-pressures the sweep,
// which only delays emission and never reorders any endpoint's exchanges.
const streamBacklog = 64

// pickErr returns the most diagnostic of the stage errors: the first one
// that is not itself a cancellation (a journal write failure, say, whose
// cancel then swept through the sibling stages), else the first non-nil.
func pickErr(errs ...error) error {
	var fallback error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if fallback == nil {
			fallback = err
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
	}
	return fallback
}

// collectNameservers is the overlapped pipeline's fused nameserver sweep:
// protective-canary collection and UR collection in one pass. Each
// nameserver is one job — canary probes, then every non-delegated target,
// then one in-job retry of the job's own failed canary probes — so a
// server's protective records are final before its URs are emitted, and the
// determine stage can classify a batch as soon as the correct database is
// ready, without waiting for the rest of the sweep.
//
// Probes are booked and journaled under two sweep kinds (sweepProtective /
// sweepURs), so coverage accounting, the failure book, and journal resume
// keep the canary and UR probes apart.
func (c *Collector) collectNameservers(ctx context.Context, db *ProtectiveDB, emit func([]*UR)) error {
	canary := c.cfg.CanaryName()
	c.replaySweep(sweepProtective, func(ns NameserverInfo, _ dns.Name, qt dns.Type, resp *dns.Message) {
		addProtectiveAnswers(db, ns.Addr, qt, resp)
	})
	var replayed []*UR
	c.replaySweep(sweepURs, func(ns NameserverInfo, domain dns.Name, qt dns.Type, resp *dns.Message) {
		replayed = c.ursFromResponse(ns, domain, qt, resp, replayed)
	})
	emit(replayed)

	c.wd.start()
	defer c.wd.stop()

	// The fused pool gets the watchdog slot range [P, 2P), leaving [0, P)
	// to the concurrently running correct sweep.
	workers := c.cfg.parallelism()
	err := c.sweepServers(ctx, c.cfg.Nameservers, workers, func(j *serverJob) error {
		urs, err := c.collectNSFused(ctx, j, canary, db)
		if err == nil {
			emit(urs)
		}
		return err
	})
	if err != nil {
		return err
	}
	// End-of-sweep re-queue of the failed UR probes (canary probes had their
	// in-job retry). Every NS job is done, so these retries are the only
	// remaining traffic to the nameserver endpoints and their per-endpoint
	// order — canonical, single goroutine — is deterministic.
	var recovered []*UR
	err = c.requeue(ctx, sweepURs, c.wd.slot(2*workers+1), func(f probeFailure, resp *dns.Message) {
		recovered = c.ursFromResponse(f.ns, f.domain, f.qtype, resp, recovered)
	})
	if err != nil {
		return err
	}
	emit(recovered)
	return nil
}

// collectNSFused runs one nameserver's fused job. The exchange order to this
// endpoint — canary, targets, canary retry — is a pure function of the
// configuration, which is what keeps chaos runs reproducible (see the
// package comment above).
func (c *Collector) collectNSFused(ctx context.Context, j *serverJob, canary dns.Name, db *ProtectiveDB) ([]*UR, error) {
	ns := j.ns
	// Phase 1: protective canary probes — the endpoint's first exchanges.
	for _, qt := range c.cfg.queryTypes() {
		resp, err := j.probe(ctx, sweepProtective, canary, qt)
		if err != nil {
			return nil, err
		}
		if resp != nil {
			addProtectiveAnswers(db, ns.Addr, qt, resp)
		}
	}
	// Phase 1's failures are the canary's; phase 3 retries them and files
	// what is left with the job's UR failures when the job ends.
	canaryFails := j.fails
	j.fails = nil
	defer func() { j.fails = append(j.fails, canaryFails...) }()

	// Phase 2: the UR sweep over this server's shuffled targets.
	var out []*UR
	for _, target := range c.shuffledTargets(ns.Addr) {
		if c.isExactlyDelegated(target, ns) {
			continue
		}
		for _, qt := range c.cfg.queryTypes() {
			resp, err := j.probe(ctx, sweepURs, target, qt)
			if err != nil {
				return out, err
			}
			if resp != nil {
				out = c.ursFromResponse(ns, target, qt, resp, out)
			}
		}
	}

	// Phase 3: one in-job retry of this job's failed canary probes. The UR
	// phase put tens of exchanges between the failure and the retry, giving
	// flap windows and breakers the same chance to recover that an
	// end-of-sweep re-queue provides — without letting another goroutine
	// interleave on this endpoint. A server's protective set is therefore
	// final when its job ends, which is what lets the caller emit the job's
	// URs for immediate classification.
	var remaining []probeFailure
	rest, err := c.retry(ctx, sweepProtective, j.seg, j.slot, canaryFails, func(f probeFailure, resp *dns.Message) {
		j.issued++
		if resp == nil {
			remaining = append(remaining, f)
			return
		}
		j.answered++
		j.recovered++
		addProtectiveAnswers(db, ns.Addr, f.qtype, resp)
	})
	canaryFails = append(remaining, rest...)
	return out, err
}
