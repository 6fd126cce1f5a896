package main

import (
	"runtime"
	"runtime/metrics"
)

// heapPeak tracks the highest live heap seen after a collection. It samples
// at fixed points of the run (after each timed sweep, with its result still
// live, and before each serving step), each after a forced collection, so
// the figure does not depend on where the collector happened to run. Peak
// HeapAlloc swings with GC timing and is not used.
type heapPeak struct {
	max uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

// sample collects garbage and records the live heap.
func (h *heapPeak) sample() {
	runtime.GC()
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		if v := s[0].Value.Uint64(); v > h.max {
			h.max = v
		}
	}
}

// mb returns the peak in MB.
func (h *heapPeak) mb() float64 { return float64(h.max) / (1 << 20) }
