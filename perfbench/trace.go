package main

import (
	"math/rand"
	"sync"
	"time"

	"gnnavigator/internal/cache"
	"gnnavigator/internal/graph"
	"gnnavigator/internal/sample"
	"gnnavigator/internal/tensor"
)

// tracer records, per layer call name, the duration of every call the
// benchmark's own code made into that layer, plus named counters. Spans
// live in memory and are summarized when the repetition ends. The
// serve workload reaches the wrappers from the coalescer's goroutine,
// so access is locked.
type tracer struct {
	mu     sync.Mutex
	spans  map[string][]float64 // milliseconds per call
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{spans: map[string][]float64{}, counts: map[string]float64{}}
}

func (t *tracer) span(name string, d time.Duration) {
	t.mu.Lock()
	t.spans[name] = append(t.spans[name], ms(d))
	t.mu.Unlock()
}

func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// medianMs is the median duration of name's calls.
func (t *tracer) medianMs(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return median(t.spans[name])
}

// totalMs is the summed duration of name's calls.
func (t *tracer) totalMs(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s float64
	for _, d := range t.spans[name] {
		s += d
	}
	return s
}

func (t *tracer) calls(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans[name])
}

func (t *tracer) counter(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// reset drops every span and counter (between serve sessions).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = map[string][]float64{}
	t.counts = map[string]float64{}
	t.mu.Unlock()
}

// timedSampler times every Sample call into the wrapped sampler as the
// "sample" span. keep, when set, receives each sampled minibatch.
type timedSampler struct {
	sample.Sampler
	tr   *tracer
	keep func(*sample.MiniBatch)
}

func (s *timedSampler) Sample(rng *rand.Rand, g *graph.Graph, targets []int32) *sample.MiniBatch {
	t0 := time.Now()
	mb := s.Sampler.Sample(rng, g, targets)
	s.tr.span("sample", time.Since(t0))
	if s.keep != nil {
		s.keep(mb)
	}
	return mb
}

// timedSource times every GatherInto call into the wrapped feature plane
// as the "gather" span and counts the rows asked for, the rows served
// from the device cache and the bytes transferred.
type timedSource struct {
	cache.FeatureSource
	tr *tracer
}

func (s *timedSource) GatherInto(dst *tensor.Dense, nodes []int32) (*tensor.Dense, cache.BatchStats) {
	t0 := time.Now()
	out, st := s.FeatureSource.GatherInto(dst, nodes)
	s.tr.span("gather", time.Since(t0))
	s.tr.count("rows", float64(len(nodes)))
	s.tr.count("hits", float64(len(nodes)-st.Miss))
	s.tr.count("transfer_bytes", float64(st.TransferBytes))
	return out, st
}

// hitRatio is the share of gathered rows the device cache served.
func (t *tracer) hitRatio() float64 {
	if rows := t.counter("rows"); rows > 0 {
		return t.counter("hits") / rows
	}
	return 0
}

// transferMBPerCall is the mean host→device traffic per gather call.
func (t *tracer) transferMBPerCall() float64 {
	if n := t.calls("gather"); n > 0 {
		return t.counter("transfer_bytes") / 1e6 / float64(n)
	}
	return 0
}
