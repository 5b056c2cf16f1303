package main

import (
	"bytes"
	"net/http"
	"runtime/metrics"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"microbandit/internal/core"
	"microbandit/internal/cpu"
	"microbandit/internal/prefetch"
	"microbandit/internal/trace"
)

// tracer collects the traced run's boundary timings and counts. It wraps
// the four interfaces the benchmark owns the far side of: the trace
// source, the L2 prefetcher, the bandit controller and the decision
// server's http.Handler. A nil *tracer is the untraced run: every wrap
// method then returns its argument unchanged, so the untraced run calls
// the program exactly as a user would.
//
// Each boundary time is corrected for the clock reads that measure it
// (see boundaryS).
type tracer struct {
	// The simulation workloads run one job at a time, so their
	// boundaries use plain counters.
	traceNs, pfNs, coreNs int64
	chunks                int64
	operateCalls          int64
	coreCalls             int64 // controller Step and Reward calls
	decisions             int64 // controller Step calls

	// chunkHits is what the program's trace sources report as served
	// from a chunk cache (cpu.Core.ChunkCacheStats), summed over jobs.
	chunkHits int64

	// serve-batch calls the handler from two client goroutines.
	handlerNs          atomic.Int64
	status2xx, statusX atomic.Int64

	// clockNs is what timing an empty region reads, on average: the
	// cost of the clock reads a boundary timing includes.
	clockNs float64

	// allocBytes is the heap allocated by the measured runs, read from
	// runtime.ReadMemStats around each.
	allocBytes uint64
}

func newTracer() *tracer {
	const reads = 100_000
	var total time.Duration
	for i := 0; i < reads; i++ {
		t0 := time.Now()
		total += time.Since(t0)
	}
	return &tracer{clockNs: float64(total) / reads}
}

// boundaryS converts the summed time of calls timed calls to seconds,
// less the clock reads' share of it.
func (t *tracer) boundaryS(ns, calls int64) float64 {
	return max(0, float64(ns)-float64(calls)*t.clockNs) / 1e9
}

// addCacheHits adds the chunk-cache hits a finished job's core reports.
func (t *tracer) addCacheHits(c *cpu.Core) {
	if t != nil {
		hits, _ := c.ChunkCacheStats()
		t.chunkHits += hits
	}
}

// The wrappers below expose exactly the optional interfaces their inner
// value has, chosen when it is wrapped: the program probes for these
// and takes other paths when it finds them (cpu.Runner computes a
// context signature for a ContextSetter and samples DRAM bandwidth for a
// BandwidthAware prefetcher), so a wrapper that always had them would
// time work the untraced run never does.

// gen wraps a trace generator. The wrapper is always a ChunkSource,
// which changes nothing: cpu.Core reads a bare generator through
// trace.SourceOf, as the wrapper does.
func (t *tracer) gen(g trace.Generator) trace.Generator {
	if t == nil {
		return g
	}
	w := &tracedGen{Generator: g, src: trace.SourceOf(g), t: t}
	pa, isPA := g.(trace.PhaseAtter)
	cs, isCS := g.(trace.CacheStatser)
	switch {
	case isPA && isCS:
		return struct {
			*tracedGen
			trace.PhaseAtter
			trace.CacheStatser
		}{w, pa, cs}
	case isPA:
		return struct {
			*tracedGen
			trace.PhaseAtter
		}{w, pa}
	case isCS:
		return struct {
			*tracedGen
			trace.CacheStatser
		}{w, cs}
	}
	return w
}

// pf wraps an L2 prefetcher.
func (t *tracer) pf(p prefetch.Prefetcher) prefetch.Prefetcher {
	if t == nil {
		return p
	}
	w := &tracedPf{inner: p, t: t}
	ta, isTA := p.(prefetch.TargetAware)
	ba, isBA := p.(prefetch.BandwidthAware)
	switch {
	case isTA && isBA:
		return struct {
			*tracedPf
			prefetch.TargetAware
			prefetch.BandwidthAware
		}{w, ta, ba}
	case isTA:
		return struct {
			*tracedPf
			prefetch.TargetAware
		}{w, ta}
	case isBA:
		return struct {
			*tracedPf
			prefetch.BandwidthAware
		}{w, ba}
	}
	return w
}

// ctrl wraps a bandit controller.
func (t *tracer) ctrl(c core.Controller) core.Controller {
	if t == nil {
		return c
	}
	w := &tracedCtrl{inner: c, t: t}
	if cs, ok := c.(core.ContextSetter); ok {
		return struct {
			*tracedCtrl
			core.ContextSetter
		}{w, cs}
	}
	return w
}

// handler wraps the decision server.
func (t *tracer) handler(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return &tracedHandler{inner: h, t: t}
}

// tracedGen times and counts chunk production.
type tracedGen struct {
	trace.Generator
	src trace.ChunkSource
	t   *tracer
}

// NextChunk implements trace.ChunkSource.
func (g *tracedGen) NextChunk(c *trace.Chunk) {
	t0 := time.Now()
	g.src.NextChunk(c)
	g.t.traceNs += int64(time.Since(t0))
	g.t.chunks++
}

// tracedPf times and counts Operate calls.
type tracedPf struct {
	inner prefetch.Prefetcher
	t     *tracer
}

// Name implements prefetch.Prefetcher.
func (p *tracedPf) Name() string { return p.inner.Name() }

// Reset implements prefetch.Prefetcher.
func (p *tracedPf) Reset() { p.inner.Reset() }

// Operate implements prefetch.Prefetcher.
func (p *tracedPf) Operate(ev prefetch.Event, buf []uint64) []uint64 {
	t0 := time.Now()
	buf = p.inner.Operate(ev, buf)
	p.t.pfNs += int64(time.Since(t0))
	p.t.operateCalls++
	return buf
}

// tracedCtrl times the bandit agent's Step and Reward.
type tracedCtrl struct {
	inner core.Controller
	t     *tracer
}

// Step implements core.Controller.
func (c *tracedCtrl) Step() int {
	t0 := time.Now()
	arm := c.inner.Step()
	c.t.coreNs += int64(time.Since(t0))
	c.t.coreCalls++
	c.t.decisions++
	return arm
}

// Reward implements core.Controller.
func (c *tracedCtrl) Reward(r float64) {
	t0 := time.Now()
	c.inner.Reward(r)
	c.t.coreNs += int64(time.Since(t0))
	c.t.coreCalls++
}

// InInitialRR implements core.Controller.
func (c *tracedCtrl) InInitialRR() bool { return c.inner.InInitialRR() }

// tracedHandler times requests and counts them by status class.
type tracedHandler struct {
	inner http.Handler
	t     *tracer
}

// ServeHTTP implements http.Handler.
func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := statusWriter{ResponseWriter: w, code: http.StatusOK}
	t0 := time.Now()
	h.inner.ServeHTTP(&sw, r)
	h.t.handlerNs.Add(int64(time.Since(t0)))
	if sw.code >= 200 && sw.code < 300 {
		h.t.status2xx.Add(1)
	} else {
		h.t.statusX.Add(1)
	}
}

// statusWriter records the status a handler writes.
type statusWriter struct {
	http.ResponseWriter
	code int
}

// WriteHeader implements http.ResponseWriter.
func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// layerCost is what a CPU profile of the traced run attributes to each
// layer, plus the garbage collector's CPU time and the heap allocated.
type layerCost struct {
	self       map[string]float64 // CPU seconds by layer (see foldProfile)
	gcS        float64
	allocBytes uint64
}

// profiled runs fn under a CPU profile and measures its layer cost.
func profiled(tr *tracer, fn func()) (layerCost, error) {
	var buf bytes.Buffer
	gc0 := gcCPUSeconds()
	alloc0 := tr.allocBytes
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return layerCost{}, err
	}
	fn()
	pprof.StopCPUProfile()
	self, err := foldProfile(buf.Bytes())
	if err != nil {
		return layerCost{}, err
	}
	return layerCost{self: self, gcS: gcCPUSeconds() - gc0, allocBytes: tr.allocBytes - alloc0}, nil
}

// perPass returns every per-layer metric, with the ones the profile
// measures filled in per pass (n passes were profiled) and the rest 0.
func (c layerCost) perPass(n float64) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	for metric, layer := range map[string]string{
		"cpu.self_s":         layerCPU,
		"mem.self_s":         layerMem,
		"simsmt.self_s":      layerSimSMT,
		"smtwork.self_s":     layerSMTWork,
		"serve.codec_self_s": layerCodec,
		"loadgen.self_s":     layerLoadgen,
		"other.self_s":       layerOther,
	} {
		m[metric] = c.self[layer] / n
	}
	m["runtime.gc_s"] = c.gcS / n
	m["runtime.alloc_mb"] = float64(c.allocBytes) / 1e6 / n
	return m
}

// gcCPUSeconds is the runtime's estimate of the CPU time spent in the
// garbage collector so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
