package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"microbandit/internal/serve"
	"microbandit/internal/serve/loadgen"
	"microbandit/internal/version"
)

// serve-batch shape: two closed-loop clients (a simulator waits for its
// arm before it takes the next step), each owning sizes.ServeBatch DUCB
// sessions of 8 arms and advancing all of them with one /v1/batch
// request per round that carries a reward and a step for every session.
const (
	serveWorkers = 2
	serveArms    = 8
	// servePass is the decision count one serve-batch pass stands for.
	servePass = 1_000_000
	// serveSetups is how many times a run builds a server and its
	// sessions to measure set-up.
	serveSetups = 41
)

// serveSetup builds a server and the sessions one round's clients own,
// through the HTTP API as the clients do, and returns the time it took.
func serveSetup(spec serve.Spec, sessions int) (float64, error) {
	t0 := time.Now()
	srv := serve.New(serve.Config{Version: version.String()})
	for i := 0; i < sessions; i++ {
		sp := spec
		sp.Seed = spec.Seed*100_000 + uint64(i) + 1
		body, err := json.Marshal(sp)
		if err != nil {
			return 0, err
		}
		rw := httptest.NewRecorder()
		srv.ServeHTTP(rw, httptest.NewRequest("POST", "/v1/sessions", bytes.NewReader(body)))
		if rw.Code != http.StatusCreated {
			return 0, fmt.Errorf("serve-batch: create session: status %d: %s", rw.Code, rw.Body.String())
		}
	}
	return time.Since(t0).Seconds(), nil
}

// serveProbes is how many machine-speed probes (see probe.go) run
// before each round, and again after it.
const serveProbes = 3

// serveRound is one load round and its machine-speed scale, from the
// probes around it.
type serveRound struct {
	*loadgen.Result
	scale float64
}

// serveRounds runs loadgen rounds of length round, each against a fresh
// in-process server, until another round would overrun budget (at
// least one). It returns each round's result and the decisions the
// servers completed, warm-up included. After each round it checks that
// the server completed at least the decisions the clients counted, and
// counts a failure in o when it did not.
func serveRounds(spec serve.Spec, batch int, round, budget time.Duration, tr *tracer, o *outcome) ([]serveRound, int64, error) {
	var results []serveRound
	var decisions int64
	start := time.Now()
	for {
		// Start every round from a collected heap, like a fresh process.
		runtime.GC()
		var sp speed
		for i := 0; i < serveProbes; i++ {
			sp.sample()
		}
		srv := serve.New(serve.Config{Version: version.String()})
		var m0, m1 runtime.MemStats
		if tr != nil {
			runtime.ReadMemStats(&m0)
		}
		t0 := time.Now()
		res, err := loadgen.Run(context.Background(), loadgen.Options{
			Handler:  tr.handler(srv),
			Workers:  serveWorkers,
			Duration: round,
			Spec:     spec,
			Batch:    batch,
		})
		if err != nil {
			return nil, 0, err
		}
		if tr != nil {
			runtime.ReadMemStats(&m1)
			tr.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		}
		if res.ZeroSample {
			return nil, 0, fmt.Errorf("serve-batch: a %v round completed no request", round)
		}
		var done int64
		for _, id := range srv.Store().IDs() {
			if s, ok := srv.Store().Get(id); ok {
				if info, err := s.Info(); err == nil {
					done += int64(info.Seq)
				}
			}
		}
		o.attempted++
		if done < res.Decisions {
			o.failed++
			fmt.Fprintf(os.Stderr, "perfbench: serve-batch: server completed %d decisions, clients counted %d\n", done, res.Decisions)
		}
		decisions += done
		for i := 0; i < serveProbes; i++ {
			sp.sample()
		}
		results = append(results, serveRound{res, sp.scale()})
		if time.Since(start)+time.Since(t0) > budget {
			return results, decisions, nil
		}
	}
}

// runServe runs serve-batch. A request fails when it answers non-2xx or
// reports a protocol error, whether or not the client recovers from it.
func runServe(sz sizes, seed uint64, budget time.Duration, traced bool) (*outcome, error) {
	spec := serve.Spec{Algo: "ducb", Arms: serveArms, Seed: seed}
	o := &outcome{metrics: map[string]float64{}, detail: map[string]any{}}
	// tally reports a phase's wall_s, from its throughput over all rounds,
	// and its latency percentiles, each the sample-weighted mean over
	// rounds; a round's throughput and latency shift together between a
	// few levels from round to round, which a mean follows smoothly and a
	// median does not. It counts the phase's requests and failures.
	tally := func(rounds []serveRound, scaled bool) (wall, p50, p99 float64) {
		var secs, decisions, samples float64
		for _, r := range rounds {
			f := 1.0
			if scaled {
				f = r.scale
			}
			secs += r.Seconds * f
			decisions += float64(r.Decisions)
			samples += float64(r.Samples)
			p50 += r.P50Us * f * float64(r.Samples)
			p99 += r.P99Us * f * float64(r.Samples)
		}
		return servePass * secs / decisions, p50 / samples, p99 / samples
	}
	// count adds a phase's requests and failures to the outcome.
	count := func(rounds []serveRound) {
		var samples int64
		for _, r := range rounds {
			o.attempted += r.Requests
			o.failed += r.Errors + r.Retries + r.Resyncs
			samples += r.Samples
		}
		o.detail["rounds"] = len(rounds)
		o.detail["latency_samples"] = samples
	}

	if !traced {
		var sp speed
		var setups []float64
		for i := 0; i < serveSetups; i++ {
			runtime.GC()
			sp.sample()
			s, err := serveSetup(spec, serveWorkers*sz.ServeBatch)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s)
		}
		rounds, _, err := serveRounds(spec, sz.ServeBatch, sz.ServeRound, budget, nil, o)
		if err != nil {
			return nil, err
		}
		count(rounds)
		o.metrics["setup_s"] = median(setups) * sp.scale()
		o.metrics["wall_s"], o.metrics["p50_us"], o.metrics["p99_us"] = tally(rounds, true)
		o.metrics["peak_rss_mb"] = peakRSSMB()
		raw := map[string]float64{"setup_s": median(setups)}
		raw["wall_s"], raw["p50_us"], raw["p99_us"] = tally(rounds, false)
		o.detail["decisions_per_s"] = servePass / raw["wall_s"]
		o.detail["raw"] = raw
		return o, nil
	}

	base, _, err := serveRounds(spec, sz.ServeBatch, sz.ServeRound, budget/2, nil, o)
	if err != nil {
		return nil, err
	}
	count(base)
	baseWall, _, _ := tally(base, true)
	tr := newTracer()
	var rounds []serveRound
	var decisions int64
	var runErr error
	cost, err := profiled(tr, func() {
		rounds, decisions, runErr = serveRounds(spec, sz.ServeBatch, sz.ServeRound, budget/2, tr, o)
	})
	if err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	count(rounds)
	wall, _, _ := tally(rounds, true)

	n := float64(decisions) / servePass
	m := cost.perPass(n)
	coreS := cost.self[layerCore]
	m["core.self_s"] = coreS / n
	m["core.steps"] = float64(decisions) / n
	m["core.kernel_ns_per_decision"] = ratio(coreS*1e9, float64(decisions))
	handlerS := tr.boundaryS(tr.handlerNs.Load(), tr.status2xx.Load()+tr.statusX.Load())
	m["serve.handler_self_s"] = max(0, handlerS-cost.self[layerCodec]-coreS) / n
	m["serve.requests_2xx"] = float64(tr.status2xx.Load()) / n
	m["serve.requests_non2xx"] = float64(tr.statusX.Load()) / n
	m["bench.trace_overhead"] = ratio(wall, baseWall)
	o.metrics = m
	o.detail["wall_s"] = baseWall
	o.detail["traced_wall_s"] = wall
	o.detail["profile_s"] = cost.self
	return o, nil
}
