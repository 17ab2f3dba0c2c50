package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gnnavigator/internal/backend"
	"gnnavigator/internal/cache"
	"gnnavigator/internal/dataset"
	"gnnavigator/internal/infer"
	"gnnavigator/internal/model"
	"gnnavigator/internal/sample"
	"gnnavigator/internal/serve"
)

// Serve workload shape. The rates are fixed offered loads: at the light
// rate the coalescer's MaxWait dominates latency; the heavy rate is
// about 40% of the closed-loop capacity (about 20,000 req/s) measured
// on a 2-vCPU x86-64 virtual machine.
const (
	serveCacheRatio = 0.1 // LRU plane holds 10% of the vertices
	serveZipfSkew   = 1.3
	lightRate       = 2000.0 // requests per second
	heavyRate       = 8000.0
	lightRequests   = 2000
	heavyRequests   = 8000
	warmupRequests  = 1000
	// The max_rps ladder: geometric rates from ladderBase, each rung
	// rungSeconds long, stopping at the first rung that misses the
	// p99 limit, fails a request or builds a backlog. A failing rung
	// whose generator lateness p99 exceeds half the limit is
	// generator-bound: the ladder stops below it without interpolating.
	ladderBase     = heavyRate
	ladderStep     = 1.189207115002721 // 2^(1/4)
	ladderRungs    = 12
	rungSeconds    = 0.2
	p99LimitMs     = 50.0
	predictVerts   = 256 // the offline Predict shape: one full coalescer batch
	predictRepeats = 50
	maxReplay      = 1000 // flush minibatches kept for the forward replay
	serveModelSeed = 11   // training and engine seed of the served model
	// The capacity session: saturationClients closed-loop callers, enough
	// to fill every coalescer batch, for saturationWindows windows.
	saturationClients = 512
	saturationWindows = 10
	saturationWindow  = 200 * time.Millisecond
)

// serveConfig trains the served model: GraphSAGE, hidden 32, two epochs,
// at a fixed seed, so every workload seed serves the same model.
func serveConfig() backend.Config {
	return backend.Config{
		Dataset:     dataset.OgbnArxiv,
		Platform:    "rtx4090",
		Sampler:     backend.SamplerSAGE,
		BatchSize:   1024,
		Fanouts:     []int{10, 5},
		CachePolicy: cache.None,
		Model:       model.SAGE,
		Hidden:      32,
		Layers:      2,
		Epochs:      2,
		LR:          0.01,
		Seed:        serveModelSeed,
	}
}

// serveSetup synthesizes the dataset, trains the served model and
// round-trips it through model.Save/model.Load, returning the loaded
// model, the in-memory run's final accuracy, and the time each step took.
func serveSetup(tmpDir string) (*dataset.Dataset, *model.Model, float64, map[string]float64, error) {
	times := map[string]float64{}
	t0 := time.Now()
	ds, err := dataset.Load(dataset.OgbnArxiv)
	if err != nil {
		return nil, nil, 0, nil, err
	}
	times["dataset.load_s"] = time.Since(t0).Seconds()
	dir, err := os.MkdirTemp(tmpDir, "serve")
	if err != nil {
		return nil, nil, 0, nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "model.gnav")
	perf, err := backend.RunWith(serveConfig(), backend.Options{SaveModelPath: path})
	if err != nil {
		return nil, nil, 0, nil, fmt.Errorf("serve: train: %w", err)
	}
	t1 := time.Now()
	mdl, err := model.Load(path)
	if err != nil {
		return nil, nil, 0, nil, err
	}
	times["model.load_s"] = time.Since(t1).Seconds()
	return ds, mdl, perf.Accuracy, times, nil
}

// serveRig is one server over a fresh LRU plane, with optional timing
// wrappers around the engine's sampler and feature plane.
type serveRig struct {
	ds  *dataset.Dataset
	eng *infer.Engine
	srv *serve.Server
	h   http.Handler
}

func newServeRig(ds *dataset.Dataset, mdl *model.Model, tr *tracer, keep func(*sample.MiniBatch)) (*serveRig, error) {
	g := ds.Graph
	c, err := cache.New(cache.LRU, int(serveCacheRatio*float64(g.NumVertices())), g)
	if err != nil {
		return nil, err
	}
	var src cache.FeatureSource = cache.NewCachedSource(c, g)
	var smp sample.Sampler = infer.EvalSampler(mdl.Cfg().Layers)
	if tr != nil {
		src = &timedSource{FeatureSource: src, tr: tr}
		smp = &timedSampler{Sampler: smp, tr: tr, keep: keep}
	}
	eng, err := infer.New(infer.Config{Graph: g, Model: mdl, Seed: serveModelSeed, Source: src, Sampler: smp})
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Engine: eng})
	if err != nil {
		return nil, err
	}
	return &serveRig{ds: ds, eng: eng, srv: srv, h: srv.Handler()}, nil
}

// sessionResult is one open-loop session's outcome. Latency is timed
// from each request's due time, so generator lateness and queueing
// behind a stall both count.
type sessionResult struct {
	rate               float64
	sent, ok, failed   int
	lat                []float64 // ms, succeeded requests, in send order
	lateMax, lateP99   float64   // generator lateness, ms
	p50, p99, tailMean float64
	// goodput is the rate of requests answered correctly within
	// p99LimitMs, over the session from its start to its last reply.
	goodput       float64
	flushes       int64
	vertsPerFlush float64
	firstFailure  string
}

// zipfPicker draws request vertex sets: 1–3 vertices each, with
// Zipf(1.3) popularity over a fixed ranking of the vertices. The ranking
// is a property of the deployment, like the model, so it does not follow
// the workload seed: the top vertex alone draws about a quarter of the
// requests, and letting the seed pick it would make the seed pick the
// cost of serving.
type zipfPicker struct {
	rank []int32 // rank[i] is the i-th most popular vertex
	zipf *rand.Zipf
	rng  *rand.Rand
}

func newZipfPicker(seed int64, n int) *zipfPicker {
	rank := make([]int32, n)
	for i, v := range rand.New(rand.NewSource(serveModelSeed)).Perm(n) {
		rank[i] = int32(v)
	}
	rng := rand.New(rand.NewSource(seed))
	return &zipfPicker{rank: rank, zipf: rand.NewZipf(rng, serveZipfSkew, 1, uint64(n-1)), rng: rng}
}

func (p *zipfPicker) pick() []int32 {
	vs := make([]int32, 1+p.rng.Intn(3))
	for i := range vs {
		vs[i] = p.rank[p.zipf.Uint64()]
	}
	return vs
}

// runSession drives n /predict requests through the handler at the
// given Poisson rate, in-process: the generator sleeps until each
// request is due and hands it to its own goroutine, never waiting for
// earlier replies (open loop).
func (r *serveRig) runSession(p *zipfPicker, rate float64, n int) sessionResult {
	due := make([]time.Duration, n)
	bodies := make([][]byte, n)
	counts := make([]int, n)
	var at time.Duration
	for i := range due {
		at += time.Duration(p.rng.ExpFloat64() / rate * float64(time.Second))
		due[i] = at
		vs := p.pick()
		counts[i] = len(vs)
		bodies[i], _ = json.Marshal(map[string][]int32{"vertices": vs})
	}
	numClasses := int32(r.ds.Graph.NumClasses)
	before := r.srv.Snapshot()
	lat := make([]float64, n)
	late := make([]float64, n)
	errs := make([]string, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range due {
		dueAt := start.Add(due[i])
		if d := time.Until(dueAt); d > 0 {
			time.Sleep(d)
		}
		late[i] = ms(time.Since(dueAt))
		wg.Add(1)
		go func(i int, dueAt time.Time) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			r.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(bodies[i])))
			lat[i] = ms(time.Since(dueAt))
			errs[i] = checkPredict(rec, counts[i], numClasses)
		}(i, dueAt)
	}
	wg.Wait()
	after := r.srv.Snapshot()

	res := sessionResult{rate: rate, sent: n, lateMax: percentile(late, 1), lateP99: percentile(late, 0.99)}
	for i := range lat {
		if errs[i] != "" {
			res.failed++
			if res.firstFailure == "" {
				res.firstFailure = errs[i]
			}
			continue
		}
		res.ok++
		res.lat = append(res.lat, lat[i])
	}
	res.flushes = after.Flushes - before.Flushes
	if res.flushes > 0 {
		res.vertsPerFlush = float64(after.Vertices-before.Vertices) / float64(res.flushes)
	}
	res.p50, res.p99 = percentile(res.lat, 0.5), percentile(res.lat, 0.99)
	var end float64 // ms from session start to its last reply
	within := 0
	for i := range lat {
		end = math.Max(end, ms(due[i])+lat[i])
		if errs[i] == "" && lat[i] <= p99LimitMs {
			within++
		}
	}
	res.goodput = float64(within) / (end / 1e3)
	// Backlog check: the mean latency of the last tenth of the session.
	if tail := res.lat[len(res.lat)*9/10:]; len(tail) > 0 {
		var s float64
		for _, l := range tail {
			s += l
		}
		res.tailMean = s / float64(len(tail))
	}
	return res
}

// checkPredict validates one /predict reply: status 200 and one
// in-range class per requested vertex. It returns "" for a good reply.
func checkPredict(rec *httptest.ResponseRecorder, n int, numClasses int32) string {
	if rec.Code != http.StatusOK {
		return fmt.Sprintf("status %d: %s", rec.Code, rec.Body.String())
	}
	var pr struct {
		Classes []int32 `json:"classes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
		return "bad reply: " + err.Error()
	}
	if len(pr.Classes) != n {
		return fmt.Sprintf("%d classes for %d vertices", len(pr.Classes), n)
	}
	for _, c := range pr.Classes {
		if c < 0 || c >= numClasses {
			return fmt.Sprintf("class %d out of range [0,%d)", c, numClasses)
		}
	}
	return ""
}

// saturate drives the handler closed-loop: saturationClients callers
// each send their next request as soon as the previous one is answered.
// The server never idles, so its completion rate is its capacity: the
// median rate over saturationWindows consecutive windows, which a short
// stall of the host moves less than a single long window.
func (r *serveRig) saturate(p *zipfPicker) sessionResult {
	bodies := make([][]byte, 40000)
	counts := make([]int, len(bodies))
	for i := range bodies {
		vs := p.pick()
		counts[i] = len(vs)
		bodies[i], _ = json.Marshal(map[string][]int32{"vertices": vs})
	}
	numClasses := int32(r.ds.Graph.NumClasses)
	var next, failed atomic.Int64
	done := make([]atomic.Int64, saturationWindows)
	var firstFailure atomic.Value
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(saturationWindows * saturationWindow)
	for c := 0; c < saturationClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)-1) % len(bodies)
				rec := httptest.NewRecorder()
				r.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(bodies[i])))
				if msg := checkPredict(rec, counts[i], numClasses); msg != "" {
					failed.Add(1)
					firstFailure.CompareAndSwap(nil, msg)
					continue
				}
				if w := int(time.Since(start) / saturationWindow); w < saturationWindows {
					done[w].Add(1)
				}
			}
		}()
	}
	wg.Wait()
	res := sessionResult{sent: int(next.Load()), failed: int(failed.Load())}
	res.ok = res.sent - res.failed
	rates := make([]float64, saturationWindows)
	for w := range done {
		rates[w] = float64(done[w].Load()) / saturationWindow.Seconds()
	}
	res.rate = median(rates)
	if msg, set := firstFailure.Load().(string); set {
		res.firstFailure = msg
	}
	return res
}

// passes reports whether a ladder rung met the latency limit with no
// failed request and no growing backlog.
func (s sessionResult) passes() bool {
	return s.failed == 0 && s.p99 <= p99LimitMs && s.tailMean <= p99LimitMs
}

// maxRPS climbs the rate ladder and returns the highest rate that meets
// the p99 limit, interpolated in log-log space between the last passing
// and the first failing rung, plus a description of where it stopped.
func (r *serveRig) maxRPS(p *zipfPicker, add func(sessionResult)) (float64, string) {
	var last *sessionResult
	rate := ladderBase
	for k := 0; k < ladderRungs; k, rate = k+1, rate*ladderStep {
		s := r.runSession(p, rate, int(rate*rungSeconds))
		add(s)
		if s.passes() {
			last = &s
			continue
		}
		if last == nil {
			return rate / ladderStep, fmt.Sprintf("below the ladder: the first rung, %.0f req/s, missed the limit (p99 %.2f ms, %d failed)", rate, s.p99, s.failed)
		}
		if s.lateP99 > p99LimitMs/2 {
			// The generator, not the server, fell behind: the rung says
			// nothing about the server, so stop below it.
			return last.rate, fmt.Sprintf("generator-bound at %.0f req/s (lateness p99 %.2f ms)", rate, s.lateP99)
		}
		hi := math.Max(s.p99, s.tailMean)
		if s.failed > 0 || hi <= last.p99 {
			return last.rate, fmt.Sprintf("stopped at %.0f req/s (%d failed, p99 %.2f ms)", rate, s.failed, s.p99)
		}
		f := (math.Log(p99LimitMs) - math.Log(last.p99)) / (math.Log(hi) - math.Log(last.p99))
		return math.Exp(math.Log(last.rate) + f*(math.Log(rate)-math.Log(last.rate))),
			fmt.Sprintf("limit crossed between %.0f (p99 %.2f ms) and %.0f req/s (p99 %.2f ms)", last.rate, last.p99, rate, hi)
	}
	return last.rate, "ladder top reached"
}

// offlinePredict runs Engine.Predict over a fixed predictVerts-vertex
// list predictRepeats times and returns the median call time and a
// digest of the predicted classes, which must not change between calls.
func (r *serveRig) offlinePredict() (float64, string, error) {
	rng := rand.New(rand.NewSource(serveModelSeed))
	targets := make([]int32, predictVerts)
	for i, v := range rng.Perm(r.ds.Graph.NumVertices())[:predictVerts] {
		targets[i] = int32(v)
	}
	var times []float64
	var digest string
	for i := 0; i < predictRepeats; i++ {
		t0 := time.Now()
		pred, err := r.eng.Predict(context.Background(), targets)
		if err != nil {
			return 0, "", err
		}
		times = append(times, ms(time.Since(t0)))
		h := fnv.New64a()
		for _, c := range pred.Classes {
			h.Write([]byte{byte(c), byte(c >> 8)})
		}
		d := fmt.Sprintf("%x", h.Sum64())
		if digest != "" && d != digest {
			return 0, "", fmt.Errorf("offline predict classes changed between calls")
		}
		digest = d
	}
	return median(times), digest, nil
}

// runServe is one cold repetition of the serve workload. The seed draws
// the request stream (vertex popularity, request sizes and arrivals);
// the served model is the same on every seed.
func runServe(seed int64, traced bool, tmpDir string) (*repResult, error) {
	t0 := time.Now()
	ds, mdl, trainedAcc, setupTimes, err := serveSetup(tmpDir)
	if err != nil {
		return nil, err
	}
	res := &repResult{SetupS: time.Since(t0).Seconds()}

	// The loaded model must evaluate exactly as the trained one did.
	evalEng, err := infer.New(infer.Config{Graph: ds.Graph, Model: mdl, Seed: serveModelSeed + 29})
	if err != nil {
		return nil, err
	}
	acc, err := evalEng.Accuracy(context.Background(), ds.ValIdx, 0)
	if err != nil {
		return nil, err
	}
	if math.Float64bits(acc) != math.Float64bits(trainedAcc) {
		res.Problems = append(res.Problems, fmt.Sprintf("loaded model accuracy %v != trained %v", acc, trainedAcc))
	}

	var tr *tracer
	var flushBatches []*sample.MiniBatch
	var keep func(*sample.MiniBatch)
	if traced {
		tr = newTracer()
		keep = func(mb *sample.MiniBatch) {
			if len(flushBatches) < maxReplay {
				flushBatches = append(flushBatches, mb)
			}
		}
	}
	rig, err := newServeRig(ds, mdl, tr, keep)
	if err != nil {
		return nil, err
	}
	defer rig.srv.Close()
	picker := newZipfPicker(seed, ds.Graph.NumVertices())
	add := func(s sessionResult) {
		res.Attempted += s.sent
		res.Failed += s.failed
		if s.firstFailure != "" {
			res.Problems = append(res.Problems, fmt.Sprintf("at %.0f req/s: %s", s.rate, s.firstFailure))
		}
	}
	session := func(name string, rate float64, n int) sessionResult {
		s := rig.runSession(picker, rate, n)
		add(s)
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s %.0f req/s: sent %d ok %d failed %d; p50 %.2f ms p99 %.2f ms; generator lateness p99 %.3f ms max %.3f ms; %d flushes, %.2f vertices/flush",
			name, s.rate, s.sent, s.ok, s.failed, s.p50, s.p99, s.lateP99, s.lateMax, s.flushes, s.vertsPerFlush))
		return s
	}

	session("warmup", heavyRate, warmupRequests)
	light := session("light", lightRate, lightRequests)
	if traced {
		// Per-layer serve numbers describe the heavy session only.
		tr.reset()
		flushBatches = flushBatches[:0]
	}
	heavy := session("heavy", heavyRate, heavyRequests)
	if traced {
		res.Metrics = map[string]float64{
			"sample.ms":                tr.medianMs("sample"),
			"cache.gather_ms":          tr.medianMs("gather"),
			"cache.hit_ratio":          tr.hitRatio(),
			"cache.transfer_mb":        tr.transferMBPerCall(),
			"infer.flushes":            float64(heavy.flushes),
			"infer.vertices_per_flush": heavy.vertsPerFlush,
			"dataset.load_s":           setupTimes["dataset.load_s"],
			"model.load_s":             setupTimes["model.load_s"],
		}
		fwd, gflops, err := replayForward(ds, mdl, flushBatches)
		if err != nil {
			return nil, err
		}
		res.Metrics["model.forward_ms"] = fwd
		res.Metrics["model.forward_gflops"] = gflops
	}
	predictMs, digest, err := rig.offlinePredict()
	if err != nil {
		return nil, err
	}
	res.WallS = predictMs / 1e3
	res.Digest = "acc=" + floatBits(acc) + " predict=" + digest
	if traced {
		res.Metrics["infer.predict_ms"] = predictMs
		return res, nil
	}

	capacity := rig.saturate(picker)
	add(capacity)
	res.Notes = append(res.Notes, fmt.Sprintf("capacity: %d closed-loop callers completed %d requests (%d failed), %.0f req/s",
		saturationClients, capacity.ok, capacity.failed, capacity.rate))
	maxRPS, how := rig.maxRPS(picker, add)
	res.Notes = append(res.Notes, "max_rps: "+how)
	res.Metrics = map[string]float64{
		"throughput_per_s": heavy.goodput,
		"latency_ms":       heavy.p50,
		"val_acc":          acc,
	}
	res.Report = map[string]float64{
		"p50_ms.light":           light.p50,
		"p99_ms.light":           light.p99,
		"p50_ms.heavy":           heavy.p50,
		"p99_ms.heavy":           heavy.p99,
		"max_rps":                maxRPS,
		"capacity_rps":           capacity.rate,
		"goodput_rps.heavy":      heavy.goodput,
		"predict_vertices_per_s": predictVerts / (predictMs / 1e3),
		"val_acc":                acc,
		"late_p99_ms.heavy":      heavy.lateP99,
		"late_max_ms.heavy":      heavy.lateMax,
	}
	return res, nil
}

// replayForward times Model.Forward over minibatches recorded from live
// flushes, so forward cost is measured on the shapes traffic produced.
// It returns the median call time and the achieved GFLOP/s.
func replayForward(ds *dataset.Dataset, mdl *model.Model, mbs []*sample.MiniBatch) (float64, float64, error) {
	ws := mdl.Workspace()
	var times []float64
	var flops, total float64
	for _, mb := range mbs {
		feats := cache.GatherRowsInto(nil, ds.Graph, mb.InputNodes)
		t0 := time.Now()
		if _, err := mdl.Forward(mb, feats, false); err != nil {
			return 0, 0, err
		}
		d := ms(time.Since(t0))
		ws.ReleaseAll()
		times = append(times, d)
		total += d
		flops += mdl.FLOPs(mb)
	}
	if total == 0 {
		return 0, 0, nil
	}
	return median(times), flops / 1e9 / (total / 1e3), nil
}
