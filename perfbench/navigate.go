package main

import (
	"fmt"
	"runtime"
	"time"

	"gnnavigator/internal/backend"
	"gnnavigator/internal/cache"
	"gnnavigator/internal/core"
	"gnnavigator/internal/dataset"
	"gnnavigator/internal/dse"
	"gnnavigator/internal/estimator"
	"gnnavigator/internal/model"
	"gnnavigator/internal/plan"
)

// The navigate workload: the paper's own flow on reddit2 with GraphSAGE
// on a four-GPU A100 node, calibrated with four probes per
// leave-one-out dataset.
const (
	navTarget       = dataset.Reddit2
	navPlatform     = "a100x4"
	navCalibSamples = 4
	navEpochs       = 3 // the navigator's default final-training length
)

func navInput(seed int64) core.Input {
	return core.Input{
		Dataset:      navTarget,
		Model:        model.SAGE,
		Platform:     navPlatform,
		CalibSamples: navCalibSamples,
		Epochs:       navEpochs,
		Parallelism:  runtime.NumCPU(),
		Seed:         seed,
	}
}

// runNavigate is one cold repetition of the navigate workload.
func runNavigate(seed int64, traced bool) (*repResult, error) {
	in := navInput(seed)
	t0 := time.Now()
	for _, name := range dataset.Names() {
		if _, err := dataset.Load(name); err != nil {
			return nil, err
		}
	}
	res := &repResult{SetupS: time.Since(t0).Seconds(), Attempted: 1}
	var g *core.Guidelines
	t1 := time.Now()
	if traced {
		tr := newTracer()
		var err error
		if g, err = tracedNavigate(in, tr); err != nil {
			return nil, err
		}
		res.WallS = time.Since(t1).Seconds()
		res.Metrics = map[string]float64{
			"estimator.collect_s": tr.totalMs("collect") / 1e3,
			"estimator.probes":    tr.counter("probes"),
			"plan.compiles":       tr.counter("plan.compiles"),
			"plan.hits":           tr.counter("plan.hits"),
			"estimator.train_s":   tr.totalMs("train") / 1e3,
			"dse.explore_s":       tr.totalMs("explore") / 1e3,
			"dse.leaves":          float64(g.Explored),
			"dse.pruned":          float64(g.Pruned),
			"dist.halo_mb":        tr.counter("halo_bytes") / 1e6,
			"dist.allreduce_mb":   tr.counter("allreduce_bytes") / 1e6,
			"dataset.load_s":      res.SetupS,
		}
		res.Notes = append(res.Notes, breakdown(tr, res.WallS, "collect", "train", "explore"))
	} else {
		nav, err := core.New(in)
		if err == nil {
			g, err = nav.Explore()
		}
		if err != nil {
			return nil, fmt.Errorf("navigate: %w", err)
		}
		res.WallS = time.Since(t1).Seconds()
		// The navigator's reference accuracy on the target: the unbiased
		// training run its accuracy predictions are relative to (Eq. 11).
		// Explore computed it; this call reads the memo.
		baseAcc, err := estimator.BaselineAccuracy(navTarget, in.Epochs)
		if err != nil {
			return nil, err
		}
		res.Metrics = map[string]float64{
			"throughput_per_s": float64(g.Explored) / res.WallS,
			"latency_ms":       res.WallS * 1e3,
			"val_acc":          baseAcc,
		}
		res.Report = map[string]float64{"navigate_s": res.WallS, "chosen_acc": g.Chosen.Pred.Accuracy}
	}
	res.Notes = append(res.Notes, fmt.Sprintf("chosen %s: predicted T %.4g s, Γ %.4g GB, Acc %.4f; pareto %d, explored %d, pruned %d",
		g.Chosen.Cfg.Label(), g.Chosen.Pred.TimeSec, g.Chosen.Pred.MemoryGB, g.Chosen.Pred.Accuracy,
		len(g.Pareto), g.Explored, g.Pruned))
	res.Digest = fmt.Sprintf("chosen=%s pred=%s pareto=%d explored=%d pruned=%d",
		g.Chosen.Cfg.Label(), floatBits(g.Chosen.Pred.TimeSec, g.Chosen.Pred.MemoryGB, g.Chosen.Pred.Accuracy),
		len(g.Pareto), g.Explored, g.Pruned)
	return res, nil
}

// tracedNavigate rebuilds core.New + Navigator.Explore for in from
// estimator.CollectWith over estimator.ProbeConfigs, estimator.Train and
// dse.Explorer.Explore, timing each.
func tracedNavigate(in core.Input, tr *tracer) (*core.Guidelines, error) {
	var calib []string
	for _, name := range dataset.Names() {
		if name != in.Dataset {
			calib = append(calib, name)
		}
	}
	var records []estimator.Record
	for i, name := range calib {
		cfgs := estimator.ProbeConfigs(name, in.Model, in.Platform, in.CalibSamples, in.Seed+int64(i)*101)
		compiles, hits := plan.Compiles(), plan.CacheHits()
		t0 := time.Now()
		recs, err := estimator.CollectWith(cfgs, true, in.Parallelism, backend.Options{})
		if err != nil {
			return nil, err
		}
		tr.span("collect", time.Since(t0))
		tr.count("probes", float64(len(cfgs)))
		tr.count("plan.compiles", float64(plan.Compiles()-compiles))
		tr.count("plan.hits", float64(plan.CacheHits()-hits))
		for _, r := range recs {
			tr.count("halo_bytes", float64(r.Perf.HaloBytes))
			tr.count("allreduce_bytes", float64(r.Perf.AllReduceBytes))
		}
		records = append(records, recs...)
	}
	t0 := time.Now()
	est, err := estimator.Train(records)
	if err != nil {
		return nil, err
	}
	tr.span("train", time.Since(t0))

	base := backend.Config{
		Dataset: in.Dataset, Platform: in.Platform, Model: in.Model,
		Hidden: 64, Layers: 2, Heads: 2, Epochs: in.Epochs, LR: 0.01, Seed: in.Seed,
		Sampler: backend.SamplerSAGE, BatchSize: 1024, Fanouts: []int{25, 10},
		CachePolicy: cache.None,
	}
	ex := &dse.Explorer{Est: est, Space: dse.DefaultSpace(), Workers: in.Parallelism}
	t1 := time.Now()
	res, err := ex.Explore(base)
	if err != nil {
		return nil, err
	}
	g := &core.Guidelines{Pareto: res.Pareto, Explored: res.Evaluated, Pruned: res.Pruned}
	if g.Chosen, err = dse.Decide(res.Pareto, dse.Balance); err != nil {
		return nil, err
	}
	tr.span("explore", time.Since(t1))
	return g, nil
}
