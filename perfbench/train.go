package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"gnnavigator/internal/backend"
	"gnnavigator/internal/cache"
	"gnnavigator/internal/dataset"
	"gnnavigator/internal/infer"
	"gnnavigator/internal/model"
	"gnnavigator/internal/nn"
	"gnnavigator/internal/pipeline"
	"gnnavigator/internal/sample"
	"gnnavigator/internal/tensor"
)

// trainEpochs is the train workload's run length.
const trainEpochs = 10

// dropoutSeedSalt mirrors the backend's per-batch dropout salt, so the
// rebuilt epoch loop draws exactly the masks backend.RunWith draws. A
// change to the backend's dropout stream makes the traced outputs
// diverge, which marks the per-layer numbers invalid.
const dropoutSeedSalt = 0x1d40

// trainConfig is the stock PyG template on ogbn-arxiv with GraphSAGE:
// no device cache, fanouts {25,10}, batch 1024, dropout 0.1.
func trainConfig(seed int64) (backend.Config, error) {
	cfg, err := backend.FromTemplate(backend.TemplatePyG, dataset.OgbnArxiv, model.SAGE, "rtx4090")
	if err != nil {
		return cfg, err
	}
	cfg.Epochs = trainEpochs
	cfg.Seed = seed
	return cfg, nil
}

// runTrain is one cold repetition of the train workload.
func runTrain(seed int64, traced bool) (*repResult, error) {
	t0 := time.Now()
	ds, err := dataset.Load(dataset.OgbnArxiv)
	if err != nil {
		return nil, err
	}
	res := &repResult{SetupS: time.Since(t0).Seconds(), Attempted: 1}
	cfg, err := trainConfig(seed)
	if err != nil {
		return nil, err
	}
	var hist []float64
	if traced {
		tr := newTracer()
		t1 := time.Now()
		hist, err = tracedTrain(cfg, ds, tr)
		if err != nil {
			return nil, err
		}
		res.WallS = time.Since(t1).Seconds()
		fwd := tr.totalMs("forward")
		res.Metrics = map[string]float64{
			"model.forward_ms":     tr.medianMs("forward"),
			"model.backward_ms":    tr.medianMs("backward"),
			"model.forward_gflops": tr.counter("flops") / 1e9 / (fwd / 1e3),
			"nn.loss_ms":           tr.medianMs("loss"),
			"nn.adam_ms":           tr.medianMs("adam"),
			"infer.eval_ms":        tr.medianMs("eval"),
			"pipeline.wait_ms":     tr.medianMs("wait"),
			"sample.ms":            tr.medianMs("sample"),
			"cache.gather_ms":      tr.medianMs("gather"),
			"cache.hit_ratio":      tr.hitRatio(),
			"cache.transfer_mb":    tr.transferMBPerCall(),
			"dataset.load_s":       res.SetupS,
		}
		res.Notes = append(res.Notes, breakdown(tr, res.WallS,
			"forward", "backward", "eval", "wait", "sample", "gather", "loss", "adam"))
	} else {
		t1 := time.Now()
		perf, err := backend.RunWith(cfg, backend.Options{})
		if err != nil {
			return nil, fmt.Errorf("train: %w", err)
		}
		res.WallS = time.Since(t1).Seconds()
		hist = perf.AccuracyHistory
		samples := float64(len(ds.TrainIdx) * cfg.Epochs)
		res.Metrics = map[string]float64{
			"throughput_per_s": samples / res.WallS,
			"latency_ms":       res.WallS * 1e3 / float64(cfg.Epochs),
			"val_acc":          perf.Accuracy,
		}
		res.Report = map[string]float64{
			"train_samples_per_s": samples / res.WallS,
			"val_acc":             perf.Accuracy,
		}
	}
	if len(hist) != cfg.Epochs {
		res.Problems = append(res.Problems, fmt.Sprintf("%d accuracy entries for %d epochs", len(hist), cfg.Epochs))
	}
	res.Digest = "acc=" + floatBits(hist...)
	return res, nil
}

// tracedTrain rebuilds backend.RunWith's epoch loop for cfg (no cache,
// no plan, single device, library-default prefetch) from public calls,
// timing each call into a layer, and returns the per-epoch validation
// accuracy history.
func tracedTrain(cfg backend.Config, ds *dataset.Dataset, tr *tracer) ([]float64, error) {
	g := ds.Graph
	src := &timedSource{FeatureSource: cache.NewGraphSourceAt(g, cfg.FeaturePrecision()), tr: tr}
	smp := &timedSampler{Sampler: &sample.NodeWise{Fanouts: cfg.Fanouts}, tr: tr}
	mdl, err := model.New(model.Config{
		Kind: cfg.Model, InDim: g.FeatDim, Hidden: cfg.Hidden,
		OutDim: g.NumClasses, Layers: cfg.Layers, Heads: cfg.Heads,
		Dropout: cfg.Dropout, Seed: cfg.Seed + 7,
	})
	if err != nil {
		return nil, err
	}
	opt := nn.NewAdam(cfg.LR)
	ws := tensor.NewWorkspace()
	mdl.SetWorkspace(ws)
	prefetch := pipeline.DefaultPrefetch()
	evalEng, err := infer.New(infer.Config{Graph: g, Model: mdl, Seed: cfg.Seed + 29, Prefetch: prefetch})
	if err != nil {
		return nil, err
	}

	var hist []float64
	ready := time.Now() // when the consumer last became ready for a batch
	consume := func(b *pipeline.Batch) error {
		t0 := time.Now()
		tr.span("wait", t0.Sub(ready))
		tr.count("flops", mdl.FLOPs(b.MB))
		if cfg.Dropout > 0 {
			mdl.SeedDropout(sample.BatchSeed(cfg.Seed^dropoutSeedSalt, b.Epoch, b.Index))
		}
		logits, err := mdl.Forward(b.MB, b.Feats, true)
		if err != nil {
			return err
		}
		t1 := time.Now()
		tr.span("forward", t1.Sub(t0))
		_, dLogits := nn.SoftmaxCrossEntropyWS(ws, logits, b.Labels)
		t2 := time.Now()
		tr.span("loss", t2.Sub(t1))
		mdl.Backward(dLogits)
		t3 := time.Now()
		tr.span("backward", t3.Sub(t2))
		opt.Step(mdl.Params())
		ws.ReleaseAll()
		ready = time.Now()
		tr.span("adam", ready.Sub(t3))
		return nil
	}
	epochEnd := func(int) error {
		t0 := time.Now()
		acc, err := evalEng.Accuracy(context.Background(), ds.ValIdx, 0)
		if err != nil {
			return err
		}
		hist = append(hist, acc)
		ready = time.Now()
		tr.span("eval", ready.Sub(t0))
		return nil
	}
	err = pipeline.Run(pipeline.Config{
		Graph:     g,
		Sampler:   smp,
		Source:    src,
		Seed:      cfg.Seed,
		Epochs:    cfg.Epochs,
		BatchSize: cfg.BatchSize,
		Targets:   ds.TrainIdx,
		Shuffle:   true,
		Gather:    true,
		Prefetch:  prefetch,
	}, consume, epochEnd)
	return hist, err
}

// breakdown renders each named span's total time and share of wall.
func breakdown(tr *tracer, wallS float64, names ...string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "split of %.3f s:", wallS)
	for _, n := range names {
		tot := tr.totalMs(n)
		fmt.Fprintf(&b, " %s %.1f ms (%.1f%%, %d calls)", n, tot, 100*tot/(wallS*1e3), tr.calls(n))
	}
	return b.String()
}

// floatBits renders values by their exact IEEE bits, for bitwise
// output comparison across processes.
func floatBits(xs ...float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%x", math.Float64bits(x))
	}
	return strings.Join(parts, ",")
}
