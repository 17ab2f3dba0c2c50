// Package main_test hosts the benchmark harness: one testing.B benchmark
// per table and figure of the paper's evaluation (regenerating its
// rows/series via internal/experiments), plus micro-benchmarks of the
// performance-critical substrates.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Experiment benchmarks execute at Quick fidelity per iteration; use
// cmd/benchtab -full for evaluation-default budgets.
package main_test

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"gnnavigator/internal/backend"
	"gnnavigator/internal/dataset"
	"gnnavigator/internal/estimator"
	"gnnavigator/internal/experiments"
	"gnnavigator/internal/model"
	"gnnavigator/internal/sample"
	"gnnavigator/internal/tensor"
)

// --- experiment regeneration: one benchmark per table/figure ---------------

func BenchmarkFig1aPaGraphTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig1a(io.Discard, experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1b2PGraphAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig1b(io.Discard, experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5MinibatchEstimator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig5(io.Discard, experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Overall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable1(io.Discard, experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6ParetoFronts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig6(io.Discard, experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2EstimatorValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable2(io.Discard, experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benchmarks (design choices called out in DESIGN.md) ----------

func BenchmarkAblationPruning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationPruning(io.Discard, experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationCachePolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationCachePolicy(io.Discard, experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationPipeline(io.Discard, experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks ---------------------------------------------

func BenchmarkNodeWiseSampling(b *testing.B) {
	d := dataset.MustLoad(dataset.Reddit2)
	s := &sample.NodeWise{Fanouts: []int{25, 10}}
	rng := rand.New(rand.NewSource(1))
	targets := d.TrainIdx[:1024]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mb := s.Sample(rng, d.Graph, targets)
		if mb.NumVertices == 0 {
			b.Fatal("empty batch")
		}
	}
}

func BenchmarkSubgraphSampling(b *testing.B) {
	d := dataset.MustLoad(dataset.Reddit2)
	s := &sample.SubgraphWise{WalkLength: 12, Layers: 2}
	rng := rand.New(rand.NewSource(1))
	targets := d.TrainIdx[:512]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mb := s.Sample(rng, d.Graph, targets)
		if mb.NumVertices == 0 {
			b.Fatal("empty batch")
		}
	}
}

func BenchmarkSAGEForwardBackward(b *testing.B) {
	d := dataset.MustLoad(dataset.Reddit2)
	g := d.Graph
	s := &sample.NodeWise{Fanouts: []int{10, 5}}
	rng := rand.New(rand.NewSource(1))
	mb := s.Sample(rng, g, d.TrainIdx[:512])
	mdl, err := model.New(model.Config{
		Kind: model.SAGE, InDim: g.FeatDim, Hidden: 64, OutDim: g.NumClasses,
		Layers: 2, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	feats := model.GatherFeatures(g, mb.InputNodes)
	labels := make([]int32, len(mb.Targets))
	for i, v := range mb.Targets {
		labels[i] = g.Labels[v]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logits, err := mdl.Forward(mb, feats, true)
		if err != nil {
			b.Fatal(err)
		}
		grad := tensor.New(logits.Rows, logits.Cols)
		mdl.Backward(grad)
	}
}

func BenchmarkBackendEpoch(b *testing.B) {
	cfg, err := backend.FromTemplate(backend.TemplatePyG, dataset.Reddit2, model.SAGE, "rtx4090")
	if err != nil {
		b.Fatal(err)
	}
	cfg.Epochs = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := backend.RunWith(cfg, backend.Options{SkipTraining: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimatorPredict(b *testing.B) {
	recs, err := estimator.CollectCached(dataset.OgbnArxiv, model.SAGE, "rtx4090", 12, 7, true)
	if err != nil {
		b.Fatal(err)
	}
	est, err := estimator.Train(recs)
	if err != nil {
		b.Fatal(err)
	}
	cfg := recs[0].Cfg
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Predict(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- sharded kernel benchmarks ----------------------------------------------
//
// Every kernel is measured at serial (1 worker) and parallel (4 workers)
// settings with allocs/op reported, enforcing the zero-steady-state-alloc
// claim by numbers. On a single-core host the parallel variants mostly
// measure dispatch overhead; on multi-core they show the speedup recorded
// in BENCH_parallel.json (cmd/benchtab -parallel-bench).

func dense256(seed int64) *tensor.Dense {
	rng := rand.New(rand.NewSource(seed))
	m := tensor.New(256, 256)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// benchWorkers runs fn under "serial" (1) and "parallel" (4) worker
// settings, restoring the previous setting afterwards.
func benchWorkers(b *testing.B, fn func(b *testing.B)) {
	prev := tensor.Parallelism()
	defer tensor.SetParallelism(prev)
	for _, w := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel4", 4}} {
		b.Run(w.name, func(b *testing.B) {
			tensor.SetParallelism(w.workers)
			b.ReportAllocs()
			fn(b)
		})
	}
}

func BenchmarkMatMul256(b *testing.B) {
	m, n, out := dense256(1), dense256(2), tensor.New(256, 256)
	benchWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.MatMulInto(out, m, n)
		}
	})
}

// BenchmarkMatMulSkipDense measures the sparse-skip kernel on fully dense
// inputs: the delta vs BenchmarkMatMul256 is the price of the always-taken
// aik == 0 compare, which is why the skip lives only in MatMulSparseInto.
func BenchmarkMatMulSkipDense(b *testing.B) {
	m, n, out := dense256(1), dense256(2), tensor.New(256, 256)
	benchWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.MatMulSparseInto(out, m, n)
		}
	})
}

// BenchmarkMatMulSkipSparse measures the same kernel on a post-ReLU-like
// input (half the entries exactly zero), where the skip wins.
func BenchmarkMatMulSkipSparse(b *testing.B) {
	m, n, out := dense256(1), dense256(2), tensor.New(256, 256)
	for i := range m.Data {
		if m.Data[i] < 0 {
			m.Data[i] = 0 // ReLU
		}
	}
	benchWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.MatMulSparseInto(out, m, n)
		}
	})
}

func BenchmarkMatMulT1_256(b *testing.B) {
	m, n, out := dense256(1), dense256(2), tensor.New(256, 256)
	benchWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.MatMulT1Into(out, m, n)
		}
	})
}

func BenchmarkMatMulT2_256(b *testing.B) {
	m, n, out := dense256(1), dense256(2), tensor.New(256, 256)
	benchWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.MatMulT2Into(out, m, n)
		}
	})
}

// --- matmul kernels at the training workload's shapes ------------------------
//
// The 256³ cases above are square and cache-resident; the SAGE trainer
// on ogbn-arxiv (batch 1000, fanouts 10/5 → ≈5000 layer-0 sources,
// 32 → 64 → 10 features) runs tall-skinny products instead. These cases
// reproduce its four largest shapes.

func denseShape(seed int64, rows, cols int, zeros float64) *tensor.Dense {
	rng := rand.New(rand.NewSource(seed))
	m := tensor.New(rows, cols)
	for i := range m.Data {
		if rng.Float64() >= zeros {
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// BenchmarkMatMulWorkload covers X·W at layer 0 (5000×32·32×64) and
// layer 1 (1000×64·64×10), dense and with the sparse kernel on a
// half-zero (post-ReLU/dropout-like) input.
func BenchmarkMatMulWorkload(b *testing.B) {
	for _, s := range []struct{ n, k, m int }{{5000, 32, 64}, {1000, 64, 10}} {
		x, w, out := denseShape(1, s.n, s.k, 0), denseShape(2, s.k, s.m, 0), tensor.New(s.n, s.m)
		xs := denseShape(1, s.n, s.k, 0.5)
		b.Run(fmt.Sprintf("%dx%dx%d", s.n, s.k, s.m), func(b *testing.B) {
			benchWorkers(b, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tensor.MatMulInto(out, x, w)
				}
			})
		})
		b.Run(fmt.Sprintf("%dx%dx%d/sparse", s.n, s.k, s.m), func(b *testing.B) {
			benchWorkers(b, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tensor.MatMulSparseInto(out, xs, w)
				}
			})
		})
	}
}

// BenchmarkMatMulT1Workload is dW = Xᵀ·dY at layer 0: 5000×32ᵀ·5000×64.
func BenchmarkMatMulT1Workload(b *testing.B) {
	x, dy, out := denseShape(1, 5000, 32, 0), denseShape(2, 5000, 64, 0), tensor.New(32, 64)
	benchWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.MatMulT1Into(out, x, dy)
		}
	})
}

// BenchmarkMatMulT2Workload is dX = dY·Wᵀ at layer 0: 5000×64·(32×64)ᵀ.
func BenchmarkMatMulT2Workload(b *testing.B) {
	dy, w, out := denseShape(1, 5000, 64, 0), denseShape(2, 32, 64, 0), tensor.New(5000, 32)
	benchWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.MatMulT2Into(out, dy, w)
		}
	})
}

func BenchmarkGatherRows(b *testing.B) {
	src := dense256(1)
	rng := rand.New(rand.NewSource(3))
	idx := make([]int32, 4096)
	for i := range idx {
		idx[i] = int32(rng.Intn(src.Rows))
	}
	out := tensor.New(len(idx), src.Cols)
	benchWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.GatherRowsInto(out, src, idx)
		}
	})
}

func BenchmarkScatterAddRows(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	idx := make([]int32, 4096)
	for i := range idx {
		idx[i] = int32(rng.Intn(256))
	}
	src := tensor.New(len(idx), 256)
	for i := range src.Data {
		src.Data[i] = rng.NormFloat64()
	}
	dst := tensor.New(256, 256)
	benchWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.ScatterAddRows(dst, src, idx)
		}
	})
}

func BenchmarkSoftmaxRows(b *testing.B) {
	m := dense256(1)
	benchWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.SoftmaxRows()
		}
	})
}

func BenchmarkApply(b *testing.B) {
	m := dense256(1)
	relu := func(v float64) float64 {
		if v > 0 {
			return v
		}
		return 0
	}
	benchWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Apply(relu)
		}
	})
}

func BenchmarkAddBias(b *testing.B) {
	m := dense256(1)
	bias := make([]float64, m.Cols)
	benchWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.AddBias(bias)
		}
	})
}

// BenchmarkEpochParallel runs one full training epoch (sampling, cache,
// gather, forward, backward, Adam) at serial and parallel settings.
// allocs/op is the number to watch: the workspace arena and scratch
// reuse keep the steady-state epoch 24x below the seed's allocation
// rate (27,531 -> 1,134 allocs/op; see README "Performance").
func BenchmarkEpochParallel(b *testing.B) {
	cfg, err := backend.FromTemplate(backend.TemplatePyG, dataset.OgbnArxiv, model.SAGE, "rtx4090")
	if err != nil {
		b.Fatal(err)
	}
	cfg.Epochs = 1
	for _, w := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel4", 4}} {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := backend.RunWith(cfg, backend.Options{
					EvalBatch: 512, Parallelism: w.workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
