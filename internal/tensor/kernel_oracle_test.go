package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The reference kernels below are the straightforward loops the blocked
// kernels replaced, frozen verbatim (serial, one output element at a
// time). Every production kernel must reproduce them bit for bit: the
// blocking only regroups loads and stores across outputs, never the
// per-element k-order of the sum or the set of skipped terms.

func refMatMul(out, a, b *Dense) {
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := range orow {
			orow[j] = 0
		}
		for k := 0; k < a.Cols; k++ {
			aik := arow[k]
			brow := b.Row(k)
			for j := range brow {
				orow[j] += aik * brow[j]
			}
		}
	}
}

func refMatMulSparse(out, a, b *Dense) {
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := range orow {
			orow[j] = 0
		}
		for k := 0; k < a.Cols; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range brow {
				orow[j] += aik * brow[j]
			}
		}
	}
}

func refMatMulT1(out, a, b *Dense) {
	for i := 0; i < a.Cols; i++ {
		orow := out.Row(i)
		for j := range orow {
			orow[j] = 0
		}
		for k := 0; k < a.Rows; k++ {
			aki := a.Data[k*a.Cols+i]
			brow := b.Row(k)
			for j := range brow {
				orow[j] += aki * brow[j]
			}
		}
	}
}

func refMatMulT1Sparse(out, a, b *Dense) {
	for i := 0; i < a.Cols; i++ {
		orow := out.Row(i)
		for j := range orow {
			orow[j] = 0
		}
		for k := 0; k < a.Rows; k++ {
			aki := a.Data[k*a.Cols+i]
			if aki == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range brow {
				orow[j] += aki * brow[j]
			}
		}
	}
}

func refMatMulT2(out, a, b *Dense) {
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var s float64
			for k, av := range arow {
				s += av * brow[k]
			}
			orow[j] = s
		}
	}
}

// oracleKernel pairs a production kernel with its frozen reference and
// the operand shapes for an (n, k, m) problem: out is n×m, k is the
// reduction length.
type oracleKernel struct {
	name           string
	run, ref       func(out, a, b *Dense)
	aShape, bShape func(n, k, m int) (int, int)
}

var oracleKernels = []oracleKernel{
	{"MatMulInto", MatMulInto, refMatMul, rowsK, kCols},
	{"MatMulSparseInto", MatMulSparseInto, refMatMulSparse, rowsK, kCols},
	{"MatMulT1Into", MatMulT1Into, refMatMulT1, kRows, kCols},
	{"MatMulT1SparseInto", MatMulT1SparseInto, refMatMulT1Sparse, kRows, kCols},
	{"MatMulT2Into", MatMulT2Into, refMatMulT2, rowsK, colsK},
}

func rowsK(n, k, m int) (int, int) { return n, k } // a: n×k
func kRows(n, k, m int) (int, int) { return k, n } // a: k×n (T1)
func kCols(n, k, m int) (int, int) { return k, m } // b: k×m
func colsK(n, k, m int) (int, int) { return m, k } // b: m×k (T2)

// oracleDense fills a rows×cols matrix with normal values, replacing a
// `zeros` fraction of them with exact +0 or -0 (chosen at random).
func oracleDense(rng *rand.Rand, rows, cols int, zeros float64) *Dense {
	m := New(rows, cols)
	negZero := math.Copysign(0, -1)
	for i := range m.Data {
		switch r := rng.Float64(); {
		case r < zeros/2:
			m.Data[i] = 0
		case r < zeros:
			m.Data[i] = negZero
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// bitsEq fails at the first element whose IEEE bits differ.
func bitsEq(t *testing.T, name string, got, want *Dense) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", name, i,
				got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// checkOracle runs kernel kn on one random (n, k, m) problem and compares
// it with the reference by IEEE bits. Both operands carry the zero
// density, so ±0 products reach the accumulators on the dense paths too.
// The output starts out poisoned to catch elements a kernel forgets to
// overwrite.
func checkOracle(t *testing.T, rng *rand.Rand, kn oracleKernel, n, k, m int, zeros float64) {
	t.Helper()
	ar, ac := kn.aShape(n, k, m)
	br, bc := kn.bShape(n, k, m)
	a := oracleDense(rng, ar, ac, zeros)
	b := oracleDense(rng, br, bc, zeros)
	want := New(n, m)
	kn.ref(want, a, b)
	got := New(n, m)
	for i := range got.Data {
		got.Data[i] = math.NaN()
	}
	kn.run(got, a, b)
	bitsEq(t, fmt.Sprintf("%s %dx%dx%d zeros=%.0f%% procs=%d", kn.name, n, k, m, 100*zeros, Parallelism()), got, want)
}

// TestKernelsMatchFrozenReference is the kernel oracle: every matmul
// variant, dense and sparse, at parallelism 1 and 4, on random shapes
// with every dimension in 1..37 and on the training workload's shapes,
// with exact ±0 at 0%, 10% and 50% density, must equal the frozen loops
// bit for bit.
func TestKernelsMatchFrozenReference(t *testing.T) {
	// Workload shapes as (n, k, m) per kernel layout: SAGE layer-0 and
	// layer-1 forwards, dW = Xᵀ·dY and dX = dY·Wᵀ at the arxiv batch size.
	workload := map[string][][3]int{
		"MatMulInto":         {{5000, 32, 64}, {1000, 64, 10}},
		"MatMulSparseInto":   {{5000, 32, 64}, {1000, 64, 10}},
		"MatMulT1Into":       {{32, 5000, 64}, {64, 1000, 10}},
		"MatMulT1SparseInto": {{32, 5000, 64}, {64, 1000, 10}},
		"MatMulT2Into":       {{5000, 64, 32}, {1000, 10, 64}},
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			withParallelism(t, procs)
			rng := rand.New(rand.NewSource(int64(procs)))
			for _, kn := range oracleKernels {
				for _, zeros := range []float64{0, 0.1, 0.5} {
					for trial := 0; trial < 60; trial++ {
						n, k, m := 1+rng.Intn(37), 1+rng.Intn(37), 1+rng.Intn(37)
						checkOracle(t, rng, kn, n, k, m, zeros)
					}
					for _, s := range workload[kn.name] {
						checkOracle(t, rng, kn, s[0], s[1], s[2], zeros)
					}
				}
			}
		})
	}
}

// TestKernelsMatchReferenceOnNonFinite extends the oracle to Inf and NaN
// operands, where skipping a zero term is observable (0·Inf = NaN): the
// sparse kernels must skip exactly the terms the reference skips.
func TestKernelsMatchReferenceOnNonFinite(t *testing.T) {
	withParallelism(t, 1)
	rng := rand.New(rand.NewSource(9))
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for _, kn := range oracleKernels {
		for trial := 0; trial < 40; trial++ {
			n, k, m := 1+rng.Intn(13), 1+rng.Intn(13), 1+rng.Intn(13)
			ar, ac := kn.aShape(n, k, m)
			br, bc := kn.bShape(n, k, m)
			a := oracleDense(rng, ar, ac, 0.4)
			b := oracleDense(rng, br, bc, 0.2)
			for i := range b.Data {
				if rng.Intn(8) == 0 {
					b.Data[i] = special[rng.Intn(len(special))]
				}
			}
			want, got := New(n, m), New(n, m)
			kn.ref(want, a, b)
			kn.run(got, a, b)
			// NaN payloads may legitimately differ; compare NaN-ness and
			// otherwise exact bits.
			for i, w := range want.Data {
				g := got.Data[i]
				if math.IsNaN(w) != math.IsNaN(g) || (!math.IsNaN(w) && math.Float64bits(g) != math.Float64bits(w)) {
					t.Fatalf("%s %dx%dx%d: element %d = %v, want %v", kn.name, n, k, m, i, g, w)
				}
			}
		}
	}
}

// TestKernelsAllocateNothing: the serving path runs these kernels on
// small batches, so the serial path must not allocate per call.
func TestKernelsAllocateNothing(t *testing.T) {
	withParallelism(t, 1)
	rng := rand.New(rand.NewSource(5))
	const n, k, m = 67, 33, 19
	for _, kn := range oracleKernels {
		ar, ac := kn.aShape(n, k, m)
		br, bc := kn.bShape(n, k, m)
		a, b, out := oracleDense(rng, ar, ac, 0.3), oracleDense(rng, br, bc, 0), New(n, m)
		if allocs := testing.AllocsPerRun(20, func() { kn.run(out, a, b) }); allocs != 0 {
			t.Errorf("%s allocates %v times per call at parallelism 1", kn.name, allocs)
		}
	}
}
