// Package tensor implements the dense row-major float64 matrices that the
// pure-Go GNN training engine is built on. It provides exactly the
// operations forward/backward passes need — matmul in the three layouts
// (AB, AᵀB, ABᵀ), broadcast bias, elementwise maps, row gather/scatter —
// and nothing speculative.
//
// Every hot kernel has an Into variant that reuses caller storage (see
// Workspace for the arena that feeds them) and is sharded across the
// package worker pool (see SetParallelism). Sharding is always over
// disjoint output ranges with a fixed per-element accumulation order, so
// a kernel's result is bitwise-identical at any parallelism level.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Shard grains: the minimum per-shard iteration count worth dispatching
// to the pool, sized so dispatch overhead (~1µs) stays well under shard
// work.
const (
	rowGrain  = 8    // matmul-class rows
	flatGrain = 4096 // elementwise scalar ops
	copyGrain = 64   // row copies (gather)
)

// Dense is a row-major Rows x Cols matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zeroed Rows x Cols matrix.
func New(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) as a Rows x Cols matrix.
func FromSlice(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: data}
}

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyInto makes dst a copy of m, reusing dst's storage (shapes must
// match).
func (m *Dense) CopyInto(dst *Dense) {
	if dst.Rows != m.Rows || dst.Cols != m.Cols {
		panic("tensor: CopyInto shape mismatch")
	}
	copy(dst.Data, m.Data)
}

// Row returns row i (aliases storage).
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Zero clears all elements in place.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// GlorotInit fills m with Glorot/Xavier-uniform values for a layer with
// fanIn inputs and fanOut outputs.
func (m *Dense) GlorotInit(rng *rand.Rand, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

// MatMul returns a·b (a: n×k, b: k×m → n×m).
func MatMul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// The matmul kernels below are blocked for fewer loads and stores but
// keep the textbook per-element arithmetic exactly: every output element
// adds its terms one at a time in ascending k, starting from +0, and the
// sparse variants skip exactly the terms whose a-operand is ±0. The
// blocking only shares loads across *outputs* (independent accumulators
// go across output elements, never across k), so each kernel is bitwise
// identical to the naive loop at every parallelism level; the frozen
// loops in kernel_oracle_test.go pin that.

// MatMulInto computes out = a·b, reusing out's storage, sharded over
// output rows.
//
// The loop order is i-k-j with k unrolled by 4: each output row takes
// one pass per four rows of b, o[j] = o[j] + x0·b0[j] + … + x3·b3[j],
// which Go evaluates left to right — the same four adds, in the same
// order, as four single-term passes, for a quarter of the row loads and
// stores. Every term is kept (the dense kernel never branches on a):
// on dense inputs a never-firing zero test is pure cost. Layers whose
// input provably carries exact zeros use MatMulSparseInto instead.
func MatMulInto(out, a, b *Dense) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch %dx%d = %dx%d · %dx%d",
			out.Rows, out.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	runRows(matMulRows, a.Rows, out, a, b, false)
}

// MatMulSparseInto is MatMulInto with the zero-skip kept: a term whose
// a-entry is an exact zero (post-ReLU or post-dropout activations) skips
// its row of b. The kept terms are fused four per pass among
// themselves, still in ascending k, so the skip costs no fusion.
// Skipped terms contribute exactly 0 for finite inputs, so results match
// MatMulInto bit-for-bit away from ±Inf/NaN. On dense inputs prefer
// MatMulInto.
func MatMulSparseInto(out, a, b *Dense) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulSparseInto shape mismatch %dx%d = %dx%d · %dx%d",
			out.Rows, out.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	runRows(matMulRows, a.Rows, out, a, b, true)
}

// matMulRows is the shared a·b body over output rows [lo, hi): per row
// of a, it gathers the kept terms (all of them, or the nonzero ones when
// sparse) termChunk k at a time and applies them with accumTerms.
func matMulRows(out, a, b *Dense, sparse bool, lo, hi int) {
	kn, m := a.Cols, b.Cols
	var xs [termChunk]float64
	var ks [termChunk]int
	for i := lo; i < hi; i++ {
		arow := a.Data[i*kn : (i+1)*kn]
		orow := out.Data[i*m : (i+1)*m]
		clear(orow)
		for k0 := 0; k0 < kn; k0 += termChunk {
			nt := 0
			for k := k0; k < min(k0+termChunk, kn); k++ {
				if x := arow[k]; !sparse || x != 0 {
					xs[nt], ks[nt] = x, k
					nt++
				}
			}
			accumTerms(orow, xs[:nt], ks[:nt], b.Data)
		}
	}
}

// MatMulT1 returns aᵀ·b (a: k×n, b: k×m → n×m). Used for dW = Xᵀ·dY.
func MatMulT1(a, b *Dense) *Dense {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulT1 shape mismatch %dx%d ᵀ· %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Cols, b.Cols)
	MatMulT1Into(out, a, b)
	return out
}

// MatMulT1Into computes out = aᵀ·b, sharded over output rows (columns of
// a). Within a shard k is the outer loop, in chunks of termChunk rows of
// b that stay cache-resident while every output row of the shard applies
// its terms from them, four per pass as in MatMulInto — instead of b
// being streamed once per output row. Each output element still
// accumulates in ascending k.
// Branch-free like MatMulInto: a is the layer's cached forward input,
// which for aggregate-fed layers (GCN, the SAGE neighbor path) and raw
// features is dense. Layers whose input is provably sparse use
// MatMulT1SparseInto (see nn.Linear.SparseInput).
func MatMulT1Into(out, a, b *Dense) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT1 shape mismatch %dx%d ᵀ· %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	runRows(matMulT1Rows, a.Cols, out, a, b, false)
}

// MatMulT1SparseInto is MatMulT1Into with the zero-skip kept, under the
// same rule as MatMulSparseInto: each exact-zero entry of a
// (post-ReLU/dropout activations) drops its term, and the kept terms
// are fused among themselves. On dense inputs prefer MatMulT1Into.
func MatMulT1SparseInto(out, a, b *Dense) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT1SparseInto shape mismatch %dx%d ᵀ· %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	runRows(matMulT1Rows, a.Cols, out, a, b, true)
}

// matMulT1Rows is the shared aᵀ·b body over output rows [lo, hi). The k
// loop is outer, in chunks of termChunk rows of b, which stay cache-hot
// while every output row of the shard gathers its kept terms from the
// matching column of a and applies them with accumTerms.
func matMulT1Rows(out, a, b *Dense, sparse bool, lo, hi int) {
	n, m, kn := a.Cols, b.Cols, a.Rows
	clear(out.Data[lo*m : hi*m])
	var xs [termChunk]float64
	var ks [termChunk]int
	for k0 := 0; k0 < kn; k0 += termChunk {
		k1 := min(k0+termChunk, kn)
		for i := lo; i < hi; i++ {
			nt := 0
			for k := k0; k < k1; k++ {
				if x := a.Data[k*n+i]; !sparse || x != 0 {
					xs[nt], ks[nt] = x, k
					nt++
				}
			}
			accumTerms(out.Data[i*m:(i+1)*m], xs[:nt], ks[:nt], b.Data)
		}
	}
}

// termChunk is how many k terms the a·b and aᵀ·b bodies gather per call
// to accumTerms: small enough for stack scratch, large enough that the
// call and gather overhead is amortized over many fused passes.
const termChunk = 32

// accumTerms adds Σ_q xs[q]·b_{ks[q]} to o, where b_k is row k of the
// row-major matrix bd with len(o) columns. Terms are applied in q order,
// four per pass: o[j] = o[j] + x0·b0[j] + x1·b1[j] + x2·b2[j] + x3·b3[j]
// evaluates left to right, so every element sees the same adds in the
// same order as one term per pass, for a quarter of the loads and stores
// of o. Because a sparse caller passes only its kept terms, the skip
// costs no fusion: the nonzero terms are fused with each other.
func accumTerms(o, xs []float64, ks []int, bd []float64) {
	m := len(o)
	ks = ks[:len(xs)]
	q := 0
	for ; q+4 <= len(xs); q += 4 {
		x0, x1, x2, x3 := xs[q], xs[q+1], xs[q+2], xs[q+3]
		b0 := bd[ks[q]*m:][:m]
		b1 := bd[ks[q+1]*m:][:m]
		b2 := bd[ks[q+2]*m:][:m]
		b3 := bd[ks[q+3]*m:][:m]
		for j := range o {
			o[j] = o[j] + x0*b0[j] + x1*b1[j] + x2*b2[j] + x3*b3[j]
		}
	}
	for ; q < len(xs); q++ {
		x, bk := xs[q], bd[ks[q]*m:][:m]
		for j := range o {
			o[j] += x * bk[j]
		}
	}
}

// MatMulT2 returns a·bᵀ (a: n×k, b: m×k → n×m). Used for dX = dY·Wᵀ.
func MatMulT2(a, b *Dense) *Dense {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT2 shape mismatch %dx%d · %dx%dᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Rows)
	MatMulT2Into(out, a, b)
	return out
}

// MatMulT2Into computes out = a·bᵀ, sharded over output rows. Every
// output element is a k-ordered dot product; the kernel computes them in
// 2-row × 4-column register tiles, eight independent accumulators that
// share each loaded a and b value, so the FP-add chains overlap without
// reordering any one of them.
func MatMulT2Into(out, a, b *Dense) {
	if a.Cols != b.Cols || out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulT2 shape mismatch %dx%d · %dx%dᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	runRows(matMulT2Rows, a.Rows, out, a, b, false)
}

// matMulT2Rows is the a·bᵀ body over output rows [lo, hi). There is no
// sparse variant; the flag only fills runRows's kernel signature.
func matMulT2Rows(out, a, b *Dense, _ bool, lo, hi int) {
	kn, m := a.Cols, b.Rows
	ad, bd := a.Data, b.Data
	i := lo
	for ; i+2 <= hi; i += 2 {
		a0 := ad[i*kn : (i+1)*kn]
		a1 := ad[(i+1)*kn : (i+2)*kn][:len(a0)]
		o0, o1 := out.Data[i*m:(i+1)*m], out.Data[(i+1)*m:(i+2)*m]
		j := 0
		for ; j+4 <= m; j += 4 {
			b0 := bd[j*kn : (j+1)*kn][:len(a0)]
			b1 := bd[(j+1)*kn : (j+2)*kn][:len(a0)]
			b2 := bd[(j+2)*kn : (j+3)*kn][:len(a0)]
			b3 := bd[(j+3)*kn : (j+4)*kn][:len(a0)]
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			for k, x0 := range a0 {
				x1 := a1[k]
				y0, y1, y2, y3 := b0[k], b1[k], b2[k], b3[k]
				s00 += x0 * y0
				s01 += x0 * y1
				s02 += x0 * y2
				s03 += x0 * y3
				s10 += x1 * y0
				s11 += x1 * y1
				s12 += x1 * y2
				s13 += x1 * y3
			}
			o0[j], o0[j+1], o0[j+2], o0[j+3] = s00, s01, s02, s03
			o1[j], o1[j+1], o1[j+2], o1[j+3] = s10, s11, s12, s13
		}
		for ; j < m; j++ {
			bj := bd[j*kn : (j+1)*kn][:len(a0)]
			var s0, s1 float64
			for k, y := range bj {
				s0 += a0[k] * y
				s1 += a1[k] * y
			}
			o0[j], o1[j] = s0, s1
		}
	}
	if i < hi {
		arow, orow := ad[i*kn:(i+1)*kn], out.Data[i*m:(i+1)*m]
		for j := range orow {
			bj := bd[j*kn : (j+1)*kn][:len(arow)]
			var s float64
			for k, x := range arow {
				s += x * bj[k]
			}
			orow[j] = s
		}
	}
}

// runRows runs a matmul body over n output rows: inline when the pool
// would not shard (parallelism 1 or fewer than two grains of rows),
// otherwise via parallelFor. Taking the inline branch before the shard
// closure is built keeps the serial path — and every small serving
// batch — allocation-free.
func runRows(kern func(out, a, b *Dense, sparse bool, lo, hi int), n int, out, a, b *Dense, sparse bool) {
	if Parallelism() <= 1 || n < 2*rowGrain {
		kern(out, a, b, sparse, 0, n)
		return
	}
	parallelFor(n, rowGrain, func(lo, hi int) { kern(out, a, b, sparse, lo, hi) })
}

// AddBias adds row vector bias (1×Cols) to every row of m, in place.
func (m *Dense) AddBias(bias []float64) {
	if len(bias) != m.Cols {
		panic("tensor: AddBias length mismatch")
	}
	parallelFor(m.Rows, copyGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.Row(i)
			for j := range row {
				row[j] += bias[j]
			}
		}
	})
}

// AddInPlace computes m += other.
func (m *Dense) AddInPlace(other *Dense) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("tensor: AddInPlace shape mismatch")
	}
	parallelFor(len(m.Data), flatGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			m.Data[i] += other.Data[i]
		}
	})
}

// ScaleInPlace computes m *= s.
func (m *Dense) ScaleInPlace(s float64) {
	parallelFor(len(m.Data), flatGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			m.Data[i] *= s
		}
	})
}

// Apply maps f over every element, in place. f must be pure: it is
// invoked concurrently from the worker pool.
func (m *Dense) Apply(f func(float64) float64) {
	parallelFor(len(m.Data), flatGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			m.Data[i] = f(m.Data[i])
		}
	})
}

// ColSums returns the per-column sums (length Cols). Used for bias grads.
func (m *Dense) ColSums() []float64 {
	out := make([]float64, m.Cols)
	m.ColSumsInto(out)
	return out
}

// ColSumsInto accumulates per-column sums into dst (dst is overwritten).
// Each column is summed top to bottom, so the result is independent of
// the parallelism level. The parallel path shards over column ranges and
// each shard still streams whole rows (its slice of every row), so the
// reads stay sequential and each worker owns a disjoint slice of dst.
func (m *Dense) ColSumsInto(dst []float64) {
	if len(dst) != m.Cols {
		panic("tensor: ColSumsInto length mismatch")
	}
	if Parallelism() <= 1 || m.Cols < 2*rowGrain {
		m.colSums(dst, 0, m.Cols)
		return
	}
	parallelFor(m.Cols, rowGrain, func(lo, hi int) { m.colSums(dst, lo, hi) })
}

// colSums writes the sums of columns [lo, hi) into dst[lo:hi].
func (m *Dense) colSums(dst []float64, lo, hi int) {
	d := dst[lo:hi]
	clear(d)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols+lo : i*m.Cols+hi][:len(d)]
		for j, v := range row {
			d[j] += v
		}
	}
}

// GatherRows returns the matrix whose row i is m.Row(idx[i]).
func GatherRows(m *Dense, idx []int32) *Dense {
	out := New(len(idx), m.Cols)
	GatherRowsInto(out, m, idx)
	return out
}

// GatherRowsInto copies m.Row(idx[i]) into out.Row(i), sharded over idx.
func GatherRowsInto(out, m *Dense, idx []int32) {
	if out.Rows != len(idx) || out.Cols != m.Cols {
		panic("tensor: GatherRowsInto shape mismatch")
	}
	parallelFor(len(idx), copyGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			copy(out.Row(i), m.Row(int(idx[i])))
		}
	})
}

// ScatterAddRows adds src.Row(i) into dst.Row(idx[i]) for all i. idx may
// repeat rows, so the parallel path shards over destination-row ranges
// and lets every shard scan the full index list, touching only its own
// rows — write-race free, and each destination row accumulates in the
// same i order as the serial loop (bitwise-identical partial merge).
func ScatterAddRows(dst, src *Dense, idx []int32) {
	if src.Rows != len(idx) || dst.Cols != src.Cols {
		panic("tensor: ScatterAddRows shape mismatch")
	}
	// The volume gate keeps small scatters serial; the row gate keeps
	// them serial when dst has too few rows to amortize each shard's
	// full scan of idx.
	if Parallelism() <= 1 || len(idx)*src.Cols < 4*flatGrain || dst.Rows < 2*rowGrain {
		for i, r := range idx {
			drow := dst.Row(int(r))
			srow := src.Row(i)
			for j := range drow {
				drow[j] += srow[j]
			}
		}
		return
	}
	parallelFor(dst.Rows, 1, func(lo, hi int) {
		for i, r := range idx {
			if int(r) < lo || int(r) >= hi {
				continue
			}
			drow := dst.Row(int(r))
			srow := src.Row(i)
			for j := range drow {
				drow[j] += srow[j]
			}
		}
	})
}

// SoftmaxRows applies a numerically stable softmax to each row, in place.
func (m *Dense) SoftmaxRows() {
	parallelFor(m.Rows, rowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.Row(i)
			max := math.Inf(-1)
			for _, v := range row {
				if v > max {
					max = v
				}
			}
			var sum float64
			for j, v := range row {
				e := math.Exp(v - max)
				row[j] = e
				sum += e
			}
			for j := range row {
				row[j] /= sum
			}
		}
	})
}

// ArgmaxRows returns, for each row, the index of its maximum element.
func (m *Dense) ArgmaxRows() []int {
	out := make([]int, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		best, bestJ := math.Inf(-1), 0
		for j, v := range row {
			if v > best {
				best, bestJ = v, j
			}
		}
		out[i] = bestJ
	}
	return out
}

// FrobeniusNorm returns sqrt(sum of squares).
func (m *Dense) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}
