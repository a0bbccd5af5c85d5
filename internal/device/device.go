package device

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Mode selects between the framework's default execution (fastest available
// algorithms, nondeterministic accumulation) and the deterministic patches.
type Mode int

const (
	// Default lets the simulated scheduler pick accumulation orders.
	Default Mode = iota
	// Deterministic fixes every accumulation order (the software patches the
	// paper's Section 4 prices out).
	Deterministic
)

func (m Mode) String() string {
	if m == Deterministic {
		return "deterministic"
	}
	return "default"
}

// Device executes tensor kernels under a simulated accelerator. It is not
// safe for concurrent use: training replicas each own a Device, and every
// kernel runs serially on its caller's goroutine.
type Device struct {
	cfg     Config
	mode    Mode
	entropy *rng.Stream
	kernels int64 // count of kernel launches, for tests/inspection

	// ws, when set, backs every kernel output tensor (see Alloc). The
	// reused scheduler-order buffer permBuf makes Default-mode entropy
	// draws allocation-free.
	ws      *tensor.Workspace
	permBuf []int

	// kseq holds the current GEMM's commit-ordered k sequence (see
	// commitOrder).
	kseq []int

	// Reused panel-source boxes. Assigning a value struct to the
	// panelSource interface heap-allocates the box on every kernel call;
	// filling a device-owned struct and boxing its pointer does not. The
	// Device is single-caller and each kernel consumes its source before
	// returning, so one box per source kind suffices. (The im2col sources
	// hold a single pointer, which an interface stores without a box.)
	rowSrc rowPanel
	colSrc colPanel

	// plan is the padded-input im2col plan every conv kernel lowers
	// through. It keeps its offset tables across kernels and draws padded
	// copies from the scratch pool, so warm conv kernels allocate nothing.
	plan tensor.Im2ColPlan
}

// New returns a device for the given part. entropy is the hardware-entropy
// stream used to draw scheduler orders in Default mode; it is ignored (and
// may be nil) in Deterministic mode or on systolic parts. In the real world
// this entropy is unobservable scheduler state; the simulation seeds it
// per-replica so experiments are replayable (see DESIGN.md §5).
func New(cfg Config, mode Mode, entropy *rng.Stream) *Device {
	return &Device{cfg: cfg, mode: mode, entropy: entropy}
}

// Config returns the simulated part.
func (d *Device) Config() Config { return d.cfg }

// Mode returns the execution mode.
func (d *Device) Mode() Mode { return d.mode }

// KernelLaunches returns the number of kernels executed so far. A fused
// kernel counts once, like any other launch.
func (d *Device) KernelLaunches() int64 { return d.kernels }

// SetWorkspace attaches an activation workspace: every subsequent kernel
// output tensor (MatMul results, reduction outputs routed through Alloc) is
// drawn from ws instead of the heap, making warm kernel launches
// allocation-free. The caller owns ws's Reset cadence — the training loop
// resets at batch boundaries, after every tensor produced during the batch
// is dead. A nil ws restores plain heap allocation.
func (d *Device) SetWorkspace(ws *tensor.Workspace) { d.ws = ws }

// Workspace returns the attached activation workspace (nil when unset).
func (d *Device) Workspace() *tensor.Workspace { return d.ws }

// Alloc returns an output tensor of the given shape with unspecified
// contents — workspace-backed when a workspace is attached, freshly
// heap-allocated (and therefore zeroed) otherwise. Layers use it for
// outputs they fully overwrite.
func (d *Device) Alloc(shape ...int) *tensor.Tensor {
	if d.ws != nil {
		return d.ws.Get(shape...)
	}
	return tensor.New(shape...)
}

// AllocZero is Alloc with guaranteed-zero contents, for outputs that are
// accumulated into (GEMM partials, scatter targets).
func (d *Device) AllocZero(shape ...int) *tensor.Tensor {
	if d.ws != nil {
		t := d.ws.Get(shape...)
		t.Zero()
		return t
	}
	return tensor.New(shape...)
}

// nondeterministic reports whether this device perturbs accumulation orders.
func (d *Device) nondeterministic() bool {
	return d.mode == Default && !d.cfg.Systolic && d.cfg.CUDACores > 0 && d.entropy != nil
}

// schedOrder draws a scheduler commit order for n partials, or nil for the
// fixed ascending order. The returned slice is device-owned and valid only
// until the next draw — kernels consume it before returning, and the
// Device is single-caller, so draws never overlap.
func (d *Device) schedOrder(n int) []int {
	if n <= 1 || !d.nondeterministic() {
		return nil
	}
	d.permBuf = growInts(d.permBuf, n)
	return d.entropy.PermInto(d.permBuf, n)
}

// growInts grows dst to n elements, reusing its backing array when
// possible. Contents are unspecified; callers overwrite.
func growInts(dst []int, n int) []int {
	if cap(dst) < n {
		return make([]int, n)
	}
	return dst[:n]
}

// MatMul computes C = op(A) × op(B) where op optionally transposes. A is
// (m×k) after op, B is (k×n) after op; the result is (m×n).
//
// In Default mode on a CUDA-core part, the K dimension is split into
// scheduler-ordered chunks (split-K GEMM): each output element accumulates
// its chunk partials in a per-call random order, giving one-ulp-scale
// rounding differences between runs. On Tensor Cores the matmul runs
// through deterministic systolic tiles with fp16 input truncation. On TPU
// and in Deterministic mode the order is fixed.
//
// Execution is the blocked packed-panel kernel of gemm.go: op(B) is packed
// one L2-resident panel at a time (a transposed B is transposed during
// packing, never materialized whole). Chunk boundaries and the per-element
// operation sequence are exactly the reference kernel's (gemm_test.go pins
// this).
func (d *Device) MatMul(a, b *tensor.Tensor, transA, transB bool) *tensor.Tensor {
	d.kernels++
	am, ak := matDims(a, transA)
	bk, bn := matDims(b, transB)
	if ak != bk {
		panic(fmt.Sprintf("device: MatMul inner dims mismatch: %d vs %d", ak, bk))
	}
	ad, scr := materializeA(a, transA)
	var src panelSource
	if transB {
		d.colSrc = colPanel{data: b.Data(), cols: b.Dim(1)}
		src = &d.colSrc
	} else {
		d.rowSrc = rowPanel{data: b.Data(), ld: bn}
		src = &d.rowSrc
	}
	out := d.runGEMM(ad, src, am, ak, bn)
	if scr != nil {
		tensor.PutScratch(scr)
	}
	return out
}

// MatMulIm2Col computes W × im2col(x, g) — the forward convolution GEMM —
// without ever materializing the column matrix: the device's im2col plan
// pads x once, then packs each B panel by a branch-free gather
// (tensor.Im2ColPlan.Panel). One kernel launch, bit-identical to MatMul
// over a materialized im2col matrix, matching cuDNN's fused implicit-GEMM
// convolution.
func (d *Device) MatMulIm2Col(w, x *tensor.Tensor, g tensor.ConvGeom) *tensor.Tensor {
	d.kernels++
	if w.Rank() != 2 || w.Dim(1) != g.ColRows() {
		panic(fmt.Sprintf("device: MatMulIm2Col weight must be (OutC, %d), got %v", g.ColRows(), w.Shape()))
	}
	if !isImage(x, g) {
		panic(fmt.Sprintf("device: MatMulIm2Col input must be (%d, %d, %d, %d), got %v", g.Batch, g.InC, g.InH, g.InW, x.Shape()))
	}
	d.plan.Load(x, g)
	out := d.runGEMM(w.Data(), im2colPanel{&d.plan}, w.Dim(0), g.ColRows(), g.ColCols())
	d.plan.Release()
	return out
}

// MatMulIm2ColT computes A × im2col(x, g)ᵀ — the backward-weights
// convolution GEMM dW = dy × colᵀ — with the transposed column matrix
// gathered panel by panel from the padded input
// (tensor.Im2ColPlan.PanelT); neither col nor colᵀ is ever materialized.
// One kernel launch, bit-identical to the materialized equivalent.
func (d *Device) MatMulIm2ColT(a, x *tensor.Tensor, g tensor.ConvGeom) *tensor.Tensor {
	d.kernels++
	if a.Rank() != 2 || a.Dim(1) != g.ColCols() {
		panic(fmt.Sprintf("device: MatMulIm2ColT operand must be (m, %d), got %v", g.ColCols(), a.Shape()))
	}
	if !isImage(x, g) {
		panic(fmt.Sprintf("device: MatMulIm2ColT input must be (%d, %d, %d, %d), got %v", g.Batch, g.InC, g.InH, g.InW, x.Shape()))
	}
	d.plan.Load(x, g)
	out := d.runGEMM(a.Data(), im2colTPanel{&d.plan}, a.Dim(0), g.ColCols(), g.ColRows())
	d.plan.Release()
	return out
}

// isImage reports whether x is the (Batch, InC, InH, InW) image g
// convolves.
func isImage(x *tensor.Tensor, g tensor.ConvGeom) bool {
	return x.Rank() == 4 && x.Dim(0) == g.Batch && x.Dim(1) == g.InC && x.Dim(2) == g.InH && x.Dim(3) == g.InW
}

// runGEMM resolves the accumulation-order policy into the commit-ordered
// k sequence, then runs the blocked kernel. Tensor-Core parts run the
// deterministic fp16 systolic path and draw no entropy, exactly like the
// reference kernel.
func (d *Device) runGEMM(ad []float32, src panelSource, m, k, n int) *tensor.Tensor {
	out := d.AllocZero(m, n)
	fp16 := d.cfg.TensorCores
	chunks := 1
	var order []int
	if !fp16 && d.nondeterministic() {
		chunks = d.cfg.reorderChunks(k)
		order = d.schedOrder(chunks)
	}
	d.kseq = commitOrder(d.kseq, k, chunks, order)
	gemmBlocked(&gemmArgs{ad: ad, src: src, od: out.Data(), m: m, k: k, n: n, kseq: d.kseq, fp16: fp16})
	return out
}

func matDims(t *tensor.Tensor, trans bool) (rows, cols int) {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("device: MatMul operand must be rank 2, got %v", t.Shape()))
	}
	if trans {
		return t.Dim(1), t.Dim(0)
	}
	return t.Dim(0), t.Dim(1)
}

// materializeA returns t's data row-major as op(A), transposing into
// pooled scratch when op requires it. The second return is the scratch to
// release after the GEMM (nil when t's own storage is used).
func materializeA(t *tensor.Tensor, trans bool) (data, scr []float32) {
	if !trans {
		return t.Data(), nil
	}
	r, c := t.Dim(0), t.Dim(1)
	buf := tensor.GetScratch(r * c)
	transposeInto(buf, t.Data(), r, c)
	return buf, buf
}

// scratchSlice grows dst to n elements, reusing its backing array when
// possible. Contents are unspecified; callers overwrite.
func scratchSlice(dst []float32, n int) []float32 {
	if cap(dst) < n {
		return make([]float32, n)
	}
	return dst[:n]
}

// SumRows reduces an (rows × cols) matrix over its columns, producing one
// float32 per row (bias gradients, per-channel statistics). The reduction
// runs through scheduler-ordered chunks in Default mode. Allocates a fresh
// output; hot paths should use SumRowsInto with a reused buffer.
func (d *Device) SumRows(m *tensor.Tensor) []float32 { return d.SumRowsInto(m, nil) }

// SumRowsInto is SumRows writing into dst (grown as needed, returned).
// Each row draws its own chunk order, in row order, just before it is
// reduced.
func (d *Device) SumRowsInto(m *tensor.Tensor, dst []float32) []float32 {
	d.kernels++
	if m.Rank() != 2 {
		panic(fmt.Sprintf("device: SumRows requires rank 2, got %v", m.Shape()))
	}
	rows, cols := m.Dim(0), m.Dim(1)
	out := scratchSlice(dst, rows)
	chunks := 1
	if d.nondeterministic() {
		chunks = d.cfg.reorderChunks(cols)
	}
	data := m.Data()
	for r := 0; r < rows; r++ {
		out[r] = reduceChunkedOrder(data[r*cols:(r+1)*cols], chunks, d.schedOrder(chunks))
	}
	return out
}

// SumCols reduces an (rows × cols) matrix over its rows, producing one
// float32 per column. The per-column reduction over rows runs through
// scheduler-ordered chunks in Default mode. Allocates a fresh output; hot
// paths should use SumColsInto with a reused buffer.
func (d *Device) SumCols(m *tensor.Tensor) []float32 { return d.SumColsInto(m, nil) }

// SumColsInto is SumCols writing into dst (grown as needed, returned).
// Every column accumulates in the same chunk order, drawn once.
func (d *Device) SumColsInto(m *tensor.Tensor, dst []float32) []float32 {
	d.kernels++
	if m.Rank() != 2 {
		panic(fmt.Sprintf("device: SumCols requires rank 2, got %v", m.Shape()))
	}
	rows, cols := m.Dim(0), m.Dim(1)
	out := scratchSlice(dst, cols)
	for i := range out {
		out[i] = 0
	}
	chunks := 1
	if d.nondeterministic() {
		chunks = d.cfg.reorderChunks(rows)
	}
	order := d.schedOrder(chunks)
	data := m.Data()
	for ci := 0; ci < chunks; ci++ {
		c := ci
		if order != nil {
			c = order[ci]
		}
		lo := c * rows / chunks
		hi := (c + 1) * rows / chunks
		for r := lo; r < hi; r++ {
			vadd(data[r*cols:r*cols+cols], out)
		}
	}
	return out
}

// ReduceSum reduces a vector to a scalar under the device's accumulation
// policy (loss averaging, squared-sum statistics).
func (d *Device) ReduceSum(xs []float32) float32 {
	d.kernels++
	chunks := 1
	if d.nondeterministic() {
		chunks = d.cfg.reorderChunks(len(xs))
	}
	return reduceChunkedOrder(xs, chunks, d.schedOrder(chunks))
}

// reduceChunkedOrder sums xs through the given chunk commit order (nil =
// ascending), rounding each chunk's partial independently.
func reduceChunkedOrder(xs []float32, chunks int, order []int) float32 {
	if chunks <= 1 {
		var s float32
		for _, v := range xs {
			s += v
		}
		return s
	}
	var s float32
	for ci := 0; ci < chunks; ci++ {
		c := ci
		if order != nil {
			c = order[ci]
		}
		lo := c * len(xs) / chunks
		hi := (c + 1) * len(xs) / chunks
		var p float32
		for _, v := range xs[lo:hi] {
			p += v
		}
		s += p
	}
	return s
}

// Col2Im scatters a column matrix back into an image tensor, accumulating
// overlapping windows — the simulated analogue of cuDNN's atomicAdd-based
// backward-data kernels. The scatter adds onto dst's current contents
// (callers that want the plain col2im zero it first). In Default mode the
// per-kernel-offset scatter order is drawn from the scheduler; overlapping
// float32 adds then round differently between runs. The scatter goes
// through the device's im2col plan into a padded accumulator.
func (d *Device) Col2Im(col *tensor.Tensor, g tensor.ConvGeom, dst *tensor.Tensor) {
	d.kernels++
	if col.Rank() != 2 || col.Dim(0) != g.ColRows() || col.Dim(1) != g.ColCols() {
		panic(fmt.Sprintf("device: Col2Im column matrix must be (%d, %d), got %v", g.ColRows(), g.ColCols(), col.Shape()))
	}
	if !isImage(dst, g) {
		panic(fmt.Sprintf("device: Col2Im destination must be (%d, %d, %d, %d), got %v", g.Batch, g.InC, g.InH, g.InW, dst.Shape()))
	}
	order := d.schedOrder(g.ColRows())
	d.plan.Col2Im(col, g, dst, order)
}

// SetIntraOpThreshold has no effect: kernels run serially on their
// caller's goroutine at every setting. Its only caller is perfbench's
// kernel probe, and ROADMAP item 4(a) removes that call and this stub
// together.
func SetIntraOpThreshold(int64) {}
